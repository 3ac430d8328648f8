//! The probe of `campaignd_submit` (unlisted, see `spec::UNLISTED`): a
//! `CampaignServer` fanning an 8-run paper-scenario grid out to `nproc`
//! re-exec'd socket workers over loopback, one client's sequential
//! submissions for the submit latency, and the service's layers timed
//! against it.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use campaignd::{
    client, spawn_socket_workers, CampaignServer, RunningCampaignServer, SocketFanout, WorkerPool,
    WorkerProcs,
};
use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Executor, Serial};
use its_testbed::submission::{encode_submission, CampaignSubmission};
use its_testbed::{RunRecord, ScenarioConfig};
use shard::protocol::encode_results;

use crate::harness::Report;
use crate::stats::{median, quantile};
use crate::trace::ROOT;
use crate::{host, spec};

const CAMPAIGN: &str = "perfbench_grid";
/// The workers derive the grid from the same seed as the server: the
/// registry is plain code, so the seed travels in the environment the
/// re-exec'd workers inherit.
const SEED_ENV: &str = "PERFBENCH_GRID_SEED";
/// Runs per spec; two specs (the Table II and Table III seed blocks)
/// make an 8-run grid.
const RUNS_PER_SPEC: usize = 4;
/// Samples for each latency.
const SAMPLES: usize = 60;

fn grid_for(seed: u64) -> Vec<CampaignSpec> {
    let base = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    vec![
        CampaignSpec::new(base.clone(), RUNS_PER_SPEC),
        CampaignSpec::with_seed_offset(base, 1000, RUNS_PER_SPEC),
    ]
}

fn grid() -> Vec<CampaignSpec> {
    let seed = std::env::var(SEED_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(spec::DEFAULT_SEED);
    grid_for(seed)
}

/// The campaigns this binary serves (and its socket workers compute).
pub fn registry() -> CampaignRegistry {
    CampaignRegistry::new().register(CAMPAIGN, grid)
}

/// The grid as a client submits it, with the bytes a correct server
/// returns (the `Serial` records, result-stream encoded).
struct Grid {
    specs: Vec<CampaignSpec>,
    records: Vec<RunRecord>,
    frame: Vec<u8>,
    expected: Vec<u8>,
}

fn make_grid(seed: u64) -> Grid {
    let specs = grid_for(seed);
    let records: Vec<RunRecord> = specs.iter().flat_map(|s| Serial.execute(s)).collect();
    Grid {
        frame: encode_submission(&CampaignSubmission::for_grid(CAMPAIGN, &specs)),
        expected: encode_results(&records),
        specs,
        records,
    }
}

/// A running server with its registered socket workers.
struct Service {
    server: RunningCampaignServer,
    workers: Vec<SocketAddr>,
    _procs: WorkerProcs,
    _pool: WorkerPool,
}

fn start(n: usize) -> std::io::Result<Service> {
    let pool = WorkerPool::bind()?;
    let procs = spawn_socket_workers(n, pool.ctrl_addr())?;
    if !pool.wait_for(n, Duration::from_secs(30)) {
        return Err(std::io::Error::other("socket workers did not register"));
    }
    let workers = pool.workers();
    let server = CampaignServer::new(registry())
        .with_workers(workers.clone())
        .serve("127.0.0.1:0")?;
    Ok(Service {
        server,
        workers,
        _procs: procs,
        _pool: pool,
    })
}

/// Stands up the service for the grid of `seed` and measures its
/// layers: the HTTP round trip, then [`SAMPLES`] pairs of one client
/// submission (each reply must be 200 and the `Serial` bytes) and one
/// direct fan-out of the same grid to the workers, so that each pair's
/// difference is the front door's time, and the wire codec.
pub fn probe(report: &mut Report, seed: u64) {
    let n = host::nproc();
    std::env::set_var(SEED_ENV, seed.to_string());
    let grid = make_grid(seed);
    let service = match start(n) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("service set-up failed: {e}"));
            return;
        }
    };
    report.workers = service.workers.len();
    let records = &grid.records;
    let root = report.spans.open("campaignd_probe", ROOT);
    let addr = service.server.addr();
    let mut rtt = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let ok = matches!(openc2x::http::request(addr, "GET", "/campaigns", b""), Ok(r) if r.status == 200);
        rtt.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(ok, || "GET /campaigns failed".into());
    }
    let fanout = SocketFanout::new(CAMPAIGN, grid.specs.clone());
    let (mut submit_ms, mut fan_ms) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        let span = report.spans.open("campaignd.submit", root);
        let t = Instant::now();
        let ok = matches!(client::submit_raw(addr, &grid.frame), Ok(r) if r.status == 200 && r.body == grid.expected);
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.spans.close(span);
        report.check(ok, || "submission failed or differed from Serial".into());
        let span = report.spans.open("shard.fanout", root);
        let t = Instant::now();
        let out = fanout.run_flat(&service.workers);
        fan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.spans.close(span);
        report.check(out == *records, || {
            "fan-out records differ from Serial".into()
        });
    }
    let front_door_ms: Vec<f64> = submit_ms.iter().zip(&fan_ms).map(|(s, f)| s - f).collect();
    let encoded: Vec<Vec<u8>> = records.iter().map(RunRecord::encode).collect();
    let reps = 2_000;
    let t = Instant::now();
    for _ in 0..reps {
        for r in records.iter() {
            std::hint::black_box(r.encode());
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (reps * records.len()) as f64;
    let t = Instant::now();
    for _ in 0..reps {
        for bytes in &encoded {
            std::hint::black_box(RunRecord::decode(bytes).is_ok());
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (reps * records.len()) as f64;
    report.spans.close(root);

    let out = &mut report.layers;
    out.set("openc2x.http_rtt_ms", median(&rtt));
    out.set("core.wire.encode_ns_per_record", encode_ns);
    out.set("core.wire.decode_ns_per_record", decode_ns);
    out.set(
        "core.wire.bytes_per_record",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64,
    );
    out.set("shard.fanout_ms", median(&fan_ms));
    out.set(
        "shard.fallback_chunks",
        (service.server.fallback_chunks() + fanout.fallback_chunks()) as f64,
    );
    out.set(
        "shard.timed_out_chunks",
        (service.server.timed_out_chunks() + fanout.timed_out_chunks()) as f64,
    );
    out.set("campaignd.front_door_ms", median(&front_door_ms));
    report.notes.push(format!(
        "campaignd probe: submit p50 {:.3} ms, p90 {:.3} ms; fan-out p90 {:.3} ms; HTTP round trip p90 {:.3} ms",
        median(&submit_ms),
        quantile(&submit_ms, 0.9),
        quantile(&fan_ms, 0.9),
        quantile(&rtt, 0.9)
    ));
    service.server.shutdown();
}

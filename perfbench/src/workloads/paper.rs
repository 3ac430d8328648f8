//! `paper_campaign`: the Table II + Table III campaign on the Runner.

use its_testbed::campaign::{CampaignSpec, Executor, Serial};
use its_testbed::experiments::{table2, table3};
use its_testbed::scenario::Event;
use its_testbed::{RunRecord, Scenario, ScenarioConfig};
use phy80211p::Position2D;
use sim_core::{EventQueue, SimDuration, SimRng, SimTime};

use super::{fnv, run_batches, Replay, FNV_OFFSET};
use crate::harness::{Args, Report};
use crate::stats::{mean, median};
use crate::trace::{Timed, ROOT};
use crate::{host, layers, spec};

/// Runs per table in one measured batch: 128 distinct runs, about 0.3 s
/// on two threads, so a 55 s run times over a hundred batches.
const RUNS_PER_TABLE: usize = 64;
/// Runs per table of the pinned-fingerprint campaign.
const FINGERPRINT_RUNS: usize = 256;
/// The pinned fingerprints: mean Table II total delay and mean Table III
/// braking distance over 256 runs at the default seed.
const TABLE2_MS: &str = "53.6602";
const TABLE3_M: &str = "0.376621";
/// Runs replayed event by event for the ledger.
const REPLAYS: usize = 4;

const KINDS: &[&str] = &[
    "event.control_tick",
    "event.camera_frame",
    "event.detection_output",
    "event.trigger_arrives",
    "event.rsu_mac_handoff",
    "event.obu_rx",
    "event.rsu_cam_rx",
    "event.vehicle_poll",
    "event.planner_notified",
    "event.power_cut",
    "event.rsu_heartbeat",
    "event.obu_cam_rx",
];
const TICK: usize = 0;
const FRAME: usize = 1;
const DETECTION: usize = 2;
const HANDOFF: usize = 4;
const OBU_RX: usize = 5;
const CAM_RX: usize = 6;
const NOTIFIED: usize = 8;

fn kind(event: &Event) -> usize {
    match event {
        Event::ControlTick => 0,
        Event::CameraFrame => 1,
        Event::DetectionOutput(_) => 2,
        Event::TriggerArrives => 3,
        Event::RsuMacHandoff => 4,
        Event::ObuRx { .. } => 5,
        Event::RsuCamRx { .. } => 6,
        Event::VehiclePoll => 7,
        Event::PlannerNotified { .. } => 8,
        Event::PowerCutApplied => 9,
        Event::RsuHeartbeat => 10,
        _ => 11,
    }
}

fn specs(seed: u64) -> Vec<CampaignSpec> {
    let base = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    vec![
        CampaignSpec::new(base.clone(), RUNS_PER_TABLE),
        CampaignSpec::with_seed_offset(base, 1000, RUNS_PER_TABLE),
    ]
}

fn campaign(exec: &impl Executor, specs: &[CampaignSpec]) -> Vec<RunRecord> {
    specs.iter().flat_map(|s| s.execute(exec)).collect()
}

fn digest(records: &[RunRecord]) -> u64 {
    records.iter().fold(FNV_OFFSET, |h, r| fnv(h, &r.encode()))
}

/// A cold set-up: the batch's inputs, the executor and its first batch,
/// returning the digest of the outputs.
pub fn first_batch(seed: u64) -> u64 {
    let specs = specs(seed);
    let exec = Timed::new(host::nproc());
    digest(&campaign(&exec, &specs))
}

pub fn run(args: &Args) -> Report {
    let threads = host::nproc();
    let exec = Timed::new(threads);
    let mut report = Report::new(threads);

    let canon = ScenarioConfig {
        seed: spec::DEFAULT_SEED,
        ..ScenarioConfig::default()
    };
    let t2 = table2(&exec, &canon, FINGERPRINT_RUNS);
    let t3 = table3(&exec, &canon, FINGERPRINT_RUNS);
    let fingerprints = (
        format!("{:.4}", mean(&t2.total)),
        format!("{:.6}", t3.mean()),
    );
    report.notes.push(format!(
        "fingerprints: table2 {} ms, table3 {} m",
        fingerprints.0, fingerprints.1
    ));
    report.check(fingerprints == (TABLE2_MS.into(), TABLE3_M.into()), || {
        format!("fingerprints {fingerprints:?}, expected ({TABLE2_MS}, {TABLE3_M})")
    });

    let specs = specs(args.seed);
    let reference = campaign(&Serial, &specs);
    for (i, r) in reference.iter().enumerate() {
        report.check(r.completed(), || {
            format!("reference run {i} did not complete")
        });
    }
    let totals: Vec<f64> = reference
        .iter()
        .filter_map(|r| r.total_delay_ms())
        .map(|ms| ms as f64)
        .collect();

    let setups = super::cold_setups(args, &mut report, digest(&reference));
    let batches = run_batches(
        args,
        &exec,
        &mut report,
        &reference,
        |e| campaign(e, &specs),
        RunRecord::clone,
    );

    report.set_throughput(&batches, exec.busiest_s());
    report.e2e.push(("setup_s", median(&setups)));
    report.e2e.push(("peak_rss_mb", host::peak_rss_mb()));
    report.e2e.push(("sim_latency_ms", mean(&totals)));

    if args.trace {
        report.set_process_layers(&batches);
        report
            .layers
            .set("runner.busy_imbalance", exec.busy_imbalance());
        report.spans = exec.spans.take();
        ledger(&mut report, &specs[0].base, &reference);
        super::campaignd::probe(&mut report, args.seed);
    }
    report
}

/// Replays runs event by event, times the layers on the campaign's own
/// inputs, and assembles the ledger.
fn ledger(report: &mut Report, base: &ScenarioConfig, reference: &[RunRecord]) {
    let root = report.spans.open("ledger", ROOT);
    let mut replay = Replay::new(kind, KINDS);
    for (i, expected) in reference.iter().take(REPLAYS).enumerate() {
        let cfg = ScenarioConfig {
            seed: base.seed + i as u64,
            ..base.clone()
        };
        let dispatched = replay_run(&cfg, &mut replay, report, root);
        report.check(dispatched == expected.events_dispatched, || {
            format!(
                "replayed run {i} dispatched {dispatched} events, the run {}",
                expected.events_dispatched
            )
        });
    }
    let ticks = replay.per_run(TICK);
    let frames = replay.per_run(FRAME);
    let detections = replay.per_run(DETECTION);
    let handoffs = replay.per_run(HANDOFF);
    let obu_rx = replay.per_run(OBU_RX);
    let cams = replay.per_run(CAM_RX);
    let notified = replay.per_run(NOTIFIED);

    let dt = base.control_period.as_secs_f64();
    let halt = reference[0].halt_distance_to_camera_m.unwrap_or(0.0);
    let mut sink = layers::Sink {
        out: &mut report.layers,
        spans: &mut report.spans,
        parent: root,
    };
    layers::vision(
        &mut sink,
        base.start_distance_m,
        halt,
        ticks as usize,
        dt,
        base.vehicle.wheelbase_m,
        base.seed,
    );
    layers::engine(
        &mut sink,
        &[
            base.control_period,
            base.camera.frame_period(),
            base.polling.period,
        ],
    );
    layers::dynamics(
        &mut sink,
        base.vehicle,
        base.cruise_speed_mps,
        base.cruise_throttle,
        dt,
        ticks as usize,
    );
    let n_frames = (frames as usize).max(2);
    let distances: Vec<f64> = (0..n_frames)
        .map(|k| {
            base.start_distance_m
                - (base.start_distance_m - halt) * k as f64 / (n_frames - 1) as f64
        })
        .collect();
    layers::perception(
        &mut sink,
        &base.yolo,
        base.appearance,
        &distances,
        base.action_point_m,
        base.camera.frame_period(),
        base.seed,
    );
    layers::messaging(&mut sink, base.cruise_speed_mps, 0);
    let links: Vec<(Position2D, Position2D)> = distances
        .iter()
        .map(|&x| (Position2D::new(x, 0.0), base.rsu_position))
        .collect();
    let cam_len = sink.out.get("uper.cam.bytes") as usize + 60;
    layers::channel(&mut sink, base.channel.clone(), &links, cam_len, base.seed);
    report.spans.close(root);

    report
        .layers
        .set("sim_core.events_per_run", replay.events_per_run());
    report.layers.set("vehicle.linefollow.calls_per_run", ticks);
    report.notes.extend(replay.notes());
    report.run_wall_ns = replay.run_ns();
    report.close_ledger(&[
        ("sim_core.ns_per_event", replay.events_per_run()),
        ("vehicle.linefollow.steering_ns", ticks),
        ("vehicle.dynamics.step_ns", ticks),
        ("perception.detector_ns", frames),
        ("perception.hazard_ns", detections),
        ("facilities.ldm_insert_ns", detections),
        ("facilities.den_poll_ns", handoffs),
        ("facilities.ca_generate_ns", cams),
        ("uper.cam.encode_ns", cams),
        ("uper.cam.decode_ns", cams),
        ("uper.denm.encode_ns", handoffs),
        ("uper.denm.decode_ns", obu_rx + notified),
        ("geonet.encode_ns", cams + handoffs),
        ("geonet.parse_ns", cams + obu_rx),
        ("geonet.forward_ns", obu_rx),
        ("phy80211p.transmit_ns", cams + handoffs),
    ]);
}

/// Drives one scenario through its public event handler with the same
/// initial schedule `Scenario::run` uses, returning the events
/// dispatched (which must equal the run's own count).
fn replay_run(
    cfg: &ScenarioConfig,
    replay: &mut Replay<Event>,
    report: &mut Report,
    parent: u32,
) -> u64 {
    let make = || {
        let mut queue: EventQueue<Event> = EventQueue::new();
        queue.schedule_at(SimTime::ZERO, Event::ControlTick);
        queue.schedule_at(
            cfg.camera.next_frame_completion(SimTime::ZERO),
            Event::CameraFrame,
        );
        let phase = SimDuration::from_secs_f64(
            SimRng::seed_from(cfg.seed).fork("timing").f64() * cfg.polling.period.as_secs_f64(),
        );
        queue.schedule_at(
            cfg.polling.next_poll(SimTime::ZERO, phase),
            Event::VehiclePoll,
        );
        (Scenario::new(cfg.clone()), queue)
    };
    replay.run(make, SimTime::ZERO + cfg.timeout, &mut report.spans, parent)
}

//! `intersection_faults`: the intersection scenario over the four
//! cooperative fault classes at three intensities, plus the faultless
//! scenario with collective perception on and off.

use faults::FaultPlan;
use its_testbed::coopsweep::{intersection_cell_config, intersection_outcome, COOP_FAULT_CLASSES};
use its_testbed::faultsweep::INTENSITIES;
use its_testbed::intersection::{
    Event, IntersectionConfig, IntersectionRecord, IntersectionScenario,
};
use phy80211p::{ChannelConfig, Obstacle, Position2D};
use sim_core::{EventQueue, SimDuration, SimRng, SimTime};

use super::{fnv, run_batches, Replay, FNV_OFFSET};
use crate::harness::{Args, Report};
use crate::stats::{mean, median};
use crate::trace::{Timed, ROOT};
use crate::{host, layers};

/// Seeds per grid cell in one batch: 14 cells x 32 seeds = 448 runs.
const SEEDS_PER_CELL: u64 = 32;
/// Runs replayed event by event for the ledger (one per cell).
const REPLAY_CELLS: usize = 14;

const KINDS: &[&str] = &[
    "event.control_tick",
    "event.camera_frame",
    "event.detection_output",
    "event.trigger_arrives",
    "event.obu_rx",
    "event.vehicle_poll",
    "event.power_cut",
    "event.cpm_rx",
    "event.other",
];
const TICK: usize = 0;
const FRAME: usize = 1;
const TRIGGER: usize = 3;
const OBU_RX: usize = 4;
const CPM_RX: usize = 7;

fn kind(event: &Event) -> usize {
    match event {
        Event::ControlTick => 0,
        Event::CameraFrame => 1,
        Event::DetectionOutput { .. } => 2,
        Event::TriggerArrives => 3,
        Event::ObuRx => 4,
        Event::VehiclePoll => 5,
        Event::PowerCut => 6,
        Event::CpmRx { .. } => 7,
        _ => 8,
    }
}

/// The grid's configurations, cell-major: each fault class at each
/// intensity, then the faultless scenario with CPM on and off.
fn configs(seed: u64) -> Vec<IntersectionConfig> {
    let mut cells: Vec<Box<dyn Fn(u64) -> IntersectionConfig>> = Vec::new();
    for class in COOP_FAULT_CLASSES {
        for intensity in INTENSITIES {
            cells.push(Box::new(move |s| {
                intersection_cell_config(class, intensity, s)
            }));
        }
    }
    cells.push(Box::new(|s| IntersectionConfig {
        fault_plan: FaultPlan::default(),
        ..intersection_cell_config("radio_silence", 0.0, s)
    }));
    cells.push(Box::new(|s| IntersectionConfig {
        seed: s,
        ..IntersectionConfig::default()
    }));
    cells
        .iter()
        .flat_map(|cell| (0..SEEDS_PER_CELL).map(move |k| cell(seed + k)))
        .collect()
}

/// Everything a run reports, as comparable bits.
#[derive(PartialEq)]
struct Key {
    outcome: Vec<u8>,
    trace: u64,
    separation: u64,
    margin: Option<u64>,
    cpm: (u64, u64),
}

fn key(r: &IntersectionRecord) -> Key {
    Key {
        outcome: intersection_outcome(r).encode(),
        trace: r.trace.digest(),
        separation: r.min_separation_m.to_bits(),
        margin: r.halt_margin_m.map(f64::to_bits),
        cpm: (r.cpm_sent, r.cpm_delivered),
    }
}

fn digest(keys: &[Key]) -> u64 {
    keys.iter().fold(FNV_OFFSET, |h, k| {
        let mut h = fnv(h, &k.outcome);
        for word in [
            k.trace,
            k.separation,
            k.margin.unwrap_or(u64::MAX),
            k.cpm.0,
            k.cpm.1,
        ] {
            h = fnv(h, &word.to_le_bytes());
        }
        h
    })
}

/// A cold set-up: the grid's configurations, the executor and its
/// first batch, returning the digest of the outputs.
pub fn first_batch(seed: u64) -> u64 {
    let configs = configs(seed);
    let exec = Timed::new(host::nproc());
    digest(&grid(&exec, &configs).iter().map(key).collect::<Vec<_>>())
}

/// Detection-to-action latency: the edge's conflict decision to the
/// vehicle's power cut, ms.
fn latency_ms(r: &IntersectionRecord) -> Option<f64> {
    let decided = r.trace.first_of_kind("conflict")?.time;
    Some(
        r.actuation?
            .saturating_duration_since(decided)
            .as_secs_f64()
            * 1e3,
    )
}

fn grid(exec: &Timed, configs: &[IntersectionConfig]) -> Vec<IntersectionRecord> {
    exec.run(configs.len(), |i| {
        IntersectionScenario::new(configs[i].clone()).run()
    })
}

pub fn run(args: &Args) -> Report {
    let threads = host::nproc();
    let exec = Timed::new(threads);
    let mut report = Report::new(threads);
    let configs = configs(args.seed);
    let serial: Vec<IntersectionRecord> = configs
        .iter()
        .map(|c| IntersectionScenario::new(c.clone()).run())
        .collect();
    let reference: Vec<Key> = serial.iter().map(key).collect();
    let latencies: Vec<f64> = serial.iter().filter_map(latency_ms).collect();
    report.check(!latencies.is_empty(), || "no run reached actuation".into());

    let setups = super::cold_setups(args, &mut report, digest(&reference));
    let batches = run_batches(
        args,
        &exec,
        &mut report,
        &reference,
        |e| grid(e, &configs),
        key,
    );
    report.set_throughput(&batches, exec.busiest_s());
    report.e2e.push(("setup_s", median(&setups)));
    report.e2e.push(("peak_rss_mb", host::peak_rss_mb()));
    report.e2e.push(("sim_latency_ms", mean(&latencies)));

    if args.trace {
        report.set_process_layers(&batches);
        report
            .layers
            .set("runner.busy_imbalance", exec.busy_imbalance());
        report.spans = exec.spans.take();
        ledger(&mut report, &configs, &serial);
        super::city::probe(&mut report, args.seed);
    }
    report
}

fn ledger(report: &mut Report, configs: &[IntersectionConfig], serial: &[IntersectionRecord]) {
    let root = report.spans.open("ledger", ROOT);
    let mut replay = Replay::new(kind, KINDS);
    let stride = configs.len() / REPLAY_CELLS;
    for cell in 0..REPLAY_CELLS {
        replay_run(&configs[cell * stride], &mut replay, report, root);
    }
    let n = REPLAY_CELLS as f64;
    let cpm_sent = (0..REPLAY_CELLS)
        .map(|c| serial[c * stride].cpm_sent as f64)
        .sum::<f64>()
        / n;
    let ticks = replay.per_run(TICK);
    let frames = replay.per_run(FRAME);
    let triggers = replay.per_run(TRIGGER);
    let obu_rx = replay.per_run(OBU_RX);
    let cpm_rx = replay.per_run(CPM_RX);

    let base = &configs[0];
    let dt = base.control_period.as_secs_f64();
    let mut sink = layers::Sink {
        out: &mut report.layers,
        spans: &mut report.spans,
        parent: root,
    };
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
        base.protagonist_speed_mps,
        0.214,
        dt,
        ticks as usize,
    );
    let n_frames = (frames as usize).max(2);
    let distances: Vec<f64> = (0..n_frames)
        .map(|k| base.road_user_start_m * (1.0 - k as f64 / n_frames as f64))
        .collect();
    layers::perception(
        &mut sink,
        &base.yolo,
        perception::TargetAppearance::WithStopSign,
        &distances,
        base.action_point_m,
        base.camera.frame_period(),
        base.seed,
    );
    layers::messaging(&mut sink, base.protagonist_speed_mps, 1);
    let cams = layers::cams_per_run(ticks as usize, dt, base.protagonist_speed_mps);
    let mut channel = ChannelConfig::default();
    channel.obstacles.push(Obstacle {
        min: Position2D::new(0.5, 0.5),
        max: Position2D::new(50.0, 50.0),
        extra_loss_db: base.corner_loss_db,
    });
    let links: Vec<(Position2D, Position2D)> = (0..ticks.max(2.0) as usize)
        .map(|k| {
            let x = base.protagonist_start_m - base.protagonist_speed_mps * dt * k as f64;
            (Position2D::new(x, 0.0), Position2D::new(-1.0, -1.0))
        })
        .collect();
    let cam_len = sink.out.get("uper.cam.bytes") as usize + 60;
    layers::channel(&mut sink, channel, &links, cam_len, base.seed);
    report.spans.close(root);

    report
        .layers
        .set("sim_core.events_per_run", replay.events_per_run());
    report.notes.extend(replay.notes());
    report.run_wall_ns = replay.run_ns();
    report.close_ledger(&[
        ("sim_core.ns_per_event", replay.events_per_run()),
        ("vehicle.dynamics.step_ns", 2.0 * ticks),
        ("perception.detector_ns", frames),
        ("facilities.ca_generate_ns", cams),
        ("uper.cam.encode_ns", cams),
        ("uper.cam.decode_ns", cams),
        ("geonet.encode_ns", cams + triggers),
        ("geonet.parse_ns", cams + obu_rx),
        ("facilities.den_poll_ns", triggers),
        ("uper.denm.encode_ns", triggers),
        ("uper.denm.decode_ns", obu_rx),
        ("facilities.cpm_poll_ns", frames),
        ("uper.cpm.encode_ns", cpm_sent),
        ("uper.cpm.decode_ns", cpm_rx),
        ("facilities.ldm_insert_ns", cpm_rx),
        ("phy80211p.transmit_ns", cams + triggers + cpm_sent),
    ]);
}

/// Drives one scenario through its public event handler with the
/// initial schedule `IntersectionScenario::run` uses.
fn replay_run(
    cfg: &IntersectionConfig,
    replay: &mut Replay<Event>,
    report: &mut Report,
    parent: u32,
) {
    let make = || {
        let mut queue: EventQueue<Event> = EventQueue::new();
        queue.schedule_at(SimTime::ZERO, Event::ControlTick);
        if cfg.with_infrastructure {
            queue.schedule_at(
                cfg.camera.next_frame_completion(SimTime::ZERO),
                Event::CameraFrame,
            );
            let phase = SimDuration::from_secs_f64(
                SimRng::seed_from(cfg.seed).fork("run").f64() * cfg.polling.period.as_secs_f64(),
            );
            queue.schedule_at(
                cfg.polling.next_poll(SimTime::ZERO, phase),
                Event::VehiclePoll,
            );
        }
        (IntersectionScenario::new(cfg.clone()), queue)
    };
    replay.run(make, SimTime::ZERO + cfg.timeout, &mut report.spans, parent);
}

//! Per-call timings of each layer's public functions, on inputs shaped
//! like a workload's own. Everything here calls the program's public
//! API from outside; nothing inside the program is instrumented.

use std::hint::black_box;
use std::time::Instant;

use facilities::{
    CaService, CamTriggerConfig, CpService, CpServiceConfig, Cpm, CpmPerceivedObject, DenRequest,
    DenService, Ldm, ObjectClass, PerceivedObject, StationState,
};
use its_messages::cam::Cam;
use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::{ReferencePosition, StationId, StationType, TimestampIts};
use its_messages::denm::Denm;
use openc2x::{ItsStation, StationConfig};
use perception::{
    Detection, GroundTruthTarget, HazardAdvertisementService, HazardConfig, TargetAppearance,
    Tracker, TrackerConfig, YoloModel,
};
use phy80211p::channel::LinkCache;
use phy80211p::{Channel, ChannelConfig, DataRate, Position2D};
use sim_core::{EventQueue, NodeClock, SimDuration, SimRng, SimTime};
use vehicle::linefollow::{detect_edges_into, hough_lines_into, CameraModel, HoughScratch};
use vehicle::{BicycleState, LineFollower, LongitudinalModel, Track, VehicleParams};

use crate::trace::{now_ns, Span, SpanLog};

/// Minimum time spent timing one function, so that short calls are
/// averaged over many repetitions.
const MIN_NS: u128 = 20_000_000;
/// Minimum length of one timed round; a function's time is its fastest
/// round, as a run's time is its fastest repetition.
const ROUND_NS: u128 = 500_000;
/// Calls per round when each call is timed on its own.
const PREPARED_ROUND: u64 = 32;

/// The per-layer values gathered on one workload, by metric name.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Where timings go: the named values, and a span per timing loop
/// under `parent`.
pub struct Sink<'a> {
    pub out: &'a mut Layers,
    pub spans: &'a mut SpanLog,
    pub parent: u32,
}

/// Times `call(i)` over `0..n` round-robin for at least [`MIN_NS`],
/// in rounds of at least [`ROUND_NS`]; records the loop as a span named
/// `name` and returns ns per call of the fastest round.
fn ns_per_call(
    spans: &mut SpanLog,
    parent: u32,
    name: &'static str,
    n: usize,
    mut call: impl FnMut(usize),
) -> f64 {
    assert!(n > 0, "{name}: no inputs");
    let start_ns = now_ns();
    let budget = Instant::now();
    let mut fastest = f64::INFINITY;
    while budget.elapsed().as_nanos() < MIN_NS {
        let round = Instant::now();
        let mut calls = 0u64;
        while round.elapsed().as_nanos() < ROUND_NS {
            for i in 0..n {
                call(black_box(i));
            }
            calls += n as u64;
        }
        fastest = fastest.min(round.elapsed().as_nanos() as f64 / calls as f64);
    }
    spans.push(Span {
        name,
        start_ns,
        end_ns: now_ns(),
        parent,
        worker: 0,
    });
    fastest
}

/// Like [`ns_per_call`], but `prepare(i)` runs untimed before each
/// timed `call(i)`: for calls that consume state (a DEN trigger, a
/// hazard service that latches after firing). Rounds are
/// [`PREPARED_ROUND`] calls.
fn ns_per_prepared_call<S>(
    spans: &mut SpanLog,
    parent: u32,
    name: &'static str,
    n: usize,
    state: &mut S,
    mut prepare: impl FnMut(&mut S, usize),
    mut call: impl FnMut(&mut S, usize),
) -> f64 {
    assert!(n > 0, "{name}: no inputs");
    let start_ns = now_ns();
    let budget = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut calls = 0u64;
    while budget.elapsed().as_nanos() < MIN_NS {
        let mut timed = 0u128;
        for _ in 0..PREPARED_ROUND {
            let i = calls as usize % n;
            prepare(state, i);
            let t = Instant::now();
            call(state, black_box(i));
            timed += t.elapsed().as_nanos();
            calls += 1;
        }
        fastest = fastest.min(timed as f64 / PREPARED_ROUND as f64);
    }
    spans.push(Span {
        name,
        start_ns,
        end_ns: now_ns(),
        parent,
        worker: 0,
    });
    fastest
}

fn geo(x: f64, y: f64) -> ReferencePosition {
    // Small planar offsets around the laboratory anchor.
    ReferencePosition::from_degrees(41.178 + y / 111_111.0, -8.608 + x / 83_700.0)
}

/// Line-follow vision on a straight approach from `start_m` to `end_m`
/// over `ticks` control periods of `dt` seconds, on a vehicle of
/// `wheelbase_m` that steers by the follower's own output — so the
/// frames show the line as the run's camera sees it, a little off
/// centre, not dead ahead.
pub fn vision(
    sink: &mut Sink<'_>,
    start_m: f64,
    end_m: f64,
    ticks: usize,
    dt: f64,
    wheelbase_m: f64,
    seed: u64,
) {
    let (out, spans, parent) = (&mut *sink.out, &mut *sink.spans, sink.parent);
    let ticks = ticks.max(2);
    let track = Track::straight(start_m + 2.0);
    let ds = (start_m - end_m) / (ticks - 1) as f64;
    let mut rng = SimRng::seed_from(seed).fork("detector");
    let mut pilot = LineFollower::new();
    let mut pose = BicycleState {
        x: start_m,
        y: 0.0,
        theta: std::f64::consts::PI,
    };
    let mut steer = 0.0;
    let poses: Vec<BicycleState> = (0..ticks)
        .map(|_| {
            let at = pose;
            steer = pilot.steering(&pose, &track, dt, &mut rng).unwrap_or(steer);
            pose.advance(ds, steer, wheelbase_m);
            at
        })
        .collect();
    let camera = CameraModel::default();
    let frames: Vec<_> = poses.iter().map(|p| camera.capture(p, &track)).collect();
    let mut frame = camera.capture(&poses[0], &track);
    out.set(
        "vehicle.linefollow.raster_ns",
        ns_per_call(spans, parent, "vehicle.linefollow.raster_ns", ticks, |i| {
            camera.capture_into(&poses[i], &track, &mut frame);
        }),
    );
    let mut edges = Vec::new();
    let edge_sets: Vec<Vec<(usize, usize)>> = frames
        .iter()
        .map(|f| {
            let mut e = Vec::new();
            detect_edges_into(f, &mut e);
            e
        })
        .collect();
    out.set(
        "vehicle.linefollow.edges_ns",
        ns_per_call(spans, parent, "vehicle.linefollow.edges_ns", ticks, |i| {
            detect_edges_into(&frames[i], &mut edges);
        }),
    );
    let mut scratch = HoughScratch::new();
    let mut lines = Vec::new();
    out.set(
        "vehicle.linefollow.hough_ns",
        ns_per_call(spans, parent, "vehicle.linefollow.hough_ns", ticks, |i| {
            let f = &frames[i];
            hough_lines_into(
                &edge_sets[i],
                f.width(),
                f.height(),
                8,
                &mut rng,
                &mut scratch,
                &mut lines,
            );
        }),
    );
    let mut follower = LineFollower::new();
    out.set(
        "vehicle.linefollow.steering_ns",
        ns_per_call(
            spans,
            parent,
            "vehicle.linefollow.steering_ns",
            ticks,
            |i| {
                black_box(follower.steering(&poses[i], &track, dt, &mut rng));
            },
        ),
    );
}

/// Longitudinal dynamics at cruise throttle, restarted every `ticks`.
pub fn dynamics(
    sink: &mut Sink<'_>,
    params: VehicleParams,
    speed: f64,
    throttle: f64,
    dt: f64,
    ticks: usize,
) {
    let (out, spans, parent) = (&mut *sink.out, &mut *sink.spans, sink.parent);
    let mut car = LongitudinalModel::new(params);
    car.set_speed(speed);
    out.set(
        "vehicle.dynamics.step_ns",
        ns_per_call(
            spans,
            parent,
            "vehicle.dynamics.step_ns",
            ticks.max(1),
            |i| {
                if i == 0 {
                    car = LongitudinalModel::new(params);
                    car.set_speed(speed);
                }
                black_box(car.step(dt, throttle));
            },
        ),
    );
}

/// Detector, tracker, hazard service and LDM insertion on a target
/// approaching from `distances[0]` to the last distance.
pub fn perception(
    sink: &mut Sink<'_>,
    yolo: &YoloModel,
    appearance: TargetAppearance,
    distances: &[f64],
    action_point_m: f64,
    frame_period: SimDuration,
    seed: u64,
) {
    let (out, spans, parent) = (&mut *sink.out, &mut *sink.spans, sink.parent);
    let targets: Vec<GroundTruthTarget> = distances
        .iter()
        .map(|&d| GroundTruthTarget {
            id: 1,
            distance_m: d,
            bearing_deg: 0.0,
            appearance,
        })
        .collect();
    let time_of = |i: usize| {
        SimTime::ZERO + SimDuration::from_nanos(frame_period.as_nanos() * (i as u64 + 1))
    };
    let mut rng = SimRng::seed_from(seed).fork("detector");
    let mut dets: Vec<Detection> = Vec::new();
    let mut scratch = Vec::new();
    for (i, t) in targets.iter().enumerate() {
        yolo.process_frame_into(time_of(i), std::slice::from_ref(t), &mut rng, &mut dets);
    }
    out.set(
        "perception.detector_ns",
        ns_per_call(
            spans,
            parent,
            "perception.detector_ns",
            targets.len(),
            |i| {
                scratch.clear();
                yolo.process_frame_into(
                    time_of(i),
                    std::slice::from_ref(&targets[i]),
                    &mut rng,
                    &mut scratch,
                );
            },
        ),
    );
    if dets.is_empty() {
        return;
    }
    let n = dets.len();
    let mut tracker = Tracker::new(TrackerConfig::default());
    out.set(
        "perception.tracker_ns",
        ns_per_call(spans, parent, "perception.tracker_ns", n, |i| {
            if i == 0 {
                tracker = Tracker::new(TrackerConfig::default());
            }
            tracker.update(dets[i].frame_time, std::slice::from_ref(&dets[i]));
        }),
    );
    let ldm = Ldm::new();
    let hazard_cfg = HazardConfig {
        action_point_m,
        ..HazardConfig::paper_setup(geo(0.0, 0.0))
    };
    let mut service = HazardAdvertisementService::new(hazard_cfg);
    let wall = TimestampIts::new(1_000).expect("small timestamp");
    out.set(
        "perception.hazard_ns",
        ns_per_prepared_call(
            spans,
            parent,
            "perception.hazard_ns",
            n,
            &mut service,
            |service, _| service.reset(),
            |service, i| {
                black_box(service.assess(&dets[i], &ldm, wall, &mut rng));
            },
        ),
    );
    let mut ldm = Ldm::new();
    out.set(
        "facilities.ldm_insert_ns",
        ns_per_call(spans, parent, "facilities.ldm_insert_ns", n, |i| {
            let d = &dets[i];
            ldm.insert_object(
                d.frame_time,
                PerceivedObject {
                    id: i as u32,
                    position: geo(d.estimated_distance_m, 0.0),
                    distance_m: d.estimated_distance_m,
                    class_label: d.label,
                    confidence: d.confidence,
                },
            );
        }),
    );
}

fn den_request(wall: TimestampIts) -> DenRequest {
    DenRequest::one_shot(
        wall,
        geo(0.0, 0.0),
        CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
    )
}

/// Facilities services (DEN, CA, CP), their UPER codecs and the
/// GeoNetworking packets that carry them. `cpm_objects` is 0 on a
/// workload without collective perception.
pub fn messaging(sink: &mut Sink<'_>, speed_mps: f64, cpm_objects: usize) {
    let (out, spans, parent) = (&mut *sink.out, &mut *sink.spans, sink.parent);
    let id = StationId::new(15).expect("static id");
    let now = SimTime::ZERO + SimDuration::from_millis(1_000);
    let wall = TimestampIts::new(1_000).expect("small timestamp");

    // DEN service: one trigger, one poll — the testbed's one-shot DENM.
    let mut den = DenService::new(id, StationType::RoadSideUnit);
    let mut denms: Vec<Denm> = Vec::new();
    out.set(
        "facilities.den_poll_ns",
        ns_per_prepared_call(
            spans,
            parent,
            "facilities.den_poll_ns",
            1,
            &mut den,
            |den, _| {
                *den = DenService::new(id, StationType::RoadSideUnit);
                den.trigger(now, wall, den_request(wall));
            },
            |den, _| {
                denms.clear();
                den.poll_into(now, wall, &mut denms);
            },
        ),
    );
    let denm = denms
        .first()
        .cloned()
        .expect("a triggered DENM is due at once");

    // CA service on a vehicle moving at `speed_mps`.
    let mut ca = CaService::new(
        StationId::new(7).expect("static id"),
        StationType::PassengerCar,
        CamTriggerConfig::default(),
    );
    let states: Vec<StationState> = (0..64)
        .map(|k| StationState {
            position: geo(-(k as f64) * speed_mps * 0.1, 0.0),
            heading_deg: 270.0,
            speed_mps,
        })
        .collect();
    let mut cams: Vec<Cam> = Vec::new();
    out.set(
        "facilities.ca_generate_ns",
        ns_per_call(
            spans,
            parent,
            "facilities.ca_generate_ns",
            states.len(),
            |i| {
                let t = now + SimDuration::from_millis(100 * i as u64);
                let cam = ca.generate(t, &states[i]);
                if cams.len() < states.len() {
                    cams.push(cam);
                }
            },
        ),
    );

    codec(
        out,
        spans,
        parent,
        "uper.cam",
        &cams,
        |c| c.to_bytes(),
        |b| Cam::from_bytes(b).map(drop),
    );
    codec(
        out,
        spans,
        parent,
        "uper.denm",
        std::slice::from_ref(&denm),
        |d| d.to_bytes(),
        |b| Denm::from_bytes(b).map(drop),
    );

    if cpm_objects > 0 {
        let mut cp = CpService::new(id, StationType::RoadSideUnit, CpServiceConfig::default());
        let objects: Vec<CpmPerceivedObject> = (0..cpm_objects)
            .map(|k| {
                CpmPerceivedObject::from_planar(
                    k as u16 + 2,
                    1.0,
                    5.0 + k as f64,
                    ObjectClass::Person,
                    85,
                )
            })
            .collect();
        let mut cpms: Vec<Cpm> = Vec::new();
        let period = CpServiceConfig::default().period;
        out.set(
            "facilities.cpm_poll_ns",
            ns_per_call(spans, parent, "facilities.cpm_poll_ns", 64, |i| {
                let t = now + SimDuration::from_nanos(period.as_nanos() * i as u64);
                if i == 0 {
                    cp = CpService::new(id, StationType::RoadSideUnit, CpServiceConfig::default());
                }
                if let Some(cpm) = cp.poll(t, geo(-1.0, -1.0), &objects) {
                    if cpms.is_empty() {
                        cpms.push(cpm);
                    }
                }
            }),
        );
        codec(
            out,
            spans,
            parent,
            "uper.cpm",
            &cpms,
            |c| c.to_bytes(),
            |b| Cpm::from_bytes(b).map(drop),
        );
    }

    // GeoNetworking: the RSU's real DENM (GBC) and the OBU's CAM (SHB).
    let clock = NodeClock::perfect(0);
    let mut rsu = ItsStation::new(StationConfig::rsu(id), clock);
    rsu.set_position(Position2D::new(-1.0, -1.0));
    rsu.trigger_denm(now, den_request(rsu.wall(now)));
    let mut packets = rsu.poll_denm(now).expect("DENM encodes");
    let mut obu = ItsStation::new(
        StationConfig::obu(StationId::new(7).expect("static id")),
        clock,
    );
    obu.set_position(Position2D::new(5.0, 0.0));
    obu.set_motion(speed_mps, 270.0);
    if let Some(cam) = obu.poll_cam(now).expect("CAM encodes") {
        packets.push(cam);
    }
    let wires: Vec<Vec<u8>> = packets.iter().map(|p| p.to_bytes()).collect();
    let mut buf = Vec::new();
    out.set(
        "geonet.encode_ns",
        ns_per_call(spans, parent, "geonet.encode_ns", packets.len(), |i| {
            buf.clear();
            packets[i].as_frame().write_to(&mut buf);
        }),
    );
    out.set(
        "geonet.parse_ns",
        ns_per_call(spans, parent, "geonet.parse_ns", wires.len(), |i| {
            black_box(geonet::GnFrame::parse(&wires[i]).is_ok());
        }),
    );
    let (lat, lon) = obu.geo_position();
    out.set(
        "geonet.forward_ns",
        ns_per_call(spans, parent, "geonet.forward_ns", 1, |_| {
            black_box(geonet::forwarding::gbc_forward_decision(
                &packets[0],
                lat,
                lon,
            ));
        }),
    );
}

/// Encode and decode timings plus the mean encoded size of `values`.
fn codec<T>(
    out: &mut Layers,
    spans: &mut SpanLog,
    parent: u32,
    prefix: &'static str,
    values: &[T],
    encode: impl Fn(&T) -> uper::Result<Vec<u8>>,
    decode: impl Fn(&[u8]) -> uper::Result<()>,
) {
    if values.is_empty() {
        return;
    }
    let (enc, dec, bytes): (&'static str, &'static str, &'static str) = match prefix {
        "uper.cam" => ("uper.cam.encode_ns", "uper.cam.decode_ns", "uper.cam.bytes"),
        "uper.denm" => (
            "uper.denm.encode_ns",
            "uper.denm.decode_ns",
            "uper.denm.bytes",
        ),
        _ => ("uper.cpm.encode_ns", "uper.cpm.decode_ns", "uper.cpm.bytes"),
    };
    let wires: Vec<Vec<u8>> = values
        .iter()
        .map(|v| encode(v).expect("message encodes"))
        .collect();
    out.set(
        enc,
        ns_per_call(spans, parent, enc, values.len(), |i| {
            black_box(encode(&values[i]).is_ok());
        }),
    );
    out.set(
        dec,
        ns_per_call(spans, parent, dec, wires.len(), |i| {
            black_box(decode(&wires[i]).is_ok());
        }),
    );
    out.set(
        bytes,
        wires.iter().map(Vec::len).sum::<usize>() as f64 / wires.len() as f64,
    );
}

/// Channel transmissions over `links` (tx, rx) of `len` bytes: ns per
/// [`Channel::transmit`], the [`LinkCache`] hit ratio of the cached
/// path over the same frames, and deliveries per evaluation.
pub fn channel(
    sink: &mut Sink<'_>,
    config: ChannelConfig,
    links: &[(Position2D, Position2D)],
    len: usize,
    seed: u64,
) {
    let (out, spans, parent) = (&mut *sink.out, &mut *sink.spans, sink.parent);
    if links.is_empty() {
        return;
    }
    let channel = Channel::new(config);
    let mut rng = SimRng::seed_from(seed).fork("channel");
    out.set(
        "phy80211p.transmit_ns",
        ns_per_call(spans, parent, "phy80211p.transmit_ns", links.len(), |i| {
            let (tx, rx) = links[i];
            black_box(channel.transmit(SimTime::ZERO, tx, rx, len, DataRate::Mbps6, &mut rng));
        }),
    );
    let mut rng = SimRng::seed_from(seed).fork("channel");
    let mut cache = LinkCache::new();
    let (mut hits, mut delivered) = (0u64, 0u64);
    for &(tx, rx) in links {
        let before = cache.fer_entries();
        let outcome = channel.transmit_cached(
            SimTime::ZERO,
            tx,
            rx,
            len,
            DataRate::Mbps6,
            &mut rng,
            &mut cache,
        );
        // A miss inserts one FER entry; a hit leaves the map as it was.
        if cache.fer_entries() == before {
            hits += 1;
        }
        delivered += u64::from(outcome.delivered);
    }
    out.set(
        "phy80211p.link_cache_hit_ratio",
        hits as f64 / links.len() as f64,
    );
    out.set(
        "phy80211p.useful_ratio",
        delivered as f64 / links.len() as f64,
    );
}

/// [`phy80211p::SpatialGrid::candidates_within`] over `positions` at
/// the culling `radius`: ns per query.
pub fn candidates(sink: &mut Sink<'_>, positions: &[Position2D], radius: f64) {
    let (out, spans, parent) = (&mut *sink.out, &mut *sink.spans, sink.parent);
    let mut grid = phy80211p::SpatialGrid::new((radius / 2.0).clamp(10.0, 500.0));
    for &p in positions {
        grid.insert(p);
    }
    let mut found = Vec::new();
    out.set(
        "phy80211p.candidates_ns",
        ns_per_call(
            spans,
            parent,
            "phy80211p.candidates_ns",
            positions.len(),
            |i| {
                grid.candidates_within(positions[i], radius, &mut found);
            },
        ),
    );
}

/// The event engine's cost per dispatched event: the "hold" pattern of
/// a discrete-event run, one `pop_next` and one `schedule_at` per
/// event, on an [`EventQueue`] holding one pending event per
/// `periods` entry, each rescheduled a period after it fires — the
/// scenarios' periodic streams (control tick, camera frame, poll).
pub fn engine(sink: &mut Sink<'_>, periods: &[SimDuration]) {
    let mut queue: EventQueue<usize> = EventQueue::new();
    for (k, p) in periods.iter().enumerate() {
        queue.schedule_at(SimTime::ZERO + *p, k);
    }
    let end = SimTime::from_nanos(u64::MAX);
    let ns = ns_per_call(sink.spans, sink.parent, "sim_core.ns_per_event", 1, |_| {
        if let Some((t, k)) = queue.pop_next(end) {
            queue.schedule_at(t + periods[k], k);
        }
    });
    sink.out.set("sim_core.ns_per_event", ns);
}

/// CAMs an OBU sends over `ticks` control periods at constant speed:
/// its CA service polled once per period, as the scenarios do.
pub fn cams_per_run(ticks: usize, dt: f64, speed_mps: f64) -> f64 {
    let mut obu = ItsStation::new(
        StationConfig::obu(StationId::new(7).expect("static id")),
        NodeClock::perfect(0),
    );
    obu.set_motion(speed_mps, 270.0);
    let mut cams = 0u64;
    for k in 0..ticks {
        obu.set_position(Position2D::new(-speed_mps * dt * k as f64, 0.0));
        let now = SimTime::ZERO + SimDuration::from_nanos((dt * 1e9) as u64 * k as u64);
        if matches!(obu.poll_cam(now), Ok(Some(_))) {
            cams += 1;
        }
    }
    cams as f64
}

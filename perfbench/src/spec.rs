//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! and workloads each one should move. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`--benchmark-json`)
//! and a test keeps the two identical.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A workload of the benchmark's design that `BENCHMARK.json` does not
/// list: its host time could not be held within any bound the benchmark
/// may set on the 2-vCPU VM it was tuned on. The command does not run
/// it; a probe in a listed workload's traced run measures its layers on
/// its own inputs.
pub struct Unlisted {
    pub name: &'static str,
    pub why: &'static str,
    /// The end-to-end metrics it would report, which its layers move.
    pub metrics: &'static [&'static str],
    /// The listed workload whose traced run holds its probe.
    pub probed_in: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this layer metric should move.
    pub moves: &'static str,
    /// The workloads on which it should move it.
    pub on: &'static [&'static str],
}

pub const PAPER: &str = "paper_campaign";
pub const INTERSECTION: &str = "intersection_faults";
pub const CITY: &str = "city_n2000";
pub const CAMPAIGND: &str = "campaignd_submit";

/// The workload seed when `--seed` is not given: the paper campaign's
/// historical base seed, on which its fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 20_230_627;

/// The seed no development run used: later claims are re-checked on it.
pub const HELD_OUT_SEED: u64 = 604_117_389;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: PAPER,
        why: "the paper's Table II + III campaign on the Runner; line-follow vision is most of its host time",
    },
    Workload {
        name: INTERSECTION,
        why: "intersection coop-fault grid: engine, detector, DENM/CPM UPER, GeoNet, LDM, HTTP poll and faults with no vision",
    },
];

pub const UNLISTED: &[Unlisted] = &[
    Unlisted {
        name: CITY,
        why: "run_city with 2000 stations over 10 s: spatial culling and the channel do the work; its run time moved by a third between 10-seed sets",
        metrics: &["sim_s_per_host_s"],
        probed_in: INTERSECTION,
    },
    Unlisted {
        name: CAMPAIGND,
        why: "HTTP submissions to a CampaignServer with socket workers: front door, codecs, fan-out; its closed-loop rate moved by almost half between sets",
        metrics: &["submit_ms_p50", "submit_ms_p90"],
        probed_in: PAPER,
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "runs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_latency_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

const SIMS: &[&str] = &[PAPER, INTERSECTION];

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $moves:expr, $on:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            on: $on,
        }
    };
}

pub const PER_LAYER: &[PerLayer] = &[
    layer!(
        "runner.busy_imbalance",
        "ratio",
        "lower",
        "runs_per_s",
        SIMS
    ),
    layer!(
        "sim_core.events_per_run",
        "count",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "sim_core.ns_per_event",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "vehicle.linefollow.raster_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[PAPER]
    ),
    layer!(
        "vehicle.linefollow.edges_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[PAPER]
    ),
    layer!(
        "vehicle.linefollow.hough_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[PAPER]
    ),
    layer!(
        "vehicle.linefollow.steering_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[PAPER]
    ),
    layer!(
        "vehicle.linefollow.calls_per_run",
        "count",
        "lower",
        "runs_per_s",
        &[PAPER]
    ),
    layer!(
        "vehicle.dynamics.step_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[PAPER]
    ),
    layer!("perception.detector_ns", "ns", "lower", "runs_per_s", SIMS),
    layer!("perception.tracker_ns", "ns", "lower", "runs_per_s", SIMS),
    layer!("perception.hazard_ns", "ns", "lower", "runs_per_s", SIMS),
    layer!(
        "facilities.den_poll_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "facilities.ca_generate_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "facilities.cpm_poll_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "facilities.ldm_insert_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.cam.encode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.cam.decode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.denm.encode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.denm.decode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.cpm.encode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.cpm.decode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.cam.bytes",
        "bytes",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.denm.bytes",
        "bytes",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "uper.cpm.bytes",
        "bytes",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "geonet.encode_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "geonet.parse_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "geonet.forward_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "phy80211p.transmit_ns",
        "ns",
        "lower",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "phy80211p.link_cache_hit_ratio",
        "ratio",
        "higher",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "phy80211p.candidates_ns",
        "ns",
        "lower",
        "sim_s_per_host_s",
        &[CITY]
    ),
    layer!(
        "phy80211p.evals_per_frame",
        "count",
        "lower",
        "sim_s_per_host_s",
        &[CITY]
    ),
    layer!(
        "phy80211p.useful_ratio",
        "ratio",
        "higher",
        "runs_per_s",
        &[INTERSECTION]
    ),
    layer!(
        "openc2x.http_rtt_ms",
        "ms",
        "lower",
        "submit_ms_p50",
        &[CAMPAIGND]
    ),
    layer!(
        "core.wire.encode_ns_per_record",
        "ns",
        "lower",
        "submit_ms_p50",
        &[CAMPAIGND]
    ),
    layer!(
        "core.wire.decode_ns_per_record",
        "ns",
        "lower",
        "submit_ms_p50",
        &[CAMPAIGND]
    ),
    layer!(
        "core.wire.bytes_per_record",
        "bytes",
        "lower",
        "submit_ms_p50",
        &[CAMPAIGND]
    ),
    layer!(
        "shard.fanout_ms",
        "ms",
        "lower",
        "submit_ms_p90",
        &[CAMPAIGND]
    ),
    layer!(
        "shard.fallback_chunks",
        "count",
        "lower",
        "submit_ms_p90",
        &[CAMPAIGND]
    ),
    layer!(
        "shard.timed_out_chunks",
        "count",
        "lower",
        "submit_ms_p90",
        &[CAMPAIGND]
    ),
    layer!(
        "campaignd.front_door_ms",
        "ms",
        "lower",
        "submit_ms_p50",
        &[CAMPAIGND]
    ),
    layer!(
        "process.allocs_per_run",
        "count",
        "lower",
        "runs_per_s",
        SIMS
    ),
    layer!(
        "process.alloc_bytes_per_run",
        "bytes",
        "lower",
        "peak_rss_mb",
        SIMS
    ),
    layer!(
        "ledger.unattributed_share",
        "ratio",
        "lower",
        "runs_per_s",
        SIMS
    ),
    layer!("trace.overhead_ratio", "ratio", "lower", "runs_per_s", SIMS),
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The unlisted workload whose probe measures `m`, if any.
pub fn probed_by(m: &PerLayer) -> Option<&'static Unlisted> {
    m.on.iter()
        .find_map(|w| UNLISTED.iter().find(|u| u.name == *w))
}

/// Whole-number bounds print without a fraction; others as written.
fn number(x: f64) -> String {
    format!("{x}")
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", RUN_SECONDS));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                number(m.bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 55;

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn counts_and_bounds_are_within_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_workload_says_why() {
        let whys = WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .chain(UNLISTED.iter().map(|u| (u.name, u.why)));
        for (name, why) in whys {
            assert!(!why.trim().is_empty(), "{name} has no why");
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
    }

    #[test]
    fn unlisted_workloads_are_probed_in_a_listed_one() {
        for u in UNLISTED {
            assert!(workload(u.name).is_none(), "{} is listed", u.name);
            assert!(workload(u.probed_in).is_some(), "{} probe", u.name);
            for metric in u.metrics {
                assert!(END_TO_END.iter().all(|e| e.name != *metric));
            }
        }
    }

    #[test]
    fn every_layer_metric_names_what_it_moves() {
        for m in PER_LAYER {
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for w in m.on {
                assert!(
                    workload(w).is_some() || UNLISTED.iter().any(|u| u.name == *w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
            // A layer of a listed workload moves a listed metric; one of
            // an unlisted workload, a metric that workload would report.
            let known = match probed_by(m) {
                Some(u) => u.metrics.contains(&m.moves),
                None => END_TO_END.iter().any(|e| e.name == m.moves),
            };
            assert!(known, "{} moves unknown metric {}", m.name, m.moves);
            assert!(matches!(m.better, "lower" | "higher"));
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --benchmark-json > BENCHMARK.json`"
        );
    }
}

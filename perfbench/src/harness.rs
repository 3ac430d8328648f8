//! What every workload shares: arguments, the timed batch loop, the
//! correctness tally and the result a run prints.

use std::time::{Duration, Instant};

use crate::layers::Layers;
use crate::spec::{self, Workload};
use crate::stats::{median, quantile};
use crate::trace::SpanLog;
use crate::{alloc, host};

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = f64::from(spec::RUN_SECONDS);
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    if let Some(u) = spec::UNLISTED.iter().find(|u| u.name == name) {
                        return Err(format!(
                            "{name} ({}) is not listed: {}; its layers are measured in the traced run of {}",
                            u.metrics.join(", "),
                            u.why,
                            u.probed_in
                        ));
                    }
                    workload = Some(
                        spec::workload(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(spec::DEFAULT_SEED),
            seconds,
            trace,
        })
    }
}

/// One timed batch of work: its wall time and the runs it held.
pub struct Batch {
    pub wall_s: f64,
    pub runs: u64,
    pub traced: bool,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Runs `work(traced)` back to back for `seconds` (at least twice) and
/// times each call by the wall clock. `check` then verifies each output,
/// untimed, and returns the runs it held.
/// With `trace` on, every other batch runs traced, so the traced and
/// untraced timings interleave and share any drift of the host.
pub fn measure<T>(
    seconds: f64,
    trace: bool,
    mut work: impl FnMut(bool) -> T,
    mut check: impl FnMut(T) -> u64,
) -> Vec<Batch> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut batches = Vec::new();
    while batches.len() < 2 || Instant::now() < deadline {
        let traced = trace && batches.len() % 2 == 1;
        let (calls0, bytes0) = alloc::snapshot();
        let start = Instant::now();
        let out = work(traced);
        let wall_s = start.elapsed().as_secs_f64();
        let (calls1, bytes1) = alloc::snapshot();
        let runs = check(out);
        batches.push(Batch {
            wall_s,
            runs,
            traced,
            allocs: calls1 - calls0,
            alloc_bytes: bytes1 - bytes0,
        });
    }
    batches
}

/// A row of the per-layer ledger: a timed function and how often one
/// run calls it.
pub struct LedgerRow {
    pub name: &'static str,
    pub calls_per_run: f64,
    pub ns_per_call: f64,
}

/// Everything one run of the benchmark reports.
pub struct Report {
    pub threads: usize,
    /// Socket worker processes started (by the campaignd probe).
    pub workers: usize,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Layers,
    pub ledger: Vec<LedgerRow>,
    /// Host time of one run (or one submission), ns: the total the
    /// ledger's rows are measured against.
    pub run_wall_ns: f64,
    pub spans: SpanLog,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            workers: 0,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layers: Layers::default(),
            ledger: Vec::new(),
            run_wall_ns: 0.0,
            spans: SpanLog::default(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked output; a mismatch is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("MISMATCH: {}", what()));
            }
        }
    }

    /// `runs_per_s`: runs over the wall time of a whole batch, its
    /// Runner calls' thread spawns, joins and waits included; the median
    /// over the untraced batches. `busiest_s` is the busiest thread's CPU
    /// time summed over all `batches`, for a note.
    pub fn set_throughput(&mut self, batches: &[Batch], busiest_s: f64) {
        let plain: Vec<&Batch> = batches.iter().filter(|b| !b.traced).collect();
        let rates: Vec<f64> = plain.iter().map(|b| b.runs as f64 / b.wall_s).collect();
        let runs_per_s = median(&rates);
        self.e2e.push(("runs_per_s", runs_per_s));
        let runs: u64 = batches.iter().map(|b| b.runs).sum();
        self.notes.push(format!(
            "{} untraced batches of {} runs; runs/s by wall clock: median {runs_per_s:.1}, fastest {:.1}, slowest {:.1}; by the busiest thread's CPU time {:.1}",
            plain.len(),
            plain[0].runs,
            quantile(&rates, 1.0),
            quantile(&rates, 0.0),
            runs as f64 / busiest_s,
        ));
    }

    /// Per-run allocation counts, and `trace.overhead_ratio`: the
    /// median wall time per run of the traced batches over that of the
    /// untraced ones. Wall time, because spans are recorded outside the
    /// timed jobs; the two kinds of batch interleave, so both see the
    /// same host.
    pub fn set_process_layers(&mut self, batches: &[Batch]) {
        let runs: u64 = batches.iter().map(|b| b.runs).sum::<u64>().max(1);
        let allocs: u64 = batches.iter().map(|b| b.allocs).sum();
        let bytes: u64 = batches.iter().map(|b| b.alloc_bytes).sum();
        self.layers
            .set("process.allocs_per_run", allocs as f64 / runs as f64);
        self.layers
            .set("process.alloc_bytes_per_run", bytes as f64 / runs as f64);
        let per_run = |traced: bool| {
            median(
                &batches
                    .iter()
                    .filter(|b| b.traced == traced)
                    .map(|b| b.wall_s / b.runs.max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let (on, off) = (per_run(true), per_run(false));
        self.layers.set(
            "trace.overhead_ratio",
            if off > 0.0 { on / off } else { 1.0 },
        );
    }

    /// Fills the ledger's ns column from the per-layer values and sets
    /// `ledger.unattributed_share`.
    pub fn close_ledger(&mut self, rows: &[(&'static str, f64)]) {
        self.ledger = rows
            .iter()
            .map(|&(name, calls_per_run)| {
                let value = self.layers.get(name);
                let ns_per_call = if name.ends_with("_ms") {
                    value * 1e6
                } else {
                    value
                };
                LedgerRow {
                    name,
                    calls_per_run,
                    ns_per_call,
                }
            })
            .collect();
        let attributed: f64 = self
            .ledger
            .iter()
            .map(|r| r.calls_per_run * r.ns_per_call)
            .sum();
        let share = if self.run_wall_ns > 0.0 {
            1.0 - attributed / self.run_wall_ns
        } else {
            0.0
        };
        self.layers.set("ledger.unattributed_share", share);
    }

    /// Prints the human-readable lines, writes the trace file of a
    /// traced run, and prints the result object as the last line.
    pub fn emit(&self, args: &Args) {
        let context = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"workers\":{},\"commit\":\"{}\",\"profile\":\"{}\",\"held_out_seed\":{}}}",
            args.workload.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host::nproc(),
            self.threads,
            self.workers,
            host::commit(),
            host::profile(),
            spec::HELD_OUT_SEED
        );
        println!("context {context}");
        for note in &self.notes {
            println!("note {note}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {error_rate} ({} failed of {} checked)",
            self.failed, self.attempted
        );
        let mut metrics = Vec::new();
        if args.trace {
            println!(
                "ledger (calls/run x ns/call against {:.0} ns per run):",
                self.run_wall_ns
            );
            for row in &self.ledger {
                let share = row.calls_per_run * row.ns_per_call / self.run_wall_ns.max(1.0);
                println!(
                    "  {:<36} {:>10.2} calls x {:>12.1} ns = {:>6.2}%",
                    row.name,
                    row.calls_per_run,
                    row.ns_per_call,
                    share * 100.0
                );
            }
            for m in spec::PER_LAYER {
                let v = finite(self.layers.get(m.name));
                println!(
                    "{} = {} {}  (should move {} on {}; measured {})",
                    m.name,
                    v,
                    m.unit,
                    m.moves,
                    m.on.join(", "),
                    source(m, args)
                );
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                ));
            }
            match self.write_trace(args, &context) {
                Ok(path) => println!("trace written to {path}"),
                Err(e) => println!("note trace not written: {e}"),
            }
        } else {
            for m in spec::END_TO_END {
                let v = finite(
                    self.e2e
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(0.0, |(_, v)| *v),
                );
                println!("{} = {} {}", m.name, v, m.unit);
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }

    /// Writes the context, the ledger and every span as JSON lines under
    /// `perfbench/out/`.
    fn write_trace(&self, args: &Args, context: &str) -> std::io::Result<String> {
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
        let mut text = format!("{{\"context\":{context}}}\n");
        for row in &self.ledger {
            text.push_str(&format!(
                "{{\"ledger\":\"{}\",\"calls_per_run\":{},\"ns_per_call\":{}}}\n",
                row.name,
                finite(row.calls_per_run),
                finite(row.ns_per_call)
            ));
        }
        for m in spec::PER_LAYER {
            text.push_str(&format!(
                "{{\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\",\"source\":\"{}\"}}\n",
                m.name,
                finite(self.layers.get(m.name)),
                m.unit,
                source(m, args)
            ));
        }
        for (name, count, self_ns) in self.spans.self_time_by_name() {
            text.push_str(&format!(
                "{{\"self_time\":\"{name}\",\"spans\":{count},\"ns\":{self_ns}}}\n"
            ));
        }
        text.push_str(&self.spans.to_json_lines());
        std::fs::write(&path, text)?;
        Ok(path.display().to_string())
    }
}

/// Where a per-layer metric's value comes from: the probe of the
/// unlisted workload it describes, or the workload being run.
fn source(m: &spec::PerLayer, args: &Args) -> String {
    match spec::probed_by(m) {
        Some(w) => format!("by the {} probe", w.name),
        None => format!("on {}", args.workload.name),
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed
/// reads 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

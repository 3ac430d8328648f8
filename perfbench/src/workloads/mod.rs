//! The listed workloads, the probes of the unlisted ones, and what the
//! workloads share: the timed batches, the cold set-ups and the
//! event-kind probe behind their ledgers.

pub mod campaignd;
pub mod city;
pub mod intersection;
pub mod paper;

use std::time::Instant;

use sim_core::{run_batched, EventHandler, EventQueue, SimTime};

use crate::trace::{now_ns, Span, SpanLog};

/// Wraps a scenario's public [`EventHandler`] and times each `handle`
/// call by event kind into a [`Replay`], so a replayed run yields exact
/// per-kind event counts and handler time without instrumenting the
/// program.
struct Probe<'a, H: EventHandler>
where
    H::Event: 'static,
{
    inner: &'a mut H,
    replay: &'a mut Replay<H::Event>,
    spans: &'a mut SpanLog,
    parent: u32,
}

impl<H: EventHandler> EventHandler for Probe<'_, H>
where
    H::Event: 'static,
{
    type Event = H::Event;

    fn handle(&mut self, now: SimTime, event: H::Event, queue: &mut EventQueue<H::Event>) {
        let names = self.replay.names;
        let k = (self.replay.kind)(&event).min(names.len() - 1);
        let start_ns = now_ns();
        let t = Instant::now();
        self.inner.handle(now, event, queue);
        let ns = t.elapsed().as_nanos() as u64;
        self.replay.counts[k] += 1;
        self.replay.handler_ns[k] += ns;
        self.spans.push(Span {
            name: names[k],
            start_ns,
            end_ns: start_ns + ns,
            parent: self.parent,
            worker: 0,
        });
    }
}

/// Plain passes per replayed run; the fastest counts.
const PLAIN_PASSES: usize = 3;

/// Per-kind totals over several replayed runs of one scenario type.
pub struct Replay<E: 'static> {
    kind: fn(&E) -> usize,
    names: &'static [&'static str],
    pub runs: u64,
    pub counts: Vec<u64>,
    pub handler_ns: Vec<u64>,
    pub loop_ns: u64,
    pub events: u64,
}

impl<E> Replay<E> {
    pub fn new(kind: fn(&E) -> usize, names: &'static [&'static str]) -> Self {
        Self {
            kind,
            names,
            runs: 0,
            counts: vec![0; names.len()],
            handler_ns: vec![0; names.len()],
            loop_ns: 0,
            events: 0,
        }
    }

    /// Runs the scenario `make` builds (with its initial schedule) to
    /// `until`, as the scenario's own `run` does: [`PLAIN_PASSES`] times
    /// plain, the fastest giving the run's time on one thread, and once
    /// through a [`Probe`], for the per-kind counts and handler times.
    /// Returns the events dispatched.
    pub fn run<H: EventHandler<Event = E>>(
        &mut self,
        make: impl Fn() -> (H, EventQueue<E>),
        until: SimTime,
        spans: &mut SpanLog,
        parent: u32,
    ) -> u64 {
        let span = spans.open("replay_run", parent);
        let mut batch = Vec::with_capacity(8);
        let plain_ns = (0..PLAIN_PASSES)
            .map(|_| {
                let (mut scenario, mut queue) = make();
                let t = Instant::now();
                run_batched(&mut scenario, &mut queue, until, &mut batch);
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0);
        self.loop_ns += plain_ns;
        let (mut scenario, mut queue) = make();
        let mut probe = Probe {
            inner: &mut scenario,
            replay: self,
            spans,
            parent: span,
        };
        run_batched(&mut probe, &mut queue, until, &mut batch);
        spans.close(span);
        self.runs += 1;
        self.events += queue.dispatched();
        queue.dispatched()
    }

    /// Events of kind `k` per run.
    pub fn per_run(&self, k: usize) -> f64 {
        self.counts[k] as f64 / self.runs.max(1) as f64
    }

    /// One run's host time on one thread, ns: the ledger's total, taken
    /// at the same time and in the same way as the per-call timings.
    pub fn run_ns(&self) -> f64 {
        self.loop_ns as f64 / self.runs.max(1) as f64
    }

    pub fn events_per_run(&self) -> f64 {
        self.events as f64 / self.runs.max(1) as f64
    }

    /// One note per event kind: how often a run dispatches it and the
    /// handler's time per event.
    pub fn notes(&self) -> Vec<String> {
        self.names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                format!(
                    "{name}: {:.2}/run, {:.0} ns/call in the handler",
                    self.per_run(k),
                    self.handler_ns[k] as f64 / self.counts[k].max(1) as f64
                )
            })
            .collect()
    }
}

/// Cold set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untimed, checked batches between the set-ups and the measurement.
const WARMUPS: usize = 2;

/// First argument that makes the process a set-up probe of the
/// workload named by the arguments that follow it.
pub const SETUP_PROBE: &str = "--setup-probe";

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Times [`SETUPS`] cold set-ups of the workload: each a fresh process
/// of this binary, started with [`SETUP_PROBE`], that builds the
/// workload's inputs and executor, runs its first batch and prints the
/// digest of the outputs. A set-up's time is the process's wall time,
/// from spawn to exit; one that fails or prints another digest than
/// `expected` is a failure. Returns the times, s.
pub fn cold_setups(
    args: &crate::harness::Args,
    report: &mut crate::harness::Report,
    expected: u64,
) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.check(false, || format!("no path to this binary: {e}"));
            return Vec::new();
        }
    };
    let mut times = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let t = Instant::now();
        let out = std::process::Command::new(&exe)
            .args([SETUP_PROBE, "--workload", args.workload.name, "--seed"])
            .arg(args.seed.to_string())
            .stdin(std::process::Stdio::null())
            .output();
        times.push(t.elapsed().as_secs_f64());
        let digest = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<u64>()
                .ok()
        });
        report.check(digest == Some(expected), || {
            format!("set-up {k} gave digest {digest:?}, expected {expected}")
        });
    }
    times
}

/// The timed part every Runner workload shares: [`WARMUPS`] untimed
/// batches, then batches for the run's seconds, each timed by the wall
/// clock. `view` maps each output to its comparable key; the keys must
/// equal `reference`, and each batch that differs is a failure.
pub fn run_batches<R, K: PartialEq>(
    args: &crate::harness::Args,
    exec: &crate::trace::Timed,
    report: &mut crate::harness::Report,
    reference: &[K],
    work: impl Fn(&crate::trace::Timed) -> Vec<R>,
    view: impl Fn(&R) -> K,
) -> Vec<crate::harness::Batch> {
    use crate::trace::ROOT;
    let matches = |out: &[R]| {
        out.len() == reference.len() && out.iter().zip(reference).all(|(r, k)| view(r) == *k)
    };
    for k in 0..WARMUPS {
        let out = work(exec);
        report.check(matches(&out), || {
            format!("warm-up batch {k} differs from the reference")
        });
    }
    exec.reset_counters();
    let mut results = Vec::new();
    let batches = crate::harness::measure(
        args.seconds,
        args.trace,
        |traced| {
            exec.traced.set(traced);
            let span = traced.then(|| exec.spans.borrow_mut().open("batch", ROOT));
            exec.parent.set(span.unwrap_or(ROOT));
            let out = work(exec);
            if let Some(id) = span {
                exec.spans.borrow_mut().close(id);
            }
            out
        },
        |out| {
            results.push(matches(&out));
            out.len() as u64
        },
    );
    for (k, ok) in results.into_iter().enumerate() {
        report.check(ok, || {
            format!("measured batch {k} differs from the reference")
        });
    }
    batches
}

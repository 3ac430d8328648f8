//! In-memory span recording and the timed executor.
//!
//! A span is a name, a start and end (ns since the process epoch), the
//! worker that ran it and the span that caused it. Spans are kept in
//! memory and written out once, when the traced run ends, so that each
//! layer's self time (its duration minus its children's) can be
//! computed offline.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::thread::ThreadId;
use std::time::Instant;

use its_testbed::campaign::{CampaignSpec, Executor};
use its_testbed::RunRecord;
use runner::Runner;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run, ns (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Busy time is CPU time, so that a worker the host descheduled does not
/// read as busy.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` and 3 is
    // `CLOCK_THREAD_CPUTIME_ID` on Linux.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    if rc == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// One recorded span. `parent` is the index of the causing span, or
/// `u32::MAX` for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub worker: u32,
}

pub const ROOT: u32 = u32::MAX;

/// Spans kept beyond this many are counted but not stored, which bounds
/// the memory a long traced run can take.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// Records a span and returns its index (`ROOT` when dropped).
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let t = now_ns();
        self.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            worker: 0,
        })
    }

    pub fn close(&mut self, id: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now_ns();
        }
    }

    /// Total self time per span name, ns: each span's duration minus
    /// the time its direct children cover.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(c) = child_ns.get_mut(span.parent as usize) {
                *c += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, child) in self.spans.iter().zip(&child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*child);
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += own;
                }
                None => by_name.push((span.name, 1, own)),
            }
        }
        by_name
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"worker\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.worker
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("{{\"dropped\":{}}}\n", self.dropped));
        }
        out
    }
}

/// A [`Runner`] that times every job from outside: each job closure is
/// wrapped with wall-clock and thread-CPU-clock reads and notes the
/// thread it ran on. Per call, the busiest thread's CPU time and the
/// mean over the call's workers accumulate, giving
/// `runner.busy_imbalance` from the assignment the Runner actually made;
/// with tracing on, every job also becomes a span under the current
/// parent.
pub struct Timed {
    runner: Runner,
    pub traced: Cell<bool>,
    pub parent: Cell<u32>,
    busiest_ns: Cell<u64>,
    mean_busy_ns: Cell<f64>,
    pub spans: RefCell<SpanLog>,
}

impl Timed {
    pub fn new(threads: usize) -> Self {
        Self {
            runner: Runner::new(threads),
            traced: Cell::new(false),
            parent: Cell::new(ROOT),
            busiest_ns: Cell::new(0),
            mean_busy_ns: Cell::new(0.0),
            spans: RefCell::new(SpanLog::default()),
        }
    }

    /// Forgets the busy times (spans stay).
    pub fn reset_counters(&self) {
        self.busiest_ns.set(0);
        self.mean_busy_ns.set(0.0);
    }

    /// Seconds of CPU time the busiest thread of each call ran, summed
    /// over the calls since the last reset.
    pub fn busiest_s(&self) -> f64 {
        self.busiest_ns.get() as f64 / 1e9
    }

    /// The busiest thread's busy time over the mean busy time of the
    /// call's workers, summed over calls.
    pub fn busy_imbalance(&self) -> f64 {
        let mean = self.mean_busy_ns.get();
        if mean > 0.0 {
            self.busiest_ns.get() as f64 / mean
        } else {
            1.0
        }
    }

    /// Runs `job` over `0..jobs` on the pool, timing each job.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let timed = self.runner.run(jobs, |i| {
            let cpu = thread_cpu_ns();
            let start = now_ns();
            let out = job(i);
            let end = now_ns();
            let thread = std::thread::current().id();
            (out, thread, start, end, thread_cpu_ns() - cpu)
        });
        let workers = self.runner.threads().min(jobs).max(1);
        let traced = self.traced.get();
        let parent = self.parent.get();
        let mut spans = self.spans.borrow_mut();
        // CPU time of each thread that ran a job, in order of first job.
        let mut busy: Vec<(ThreadId, u64)> = Vec::with_capacity(workers);
        let mut out = Vec::with_capacity(jobs);
        for (value, thread, start, end, cpu) in timed {
            let w = match busy.iter().position(|(t, _)| *t == thread) {
                Some(w) => w,
                None => {
                    busy.push((thread, 0));
                    busy.len() - 1
                }
            };
            busy[w].1 += cpu;
            if traced {
                spans.push(Span {
                    name: "job",
                    start_ns: start,
                    end_ns: end,
                    parent,
                    worker: w as u32,
                });
            }
            out.push(value);
        }
        let busiest = busy.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
        let total: u64 = busy.iter().map(|(_, ns)| ns).sum();
        self.busiest_ns.set(self.busiest_ns.get() + busiest);
        self.mean_busy_ns
            .set(self.mean_busy_ns.get() + total as f64 / workers as f64);
        out
    }
}

impl Executor for Timed {
    fn execute(&self, spec: &CampaignSpec) -> Vec<RunRecord> {
        self.run(spec.runs, |i| spec.run_job(i))
    }

    fn run_indexed<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(jobs, job)
    }
}

//! The executor cross-product shared by the determinism tests: the
//! 8-thread `Runner`, and pipe and socket workers at each requested
//! count, all behind one [`Executor`] so a test writes each check once
//! for every way a campaign can run and compares it with the `Serial`
//! reference.
//!
//! `Executor` is not object-safe (`run_indexed` is generic), so the
//! matrix is a delegating enum. Pipe workers re-exec the test binary:
//! they compute only in `harness = false` tests whose `main` calls
//! `shard::worker_main_if_requested` first. Socket workers are
//! in-process `serve_connections` threads serving the same registry.
//!
//! Include it with `#[path = "support/executors.rs"] mod executors;`.

#![allow(dead_code)]

use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Executor};
use its_testbed::{RunRecord, Runner};
use shard::transport::serve_connections;
use shard::{ShardExecutor, SocketFanout};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Per-chunk worker timeout of every multi-process executor here:
/// generous, so a slow host never turns into a spurious fallback.
pub const TIMEOUT: Duration = Duration::from_secs(300);

/// One executor of the matrix.
#[derive(Debug)]
pub enum Exec {
    /// The in-process thread pool.
    Runner(Runner),
    /// Re-exec'd pipe worker processes.
    Pipes(ShardExecutor),
    /// In-process socket worker threads.
    Sockets(SocketFanout),
}

impl Exec {
    /// A label for check names and assertion messages.
    pub fn name(&self) -> String {
        match self {
            Exec::Runner(r) => format!("{}-thread runner", r.threads()),
            Exec::Pipes(p) => format!("{}-worker shard", p.workers()),
            Exec::Sockets(s) => format!("{}-socket-worker fanout", s.workers()),
        }
    }

    /// Chunks the executor re-ran in-process; zero for the runner.
    pub fn fallback_chunks(&self) -> usize {
        match self {
            Exec::Pipes(p) => p.fallback_chunks(),
            Exec::Sockets(s) => s.fallback_chunks(),
            Exec::Runner(_) => 0,
        }
    }

    /// The subset of [`Self::fallback_chunks`] caused by the worker
    /// timeout.
    pub fn timed_out_chunks(&self) -> usize {
        match self {
            Exec::Pipes(p) => p.timed_out_chunks(),
            Exec::Sockets(s) => s.timed_out_chunks(),
            Exec::Runner(_) => 0,
        }
    }

    /// Replaces the worker timeout of a multi-process executor.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        match self {
            Exec::Pipes(p) => Exec::Pipes(p.with_timeout(timeout)),
            Exec::Sockets(s) => Exec::Sockets(s.with_timeout(timeout)),
            other => other,
        }
    }
}

impl Executor for Exec {
    fn execute(&self, spec: &CampaignSpec) -> Vec<RunRecord> {
        match self {
            Exec::Runner(r) => r.execute(spec),
            Exec::Pipes(p) => p.execute(spec),
            Exec::Sockets(s) => s.execute(spec),
        }
    }

    fn execute_grid(&self, specs: &[CampaignSpec]) -> Vec<Vec<RunRecord>> {
        match self {
            Exec::Runner(r) => r.execute_grid(specs),
            Exec::Pipes(p) => p.execute_grid(specs),
            Exec::Sockets(s) => s.execute_grid(specs),
        }
    }

    fn run_indexed<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self {
            Exec::Runner(r) => r.run_indexed(jobs, job),
            Exec::Pipes(p) => p.run_indexed(jobs, job),
            Exec::Sockets(s) => s.run_indexed(jobs, job),
        }
    }
}

/// `n` in-process socket workers serving `registry`.
pub fn socket_workers(registry: &CampaignRegistry, n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind socket worker");
            let addr = listener.local_addr().expect("socket worker addr");
            let registry = registry.clone();
            std::thread::spawn(move || serve_connections(&listener, &registry));
            addr
        })
        .collect()
}

/// Pipe workers and socket workers, `n` of each kind, bound to
/// `campaign` of `registry`.
pub fn remote(registry: &CampaignRegistry, campaign: &str, n: usize) -> [Exec; 2] {
    let pipes = ShardExecutor::new(n, campaign, registry).expect("campaign is registered");
    let grid = registry.derive(campaign).expect("campaign is registered");
    let sockets = SocketFanout::new(campaign, grid).with_workers(socket_workers(registry, n));
    [
        Exec::Pipes(pipes.with_timeout(TIMEOUT)),
        Exec::Sockets(sockets.with_timeout(TIMEOUT)),
    ]
}

/// The whole matrix for `campaign` of `registry`: the 8-thread runner,
/// then [`remote`] at each count of `workers`.
pub fn matrix(registry: &CampaignRegistry, campaign: &str, workers: &[usize]) -> Vec<Exec> {
    let mut execs = vec![Exec::Runner(Runner::new(8))];
    for &n in workers {
        execs.extend(remote(registry, campaign, n));
    }
    execs
}

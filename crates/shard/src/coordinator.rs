//! The coordinator: one fan-out loop for every kind of worker link
//! (DESIGN.md §10/§14).
//!
//! A [`Coordinator`] binds one registered campaign grid to a set of
//! worker [`Links`] and runs it with the shared chunk math: split the
//! job range with [`runner::chunk_bounds`], send every worker its
//! assignment up front so they compute concurrently, collect the chunks
//! strictly in order, and re-execute any chunk whose worker failed,
//! stalled or refused in-process ([`compute_chunk`]) — identical bytes,
//! by purity of the jobs. Worker count, worker death and the transport
//! therefore never change an output byte.
//!
//! What carries the frames is the only thing that varies:
//!
//! * [`ShardExecutor`] — [`Pipes`]: re-exec'd children of the current
//!   binary over [`PipeTransport`].
//! * [`SocketFanout`] — `Vec<SocketAddr>`: already-running socket
//!   workers over [`TcpTransport`] (the campaign server's executor).

use crate::protocol::{compute_chunk, encode_assignment, Assignment, FLAT_GRID};
use crate::transport::{collect_chunk, ChunkFailure, FrameTransport, PipeTransport, TcpTransport};
use crate::{CampaignRegistry, ShardError};
use its_testbed::campaign::{grid_fingerprint, CampaignSpec, Executor, Serial};
use its_testbed::RunRecord;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Default per-chunk result timeout: a worker that has not delivered
/// its complete result stream by then is reaped and its chunk
/// re-executed in-process. Replace it with `with_timeout`.
pub const DEFAULT_CHUNK_TIMEOUT: Duration = Duration::from_secs(120);

/// A coordinator's link factory: how many workers there are and how to
/// open a link to worker `w`.
pub trait Links {
    /// The transport one link speaks.
    type Link: FrameTransport;

    /// The worker count.
    fn count(&self) -> usize;

    /// Opens a link to worker `worker` (`< count()`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] when the worker cannot be reached; the
    /// coordinator re-executes that chunk in-process.
    fn connect(&self, worker: usize) -> Result<Self::Link, ShardError>;
}

/// `n` worker processes, each a re-exec of the current binary with
/// [`crate::WORKER_FLAG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipes(usize);

impl Links for Pipes {
    type Link = PipeTransport;

    fn count(&self) -> usize {
        self.0
    }

    fn connect(&self, _worker: usize) -> Result<PipeTransport, ShardError> {
        PipeTransport::spawn(&std::env::current_exe()?)
    }
}

impl Links for Vec<SocketAddr> {
    type Link = TcpTransport;

    fn count(&self) -> usize {
        self.len()
    }

    fn connect(&self, worker: usize) -> Result<TcpTransport, ShardError> {
        connect_socket(self, worker)
    }
}

fn connect_socket(workers: &[SocketAddr], worker: usize) -> Result<TcpTransport, ShardError> {
    let addr = workers
        .get(worker)
        .copied()
        .ok_or_else(|| ShardError::Io(format!("no socket worker {worker}")))?;
    TcpTransport::connect(addr)
}

/// Runs one registered campaign grid across worker links; an
/// [`Executor`] whatever the links are. Build it through
/// [`ShardExecutor::new`] or [`SocketFanout::new`].
///
/// A spec of the bound grid is sharded by its grid position and the
/// bound grid itself by [`FLAT_GRID`]; anything else is computed
/// locally, because workers could not re-derive it — degraded, never
/// wrong. `run_indexed` keeps the trait's serial default: closures
/// cannot be shipped to worker processes.
#[derive(Debug)]
pub struct Coordinator<L> {
    campaign: String,
    grid: Vec<CampaignSpec>,
    grid_fp: u64,
    links: L,
    timeout: Duration,
    fallback_chunks: AtomicUsize,
    timed_out_chunks: AtomicUsize,
}

/// The multi-process executor: a [`Coordinator`] over re-exec'd pipe
/// children.
pub type ShardExecutor = Coordinator<Pipes>;

/// The socket executor: a [`Coordinator`] over running socket workers,
/// as the campaign server uses it.
pub type SocketFanout = Coordinator<Vec<SocketAddr>>;

impl<L> Coordinator<L> {
    fn bind(campaign: &str, grid: Vec<CampaignSpec>, links: L) -> Self {
        let grid_fp = grid_fingerprint(&grid);
        Self {
            campaign: campaign.to_owned(),
            grid,
            grid_fp,
            links,
            timeout: DEFAULT_CHUNK_TIMEOUT,
            fallback_chunks: AtomicUsize::new(0),
            timed_out_chunks: AtomicUsize::new(0),
        }
    }

    /// Replaces the per-chunk result timeout
    /// ([`DEFAULT_CHUNK_TIMEOUT`]). A worker that exceeds it is reaped
    /// and its chunk re-executed in-process.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// How many chunks have been re-executed in-process because a worker
    /// failed, timed out or refused its assignment, or because the work
    /// was not the bound campaign. Zero on the happy path.
    pub fn fallback_chunks(&self) -> usize {
        self.fallback_chunks.load(Ordering::Relaxed)
    }

    /// The subset of [`Self::fallback_chunks`] caused by the per-chunk
    /// timeout specifically (a hung worker that was reaped).
    pub fn timed_out_chunks(&self) -> usize {
        self.timed_out_chunks.load(Ordering::Relaxed)
    }

    /// The fan-out loop. Runs spec `spec_index` of the bound grid (or,
    /// as [`FLAT_GRID`], the row-major flattened grid) across `workers`
    /// links opened by `connect`, merging chunks in worker order. Zero
    /// workers is a configuration, not a failure: everything runs
    /// in-process without touching the counters.
    fn fan_out<T: FrameTransport>(
        &self,
        spec_index: u32,
        workers: usize,
        connect: impl Fn(usize) -> Result<T, ShardError>,
    ) -> Vec<RunRecord> {
        let jobs = if spec_index == FLAT_GRID {
            self.grid.iter().map(|spec| spec.runs).sum()
        } else {
            self.grid
                .get(spec_index as usize)
                .map_or(0, |spec| spec.runs)
        };
        if jobs == 0 {
            return Vec::new();
        }
        if workers == 0 {
            return self.local(spec_index, 0, jobs);
        }
        let n = workers.min(jobs);
        let chunks: Vec<(usize, usize)> =
            (0..n).map(|w| runner::chunk_bounds(jobs, n, w)).collect();

        // Assign every worker its chunk up front — each transport starts
        // its reader at send_frame, so workers compute concurrently
        // while we collect in chunk order below.
        let links: Vec<Result<T, ShardError>> = chunks
            .iter()
            .enumerate()
            .map(|(w, &(lo, hi))| {
                let mut link = connect(w)?;
                link.send_frame(&encode_assignment(&Assignment {
                    worker_index: w as u32,
                    campaign: self.campaign.clone(),
                    grid_fp: self.grid_fp,
                    spec_index,
                    lo: lo as u64,
                    hi: hi as u64,
                }))?;
                Ok(link)
            })
            .collect();

        let mut out = Vec::with_capacity(jobs);
        for (link, &(lo, hi)) in links.into_iter().zip(&chunks) {
            let collected = match link {
                Ok(mut link) => collect_chunk(&mut link, hi - lo, self.timeout),
                Err(e) => Err(ChunkFailure::Failed(e.to_string())),
            };
            match collected {
                Ok(records) => out.extend(records),
                Err(failure) => {
                    if failure == ChunkFailure::TimedOut {
                        self.timed_out_chunks.fetch_add(1, Ordering::Relaxed);
                    }
                    self.fallback_chunks.fetch_add(1, Ordering::Relaxed);
                    out.extend(self.local(spec_index, lo, hi));
                }
            }
        }
        out
    }

    /// In-process execution of jobs `lo..hi` — the worker's exact
    /// compute step.
    fn local(&self, spec_index: u32, lo: usize, hi: usize) -> Vec<RunRecord> {
        // The bounds come from this same grid, so the error arm is
        // unreachable; an empty chunk (not a panic) is the contained
        // failure mode if that invariant ever broke.
        compute_chunk(&self.grid, spec_index, lo, hi).unwrap_or_default()
    }

    /// Position of `spec` in the bound grid, by fingerprint.
    fn position_of(&self, spec: &CampaignSpec) -> Option<u32> {
        let fp = spec.fingerprint();
        self.grid
            .iter()
            .position(|s| s.fingerprint() == fp)
            .map(|k| k as u32)
    }
}

impl<L: Links> Coordinator<L> {
    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.links.count()
    }

    fn run(&self, spec_index: u32) -> Vec<RunRecord> {
        self.fan_out(spec_index, self.links.count(), |w| self.links.connect(w))
    }
}

impl<L: Links> Executor for Coordinator<L> {
    fn execute(&self, spec: &CampaignSpec) -> Vec<RunRecord> {
        if let Some(index) = self.position_of(spec) {
            return self.run(index);
        }
        // Not part of the bound campaign: workers could not re-derive
        // it, so run it locally.
        self.fallback_chunks.fetch_add(1, Ordering::Relaxed);
        Serial.execute(spec)
    }

    fn execute_grid(&self, specs: &[CampaignSpec]) -> Vec<Vec<RunRecord>> {
        if grid_fingerprint(specs) != self.grid_fp {
            // Not the bound grid: every chunk would be refused, so go
            // straight to local execution.
            self.fallback_chunks.fetch_add(1, Ordering::Relaxed);
            return Serial.execute_grid(specs);
        }
        let mut records = self.run(FLAT_GRID).into_iter();
        specs
            .iter()
            .map(|spec| records.by_ref().take(spec.runs).collect())
            .collect()
    }
}

impl ShardExecutor {
    /// An executor sharding the registry's `campaign` across `workers`
    /// re-exec'd processes (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::UnknownCampaign`] when the registry does
    /// not know `campaign`.
    pub fn new(
        workers: usize,
        campaign: &str,
        registry: &CampaignRegistry,
    ) -> Result<Self, ShardError> {
        let grid = registry
            .derive(campaign)
            .ok_or_else(|| ShardError::UnknownCampaign(campaign.to_owned()))?;
        Ok(Self::bind(campaign, grid, Pipes(workers.max(1))))
    }
}

impl SocketFanout {
    /// A coordinator for `campaign`'s derived `grid`, with no socket
    /// workers bound yet (executing in-process). The fingerprint sent in
    /// every assignment is computed here, from the caller's own
    /// derivation.
    pub fn new(campaign: &str, grid: Vec<CampaignSpec>) -> Self {
        Self::bind(campaign, grid, Vec::new())
    }

    /// Binds the socket workers the [`Executor`] impl fans out to.
    #[must_use]
    pub fn with_workers(mut self, workers: Vec<SocketAddr>) -> Self {
        self.links = workers;
        self
    }

    /// Runs the whole flattened grid across `workers` and returns the
    /// flat records in job order — byte-identical to serial execution
    /// at any worker count, including zero.
    pub fn run_flat(&self, workers: &[SocketAddr]) -> Vec<RunRecord> {
        self.fan_out(FLAT_GRID, workers.len(), |w| connect_socket(workers, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::registry;

    #[test]
    fn pipe_workers_are_clamped_to_one() {
        let exec = ShardExecutor::new(0, "demo", &registry()).unwrap();
        assert_eq!(exec.workers(), 1);
        assert_eq!(exec.timeout, DEFAULT_CHUNK_TIMEOUT);
    }
}

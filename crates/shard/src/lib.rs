//! Multi-process campaign executor: deterministic sharding across
//! worker processes (DESIGN.md §10/§14).
//!
//! The in-process thread [`runner::Runner`] parallelises a campaign with
//! static contiguous chunks merged in index order. This crate extends
//! the same contract across *processes*, in three layers:
//!
//! * [`protocol`] — every byte of the worker protocol: the `"SHRD"`
//!   assignment frame, the `"SHRS"`…`"SHRE"` result stream of
//!   length-prefixed [`RunRecord`](its_testbed::RunRecord) frames
//!   ([`its_testbed::wire`]), the registry-fingerprint handshake, and
//!   the shared chunk math. The worker side is one function,
//!   [`protocol::serve_stream`], over generic `Read`/`Write`.
//! * [`transport`] — what carries those bytes: the
//!   [`transport::FrameTransport`] trait with the child-process
//!   [`transport::PipeTransport`] (re-exec with `--shard-worker`,
//!   stdin/stdout pipes) and the socket [`transport::TcpTransport`]
//!   (used by the `campaignd` campaign server and its `--shard-listen`
//!   socket workers).
//! * [`coordinator`] — the one fan-out loop over either transport:
//!   [`ShardExecutor`] opens pipe links, [`SocketFanout`] socket links.
//!   It assigns each worker a contiguous seed-index chunk computed with
//!   the very same [`runner::chunk_bounds`] math and merges chunks in
//!   worker order. Because jobs are pure functions of their index and
//!   the chunk/merge math is shared, sharded aggregates are **bitwise
//!   identical** to serial and to the thread runner at every worker
//!   count, including 1.
//!
//! # How a campaign crosses the process boundary
//!
//! Closures cannot be sent to another process, so workers *re-derive*
//! the campaign from code: the host binary registers named campaigns in
//! a [`CampaignRegistry`] (a name plus a plain `fn() -> Vec<CampaignSpec>`,
//! shared repo-wide from [`its_testbed::campaign`]) and calls
//! [`worker_main_if_requested`] first thing in `main`. The coordinator
//! sends only the campaign name, a fingerprint of the specs it expects
//! ([`its_testbed::campaign::grid_fingerprint`]), and the chunk bounds;
//! a worker whose derived specs do not match the fingerprint refuses
//! the assignment, and the coordinator re-executes the chunk in-process
//! — degraded to local execution, never to wrong results.
//!
//! # Failure handling
//!
//! A worker that dies, times out, returns a bad exit status, or produces
//! an unparseable / wrong-length result stream has its chunk
//! deterministically re-executed in-process by the coordinator. The
//! merged output is therefore identical whether every worker succeeded
//! or every worker was killed — [`Coordinator::fallback_chunks`]
//! reports how many chunks took the fallback path so tests can assert
//! the recovery actually happened.
//!
//! # Example
//!
//! ```no_run
//! use its_testbed::campaign::{CampaignSpec, Executor, Serial};
//! use its_testbed::ScenarioConfig;
//! use shard::{CampaignRegistry, ShardExecutor};
//!
//! fn demo_grid() -> Vec<CampaignSpec> {
//!     vec![CampaignSpec::new(ScenarioConfig::default(), 16)]
//! }
//!
//! fn main() {
//!     let registry = CampaignRegistry::new().register("demo", demo_grid);
//!     // Must run before anything else: re-exec'd children enter here.
//!     shard::worker_main_if_requested(&registry);
//!
//!     let exec = ShardExecutor::new(4, "demo", &registry).unwrap();
//!     let spec = &demo_grid()[0];
//!     assert_eq!(spec.execute(&exec), spec.execute(&Serial));
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod protocol;
pub mod transport;

use protocol::{serve_stream, ServeOutcome};

pub use coordinator::{Coordinator, ShardExecutor, SocketFanout, DEFAULT_CHUNK_TIMEOUT};
pub use its_testbed::campaign::CampaignRegistry;

/// The hidden argv flag that switches a re-exec'd binary into worker
/// mode.
pub const WORKER_FLAG: &str = "--shard-worker";

/// Fault-injection environment variable: a comma-separated list of
/// worker indices that must die mid-protocol (after the result magic,
/// before any record). Used by the determinism tests to exercise the
/// coordinator's recovery path.
pub const KILL_ENV: &str = "SHARD_INJECT_KILL";

/// Fault-injection environment variable: a comma-separated list of
/// worker indices that must hang forever after reading their
/// assignment, never writing a byte. Exercises the coordinator's
/// result-timeout path ([`Coordinator::timed_out_chunks`]): the hung
/// child is killed and its chunk re-executed in-process.
pub const HANG_ENV: &str = "SHARD_INJECT_HANG";

/// Errors surfaced by the shard layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The named campaign is not in the registry.
    UnknownCampaign(String),
    /// A protocol frame was malformed.
    Protocol(String),
    /// The worker's derived specs do not match the coordinator's
    /// fingerprint.
    FingerprintMismatch {
        /// Fingerprint the coordinator sent.
        expected: u64,
        /// Fingerprint the worker derived.
        derived: u64,
    },
    /// An I/O error, stringified (io::Error is not Clone/PartialEq).
    Io(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnknownCampaign(name) => write!(f, "unknown campaign `{name}`"),
            ShardError::Protocol(what) => write!(f, "shard protocol error: {what}"),
            ShardError::FingerprintMismatch { expected, derived } => write!(
                f,
                "campaign fingerprint mismatch: coordinator {expected:#018x}, worker {derived:#018x}"
            ),
            ShardError::Io(what) => write!(f, "shard i/o error: {what}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e.to_string())
    }
}

impl From<geonet::GeonetError> for ShardError {
    fn from(e: geonet::GeonetError) -> Self {
        ShardError::Protocol(e.to_string())
    }
}

impl From<its_testbed::wire::WireError> for ShardError {
    fn from(e: its_testbed::wire::WireError) -> Self {
        ShardError::Protocol(e.to_string())
    }
}

/// Enters worker mode — and never returns — when `--shard-worker` is on
/// the command line; otherwise does nothing.
///
/// Host binaries (examples, `harness = false` tests) must call this
/// before any other work, with the same registry the coordinator uses,
/// so re-exec'd children handle their assignment instead of re-running
/// `main`.
pub fn worker_main_if_requested(registry: &CampaignRegistry) {
    if !std::env::args().any(|a| a == WORKER_FLAG) {
        return;
    }
    let code = match run_worker(registry) {
        Ok(ServeOutcome::Completed) => 0,
        // An injected kill dies mid-protocol with a distinctive status.
        Ok(ServeOutcome::InjectedKill) => 9,
        Err(e) => {
            eprintln!("shard worker: {e}");
            3
        }
    };
    std::process::exit(code);
}

fn run_worker(registry: &CampaignRegistry) -> Result<ServeOutcome, ShardError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_stream(&mut stdin.lock(), &mut stdout.lock(), registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_testbed::campaign::CampaignSpec;
    use its_testbed::ScenarioConfig;

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 7000,
                    ..ScenarioConfig::default()
                },
                3,
            ),
            CampaignSpec::with_seed_offset(
                ScenarioConfig {
                    seed: 7000,
                    ..ScenarioConfig::default()
                },
                1000,
                2,
            ),
        ]
    }

    pub(crate) fn registry() -> CampaignRegistry {
        CampaignRegistry::new().register("demo", demo_grid)
    }

    #[test]
    fn registry_lookup() {
        let r = registry();
        assert!(r.derive("demo").is_some());
        assert!(r.derive("nope").is_none());
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["demo"]);
        assert!(matches!(
            ShardExecutor::new(2, "nope", &r),
            Err(ShardError::UnknownCampaign(_))
        ));
    }

    #[test]
    fn unregistered_spec_falls_back_locally() {
        // The unit-test binary is a libtest harness, so real worker
        // re-exec is exercised in tests/shard_determinism.rs; here we
        // pin the local fallback path.
        let exec = ShardExecutor::new(2, "demo", &registry()).unwrap();
        let foreign = CampaignSpec::new(
            ScenarioConfig {
                seed: 1234,
                ..ScenarioConfig::default()
            },
            2,
        );
        let records = foreign.execute(&exec);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], foreign.run_job(0));
        assert!(exec.fallback_chunks() > 0);
    }
}

//! Chunk fan-out over socket workers.
//!
//! [`SocketFanout`] is the campaign server's executor core: the one
//! `shard` coordinator loop ([`shard::coordinator`]) with
//! [`TcpTransport`](shard::transport::TcpTransport) links to
//! already-running socket workers in place of re-exec'd pipe children.
//! The determinism contract is the pipe executor's, unchanged — chunks
//! come from the shared [`runner::chunk_bounds`] math, are merged
//! strictly in chunk order, and any chunk whose worker fails, stalls, or
//! refuses is re-executed in-process for identical bytes. Worker count,
//! worker death, and worker order therefore never change a single
//! output byte.
//!
//! `run_flat` fans the whole flattened grid over the workers it is
//! given (the campaign server passes its pool per submission); the
//! [`Executor`](its_testbed::campaign::Executor) impl fans over the
//! workers bound with `with_workers`, sharding a lone spec of the grid
//! by its grid position exactly as `shard::ShardExecutor` does.

pub use shard::SocketFanout;

#[cfg(test)]
mod tests {
    use super::*;
    use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Executor, Serial};
    use its_testbed::{RunRecord, ScenarioConfig};
    use shard::transport::serve_connections;
    use std::net::{SocketAddr, TcpListener};

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 7200,
                    ..ScenarioConfig::default()
                },
                3,
            ),
            CampaignSpec::with_seed_offset(
                ScenarioConfig {
                    seed: 7200,
                    ..ScenarioConfig::default()
                },
                500,
                2,
            ),
        ]
    }

    fn spawn_worker() -> SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind worker");
        let addr = listener.local_addr().expect("worker addr");
        std::thread::spawn(move || {
            let registry = CampaignRegistry::new().register("demo", demo_grid);
            serve_connections(&listener, &registry);
        });
        addr
    }

    fn serial_flat() -> Vec<RunRecord> {
        Serial
            .execute_grid(&demo_grid())
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn zero_workers_serve_locally_without_fallback() {
        let fanout = SocketFanout::new("demo", demo_grid());
        assert_eq!(fanout.run_flat(&[]), serial_flat());
        assert_eq!(fanout.fallback_chunks(), 0);
    }

    #[test]
    fn socket_workers_match_serial_at_one_and_three() {
        for n in [1, 3] {
            let workers: Vec<SocketAddr> = (0..n).map(|_| spawn_worker()).collect();
            let fanout = SocketFanout::new("demo", demo_grid());
            assert_eq!(fanout.run_flat(&workers), serial_flat(), "{n} workers");
            assert_eq!(fanout.fallback_chunks(), 0, "{n} workers");
        }
    }

    #[test]
    fn dead_worker_falls_back_to_identical_bytes() {
        // One live worker, one address nobody listens on.
        let live = spawn_worker();
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let fanout = SocketFanout::new("demo", demo_grid());
        assert_eq!(fanout.run_flat(&[live, dead]), serial_flat());
        assert_eq!(fanout.fallback_chunks(), 1);
        assert_eq!(fanout.timed_out_chunks(), 0);
    }

    #[test]
    fn fanout_executor_matches_serial_over_workers() {
        let workers: Vec<SocketAddr> = (0..2).map(|_| spawn_worker()).collect();
        let exec = SocketFanout::new("demo", demo_grid()).with_workers(workers);
        assert_eq!(
            exec.execute_grid(&demo_grid()),
            Serial.execute_grid(&demo_grid())
        );
        assert_eq!(exec.fallback_chunks(), 0);
        // A foreign grid is computed locally — identical bytes, counted.
        let foreign = vec![CampaignSpec::new(
            ScenarioConfig {
                seed: 31,
                ..ScenarioConfig::default()
            },
            2,
        )];
        assert_eq!(exec.execute_grid(&foreign), Serial.execute_grid(&foreign));
        assert_eq!(exec.fallback_chunks(), 1);
    }

    #[test]
    fn fanout_executor_counts_a_dead_worker() {
        let live = spawn_worker();
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let exec = SocketFanout::new("demo", demo_grid()).with_workers(vec![live, dead]);
        assert_eq!(
            exec.execute_grid(&demo_grid()),
            Serial.execute_grid(&demo_grid())
        );
        assert_eq!(exec.fallback_chunks(), 1);
        assert_eq!(exec.timed_out_chunks(), 0);
    }

    #[test]
    fn fanout_executor_shards_a_lone_spec_of_its_grid() {
        let workers: Vec<SocketAddr> = (0..2).map(|_| spawn_worker()).collect();
        let exec = SocketFanout::new("demo", demo_grid()).with_workers(workers);
        let spec = &demo_grid()[1];
        assert_eq!(spec.execute(&exec), spec.execute(&Serial));
        assert_eq!(exec.fallback_chunks(), 0);
    }

    #[test]
    fn foreign_grid_is_refused_and_recovered() {
        // Worker derives "demo"; we ask for a different campaign name
        // it does not know — every chunk is refused and recovered.
        let worker = spawn_worker();
        let grid = vec![CampaignSpec::new(
            ScenarioConfig {
                seed: 9999,
                ..ScenarioConfig::default()
            },
            2,
        )];
        let fanout = SocketFanout::new("unknown", grid.clone());
        let flat: Vec<RunRecord> = Serial.execute_grid(&grid).into_iter().flatten().collect();
        assert_eq!(fanout.run_flat(&[worker]), flat);
        assert_eq!(fanout.fallback_chunks(), 1);
    }
}

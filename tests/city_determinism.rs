//! The city node-count campaign must be byte-identical however it is
//! executed: serial in-process, the deterministic thread pool, or the
//! multi-process coordinator over pipe or socket workers.
//!
//! City jobs are not scenario runs, so every executor reaches them
//! through [`Executor::run_indexed`]'s in-process path — which is
//! exactly the contract this test pins: the *same* seeded simulation
//! per index, merged in index order, regardless of worker count.

use its_testbed::campaign::{CampaignSpec, Serial};
use its_testbed::city::{sweep_city, sweep_city_records, CityConfig};
use its_testbed::{Runner, ScenarioConfig};
use shard::CampaignRegistry;
use sim_core::SimDuration;

#[path = "support/executors.rs"]
mod executors;

const COUNTS: [usize; 3] = [40, 70, 100];

fn base() -> CityConfig {
    CityConfig {
        duration: SimDuration::from_secs(2),
        ..CityConfig::default()
    }
}

/// A registry entry so the coordinators can be constructed; city jobs
/// run through `run_indexed`, not through this grid.
fn city_anchor_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::new(ScenarioConfig::default(), 4)]
}

#[test]
fn city_campaign_is_byte_identical_across_executors() {
    let registry = CampaignRegistry::new().register("city_anchor", city_anchor_grid);
    let serial_table = sweep_city(&Serial, &base(), &COUNTS);
    let serial_records = sweep_city_records(&Serial, &base(), &COUNTS);

    let mut execs = executors::matrix(&registry, "city_anchor", &[2, 4]);
    execs.push(executors::Exec::Runner(Runner::new(2)));
    for exec in execs {
        let name = exec.name();
        assert_eq!(
            sweep_city(&exec, &base(), &COUNTS),
            serial_table,
            "{name} table diverged"
        );
        assert_eq!(
            sweep_city_records(&exec, &base(), &COUNTS),
            serial_records,
            "{name} records diverged"
        );
    }
}

#[test]
fn city_records_carry_the_requested_counts_in_order() {
    let records = sweep_city_records(&Serial, &base(), &COUNTS);
    let ns: Vec<usize> = records.iter().map(|r| r.n_stations).collect();
    assert_eq!(ns, COUNTS.to_vec());
}

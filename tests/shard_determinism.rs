//! Tier-1 regression test for the multi-process shard executor
//! (DESIGN.md §10): table2, table3 and the fault-sweep campaign
//! (DESIGN.md §11) produce **byte-identical** output across serial
//! execution, an 8-thread in-process runner, and 1/2/4 pipe and socket
//! workers (the shared matrix in `support/executors.rs`) — and stay
//! identical when workers are killed mid-protocol or hang until the
//! coordinator's result timeout reaps them.
//!
//! `harness = false`: the coordinator re-execs this very binary as its
//! workers, so `main` must dispatch `--shard-worker` before anything
//! else instead of handing control to libtest.

use its_testbed::campaign::CampaignSpec;
use its_testbed::experiments::{table2, table3};
use its_testbed::faultsweep::{fault_sweep, fault_sweep_specs};
use its_testbed::scenario::ScenarioConfig;
use shard::{CampaignRegistry, HANG_ENV, KILL_ENV};
use std::time::Duration;

#[path = "support/executors.rs"]
mod executors;

/// Runs per campaign: enough that 4 workers each get a multi-run chunk.
const RUNS: usize = 24;

fn base() -> ScenarioConfig {
    ScenarioConfig {
        seed: 5000,
        ..ScenarioConfig::default()
    }
}

// The registered derivations mirror exactly what `experiments::table2` /
// `table3` build internally, so the shard executor recognises their
// specs by fingerprint and actually shards instead of falling back.
fn table2_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::new(base(), RUNS)]
}

fn table3_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::with_seed_offset(base(), 1000, RUNS)]
}

/// Seeds per fault-sweep cell: the grid is 18 cells, so 2 seeds give 36
/// flat jobs — enough for every worker count here to get real chunks.
const FS_RUNS: usize = 2;

fn fs_base() -> ScenarioConfig {
    ScenarioConfig {
        seed: 6000,
        ..ScenarioConfig::default()
    }
}

fn faultsweep_grid() -> Vec<CampaignSpec> {
    fault_sweep_specs(&fs_base(), FS_RUNS)
}

fn registry() -> CampaignRegistry {
    CampaignRegistry::new()
        .register("table2", table2_grid)
        .register("table3", table3_grid)
        .register("faultsweep", faultsweep_grid)
}

fn braking_bits(t: &its_testbed::experiments::Table3) -> Vec<u64> {
    t.braking_m.iter().map(|b| b.to_bits()).collect()
}

fn check(name: &str, ok: bool, failures: &mut usize) {
    if ok {
        println!("ok   {name}");
    } else {
        println!("FAIL {name}");
        *failures += 1;
    }
}

fn main() {
    let registry = registry();
    // Re-exec'd children take this exit and never reach the assertions.
    shard::worker_main_if_requested(&registry);

    let mut failures = 0usize;

    // Reference renderings from the plain serial loop.
    let t2_serial = table2(&its_testbed::Serial, &base(), RUNS).render();
    let t3_serial = braking_bits(&table3(&its_testbed::Serial, &base(), RUNS));

    // Every executor of the matrix — the 8-thread runner, and pipe and
    // socket workers at 1 and 4 — must be byte-identical, and no chunk
    // may have taken the in-process fallback path.
    for exec in executors::matrix(&registry, "table2", &[1, 4]) {
        let name = exec.name();
        check(
            &format!("table2: {name} matches serial"),
            table2(&exec, &base(), RUNS).render() == t2_serial,
            &mut failures,
        );
        check(
            &format!("table2: {name} took no fallback"),
            exec.fallback_chunks() == 0,
            &mut failures,
        );
    }
    for exec in executors::matrix(&registry, "table3", &[1, 4]) {
        let name = exec.name();
        check(
            &format!("table3: {name} matches serial (bitwise)"),
            braking_bits(&table3(&exec, &base(), RUNS)) == t3_serial,
            &mut failures,
        );
        check(
            &format!("table3: {name} took no fallback"),
            exec.fallback_chunks() == 0,
            &mut failures,
        );
    }

    // Kill injection: workers 0 and 2 of 4 die mid-protocol (magic
    // written, records missing). The coordinator must detect both
    // truncations, re-run those chunks in-process, and still merge to
    // the exact serial bytes. Pipe children inherit the environment and
    // socket worker threads share it, so setting the variable here
    // reaches both.
    std::env::set_var(KILL_ENV, "0,2");
    for exec in executors::remote(&registry, "table2", 4) {
        let name = exec.name();
        check(
            &format!("table2: {name} with killed workers 0,2 matches serial"),
            table2(&exec, &base(), RUNS).render() == t2_serial,
            &mut failures,
        );
        check(
            &format!("table2: {name} kill injection actually exercised the fallback"),
            exec.fallback_chunks() == 2,
            &mut failures,
        );
    }
    for exec in executors::remote(&registry, "table3", 4) {
        let name = exec.name();
        check(
            &format!("table3: {name} with killed workers 0,2 matches serial"),
            braking_bits(&table3(&exec, &base(), RUNS)) == t3_serial,
            &mut failures,
        );
        check(
            &format!("table3: {name} kill injection actually exercised the fallback"),
            exec.fallback_chunks() == 2,
            &mut failures,
        );
    }
    std::env::remove_var(KILL_ENV);

    // Hang injection: worker 1 of 4 reads its assignment and then never
    // writes a byte. The coordinator's result timeout must reap it,
    // count the chunk as timed out, re-run it in-process, and still
    // merge to the exact serial bytes.
    std::env::set_var(HANG_ENV, "1");
    for exec in executors::remote(&registry, "table2", 4) {
        let exec = exec.with_timeout(Duration::from_secs(5));
        let name = exec.name();
        check(
            &format!("table2: {name} with hung worker 1 matches serial"),
            table2(&exec, &base(), RUNS).render() == t2_serial,
            &mut failures,
        );
        check(
            &format!("table2: {name} hang injection tripped the worker timeout"),
            exec.timed_out_chunks() == 1 && exec.fallback_chunks() == 1,
            &mut failures,
        );
    }
    std::env::remove_var(HANG_ENV);

    // Fault-sweep campaign (DESIGN.md §11): the 18-cell fault grid with
    // the watchdog enabled must aggregate to byte-identical tables on
    // every executor — the acceptance bar for the fault-injection plane.
    let fs_serial = fault_sweep(&its_testbed::Serial, &fs_base(), FS_RUNS);
    for exec in executors::matrix(&registry, "faultsweep", &[2, 4]) {
        let name = exec.name();
        let sweep = fault_sweep(&exec, &fs_base(), FS_RUNS);
        check(
            &format!("faultsweep: {name} matches serial"),
            sweep == fs_serial && sweep.fingerprint() == fs_serial.fingerprint(),
            &mut failures,
        );
        check(
            &format!("faultsweep: {name} took no fallback"),
            exec.fallback_chunks() == 0,
            &mut failures,
        );
    }

    if failures > 0 {
        eprintln!("shard_determinism: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("shard_determinism: all checks passed");
}

//! The cross-strategy fault-equivalence harness: every deadlock-handling
//! strategy's repaired design is pushed through the *same* seeded
//! three-link-failure storm (the `fig_faults` configuration) on every
//! feasible Figure 8 (D26_media) and Figure 9 (D36_8) grid point, with the
//! route table the engine snapshots after every live-reconfiguration epoch
//! (`VcSimOutcome::reconfig_routes`), and the harness hard-fails unless
//!
//! * every run survives the storm — no deadlock, no cyclic epoch commit —
//!   regardless of which strategy repaired the design, and
//! * every committed route table *re-verifies* under the static checker
//!   ([`noc_deadlock::verify::check_deadlock_free`]): the runtime protocol
//!   and the static verifier must agree after every epoch, not just on the
//!   initial design, and
//! * the sweep is deterministic across executors — the serial and the
//!   threaded sweep produce byte-identical points.

use noc_bench::jobs::{fig89_grid, Params};
use noc_bench::{
    fault_run_outcome, fault_strategy_designs, fault_strategy_point, fault_sweep_storm,
    fault_sweep_traffic, FaultSweepPoint,
};
use noc_deadlock::verify::check_deadlock_free;
use noc_sim::{FaultPlan, VcSimConfig};
use noc_topology::benchmarks::Benchmark;

/// The `fig_faults` engine configuration.
fn sweep_config() -> VcSimConfig {
    VcSimConfig {
        buffer_depth: 1,
        max_cycles: 600_000,
        ..VcSimConfig::default()
    }
}

/// Runs one grid point's storm under every strategy and re-verifies each
/// committed route table statically.
fn assert_epochs_reverify(benchmark: Benchmark, switch_count: usize) {
    let routed = noc_bench::routed_benchmark(benchmark, switch_count);
    let storm = fault_sweep_storm(benchmark, switch_count);
    let plan = FaultPlan::storm(routed.topology(), &storm);
    let traffic = fault_sweep_traffic(benchmark, switch_count);
    let config = sweep_config();
    for fixed in fault_strategy_designs(&routed) {
        let label = format!("{benchmark}/{switch_count}/{}", fixed.resolution().strategy);
        let outcome = fault_run_outcome(&fixed, &plan, &traffic, &config);
        assert!(!outcome.deadlocked, "{label}: deadlocked through the storm");
        assert_eq!(
            outcome.reconfig.cyclic_commits, 0,
            "{label}: an epoch committed a cyclic combined graph"
        );
        assert_eq!(
            outcome.reconfig_routes.len(),
            outcome.reconfig.epochs_committed,
            "{label}: one route snapshot per committed epoch"
        );
        assert!(
            !outcome.reconfig_routes.is_empty(),
            "{label}: the storm must commit at least one epoch"
        );
        for (epoch, snapshot) in outcome.reconfig_routes.iter().enumerate() {
            if let Err(cycle) = check_deadlock_free(fixed.topology(), snapshot) {
                panic!(
                    "{label}: the route table committed by epoch {epoch} fails \
                     static re-verification with CDG cycle {cycle:?}"
                );
            }
        }
    }
}

#[test]
fn every_committed_epoch_reverifies_on_the_benchmark_grids() {
    let grid = fig89_grid(&Params::default()).expect("the published grid");
    noc_flow::executor::parallel_map_ordered(&grid, 0, |&(benchmark, switch_count)| {
        assert_epochs_reverify(benchmark, switch_count)
    });
}

#[test]
fn serial_and_threaded_fault_sweeps_are_byte_identical() {
    // A spread of both benchmark grids, kept small because the points run
    // twice; determinism does not depend on the point, only on the seeding.
    let subset: Vec<(Benchmark, usize)> = fig89_grid(&Params::default())
        .expect("the published grid")
        .into_iter()
        .step_by(9)
        .collect();
    assert!(subset.len() >= 4, "subset must span both grids");
    let serial: Vec<FaultSweepPoint> = subset
        .iter()
        .map(|&(benchmark, switch_count)| fault_strategy_point(benchmark, switch_count))
        .collect();
    let threaded =
        noc_flow::executor::parallel_map_ordered(&subset, 3, |&(benchmark, switch_count)| {
            fault_strategy_point(benchmark, switch_count)
        });
    assert_eq!(
        serial, threaded,
        "the fault sweep must be deterministic across executors"
    );
}

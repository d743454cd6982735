//! Repository-level integration tests: exercise the whole stack
//! (benchmark → synthesis → routing → deadlock removal → power → simulation)
//! through the umbrella crate's [`noc_suite::flow`] pipeline API, the way
//! the examples and the experiment harness do.

use noc_suite::flow::{
    CycleBreaking, DeadlockFreeStage, DeadlockStrategy, FlowSweep, ResourceOrdering, RoutedStage,
};
use noc_suite::sim::{AssignedVc, TrafficConfig, VcSimConfig};
use noc_suite::synth::SynthesisConfig;
use noc_suite::topology::benchmarks::Benchmark;

/// The full Figure-8-style pipeline for one benchmark and one switch count.
/// Every stage transition auto-runs the `validate_*`/`verify` checks this
/// test used to call by hand.
fn pipeline(benchmark: Benchmark, switches: usize) {
    let routed = RoutedStage::synthesize(
        benchmark.comm_graph(),
        &SynthesisConfig::with_switches(switches),
    )
    .unwrap();

    // The paper's algorithm: deadlock-free and never worse than the
    // resource-ordering baseline.
    let fixed = routed.resolve_deadlocks(&CycleBreaking).unwrap();
    let ordered = routed.resolve_deadlocks(&ResourceOrdering).unwrap();
    assert!(fixed.resolution().added_vcs() <= ordered.resolution().added_vcs());

    // The power model sees the extra buffers of the baseline.
    let removal_power = fixed.power().total_power_mw;
    let ordering_power = ordered.power().total_power_mw;
    assert!(ordering_power >= removal_power);
}

#[test]
fn d26_media_full_pipeline() {
    pipeline(Benchmark::D26Media, 12);
}

#[test]
fn d36_8_full_pipeline() {
    pipeline(Benchmark::D36x8, 14);
}

#[test]
fn d35_bott_full_pipeline() {
    pipeline(Benchmark::D35Bott, 9);
}

/// Swapping the deadlock scheme really is a one-line change: the same flow,
/// parameterised only by the strategy, works for both implementations.
#[test]
fn strategies_are_one_line_swaps() {
    fn fix(strategy: &dyn DeadlockStrategy) -> DeadlockFreeStage {
        let comm = Benchmark::D36x8.comm_graph();
        RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(10))
            .unwrap()
            .resolve_deadlocks(strategy) // <- the one line that changes
            .unwrap()
    }

    let removal = fix(&CycleBreaking);
    let ordering = fix(&ResourceOrdering);
    assert_eq!(removal.resolution().strategy, "cycle-breaking");
    assert_eq!(ordering.resolution().strategy, "resource-ordering");
    assert!(removal.resolution().added_vcs() <= ordering.resolution().added_vcs());
}

#[test]
fn repaired_designs_complete_a_simulated_workload() {
    let comm = Benchmark::D36x6.comm_graph();
    let outcome = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(10))
        .unwrap()
        .resolve_deadlocks(&CycleBreaking)
        .unwrap()
        .simulate_vc(
            &AssignedVc,
            &VcSimConfig {
                buffer_depth: 2,
                max_cycles: 500_000,
                ..VcSimConfig::default()
            },
            &TrafficConfig {
                packets_per_flow: 3,
                packet_length: 4,
                mean_gap_cycles: 4,
                seed: 5,
            },
        );
    assert!(!outcome.deadlocked);
    assert_eq!(
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets
    );
}

/// The paper's Figure 8 and Figure 9 grids through `FlowSweep::run`: one
/// worker and 2, 4 or 16 workers must produce the exact same point
/// sequence.
#[test]
fn figure_grids_are_identical_serial_and_parallel() {
    let removal = CycleBreaking;
    let ordering = ResourceOrdering;
    let strategies: &[&dyn DeadlockStrategy] = &[&removal, &ordering];
    for (benchmark, counts) in [
        (Benchmark::D26Media, 5..=25), // Figure 8
        (Benchmark::D36x8, 10..=35),   // Figure 9
    ] {
        let sweep = FlowSweep::new()
            .benchmark(benchmark)
            .switch_counts(counts)
            .power_estimates(false);
        let serial = sweep.clone().worker_threads(1).run(strategies).unwrap();
        assert!(!serial.is_empty(), "{benchmark}: the grid is feasible");
        for threads in [2, 4, 16] {
            let parallel = sweep
                .clone()
                .worker_threads(threads)
                .run(strategies)
                .unwrap();
            assert_eq!(serial, parallel, "{benchmark}: threads = {threads}");
        }
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // Smoke-test that every re-exported module is reachable through the
    // umbrella crate (what the examples rely on).
    let g: noc_suite::graph::DiGraph<(), ()> = noc_suite::graph::DiGraph::new();
    assert_eq!(g.node_count(), 0);
    assert_eq!(Benchmark::ALL.len(), 6);
    // The flow API is reachable as noc_suite::flow.
    let comm = Benchmark::D26Media.comm_graph();
    let routed = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(4)).unwrap();
    assert_eq!(routed.comm().core_count(), 26);
    let estimate = noc_suite::power::estimate(routed.topology(), routed.comm(), routed.routes());
    assert!(estimate.total_power_mw > 0.0);
}

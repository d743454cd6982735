//! Strategy-equivalence and safety tests for the full strategy matrix.
//!
//! Every [`DeadlockStrategy`] implementation, on every grid point of the
//! paper's Figure 8 (D26_media, 5–25 switches) and Figure 9 (D36_8, 10–35
//! switches) sweeps, must produce a design that `noc_deadlock::verify`
//! confirms deadlock-free — on top of the stage's own re-verification.
//! Scheme-specific contracts are pinned too: escape channels never break a
//! cycle, recovery never buys a VC, and the two VC schemes never touch
//! physical routes.  The exact certifier is the reference for the certify
//! block a sweep attaches without running it: on every repaired design it
//! must return the acyclic fast-path report.

use noc_deadlock::certify::{certify_deadlock_free, CertifyReport};
use noc_deadlock::verify::check_deadlock_free;
use noc_flow::{
    CycleBreaking, DeadlockStrategy, EscapeChannel, FlowError, FlowSweep, RecoveryReconfig,
    ResolutionDetail, ResourceOrdering, RoutedStage, StrategyKind,
};
use noc_synth::SynthesisConfig;
use noc_topology::benchmarks::Benchmark;
use noc_topology::LinkId;

/// The Figure 8 + Figure 9 grids (feasibility is checked by synthesis).
fn fig8_fig9_grid() -> Vec<(Benchmark, usize)> {
    (5..=25)
        .map(|s| (Benchmark::D26Media, s))
        .chain((10..=35).map(|s| (Benchmark::D36x8, s)))
        .collect()
}

#[test]
fn every_strategy_yields_a_verified_deadlock_free_design_on_every_grid_point() {
    let cycle_breaking = CycleBreaking;
    let ordering = ResourceOrdering;
    let escape = EscapeChannel;
    let recovery = RecoveryReconfig;
    let strategies: [&dyn DeadlockStrategy; 4] = [&cycle_breaking, &ordering, &escape, &recovery];

    let grid = fig8_fig9_grid();
    noc_flow::executor::parallel_map_ordered(&grid, 0, |&(benchmark, switch_count)| {
        let routed = RoutedStage::synthesize(
            benchmark.comm_graph(),
            &SynthesisConfig::with_switches(switch_count),
        )
        .unwrap_or_else(|e| panic!("synthesis {benchmark}/{switch_count}: {e}"));
        let input_links: Vec<Vec<LinkId>> = routed
            .routes()
            .iter()
            .map(|(_, r)| r.links().collect())
            .collect();

        for (&strategy, expected_kind) in strategies.iter().zip(StrategyKind::ALL) {
            let fixed = routed.resolve_deadlocks(strategy).unwrap_or_else(|e| {
                panic!("{} on {benchmark}/{switch_count}: {e}", strategy.name())
            });
            // Independent verification through core::verify, on top of the
            // stage's built-in check.
            check_deadlock_free(fixed.topology(), fixed.routes()).unwrap_or_else(|c| {
                panic!(
                    "{} left a cycle on {benchmark}/{switch_count}: {c}",
                    strategy.name()
                )
            });
            assert_eq!(
                certify_deadlock_free(fixed.topology(), fixed.routes()),
                CertifyReport::acyclic(),
                "{} on {benchmark}/{switch_count}: the certifier disagrees with the fast path",
                strategy.name()
            );

            let resolution = fixed.resolution();
            assert_eq!(resolution.strategy, strategy.name());
            // The detail's variant is the strategy's kind, and the
            // resolution's counts are the detail's own.
            let (kind, added_vcs, cycles_broken) = match &resolution.detail {
                ResolutionDetail::Removal(report) => (
                    StrategyKind::CycleBreaking,
                    report.added_vcs,
                    report.cycles_broken,
                ),
                ResolutionDetail::Ordering(result) => {
                    assert_eq!(resolution.cycles_broken(), 0);
                    (StrategyKind::ResourceOrdering, result.added_vcs, 0)
                }
                ResolutionDetail::Escape(stats) => {
                    // The avoidance contract: zero cycles ever broken.
                    assert_eq!(resolution.cycles_broken(), 0);
                    assert_eq!(stats.added_vcs, resolution.added_vcs());
                    (StrategyKind::EscapeChannel, stats.added_vcs, 0)
                }
                ResolutionDetail::Recovery(stats) => {
                    // The recovery contract: zero VCs, zero cycle breaks.
                    assert_eq!(resolution.cycles_broken(), 0);
                    assert_eq!(resolution.added_vcs(), 0);
                    assert_eq!(fixed.topology().extra_vc_count(), 0);
                    assert_eq!(stats.flows_drained(), stats.flows_reconfigured);
                    (StrategyKind::RecoveryReconfig, 0, 0)
                }
            };
            let label = format!("{} on {benchmark}/{switch_count}", strategy.name());
            assert_eq!(kind, expected_kind, "{label}: detail variant");
            assert_eq!(resolution.kind(), expected_kind, "{label}: kind");
            assert_eq!(resolution.added_vcs(), added_vcs, "{label}: added VCs");
            assert_eq!(resolution.cycles_broken(), cycles_broken, "{label}: breaks");
            assert_eq!(
                fixed.topology().extra_vc_count(),
                added_vcs,
                "{label}: the topology's extra VCs"
            );

            // VC-based schemes must keep every physical route; recovery is
            // the only strategy allowed to move flows.
            if resolution.kind() != StrategyKind::RecoveryReconfig {
                let after: Vec<Vec<LinkId>> = fixed
                    .routes()
                    .iter()
                    .map(|(_, r)| r.links().collect())
                    .collect();
                assert_eq!(
                    input_links,
                    after,
                    "{} changed physical links on {benchmark}/{switch_count}",
                    strategy.name()
                );
            }
        }
    });
}

#[test]
fn strategy_matrix_sweep_carries_all_four_outcomes_per_point() {
    let cycle_breaking = CycleBreaking;
    let ordering = ResourceOrdering;
    let escape = EscapeChannel;
    let recovery = RecoveryReconfig;
    let strategies: [&dyn DeadlockStrategy; 4] = [&cycle_breaking, &ordering, &escape, &recovery];

    let points = FlowSweep::new()
        .benchmarks([Benchmark::D26Media, Benchmark::D36x8])
        .switch_counts([8, 12])
        .power_estimates(false)
        .worker_threads(3)
        .run(&strategies)
        .unwrap();
    assert_eq!(points.len(), 4);
    for point in &points {
        assert_eq!(point.outcomes.len(), 4);
        let kinds: Vec<StrategyKind> = point.outcomes.iter().map(|o| o.kind).collect();
        assert_eq!(kinds, StrategyKind::ALL.to_vec());
        let escape = point.outcome("escape-channel").unwrap();
        assert_eq!(escape.cycles_broken, 0);
        assert_eq!(escape.mean_hops, point.mean_hops, "escape keeps routes");
        let recovery = point.outcome("recovery-reconfig").unwrap();
        assert_eq!(recovery.added_vcs, 0);
        assert!(
            recovery.mean_hops >= point.mean_hops,
            "recovery routes are never shorter than the shortest-path input"
        );
        // The paper's headline comparison still holds inside the matrix.
        let removal = point.outcome("cycle-breaking").unwrap();
        let ordering = point.outcome("resource-ordering").unwrap();
        assert!(removal.added_vcs <= ordering.added_vcs);
    }
}

#[test]
fn four_strategy_matrix_is_identical_for_every_worker_count() {
    let cycle_breaking = CycleBreaking;
    let ordering = ResourceOrdering;
    let escape = EscapeChannel;
    let recovery = RecoveryReconfig;
    let strategies: [&dyn DeadlockStrategy; 4] = [&cycle_breaking, &ordering, &escape, &recovery];

    let sweep = FlowSweep::new()
        .benchmark(Benchmark::D36x8)
        .switch_counts([10, 14, 18])
        .power_estimates(false);
    let serial = sweep.clone().worker_threads(1).run(&strategies).unwrap();
    for threads in [2, 4, 16] {
        let parallel = sweep
            .clone()
            .worker_threads(threads)
            .run(&strategies)
            .unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn empty_strategy_list_is_rejected_with_a_typed_error() {
    let sweep = FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .switch_counts([8])
        .power_estimates(false);
    for threads in [1, 2] {
        assert!(matches!(
            sweep.clone().worker_threads(threads).run(&[]),
            Err(FlowError::EmptyStrategySet)
        ));
    }
}

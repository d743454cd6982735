//! Equivalence suite for the incremental CDG maintenance engine.
//!
//! The incremental removal loop ([`remove_deadlocks`]) must produce the
//! *same algorithmic outcome* as the from-scratch reference
//! ([`remove_deadlocks_rebuilding`]) — same cycles broken, in the same order, with
//! the same direction choices, VC costs and re-routed flow counts — on
//! every seeded benchmark grid point of the paper's Figures 8 and 9, plus a
//! family of random cycle-heavy designs.  This is the
//! incremental == full-rebuild pin that the formal-verification line of
//! work (Verbeek & Schmaltz) motivates: an incremental optimisation is only
//! admissible if it is observationally identical to the definition.

use noc_deadlock::removal::{remove_deadlocks, remove_deadlocks_rebuilding, RemovalConfig};
use noc_deadlock::verify;
use noc_routing::{Route, RouteSet};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{FlowId, Topology};

/// The signature shared by the incremental loop and the rebuilding oracle.
type Removal = fn(
    &mut Topology,
    &mut RouteSet,
    &RemovalConfig,
) -> Result<noc_deadlock::RemovalReport, noc_deadlock::RemovalError>;

/// Runs `removal` on clones of the design and returns the report together
/// with the repaired design.
fn run_mode(
    topology: &Topology,
    routes: &RouteSet,
    removal: Removal,
) -> (noc_deadlock::RemovalReport, Topology, RouteSet) {
    let mut topo = topology.clone();
    let mut routes = routes.clone();
    let report =
        removal(&mut topo, &mut routes, &RemovalConfig::default()).expect("removal succeeds");
    (report, topo, routes)
}

/// Asserts the two modes agree on one design: identical outcome report,
/// identical repaired topology cost and identical re-routed channel lists.
/// Returns the incremental run's report.
fn assert_modes_agree(
    topology: &Topology,
    routes: &RouteSet,
    label: &str,
) -> noc_deadlock::RemovalReport {
    let (inc_report, inc_topo, inc_routes) = run_mode(topology, routes, remove_deadlocks);
    let (ref_report, ref_topo, ref_routes) =
        run_mode(topology, routes, remove_deadlocks_rebuilding);

    assert!(
        inc_report.same_outcome(&ref_report),
        "{label}: incremental report diverged\nincremental: {inc_report:?}\nreference:   {ref_report:?}"
    );
    assert_eq!(
        inc_topo.extra_vc_count(),
        ref_topo.extra_vc_count(),
        "{label}: repaired topologies differ in VC count"
    );
    for flow in 0..inc_routes.flow_count() {
        let flow = FlowId::from_index(flow);
        let inc: Vec<_> = inc_routes
            .route(flow)
            .map(|r| r.channels().to_vec())
            .unwrap_or_default();
        let reference: Vec<_> = ref_routes
            .route(flow)
            .map(|r| r.channels().to_vec())
            .unwrap_or_default();
        assert_eq!(inc, reference, "{label}: route of {flow} differs");
    }
    verify::check_deadlock_free(&inc_topo, &inc_routes)
        .unwrap_or_else(|c| panic!("{label}: incremental result still cyclic: {c:?}"));

    // The maintenance diagnostics must reflect the mode that actually ran.
    assert_eq!(
        inc_report.cdg.full_builds, 1,
        "{label}: incremental rebuilds"
    );
    assert_eq!(
        ref_report.cdg.full_builds,
        ref_report.cycles_broken + 1,
        "{label}: reference builds once per iteration"
    );
    if inc_report.cycles_broken > 0 {
        assert!(inc_report.cdg.incremental(), "{label}: deltas not recorded");
        assert_eq!(
            inc_report.cdg.step_deltas.len(),
            inc_report.cycles_broken,
            "{label}: one delta per break"
        );
        assert_eq!(
            inc_report.cdg.channels_added(),
            inc_report.added_vcs,
            "{label}: every added VC enters the CDG exactly once"
        );
    }
    inc_report
}

/// Shards the grid across scoped worker threads (the test itself is the
/// slow part, not the assertion) and checks every point.
fn assert_grid_equivalence(benchmark: Benchmark, switch_counts: impl Iterator<Item = usize>) {
    let grid: Vec<usize> = switch_counts
        .filter(|&s| s > 0 && s <= benchmark.core_count())
        .collect();
    noc_flow::executor::parallel_map_ordered(&grid, 0, |&switches| {
        let comm = benchmark.comm_graph();
        let design = synthesize(&comm, &SynthesisConfig::with_switches(switches))
            .unwrap_or_else(|e| panic!("{benchmark}/{switches}: synthesis failed: {e}"));
        assert_modes_agree(
            &design.topology,
            &design.routes,
            &format!("{benchmark}/{switches}"),
        );
    });
}

/// Every Figure 8 grid point: D26_media, 5 to 25 switches.
#[test]
fn figure_8_grid_incremental_matches_full_rebuild() {
    assert_grid_equivalence(Benchmark::D26Media, 5..=25);
}

/// Every Figure 9 grid point: D36_8, 10 to 35 switches.
#[test]
fn figure_9_grid_incremental_matches_full_rebuild() {
    assert_grid_equivalence(Benchmark::D36x8, 10..=35);
}

/// Ring-backbone synthesis is the cycle-heavy stress shape: many breaks per
/// run, so many incremental deltas to get wrong.
#[test]
fn ring_backbone_designs_incremental_matches_full_rebuild() {
    for benchmark in [Benchmark::D36x8, Benchmark::D35Bott] {
        let comm = benchmark.comm_graph();
        for switches in [8, 12, 16] {
            let design = synthesize(&comm, &SynthesisConfig::with_switches_ring(switches))
                .expect("ring synthesis succeeds");
            assert_modes_agree(
                &design.topology,
                &design.routes,
                &format!("ring/{benchmark}/{switches}"),
            );
        }
    }
}

/// Shortest-path routed tori are the long-cycle designs: their smallest
/// cycles run around a whole ring, so most cycle-search work is the scan
/// over nodes whose certified bound already rules out a shorter cycle.
/// torus2d 8x8 and 12x12, two traffic seeds each, four flows per core
/// (22 to 61 breaks per design).
#[test]
fn torus_designs_incremental_matches_full_rebuild() {
    use noc_routing::shortest::route_all_shortest;
    use noc_topology::generators;
    let cases: Vec<(usize, u64)> = [8, 12]
        .into_iter()
        .flat_map(|side| [(side, 0xD47E_2010), (side, 0x5EED)])
        .collect();
    noc_flow::executor::parallel_map_ordered(&cases, 0, |&(side, seed)| {
        let generated = generators::torus2d(side, side, 1.0);
        let workload = generators::uniform_traffic(&generated, 4, seed, 1.0);
        let routes = route_all_shortest(&generated.topology, &workload.comm, &workload.map)
            .expect("a torus is strongly connected");
        let label = format!("torus2d {side}x{side} seed {seed:#x}");
        let report = assert_modes_agree(&generated.topology, &routes, &label);
        assert!(report.cycles_broken >= 20, "{label}: too few breaks");
    });
}

/// Seeded random unidirectional rings with chords and random multi-hop
/// flows: small adversarial designs with multiple overlapping CDG cycles.
#[test]
fn random_chorded_rings_incremental_matches_full_rebuild() {
    use noc_rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(0xD10C);
    for case in 0..24_u64 {
        let switches = rng.gen_range(4..9_usize);
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..switches)
            .map(|i| topo.add_switch(format!("s{i}")))
            .collect();
        let ring: Vec<_> = (0..switches)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % switches], 1.0))
            .collect();
        let chords = rng.gen_range(0..3_usize);
        let mut extra = Vec::new();
        for _ in 0..chords {
            let a = rng.gen_range(0..switches);
            let b = rng.gen_range(0..switches);
            if a != b {
                extra.push(topo.add_link(sw[a], sw[b], 1.0));
            }
        }
        let flows = rng.gen_range(3..9_usize);
        let mut routes = RouteSet::new(flows);
        for f in 0..flows {
            // A contiguous run of ring links, occasionally detouring over a
            // chord, gives multi-hop routes that stack cyclic dependencies.
            let start = rng.gen_range(0..switches);
            let hops = rng.gen_range(2..switches.max(3));
            let mut links = Vec::with_capacity(hops);
            for h in 0..hops {
                links.push(ring[(start + h) % switches]);
            }
            if !extra.is_empty() && rng.gen_range(0..4_usize) == 0 {
                links.push(extra[rng.gen_range(0..extra.len())]);
            }
            routes.set_route(FlowId::from_index(f), Route::from_links(links));
        }
        assert_modes_agree(&topo, &routes, &format!("random case {case}"));
    }
}

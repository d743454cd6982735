//! Integration and property-style tests for the deadlock-removal algorithm
//! over whole synthesized designs (benchmark suite + random designs).
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so the random-design properties are checked over a seeded
//! stream of inputs from `noc-rng` — same properties, deterministic cases.

use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::resource_ordering::apply_resource_ordering;
use noc_deadlock::verify;
use noc_rng::SmallRng;
use noc_routing::validate::validate_routes;
use noc_routing::{Route, RouteSet};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{LinkId, Topology};

/// `true` when every channel the routes use exists in the topology: the
/// link is known and the VC index is within the link's VC count.
fn every_channel_exists(topology: &Topology, routes: &RouteSet) -> bool {
    routes.iter().all(|(_, route)| {
        route.channels().iter().all(|channel| {
            topology
                .link(channel.link)
                .is_some_and(|link| channel.vc < link.vcs)
        })
    })
}

/// The VCs resource ordering adds when applied to a copy of the design.
fn ordering_baseline(topology: &Topology, routes: &RouteSet) -> usize {
    let (mut topology, mut routes) = (topology.clone(), routes.clone());
    apply_resource_ordering(&mut topology, &mut routes)
        .unwrap()
        .added_vcs
}

/// Every benchmark, at several switch counts: the removal algorithm must
/// leave a deadlock-free design with valid routes and must never cost more
/// VCs than the resource-ordering baseline.
#[test]
fn removal_beats_or_matches_resource_ordering_on_all_benchmarks() {
    for benchmark in Benchmark::ALL {
        let comm = benchmark.comm_graph();
        for switches in [5, 9, 14] {
            let design = synthesize(&comm, &SynthesisConfig::with_switches(switches)).unwrap();

            let baseline = ordering_baseline(&design.topology, &design.routes);

            let mut topo = design.topology.clone();
            let mut routes = design.routes.clone();
            let report = remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default())
                .unwrap_or_else(|e| panic!("{benchmark}/{switches}: {e}"));

            verify::check_deadlock_free(&topo, &routes)
                .unwrap_or_else(|c| panic!("{benchmark}/{switches}: still cyclic: {c}"));
            validate_routes(&topo, &comm, &design.core_map, &routes)
                .unwrap_or_else(|e| panic!("{benchmark}/{switches}: invalid routes: {e}"));
            assert!(every_channel_exists(&topo, &routes));

            assert!(
                report.added_vcs <= baseline,
                "{benchmark}/{switches}: removal used {} VCs, resource ordering {}",
                report.added_vcs,
                baseline
            );
            assert_eq!(report.added_vcs, topo.extra_vc_count());
        }
    }
}

/// Ring-backbone topologies (more cycle-prone) are also always fixed.
#[test]
fn ring_backbone_designs_are_fixed() {
    for benchmark in [Benchmark::D36x8, Benchmark::D26Media, Benchmark::D35Bott] {
        let comm = benchmark.comm_graph();
        for switches in [6, 10, 14] {
            let design = synthesize(&comm, &SynthesisConfig::with_switches_ring(switches)).unwrap();
            let mut topo = design.topology.clone();
            let mut routes = design.routes.clone();
            let report =
                remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
            verify::check_deadlock_free(&topo, &routes).unwrap();
            let baseline = ordering_baseline(&design.topology, &design.routes);
            assert!(report.added_vcs <= baseline);
        }
    }
}

/// Build a random unidirectional "ring with chords" topology and random
/// multi-hop routes along it.
fn random_design(
    switches: usize,
    chords: &[(usize, usize)],
    flows: &[(usize, usize)],
) -> (Topology, RouteSet) {
    let mut topo = Topology::new();
    let sw: Vec<_> = (0..switches)
        .map(|i| topo.add_switch(format!("s{i}")))
        .collect();
    let mut ring_links: Vec<LinkId> = Vec::new();
    for i in 0..switches {
        ring_links.push(topo.add_link(sw[i], sw[(i + 1) % switches], 1.0));
    }
    for &(a, b) in chords {
        if a != b {
            topo.add_link(sw[a % switches], sw[b % switches], 1.0);
        }
    }
    // Routes follow the ring from src forward `len` hops.
    let mut routes = RouteSet::new(flows.len());
    for (idx, &(src, len)) in flows.iter().enumerate() {
        let src = src % switches;
        let len = 1 + len % (switches - 1);
        let links: Vec<LinkId> = (0..len).map(|k| ring_links[(src + k) % switches]).collect();
        routes.set_route(
            noc_topology::FlowId::from_index(idx),
            Route::from_links(links),
        );
    }
    (topo, routes)
}

/// Draws the parameters the proptest strategies used to generate.
fn draw_design(rng: &mut SmallRng) -> (Topology, RouteSet) {
    let switches = rng.gen_range(3usize..10);
    let chords: Vec<(usize, usize)> = (0..rng.gen_range(0usize..6))
        .map(|_| (rng.gen_range(0usize..10), rng.gen_range(0usize..10)))
        .collect();
    let flows: Vec<(usize, usize)> = (0..rng.gen_range(1usize..24))
        .map(|_| (rng.gen_range(0usize..10), rng.gen_range(0usize..8)))
        .collect();
    random_design(switches, &chords, &flows)
}

/// The algorithm always terminates with an acyclic CDG on random ring
/// designs, the added-VC count matches the topology delta, and it never
/// costs more than resource ordering.
#[test]
fn random_ring_designs_are_always_fixed() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
    for case in 0..48 {
        let (topo, routes) = draw_design(&mut rng);
        let baseline = ordering_baseline(&topo, &routes);

        let mut fixed_topo = topo.clone();
        let mut fixed_routes = routes.clone();
        let report = remove_deadlocks(
            &mut fixed_topo,
            &mut fixed_routes,
            &RemovalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("case {case}: removal errored: {e}"));

        assert!(
            verify::check_deadlock_free(&fixed_topo, &fixed_routes).is_ok(),
            "case {case}"
        );
        assert!(
            every_channel_exists(&fixed_topo, &fixed_routes),
            "case {case}"
        );
        assert_eq!(report.added_vcs, fixed_topo.extra_vc_count(), "case {case}");
        assert!(report.added_vcs <= baseline, "case {case}");

        // Physical link usage must be untouched.
        for (flow, route) in routes.iter() {
            let before: Vec<LinkId> = route.links().collect();
            let after: Vec<LinkId> = fixed_routes.route(flow).unwrap().links().collect();
            assert_eq!(before, after, "case {case}");
        }
    }
}

/// Resource ordering always yields an acyclic CDG too (it is a correct,
/// just expensive, baseline).
#[test]
fn resource_ordering_is_always_deadlock_free() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
    for case in 0..48 {
        let switches = rng.gen_range(3usize..8);
        let flows: Vec<(usize, usize)> = (0..rng.gen_range(1usize..16))
            .map(|_| (rng.gen_range(0usize..8), rng.gen_range(0usize..6)))
            .collect();
        let (mut topo, mut routes) = random_design(switches, &[], &flows);
        noc_deadlock::apply_resource_ordering(&mut topo, &mut routes).unwrap();
        assert!(
            verify::check_deadlock_free(&topo, &routes).is_ok(),
            "case {case}"
        );
        assert!(every_channel_exists(&topo, &routes), "case {case}");
    }
}

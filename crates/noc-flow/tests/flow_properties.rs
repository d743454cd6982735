//! Property tests for the pipeline:
//!
//! 1. every routing function the pipeline can be fed (shortest paths under
//!    both cost models, up*/down* from two roots, XY on meshes) produces
//!    routes that pass `validate_routes`, and both [`DeadlockStrategy`]
//!    implementations make those routes deadlock-free,
//! 2. both strategies leave the CDG acyclic on a ring, a mesh, and every
//!    benchmark of the paper's suite.

use noc_deadlock::report::RemovalReport;
use noc_deadlock::verify::check_deadlock_free;
use noc_flow::{
    CycleBreaking, DeadlockResolution, DeadlockStrategy, ResolutionDetail, ResourceOrdering,
    RoutedStage,
};
use noc_routing::shortest::{route_all_with_cost, LinkCost};
use noc_routing::updown::route_all_updown;
use noc_routing::validate::validate_routes;
use noc_routing::xy::{route_all_xy, MeshCoords};
use noc_routing::RouteSet;
use noc_synth::SynthesisConfig;
use noc_topology::benchmarks::Benchmark;
use noc_topology::{generators, CommGraph, CoreMap, SwitchId, Topology};

/// An all-to-all traffic pattern over a generated regular topology, one
/// core per switch.
fn all_to_all_flow(generated: generators::Generated) -> (CommGraph, Topology, CoreMap) {
    let n = generated.switches.len();
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                comm.add_flow(cores[i], cores[j], 10.0);
            }
        }
    }
    let mut map = CoreMap::new(n);
    for (i, &c) in cores.iter().enumerate() {
        map.assign(c, generated.switches[i]).unwrap();
    }
    (comm, generated.topology, map)
}

/// Runs `strategy` on a copy of the design and checks the repaired CDG is
/// acyclic.  Returns the VCs the strategy added.
fn resolve_acyclic(
    strategy: &dyn DeadlockStrategy,
    topology: &Topology,
    routes: &RouteSet,
    label: &str,
) -> usize {
    let mut topology = topology.clone();
    let mut routes = routes.clone();
    let resolution = DeadlockResolution::apply(strategy, &mut topology, &mut routes)
        .unwrap_or_else(|e| panic!("{} on {label}: {e}", strategy.name()));
    check_deadlock_free(&topology, &routes)
        .unwrap_or_else(|c| panic!("{} left a cycle on {label}: {c}", strategy.name()));
    resolution.added_vcs()
}

/// Every routing function, over every topology it supports, yields routes
/// that pass `validate_routes` and that both strategies repair.
#[test]
fn every_router_impl_produces_valid_routes() {
    let strategies: [&dyn DeadlockStrategy; 2] = [&CycleBreaking, &ResourceOrdering];
    // Shortest-path (both cost models) and up*/down* handle arbitrary
    // topologies: rings and meshes.
    for size in [3, 5, 8] {
        for gen in [
            generators::bidirectional_ring(size, 1000.0),
            generators::mesh2d(size, 2, 1000.0),
        ] {
            let (comm, topology, map) = all_to_all_flow(gen);
            let last = SwitchId::from_index(size - 1);
            let route_sets = [
                (
                    "shortest-path",
                    route_all_with_cost(&topology, &comm, &map, LinkCost::Hops),
                ),
                (
                    "shortest-path-bw",
                    route_all_with_cost(&topology, &comm, &map, LinkCost::InverseBandwidth),
                ),
                (
                    "up-down",
                    route_all_updown(&topology, &comm, &map, SwitchId::from_index(0)),
                ),
                (
                    "up-down-last",
                    route_all_updown(&topology, &comm, &map, last),
                ),
            ];
            for (name, routes) in route_sets {
                let label = format!("{name} on size {size}");
                let routes = routes.unwrap_or_else(|e| panic!("{label}: {e}"));
                validate_routes(&topology, &comm, &map, &routes)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                for strategy in strategies {
                    resolve_acyclic(strategy, &topology, &routes, &label);
                }
            }
        }
    }

    // XY is mesh-specific.
    for (rows, cols) in [(2, 2), (2, 4), (3, 3)] {
        let gen = generators::mesh2d(rows, cols, 1000.0);
        let coords = MeshCoords::new(rows, cols, gen.switches.clone());
        let (comm, topology, map) = all_to_all_flow(gen);
        let label = format!("xy on {rows}x{cols}");
        let routes = route_all_xy(&topology, &comm, &map, &coords).unwrap();
        validate_routes(&topology, &comm, &map, &routes).unwrap_or_else(|e| panic!("{label}: {e}"));
        // XY on a mesh is deadlock-free by construction.
        assert!(check_deadlock_free(&topology, &routes).is_ok());
        for strategy in strategies {
            resolve_acyclic(strategy, &topology, &routes, &label);
        }
    }
}

/// Both deadlock strategies leave the CDG acyclic on a ring (the paper's
/// cyclic Figure 1 shape) and on a mesh (already acyclic under XY).
#[test]
fn both_strategies_fix_ring_and_mesh() {
    let strategies: [&dyn DeadlockStrategy; 2] = [&CycleBreaking, &ResourceOrdering];

    // Unidirectional ring: the canonical cyclic CDG.
    let (comm, topology, map) = all_to_all_flow(generators::unidirectional_ring(5, 1000.0));
    let routed = RoutedStage::with_design(comm, topology, map).unwrap();
    assert!(
        routed.deadlock_evidence().is_some(),
        "a routed ring must be cyclic"
    );
    for strategy in strategies {
        let fixed = routed.resolve_deadlocks(strategy).unwrap();
        check_deadlock_free(fixed.topology(), fixed.routes())
            .unwrap_or_else(|c| panic!("{} left a cycle on the ring: {c}", strategy.name()));
    }

    // Mesh under XY: already safe, and cycle breaking must add zero VCs.
    let gen = generators::mesh2d(3, 3, 1000.0);
    let coords = MeshCoords::new(3, 3, gen.switches.clone());
    let (comm, topology, map) = all_to_all_flow(gen);
    let routes = route_all_xy(&topology, &comm, &map, &coords).unwrap();
    validate_routes(&topology, &comm, &map, &routes).unwrap();
    for strategy in strategies {
        resolve_acyclic(strategy, &topology, &routes, "the xy mesh");
    }
    let (mut fixed_topology, mut fixed_routes) = (topology.clone(), routes.clone());
    let removal = CycleBreaking
        .resolve(&mut fixed_topology, &mut fixed_routes)
        .unwrap();
    let ResolutionDetail::Removal(report) = removal else {
        panic!("cycle breaking reports a removal: {removal:?}");
    };
    assert_eq!(report.added_vcs, 0);
    assert!(report.already_deadlock_free);
}

/// Both strategies leave the CDG acyclic on every benchmark of the paper's
/// suite (synthesized designs, the paper's input routing).
#[test]
fn both_strategies_fix_every_benchmark() {
    let strategies: [&dyn DeadlockStrategy; 2] = [&CycleBreaking, &ResourceOrdering];
    for benchmark in Benchmark::ALL {
        let routed =
            RoutedStage::synthesize(benchmark.comm_graph(), &SynthesisConfig::with_switches(9))
                .unwrap();
        for strategy in strategies {
            let fixed = routed
                .resolve_deadlocks(strategy)
                .unwrap_or_else(|e| panic!("{} on {benchmark}: {e}", strategy.name()));
            check_deadlock_free(fixed.topology(), fixed.routes())
                .unwrap_or_else(|c| panic!("{} on {benchmark}: {c}", strategy.name()));
            // The repaired routes still validate against the design.
            validate_routes(
                fixed.topology(),
                fixed.comm(),
                fixed.core_map(),
                fixed.routes(),
            )
            .unwrap();
        }
    }
}

/// A broken strategy (one that does nothing) is rejected by the stage's
/// post-verification instead of leaking a cyclic design downstream.
#[test]
fn stage_rejects_strategies_that_leave_cycles() {
    struct DoNothing;
    impl DeadlockStrategy for DoNothing {
        fn name(&self) -> &str {
            "do-nothing"
        }
        fn resolve(
            &self,
            _topology: &mut Topology,
            _routes: &mut noc_routing::RouteSet,
        ) -> Result<ResolutionDetail, noc_flow::FlowError> {
            Ok(ResolutionDetail::Removal(RemovalReport::default()))
        }
    }

    let (comm, topology, map) = all_to_all_flow(generators::unidirectional_ring(4, 1000.0));
    let routed = RoutedStage::with_design(comm, topology, map).unwrap();
    let err = routed.resolve_deadlocks(&DoNothing).unwrap_err();
    assert!(matches!(err, noc_flow::FlowError::StillCyclic(_)));
}

/// The VC-aware stage path: the routed stage's `simulate_vc` runs the
/// deadlock-prone design as it stands, and the repaired stage's honours the
/// strategy's VC assignment and delivers every packet.
#[test]
fn vc_aware_simulation_paths_work_end_to_end() {
    use noc_sim::{AssignedVc, SingleVc, TrafficConfig, VcSimConfig};

    let comm = Benchmark::D36x8.comm_graph();
    let routed = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(12)).unwrap();
    assert!(
        routed.deadlock_evidence().is_some(),
        "the input design is cyclic"
    );
    assert!(routed.vc_map().is_single_vc(), "input routing rides VC 0");

    let sim = VcSimConfig {
        buffer_depth: 1,
        ..VcSimConfig::default()
    };
    let traffic = TrafficConfig {
        packets_per_flow: 2,
        packet_length: 4,
        ..TrafficConfig::default()
    };

    // Diagnostic run on the routed stage (deadlock-prone design as-is).
    let diagnostic = routed.simulate_vc(&SingleVc, &sim, &traffic);
    assert_eq!(diagnostic.policy, "unsafe-single-vc");

    // The repaired design through the staged path.
    let fixed = routed.resolve_deadlocks(&CycleBreaking).unwrap();
    assert!(!fixed.vc_map().is_single_vc(), "removal assigned extra VCs");
    let outcome = fixed.simulate_vc(&AssignedVc, &sim, &traffic);
    assert!(!outcome.deadlocked);
    assert_eq!(
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets
    );
    assert_eq!(outcome.policy, "assigned-vc");
    assert!(outcome.detection.is_none());
    assert_eq!(outcome.drain.events, 0);
}

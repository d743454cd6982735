//! Property tests for the pipeline's extension traits:
//!
//! 1. every [`Router`] implementation produces routes that pass
//!    `validate_routes` (checked here explicitly, on top of the stage's own
//!    auto-validation),
//! 2. both [`DeadlockStrategy`] implementations leave the CDG acyclic on a
//!    ring, a mesh, and every benchmark of the paper's suite.

use noc_deadlock::verify::check_deadlock_free;
use noc_flow::{
    CycleBreaking, DeadlockStrategy, DesignFlow, ResourceOrdering, Router, ShortestPathRouter,
    UpDownRouter, XyRouter,
};
use noc_routing::shortest::LinkCost;
use noc_routing::validate::validate_routes;
use noc_routing::xy::MeshCoords;
use noc_synth::SynthesisConfig;
use noc_topology::benchmarks::Benchmark;
use noc_topology::{generators, CommGraph, CoreMap, SwitchId, Topology};

/// An all-to-all traffic pattern over a generated regular topology, one
/// core per switch.
fn all_to_all_flow(generated: generators::Generated) -> (DesignFlow, Topology, CoreMap) {
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
    (DesignFlow::from_comm(comm), generated.topology, map)
}

/// Every router implementation, over every topology it supports, yields
/// routes that pass `validate_routes`.
#[test]
fn every_router_impl_produces_valid_routes() {
    // Shortest-path (both cost models) and up*/down* handle arbitrary
    // topologies: rings, meshes, and synthesized benchmark designs.
    for size in [3, 5, 8] {
        for gen in [
            generators::bidirectional_ring(size, 1000.0),
            generators::mesh2d(size, 2, 1000.0),
        ] {
            let (flow, topology, map) = all_to_all_flow(gen);
            let stage = flow.with_design(topology, map).unwrap();
            let routers: Vec<Box<dyn Router>> = vec![
                Box::new(ShortestPathRouter::default()),
                Box::new(ShortestPathRouter::with_cost(LinkCost::InverseBandwidth)),
                Box::new(UpDownRouter::default()),
                Box::new(UpDownRouter::rooted_at(SwitchId::from_index(size - 1))),
            ];
            for router in routers {
                let routed = stage.route(router.as_ref()).unwrap();
                validate_routes(
                    routed.topology(),
                    routed.comm(),
                    routed.core_map(),
                    routed.routes(),
                )
                .unwrap_or_else(|e| panic!("{} on size {size}: {e}", router.name()));
            }
        }
    }

    // XY is mesh-specific.
    for (rows, cols) in [(2, 2), (2, 4), (3, 3)] {
        let gen = generators::mesh2d(rows, cols, 1000.0);
        let coords = MeshCoords::new(rows, cols, gen.switches.clone());
        let (flow, topology, map) = all_to_all_flow(gen);
        let routed = flow
            .with_design(topology, map)
            .unwrap()
            .route(&XyRouter::new(coords))
            .unwrap();
        validate_routes(
            routed.topology(),
            routed.comm(),
            routed.core_map(),
            routed.routes(),
        )
        .unwrap_or_else(|e| panic!("xy on {rows}x{cols}: {e}"));
        // XY on a mesh is deadlock-free by construction.
        assert!(routed.is_deadlock_free());
    }
}

/// Both deadlock strategies leave the CDG acyclic on a ring (the paper's
/// cyclic Figure 1 shape) and on a mesh (already acyclic under XY).
#[test]
fn both_strategies_fix_ring_and_mesh() {
    let strategies: [&dyn DeadlockStrategy; 2] = [&CycleBreaking::default(), &ResourceOrdering];

    // Unidirectional ring: the canonical cyclic CDG.
    let (flow, topology, map) = all_to_all_flow(generators::unidirectional_ring(5, 1000.0));
    let routed = flow
        .with_design(topology, map)
        .unwrap()
        .route(&ShortestPathRouter::default())
        .unwrap();
    assert!(!routed.is_deadlock_free(), "a routed ring must be cyclic");
    for strategy in strategies {
        let fixed = routed.resolve_deadlocks(strategy).unwrap();
        check_deadlock_free(fixed.topology(), fixed.routes())
            .unwrap_or_else(|c| panic!("{} left a cycle on the ring: {c}", strategy.name()));
    }

    // Mesh under XY: already safe, and cycle breaking must add zero VCs.
    let gen = generators::mesh2d(3, 3, 1000.0);
    let coords = MeshCoords::new(3, 3, gen.switches.clone());
    let (flow, topology, map) = all_to_all_flow(gen);
    let routed = flow
        .with_design(topology, map)
        .unwrap()
        .route(&XyRouter::new(coords))
        .unwrap();
    for strategy in strategies {
        let fixed = routed.resolve_deadlocks(strategy).unwrap();
        check_deadlock_free(fixed.topology(), fixed.routes()).unwrap();
    }
    let removal = routed.resolve_deadlocks(&CycleBreaking::default()).unwrap();
    assert_eq!(removal.resolution().added_vcs, 0);
    assert!(
        removal
            .resolution()
            .removal
            .as_ref()
            .unwrap()
            .already_deadlock_free
    );
}

/// Both strategies leave the CDG acyclic on every benchmark of the paper's
/// suite (synthesized designs, the paper's input routing).
#[test]
fn both_strategies_fix_every_benchmark() {
    let strategies: [&dyn DeadlockStrategy; 2] = [&CycleBreaking::default(), &ResourceOrdering];
    for benchmark in Benchmark::ALL {
        let routed = DesignFlow::from_benchmark(benchmark)
            .synthesize(SynthesisConfig::with_switches(9))
            .unwrap()
            .route_default()
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

/// `route_default` reports the routing scheme the synthesizer actually
/// used, including the non-default cost model.
#[test]
fn route_default_reports_the_synthesis_cost_model() {
    let hops = DesignFlow::from_benchmark(Benchmark::D26Media)
        .synthesize(SynthesisConfig::with_switches(8))
        .unwrap()
        .route_default()
        .unwrap();
    assert_eq!(hops.router_name(), "shortest-path");

    let bw = DesignFlow::from_benchmark(Benchmark::D26Media)
        .synthesize(SynthesisConfig {
            link_cost: LinkCost::InverseBandwidth,
            ..SynthesisConfig::with_switches(8)
        })
        .unwrap()
        .route_default()
        .unwrap();
    assert_eq!(bw.router_name(), "shortest-path-bw");
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
        ) -> Result<noc_flow::DeadlockResolution, noc_flow::FlowError> {
            Ok(noc_flow::DeadlockResolution::new(
                "do-nothing",
                noc_flow::StrategyKind::CycleBreaking,
            ))
        }
    }

    let (flow, topology, map) = all_to_all_flow(generators::unidirectional_ring(4, 1000.0));
    let routed = flow
        .with_design(topology, map)
        .unwrap()
        .route(&ShortestPathRouter::default())
        .unwrap();
    let err = routed.resolve_deadlocks(&DoNothing).unwrap_err();
    assert!(matches!(err, noc_flow::FlowError::StillCyclic(_)));
}

/// The VC-aware stage path: the routed stage's `simulate_vc` runs the
/// deadlock-prone design as it stands, and the repaired stage's honours the
/// strategy's VC assignment and delivers every packet.
#[test]
fn vc_aware_simulation_paths_work_end_to_end() {
    use noc_sim::{AssignedVc, SingleVc, TrafficConfig, VcSimConfig};

    let routed = DesignFlow::from_benchmark(Benchmark::D36x8)
        .synthesize(SynthesisConfig::with_switches(12))
        .unwrap()
        .route_default()
        .unwrap();
    assert!(!routed.is_deadlock_free(), "the input design is cyclic");
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
    let fixed = routed.resolve_deadlocks(&CycleBreaking::default()).unwrap();
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

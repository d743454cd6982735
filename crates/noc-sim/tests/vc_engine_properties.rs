//! Property-style tests for the VC-fidelity engine: the unsafe single-VC
//! baseline must deadlock on cyclic rings while every deadlock strategy's
//! VC assignment delivers the full workload, and the exact wait-for-graph
//! detector must never fire later than the idle-timeout heuristic.
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so the properties are checked over deterministic parameter
//! grids.

use noc_deadlock::escape::apply_escape_channels;
use noc_deadlock::recovery::apply_recovery_reconfig;
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::resource_ordering::apply_resource_ordering;
use noc_deadlock::vcmap::VcMap;
use noc_deadlock::verify::check_deadlock_free;
use noc_routing::{Route, RouteSet};
use noc_sim::{
    AdaptiveEscape, AssignedVc, DetectionKind, SingleVc, TrafficConfig, VcPolicy, VcSimConfig,
    VcSimulator,
};
use noc_topology::{generators, CommGraph, FlowId, LinkId, SwitchId, Topology};

/// The Figure 1 trap on a bidirectional ring: four flows forced the long
/// way around the clockwise links (two hops each), so the base CDG is the
/// classic 4-cycle — but the counter-clockwise links exist, so every
/// deadlock strategy (including the up*/down*-based ones) can repair it.
fn trapped_ring() -> (Topology, CommGraph, RouteSet) {
    let n = 4;
    let generated = generators::bidirectional_ring(n, 1.0);
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    for i in 0..n {
        comm.add_flow(cores[i], cores[(i + 2) % n], 100.0);
    }
    let topo = generated.topology;
    let cw: Vec<LinkId> = (0..n)
        .map(|i| {
            topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                .expect("ring link exists")
        })
        .collect();
    let mut routes = RouteSet::new(n);
    for i in 0..n {
        routes.set_route(
            FlowId::from_index(i),
            Route::from_links([cw[i], cw[(i + 1) % n]]),
        );
    }
    (topo, comm, routes)
}

fn pressure(packet_length: usize, seed: u64) -> TrafficConfig {
    TrafficConfig {
        packets_per_flow: 12,
        packet_length,
        mean_gap_cycles: 0,
        seed,
    }
}

/// (a) The unsafe single-VC baseline deadlocks on the cyclic ring for every
/// packet length and seed of the grid, while the VC map of *every* deadlock
/// strategy delivers 100 % of the same workload.
#[test]
fn unsafe_baseline_deadlocks_where_every_strategy_delivers() {
    for (packet_length, seed) in [(4usize, 1u64), (6, 2), (8, 3), (5, 7)] {
        let (topo, comm, routes) = trapped_ring();
        assert!(check_deadlock_free(&topo, &routes).is_err(), "cyclic input");
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 300_000,
            ..VcSimConfig::default()
        };
        let traffic = pressure(packet_length, seed);
        let case = |policy: &str| format!("len={packet_length} seed={seed} policy={policy}");

        // The baseline: VC assignments discarded → deadlock, exactly.
        let base_map = VcMap::from_design(&topo, &routes);
        let unsafe_outcome =
            VcSimulator::new(&comm, &routes, &base_map, &SingleVc, &config).run(&traffic);
        assert!(unsafe_outcome.deadlocked, "{}", case("unsafe"));
        assert!(unsafe_outcome.stranded_packets > 0, "{}", case("unsafe"));
        assert_eq!(
            unsafe_outcome.detection.expect("detection recorded").kind,
            DetectionKind::WaitForGraph,
            "{}",
            case("unsafe")
        );

        // Every strategy's repaired design delivers the whole workload.
        let root = SwitchId::from_index(0);
        let mut repaired: Vec<(&str, Topology, RouteSet, &dyn VcPolicy)> = Vec::new();
        {
            let (mut t, mut r) = (topo.clone(), routes.clone());
            remove_deadlocks(&mut t, &mut r, &RemovalConfig::default()).unwrap();
            repaired.push(("cycle-breaking", t, r, &AssignedVc));
        }
        {
            let (mut t, mut r) = (topo.clone(), routes.clone());
            apply_resource_ordering(&mut t, &mut r).unwrap();
            repaired.push(("resource-ordering", t, r, &AssignedVc));
        }
        {
            let (mut t, mut r) = (topo.clone(), routes.clone());
            apply_escape_channels(&mut t, &mut r, root).unwrap();
            repaired.push(("escape-channel", t.clone(), r.clone(), &AssignedVc));
            repaired.push(("escape-channel-adaptive", t, r, &AdaptiveEscape));
        }
        {
            let (t, mut r) = (topo.clone(), routes.clone());
            apply_recovery_reconfig(&t, &mut r, root).unwrap();
            repaired.push(("recovery-reconfig", t, r, &AssignedVc));
        }
        for (name, t, r, policy) in &repaired {
            assert!(check_deadlock_free(t, r).is_ok(), "{}", case(name));
            let vc_map = VcMap::from_design(t, r);
            let outcome = VcSimulator::new(&comm, r, &vc_map, *policy, &config).run(&traffic);
            assert!(!outcome.deadlocked, "{}", case(name));
            assert!(outcome.detection.is_none(), "{}", case(name));
            assert_eq!(
                outcome.stats.delivered_packets,
                outcome.stats.injected_packets,
                "{}",
                case(name)
            );
            assert_eq!(outcome.stranded_packets, 0, "{}", case(name));
            // Flit conservation.
            assert_eq!(
                outcome.stats.delivered_flits,
                outcome.stats.delivered_packets * packet_length,
                "{}",
                case(name)
            );
        }
    }
}

/// (b) On seeded deadlocking workloads the exact wait-for-graph detector
/// fires no later than the idle-timeout heuristic, for every timeout
/// threshold of the grid.
#[test]
fn exact_detection_never_fires_later_than_the_timeout() {
    for (packet_length, seed, timeout) in [
        (4usize, 1u64, 64u64),
        (6, 2, 200),
        (8, 3, 500),
        (6, 9, 1_000),
    ] {
        let (topo, comm, routes) = trapped_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let traffic = pressure(packet_length, seed);
        let case = format!("len={packet_length} seed={seed} timeout={timeout}");

        let exact = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &SingleVc,
            &VcSimConfig {
                buffer_depth: 1,
                idle_timeout: 0, // exact detector only
                ..VcSimConfig::default()
            },
        )
        .run(&traffic);
        let heuristic = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &SingleVc,
            &VcSimConfig {
                buffer_depth: 1,
                detect_period: 0, // exact detector disabled: heuristic only
                idle_timeout: timeout,
                ..VcSimConfig::default()
            },
        )
        .run(&traffic);
        assert!(exact.deadlocked && heuristic.deadlocked, "{case}");
        let exact_event = exact.detection.expect("exact detection fired");
        let heuristic_event = heuristic.detection.expect("heuristic detection fired");
        assert_eq!(exact_event.kind, DetectionKind::WaitForGraph, "{case}");
        assert_eq!(heuristic_event.kind, DetectionKind::IdleTimeout, "{case}");
        assert!(
            exact_event.cycle <= heuristic_event.cycle,
            "{case}: exact at {} vs heuristic at {}",
            exact_event.cycle,
            heuristic_event.cycle
        );
        assert!(exact_event.packets >= 2, "{case}: a knot has ≥ 2 packets");
        // The heuristic must wait out its threshold on top of the freeze,
        // so the exact detector wins by at least that margin minus one
        // detection period.
        assert!(
            heuristic_event.cycle + 1 >= timeout,
            "{case}: the heuristic cannot fire before its threshold"
        );
    }
}

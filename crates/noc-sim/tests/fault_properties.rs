//! Fault-storm property suite for the cycle-safe live-reconfiguration
//! protocol: over seeded random designs and seeded fault plans,
//!
//! * (a) no epoch ever commits with a cyclic combined dependency /
//!   wait-for graph (`cyclic_commits == 0`, per-event
//!   `committed_cyclic == false`),
//! * (b) when the surviving fabric stays connected every packet is
//!   delivered, and flows the post-fault connectivity disconnects are
//!   exactly the typed `unreachable_flows` of the outcome, and
//! * (c) a simulator armed with [`FaultPlan::none`] is byte-identical to
//!   an unarmed run of the same workload.
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so the properties are checked over deterministic seeded
//! grids, mirroring the crate's other property suites.

use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::vcmap::VcMap;
use noc_deadlock::verify::check_deadlock_free;
use noc_rng::SmallRng;
use noc_routing::shortest::route_all_shortest;
use noc_routing::updown::route_all_updown;
use noc_routing::RouteSet;
use noc_sim::{
    AssignedVc, FaultEvent, FaultKind, FaultPlan, SingleVc, StormConfig, TrafficConfig,
    VcSimConfig, VcSimulator,
};
use noc_topology::{generators, CommGraph, CoreMap, FaultSet, FlowId, SwitchId, Topology};
use std::collections::HashSet;

/// A repaired (deadlock-free) design over `gen` with one core per switch
/// and `flows` seeded random communication pairs.
fn seeded_design(
    gen: generators::Generated,
    flows: usize,
    seed: u64,
) -> (Topology, CommGraph, CoreMap, RouteSet) {
    let n = gen.switches.len();
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut picked: HashSet<(usize, usize)> = HashSet::new();
    while picked.len() < flows {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        if src != dst && picked.insert((src, dst)) {
            comm.add_flow(cores[src], cores[dst], 100.0);
        }
    }
    let mut map = CoreMap::new(n);
    for (i, &c) in cores.iter().enumerate() {
        map.assign(c, gen.switches[i]).unwrap();
    }
    let mut topo = gen.topology;
    let mut routes = route_all_shortest(&topo, &comm, &map).unwrap();
    remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
    assert!(
        check_deadlock_free(&topo, &routes).is_ok(),
        "repaired design must be deadlock-free before faults"
    );
    (topo, comm, map, routes)
}

/// Replays `plan` into a [`FaultSet`] with the simulator's cable-fault
/// (pair) semantics and returns the flows each cumulative prefix leaves
/// disconnected, as (union over prefixes, final state).
fn replayed_disconnections(
    topo: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
    plan: &FaultPlan,
) -> (Vec<FlowId>, Vec<FlowId>) {
    let mut down = FaultSet::new(topo);
    let mut transient: HashSet<FlowId> = HashSet::new();
    let mut fin = Vec::new();
    for event in plan.events() {
        match event.kind {
            FaultKind::LinkDown(link) => down.fail_link_pair(topo, link),
            FaultKind::LinkUp(link) => down.repair_link_pair(topo, link),
            FaultKind::SwitchDown(switch) => down.fail_switch(switch),
            FaultKind::SwitchUp(switch) => down.repair_switch(switch),
        }
        fin = topo.connectivity_after(&down).disconnected_flows(comm, map);
        transient.extend(fin.iter().copied());
    }
    let mut union: Vec<FlowId> = transient.into_iter().collect();
    union.sort();
    (union, fin)
}

fn storm_traffic(seed: u64) -> TrafficConfig {
    TrafficConfig {
        packets_per_flow: 60,
        packet_length: 4,
        mean_gap_cycles: 10,
        seed,
    }
}

/// (a) + (b) over seeded storms on repaired meshes, tori, and rings:
/// every epoch commits acyclic, and with the fabric connected through the
/// whole storm the full workload is delivered.  Each case runs twice: with
/// the assigned VCs, and VC-obliviously with up*/down* recovery armed, so
/// that deadlock drains and fault epochs interleave.
#[test]
fn storms_on_connected_fabrics_commit_acyclic_and_deliver_everything() {
    let cases: Vec<(&str, generators::Generated, usize, u64, StormConfig)> = vec![
        (
            "mesh3x3",
            generators::mesh2d(3, 3, 1.0),
            10,
            21,
            StormConfig {
                faults: 3,
                first_cycle: 80,
                spacing: 150,
                seed: 0xA1,
                repair_after: None,
                avoid_partition: true,
            },
        ),
        (
            "mesh4x3-repaired-links",
            generators::mesh2d(4, 3, 1.0),
            12,
            22,
            StormConfig {
                faults: 3,
                first_cycle: 80,
                spacing: 150,
                seed: 0xB7,
                repair_after: Some(123),
                avoid_partition: true,
            },
        ),
        (
            "torus3x3",
            generators::torus2d(3, 3, 1.0),
            10,
            23,
            StormConfig {
                faults: 4,
                first_cycle: 60,
                spacing: 110,
                seed: 0xC9,
                repair_after: None,
                avoid_partition: true,
            },
        ),
        (
            "ring6-single-fault",
            generators::bidirectional_ring(6, 1.0),
            8,
            24,
            StormConfig {
                faults: 1,
                first_cycle: 90,
                spacing: 100,
                seed: 0xD3,
                repair_after: None,
                avoid_partition: true,
            },
        ),
        (
            "ring8-dense-repaired",
            generators::bidirectional_ring(8, 1.0),
            30,
            25,
            StormConfig {
                faults: 1,
                first_cycle: 90,
                spacing: 100,
                seed: 0xD3,
                repair_after: Some(150),
                avoid_partition: true,
            },
        ),
    ];
    let mut drain_events = 0;
    for (name, gen, flows, design_seed, storm) in cases {
        let (topo, comm, map, routes) = seeded_design(gen, flows, design_seed);
        let plan = FaultPlan::storm(&topo, &storm);
        assert!(!plan.is_empty(), "{name}: the storm schedules faults");
        let (transient, fin) = replayed_disconnections(&topo, &comm, &map, &plan);
        assert!(
            transient.is_empty(),
            "{name}: avoid_partition keeps every flow connected"
        );
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig::default();
        let recovery = route_all_updown(&topo, &comm, &map, SwitchId::from_index(0)).unwrap();
        let arms = [
            (
                name.to_string(),
                VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config),
            ),
            (
                format!("{name}/single-vc+recovery"),
                VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config)
                    .with_recovery(recovery),
            ),
        ];
        for (name, sim) in arms {
            let outcome = sim
                .with_faults(&topo, &map, plan.clone())
                .run(&storm_traffic(design_seed));

            // (a) Every epoch committed an acyclic combined graph.
            assert!(!outcome.reconfig.events.is_empty(), "{name}");
            assert_eq!(
                outcome.reconfig.epochs_committed,
                outcome.reconfig.events.len(),
                "{name}"
            );
            for event in &outcome.reconfig.events {
                assert!(
                    !event.committed_cyclic,
                    "{name}: epoch at cycle {} committed cyclic",
                    event.cycle
                );
            }
            assert_eq!(outcome.reconfig.cyclic_commits, 0, "{name}");

            // (b) Connected end to end → everything injected is delivered.
            assert_eq!(outcome.unreachable_flows, fin, "{name}");
            assert!(!outcome.deadlocked, "{name}");
            assert_eq!(outcome.stranded_packets, 0, "{name}");
            assert_eq!(outcome.unreachable_packets, 0, "{name}");
            assert_eq!(
                outcome.stats.delivered_packets, outcome.stats.injected_packets,
                "{name}"
            );
            drain_events += outcome.drain.events;
        }
    }
    assert!(
        drain_events > 0,
        "the single-VC arm drains a deadlock between fault epochs"
    );
}

/// (b) on a deliberately partitioning plan: isolating a mesh corner turns
/// exactly the connectivity-derived disconnected flows into the typed
/// `unreachable_flows` outcome — no deadlock, no stranded worms, and the
/// packet accounting identity holds.
#[test]
fn a_partitioning_plan_yields_the_typed_unreachable_outcome() {
    let gen = generators::mesh2d(3, 3, 1.0);
    let n = gen.switches.len();
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    // All-to-root gather plus the reverse of the corner flow, so the
    // isolated corner switch hosts traffic in both directions.
    for i in 1..n {
        comm.add_flow(cores[i], cores[0], 100.0);
    }
    comm.add_flow(cores[0], cores[n - 1], 100.0);
    let mut map = CoreMap::new(n);
    for (i, &c) in cores.iter().enumerate() {
        map.assign(c, gen.switches[i]).unwrap();
    }
    let mut topo = gen.topology;
    let mut routes = route_all_shortest(&topo, &comm, &map).unwrap();
    remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default()).unwrap();
    let corner = gen.switches[n - 1];
    let east = topo.find_link(corner, gen.switches[n - 2]).unwrap();
    let north = topo.find_link(corner, gen.switches[n - 1 - 3]).unwrap();
    let plan = FaultPlan::new(vec![
        FaultEvent {
            cycle: 100,
            kind: FaultKind::LinkDown(east),
        },
        FaultEvent {
            cycle: 160,
            kind: FaultKind::LinkDown(north),
        },
    ]);
    let (_, fin) = replayed_disconnections(&topo, &comm, &map, &plan);
    assert!(
        fin.len() >= 2,
        "isolating the corner disconnects its flows in both directions"
    );
    let vc_map = VcMap::from_design(&topo, &routes);
    let outcome = VcSimulator::new(
        &comm,
        &routes,
        &vc_map,
        &AssignedVc,
        &VcSimConfig::default(),
    )
    .with_faults(&topo, &map, plan)
    .run(&storm_traffic(5));
    assert!(!outcome.deadlocked, "partition is typed, not a deadlock");
    assert_eq!(outcome.stranded_packets, 0);
    assert_eq!(outcome.unreachable_flows, fin);
    assert!(outcome.unreachable_packets >= 1);
    assert!(outcome.stats.delivered_packets >= 1);
    assert_eq!(
        outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
        outcome.stats.injected_packets as usize
    );
    assert_eq!(outcome.reconfig.cyclic_commits, 0);
}

/// (c) Arming the simulator with an empty fault plan changes nothing: the
/// outcome — stats, latencies, drain log, everything — is byte-identical
/// to an unarmed run, across designs and seeds.
#[test]
fn an_empty_fault_plan_is_byte_identical_to_an_unarmed_run() {
    let cases: Vec<(&str, generators::Generated, usize, u64)> = vec![
        ("mesh3x3", generators::mesh2d(3, 3, 1.0), 10, 31),
        ("torus3x3", generators::torus2d(3, 3, 1.0), 12, 32),
        ("ring8", generators::bidirectional_ring(8, 1.0), 8, 33),
    ];
    for (name, gen, flows, seed) in cases {
        let (topo, comm, map, routes) = seeded_design(gen, flows, seed);
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig::default();
        let traffic = storm_traffic(seed);
        let plain = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config).run(&traffic);
        let armed = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config)
            .with_faults(&topo, &map, FaultPlan::none())
            .run(&traffic);
        assert_eq!(plain, armed, "{name}");
        assert_eq!(
            armed.reconfig,
            noc_deadlock::report::ReconfigStats::default(),
            "{name}"
        );
    }
}

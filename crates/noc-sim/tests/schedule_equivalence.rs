//! The VC engine's ready sets against the full scan.
//!
//! The decide phase of a simulated cycle visits only the ready items and
//! leaves parked ones until an owner release or a credit wakes them.  In a
//! debug build (`cargo test`) every cycle also runs the full scan of every
//! channel and every queue head and asserts that it decides the same moves
//! in the same order and counts the same credit stalls.  This file drives
//! that check over a seeded family of small designs: random and chorded
//! rings of at most ten switches, buffer depths 1–3, credit return
//! latencies 0, 1 and 3, every shipped policy plus a test policy that
//! offers three candidates per hop, each plain, with recovery routes
//! armed, and under a fault storm.  Each run is repeated, and the two
//! outcomes must be equal.  A designed family reaches the wake of a credit
//! restored to an unowned channel (see [`SplitVc`]).

use noc_deadlock::escape::apply_escape_channels;
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::vcmap::VcMap;
use noc_rng::SmallRng;
use noc_routing::shortest::route_all_shortest;
use noc_routing::updown::route_all_updown;
use noc_routing::{Route, RouteSet};
use noc_sim::{
    AdaptiveEscape, AssignedVc, FaultPlan, SingleVc, StormConfig, TrafficConfig, VcChoice,
    VcPolicy, VcSimConfig, VcSimOutcome, VcSimulator,
};
use noc_topology::{generators, CommGraph, CoreMap, FlowId, LinkId, SwitchId, Topology};

/// Test-only policy ranking every VC of the link, the assignment first:
/// on a link widened to three VCs each hop offers three candidates.
struct EveryVc;

impl VcPolicy for EveryVc {
    fn name(&self) -> &str {
        "every-vc"
    }

    fn candidates(&self, choice: &VcChoice, out: &mut Vec<usize>) {
        out.push(choice.assigned_vc);
        out.extend((0..choice.link_vcs).filter(|&vc| vc != choice.assigned_vc));
    }
}

/// Test-only policy: even flows may take any VC of the link (the
/// assignment first), odd flows only their assigned one.  So a release
/// can wake an even-flow claim alone (the channel is its first choice),
/// which then takes its second VC while the released channel's credit is
/// still in flight, and an odd-flow claim stays parked on that channel
/// until `Schedule::credited` wakes it for the credit restored to an
/// unowned channel.
struct SplitVc;

impl VcPolicy for SplitVc {
    fn name(&self) -> &str {
        "split-vc"
    }

    fn candidates(&self, choice: &VcChoice, out: &mut Vec<usize>) {
        out.push(choice.assigned_vc);
        if choice.flow.index().is_multiple_of(2) {
            out.extend((0..choice.link_vcs).filter(|&vc| vc != choice.assigned_vc));
        }
    }
}

/// One small design and its repairs.
struct Instance {
    label: String,
    comm: CommGraph,
    map: CoreMap,
    base: (Topology, RouteSet),
    repaired: (Topology, RouteSet),
    escape: Option<(Topology, RouteSet)>,
    wide: Topology,
    recovery: RouteSet,
    storm: FaultPlan,
    traffic: TrafficConfig,
}

/// A bidirectional ring of `n` switches, one core each, with random
/// flows.  Plain rings route every flow clockwise (a cyclic dependency
/// graph, so the single-VC baseline deadlocks); chorded rings add two
/// random chords and route shortest paths.
fn instance(rng: &mut SmallRng, index: usize) -> Instance {
    let n = rng.gen_range(4..11);
    let chorded = index % 2 == 1;
    let generated = generators::bidirectional_ring(n, 1.0);
    let switches = generated.switches;
    let mut topo = generated.topology;
    if chorded {
        for _ in 0..2 {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(2..n - 1)) % n;
            if topo.find_link(switches[a], switches[b]).is_none() {
                topo.add_link(switches[a], switches[b], 1.0);
                topo.add_link(switches[b], switches[a], 1.0);
            }
        }
    }
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    let mut map = CoreMap::new(n);
    for (i, &core) in cores.iter().enumerate() {
        map.assign(core, switches[i]).unwrap();
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    while pairs.len() < n + 2 {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if src != dst && !pairs.contains(&(src, dst)) {
            pairs.push((src, dst));
        }
    }
    for &(src, dst) in &pairs {
        comm.add_flow(cores[src], cores[dst], 100.0);
    }
    let routes = if chorded {
        route_all_shortest(&topo, &comm, &map).unwrap()
    } else {
        let cw: Vec<LinkId> = (0..n)
            .map(|i| topo.find_link(switches[i], switches[(i + 1) % n]).unwrap())
            .collect();
        let mut routes = RouteSet::new(pairs.len());
        for (flow, &(src, dst)) in pairs.iter().enumerate() {
            let hops = (dst + n - src) % n;
            routes.set_route(
                FlowId::from_index(flow),
                Route::from_links((0..hops).map(|h| cw[(src + h) % n])),
            );
        }
        routes
    };

    let root = SwitchId::from_index(0);
    let mut repaired = (topo.clone(), routes.clone());
    remove_deadlocks(&mut repaired.0, &mut repaired.1, &RemovalConfig::default()).unwrap();
    let mut escape = (topo.clone(), routes.clone());
    let escape = apply_escape_channels(&mut escape.0, &mut escape.1, root)
        .ok()
        .map(|_| escape);
    let mut wide = topo.clone();
    for link in (0..topo.link_count()).map(LinkId::from_index) {
        while wide.link(link).unwrap().vcs < 3 {
            wide.add_vc(link).unwrap();
        }
    }
    let recovery = route_all_updown(&topo, &comm, &map, root).unwrap();
    let storm = FaultPlan::storm(
        &topo,
        &StormConfig {
            faults: 2,
            first_cycle: rng.gen_range(5..40usize) as u64,
            spacing: 30,
            seed: rng.next_u64(),
            repair_after: Some(20),
            avoid_partition: !index.is_multiple_of(3),
        },
    );
    let traffic = TrafficConfig {
        packets_per_flow: 6,
        packet_length: rng.gen_range(1..6),
        mean_gap_cycles: rng.gen_range(0..3usize) as u64,
        seed: rng.next_u64(),
    };
    Instance {
        label: format!("{}{n}#{index}", if chorded { "chorded" } else { "ring" }),
        comm,
        map,
        base: (topo, routes),
        repaired,
        escape,
        wide,
        recovery,
        storm,
        traffic,
    }
}

/// Whether a run arms recovery routes, a fault storm, or neither.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Recovery,
    Storm,
}

fn run(
    instance: &Instance,
    design: (&Topology, &RouteSet),
    policy: &dyn VcPolicy,
    mode: Mode,
    config: &VcSimConfig,
) -> VcSimOutcome {
    let (topo, routes) = design;
    let vc_map = VcMap::from_design(topo, routes);
    let mut sim = VcSimulator::new(&instance.comm, routes, &vc_map, policy, config);
    match mode {
        Mode::Plain => {}
        Mode::Recovery => sim = sim.with_recovery(instance.recovery.clone()),
        Mode::Storm => sim = sim.with_faults(topo, &instance.map, instance.storm.clone()),
    }
    sim.run(&instance.traffic)
}

#[test]
fn ready_sets_decide_what_the_full_scan_decides() {
    let mut rng = SmallRng::seed_from_u64(0x5C4E_D01E);
    let mut runs = 0;
    for index in 0..6 {
        let instance = instance(&mut rng, index);
        let mut designs: Vec<(&str, (&Topology, &RouteSet), &dyn VcPolicy)> = vec![
            ("single-vc", (&instance.base.0, &instance.base.1), &SingleVc),
            (
                "assigned",
                (&instance.repaired.0, &instance.repaired.1),
                &AssignedVc,
            ),
            ("every-vc", (&instance.wide, &instance.base.1), &EveryVc),
        ];
        if let Some((topo, routes)) = &instance.escape {
            designs.push(("adaptive-escape", (topo, routes), &AdaptiveEscape));
        }
        for (name, design, policy) in designs {
            for mode in [Mode::Plain, Mode::Recovery, Mode::Storm] {
                for buffer_depth in [1, 2, 3] {
                    for credit_return_latency in [0, 1, 3] {
                        let config = VcSimConfig {
                            buffer_depth,
                            credit_return_latency,
                            max_cycles: 20_000,
                            ..VcSimConfig::default()
                        };
                        let first = run(&instance, design, policy, mode, &config);
                        let second = run(&instance, design, policy, mode, &config);
                        let stats = &first.stats;
                        assert_eq!(
                            first, second,
                            "{} {name} {mode:?} depth {buffer_depth} latency \
                             {credit_return_latency}: two runs differ",
                            instance.label
                        );
                        assert_eq!(
                            stats.delivered_packets
                                + first.stranded_packets
                                + first.unreachable_packets,
                            stats.injected_packets,
                            "{} {name} {mode:?}: packets unaccounted for",
                            instance.label
                        );
                        runs += 1;
                    }
                }
            }
        }
    }
    assert!(runs >= 6 * 3 * 3 * 9, "the grid ran {runs} configurations");
}

#[test]
fn a_restored_credit_wakes_the_claims_a_release_left_parked() {
    // Plain rings of three-VC links, one slot per buffer and credits three
    // cycles in flight: the seeds where the full scan catches a claim left
    // parked if that wake is missing.
    let config = VcSimConfig {
        buffer_depth: 1,
        credit_return_latency: 3,
        max_cycles: 20_000,
        ..VcSimConfig::default()
    };
    for seed in [1, 13] {
        let mut instance = instance(&mut SmallRng::seed_from_u64(seed), 2 * seed as usize);
        instance.traffic.packets_per_flow = 12;
        let design = (&instance.wide, &instance.base.1);
        let outcome = run(&instance, design, &SplitVc, Mode::Plain, &config);
        let stats = &outcome.stats;
        assert_eq!(
            stats.delivered_packets + outcome.stranded_packets + outcome.unreachable_packets,
            stats.injected_packets,
            "{}: packets unaccounted for",
            instance.label
        );
    }
}

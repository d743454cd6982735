//! Golden outcomes of the VC engine.
//!
//! Pins a compact digest of every [`VcSimOutcome`] over a fixed grid —
//! five policy set-ups × four buffer/credit configurations × three designs
//! (the trapped ring, a seeded random ring, and the random ring under an
//! armed fault storm) — plus the `vc.*` telemetry counter totals of one
//! run, and the digests and counters of the perfbench `vc_sim`
//! configuration (D36_8 at 24 switches, where the single-VC baseline
//! deadlocks and drains).  Engine refactors that must not change
//! simulation semantics keep every digest and counter byte-identical; any
//! intended semantic change has to restate the pinned table.

use noc_deadlock::cdg::Cdg;
use noc_deadlock::escape::apply_escape_channels;
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::vcmap::VcMap;
use noc_rng::SmallRng;
use noc_routing::updown::route_all_updown;
use noc_routing::{Route, RouteSet};
use noc_sim::traffic::{generate_workload, Workload};
use noc_sim::{
    AdaptiveEscape, AssignedVc, FaultPlan, Packet, PacketId, SingleVc, StormConfig, TrafficConfig,
    VcChoice, VcPolicy, VcSimConfig, VcSimOutcome, VcSimulator,
};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{generators, CommGraph, CoreMap, FlowId, LinkId, SwitchId, Topology};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Serialises the tests of this file: the telemetry recorder is
/// process-global, so a concurrently running grid would leak counters into
/// the pinned totals.
static ENGINE: Mutex<()> = Mutex::new(());

/// Test-only policy ranking every VC of the link, the assignment first —
/// more candidates than any shipped policy offers.
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

/// A design plus everything the policy grid derives from it.
struct Design {
    name: &'static str,
    comm: CommGraph,
    map: CoreMap,
    base: (Topology, RouteSet),
    /// Cycle-breaking repair (Algorithm 1).
    repaired: (Topology, RouteSet),
    /// Escape-channel repair (for the Duato-adaptive policy).
    escape: (Topology, RouteSet),
    /// The base design with every link widened to three VCs.
    wide: Topology,
    recovery: RouteSet,
    storm: Option<FaultPlan>,
    traffic: TrafficConfig,
}

impl Design {
    fn new(
        name: &'static str,
        topo: Topology,
        comm: CommGraph,
        map: CoreMap,
        routes: RouteSet,
        traffic: TrafficConfig,
    ) -> Self {
        let root = SwitchId::from_index(0);
        let mut repaired = (topo.clone(), routes.clone());
        remove_deadlocks(&mut repaired.0, &mut repaired.1, &RemovalConfig::default()).unwrap();
        let mut escape = (topo.clone(), routes.clone());
        apply_escape_channels(&mut escape.0, &mut escape.1, root).unwrap();
        let mut wide = topo.clone();
        for link in (0..topo.link_count()).map(LinkId::from_index) {
            while wide.link(link).unwrap().vcs < 3 {
                wide.add_vc(link).unwrap();
            }
        }
        let recovery = route_all_updown(&topo, &comm, &map, root).unwrap();
        Design {
            name,
            comm,
            map,
            base: (topo, routes),
            repaired,
            escape,
            wide,
            recovery,
            storm: None,
            traffic,
        }
    }
}

/// The Figure 1 trap on a bidirectional 4-ring: every flow goes two hops
/// clockwise, so the base CDG is one 4-cycle.
fn trapped_ring() -> Design {
    let n = 4;
    let generated = generators::bidirectional_ring(n, 1.0);
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    for i in 0..n {
        comm.add_flow(cores[i], cores[(i + 2) % n], 100.0);
    }
    let mut map = CoreMap::new(n);
    for (i, &core) in cores.iter().enumerate() {
        map.assign(core, generated.switches[i]).unwrap();
    }
    let topo = generated.topology;
    let cw: Vec<LinkId> = (0..n)
        .map(|i| {
            topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                .unwrap()
        })
        .collect();
    let mut routes = RouteSet::new(n);
    for i in 0..n {
        routes.set_route(
            FlowId::from_index(i),
            Route::from_links([cw[i], cw[(i + 1) % n]]),
        );
    }
    let traffic = TrafficConfig {
        packets_per_flow: 12,
        packet_length: 5,
        mean_gap_cycles: 0,
        seed: 3,
    };
    Design::new("ring", topo, comm, map, routes, traffic)
}

/// A bidirectional 6-ring with one core per switch and 12 seeded random
/// flows, each routed the clockwise way round (a cyclic base CDG).
fn random_ring(name: &'static str) -> Design {
    let n = 6;
    let generated = generators::bidirectional_ring(n, 1.0);
    let topo = generated.topology;
    let cw: Vec<LinkId> = (0..n)
        .map(|i| {
            topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                .unwrap()
        })
        .collect();
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    let mut map = CoreMap::new(n);
    for (i, &core) in cores.iter().enumerate() {
        map.assign(core, generated.switches[i]).unwrap();
    }
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut picked: Vec<(usize, usize)> = Vec::new();
    while picked.len() < 12 {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if src != dst && !picked.contains(&(src, dst)) {
            picked.push((src, dst));
        }
    }
    let mut routes = RouteSet::new(picked.len());
    for (index, &(src, dst)) in picked.iter().enumerate() {
        comm.add_flow(cores[src], cores[dst], 100.0);
        let hops = (dst + n - src) % n;
        routes.set_route(
            FlowId::from_index(index),
            Route::from_links((0..hops).map(|h| cw[(src + h) % n])),
        );
    }
    let traffic = TrafficConfig {
        packets_per_flow: 8,
        packet_length: 4,
        mean_gap_cycles: 3,
        seed: 11,
    };
    Design::new(name, topo, comm, map, routes, traffic)
}

/// The random ring under a seeded storm of three link faults, each
/// repaired before the next strikes.
fn stormy_ring() -> Design {
    let mut design = random_ring("storm");
    design.storm = Some(FaultPlan::storm(
        &design.base.0,
        &StormConfig {
            faults: 3,
            first_cycle: 10,
            spacing: 40,
            seed: 0xC9,
            repair_after: Some(30),
            avoid_partition: true,
        },
    ));
    design
}

/// FNV-1a over a rendered value: keeps list-valued fields one token wide.
fn fnv(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{:08x}", hash >> 32)
}

/// One line per outcome: stats, detection, drain, deadlock attribution and
/// fault reconfiguration.
fn digest(outcome: &VcSimOutcome) -> String {
    let stats = &outcome.stats;
    let detection = outcome
        .detection
        .map(|event| format!("{}@{}x{}", event.kind.name(), event.cycle, event.packets))
        .unwrap_or_else(|| "-".into());
    let flows: Vec<usize> = outcome.deadlock_flows.iter().map(|f| f.index()).collect();
    let channels: Vec<(usize, usize)> = outcome
        .deadlock_channels
        .iter()
        .map(|&(link, vc)| (link.index(), vc))
        .collect();
    let drain = &outcome.drain;
    let rc = &outcome.reconfig;
    format!(
        "cyc={} inj={} del={} flits={} lat={}/{} dl={} strand={} det={} \
         drain={}/{}/{} flows={:?} ch={} rc={}/{}/{}/{}/{}/{} unr={}/{}",
        stats.cycles,
        stats.injected_packets,
        stats.delivered_packets,
        stats.delivered_flits,
        stats.total_latency_cycles,
        stats.max_latency_cycles,
        u8::from(outcome.deadlocked),
        outcome.stranded_packets,
        detection,
        drain.events,
        drain.packets_drained,
        drain.flows_reconfigured,
        flows,
        fnv(&format!("{channels:?}")),
        rc.events.len(),
        rc.epochs_committed,
        rc.drain_fallbacks,
        rc.cyclic_commits,
        rc.packets_drained,
        rc.flows_rerouted,
        outcome.unreachable_flows.len(),
        outcome.unreachable_packets,
    )
}

/// The five policy set-ups of the grid.
const SETUPS: [&str; 5] = [
    "single-vc",
    "assigned",
    "adaptive-escape",
    "assigned+recovery",
    "every-vc",
];

fn run(design: &Design, setup: &str, config: &VcSimConfig) -> VcSimOutcome {
    let (topo, routes, policy): (&Topology, &RouteSet, &dyn VcPolicy) = match setup {
        "single-vc" => (&design.base.0, &design.base.1, &SingleVc),
        "assigned" => (&design.repaired.0, &design.repaired.1, &AssignedVc),
        "adaptive-escape" => (&design.escape.0, &design.escape.1, &AdaptiveEscape),
        "assigned+recovery" => (&design.base.0, &design.base.1, &AssignedVc),
        "every-vc" => (&design.wide, &design.base.1, &EveryVc),
        other => unreachable!("unknown set-up {other}"),
    };
    let vc_map = VcMap::from_design(topo, routes);
    let mut sim = VcSimulator::new(&design.comm, routes, &vc_map, policy, config);
    if setup == "assigned+recovery" {
        sim = sim.with_recovery(design.recovery.clone());
    }
    if let Some(plan) = &design.storm {
        sim = sim.with_faults(topo, &design.map, plan.clone());
    }
    sim.run(&design.traffic)
}

fn configs() -> Vec<VcSimConfig> {
    let mut configs = Vec::new();
    for credit_return_latency in [0, 3] {
        for buffer_depth in [1, 2] {
            configs.push(VcSimConfig {
                buffer_depth,
                credit_return_latency,
                max_cycles: 40_000,
                ..VcSimConfig::default()
            });
        }
    }
    configs
}

/// One digest per grid row: design, set-up, credit latency and buffer
/// depth, then the outcome.
const GOLDEN: &[&str] = &[
    "ring single-vc lat=0 depth=1: cyc=2 inj=48 del=0 flits=0 lat=0/0 dl=1 strand=48 det=wait-for-graph@1x4 drain=0/0/0 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned lat=0 depth=1: cyc=259 inj=48 del=48 flits=240 lat=6456/259 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring adaptive-escape lat=0 depth=1: cyc=259 inj=48 del=48 flits=240 lat=6456/259 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned+recovery lat=0 depth=1: cyc=243 inj=48 del=48 flits=240 lat=6120/243 dl=0 strand=0 det=wait-for-graph@1x4 drain=1/4/4 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring every-vc lat=0 depth=1: cyc=110 inj=48 del=48 flits=240 lat=2904/110 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring single-vc lat=0 depth=2: cyc=3 inj=48 del=0 flits=0 lat=0/0 dl=1 strand=48 det=wait-for-graph@2x4 drain=0/0/0 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned lat=0 depth=2: cyc=155 inj=48 del=48 flits=240 lat=3864/155 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring adaptive-escape lat=0 depth=2: cyc=155 inj=48 del=48 flits=240 lat=3864/155 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned+recovery lat=0 depth=2: cyc=148 inj=48 del=48 flits=240 lat=3768/148 dl=0 strand=0 det=wait-for-graph@2x4 drain=1/4/4 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring every-vc lat=0 depth=2: cyc=62 inj=48 del=48 flits=240 lat=1656/62 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring single-vc lat=3 depth=1: cyc=2 inj=48 del=0 flits=0 lat=0/0 dl=1 strand=48 det=wait-for-graph@1x4 drain=0/0/0 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned lat=3 depth=1: cyc=517 inj=48 del=48 flits=240 lat=12840/517 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring adaptive-escape lat=3 depth=1: cyc=517 inj=48 del=48 flits=240 lat=12840/517 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned+recovery lat=3 depth=1: cyc=481 inj=48 del=48 flits=240 lat=12024/481 dl=0 strand=0 det=wait-for-graph@1x4 drain=1/4/4 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring every-vc lat=3 depth=1: cyc=228 inj=48 del=48 flits=240 lat=5928/228 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring single-vc lat=3 depth=2: cyc=3 inj=48 del=0 flits=0 lat=0/0 dl=1 strand=48 det=wait-for-graph@2x4 drain=0/0/0 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned lat=3 depth=2: cyc=259 inj=48 del=48 flits=240 lat=6456/259 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring adaptive-escape lat=3 depth=2: cyc=259 inj=48 del=48 flits=240 lat=6456/259 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "ring assigned+recovery lat=3 depth=2: cyc=244 inj=48 del=48 flits=240 lat=6168/244 dl=0 strand=0 det=wait-for-graph@2x4 drain=1/4/4 flows=[0, 1, 2, 3] ch=377d8598 rc=0/0/0/0/0/0 unr=0/0",
    "ring every-vc lat=3 depth=2: cyc=110 inj=48 del=48 flits=240 lat=2904/110 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random single-vc lat=0 depth=1: cyc=2 inj=20 del=0 flits=0 lat=0/0 dl=1 strand=20 det=wait-for-graph@1x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random assigned lat=0 depth=1: cyc=472 inj=96 del=96 flits=384 lat=18483/461 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random adaptive-escape lat=0 depth=1: cyc=462 inj=96 del=96 flits=384 lat=22051/452 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random assigned+recovery lat=0 depth=1: cyc=402 inj=96 del=96 flits=384 lat=12949/392 dl=0 strand=0 det=wait-for-graph@1x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random every-vc lat=0 depth=1: cyc=193 inj=96 del=96 flits=384 lat=8621/184 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random single-vc lat=0 depth=2: cyc=3 inj=26 del=0 flits=0 lat=0/0 dl=1 strand=26 det=wait-for-graph@2x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random assigned lat=0 depth=2: cyc=295 inj=96 del=96 flits=384 lat=11283/284 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random adaptive-escape lat=0 depth=2: cyc=288 inj=96 del=96 flits=384 lat=13603/278 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random assigned+recovery lat=0 depth=2: cyc=251 inj=96 del=96 flits=384 lat=8026/241 dl=0 strand=0 det=wait-for-graph@2x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random every-vc lat=0 depth=2: cyc=126 inj=96 del=96 flits=384 lat=5510/116 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random single-vc lat=3 depth=1: cyc=2 inj=20 del=0 flits=0 lat=0/0 dl=1 strand=20 det=wait-for-graph@1x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random assigned lat=3 depth=1: cyc=942 inj=96 del=96 flits=384 lat=37491/931 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random adaptive-escape lat=3 depth=1: cyc=924 inj=96 del=96 flits=384 lat=44387/914 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random assigned+recovery lat=3 depth=1: cyc=808 inj=96 del=96 flits=384 lat=26349/798 dl=0 strand=0 det=wait-for-graph@1x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random every-vc lat=3 depth=1: cyc=383 inj=96 del=96 flits=384 lat=17989/374 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random single-vc lat=3 depth=2: cyc=3 inj=26 del=0 flits=0 lat=0/0 dl=1 strand=26 det=wait-for-graph@2x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random assigned lat=3 depth=2: cyc=471 inj=96 del=96 flits=384 lat=18387/460 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random adaptive-escape lat=3 depth=2: cyc=461 inj=96 del=96 flits=384 lat=21955/451 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "random assigned+recovery lat=3 depth=2: cyc=402 inj=96 del=96 flits=384 lat=12939/392 dl=0 strand=0 det=wait-for-graph@2x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "random every-vc lat=3 depth=2: cyc=191 inj=96 del=96 flits=384 lat=8677/181 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=0/0/0/0/0/0 unr=0/0",
    "storm single-vc lat=0 depth=1: cyc=2 inj=20 del=0 flits=0 lat=0/0 dl=1 strand=20 det=wait-for-graph@1x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "storm assigned lat=0 depth=1: cyc=269 inj=96 del=96 flits=384 lat=10133/260 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/10/18 unr=0/0",
    "storm adaptive-escape lat=0 depth=1: cyc=328 inj=96 del=96 flits=384 lat=12399/319 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/8/18 unr=0/0",
    "storm assigned+recovery lat=0 depth=1: cyc=293 inj=96 del=96 flits=384 lat=11342/284 dl=0 strand=0 det=wait-for-graph@1x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=6/6/0/0/6/16 unr=0/0",
    "storm every-vc lat=0 depth=1: cyc=86 inj=96 del=96 flits=384 lat=3794/76 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=4/4/0/0/9/11 unr=0/0",
    "storm single-vc lat=0 depth=2: cyc=3 inj=26 del=0 flits=0 lat=0/0 dl=1 strand=26 det=wait-for-graph@2x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "storm assigned lat=0 depth=2: cyc=149 inj=96 del=96 flits=384 lat=5694/140 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/7/18 unr=0/0",
    "storm adaptive-escape lat=0 depth=2: cyc=185 inj=96 del=96 flits=384 lat=6671/176 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/6/18 unr=0/0",
    "storm assigned+recovery lat=0 depth=2: cyc=174 inj=96 del=96 flits=384 lat=6031/165 dl=0 strand=0 det=wait-for-graph@2x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=6/6/0/0/6/16 unr=0/0",
    "storm every-vc lat=0 depth=2: cyc=55 inj=96 del=96 flits=384 lat=2413/50 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=3/3/0/0/7/11 unr=0/0",
    "storm single-vc lat=3 depth=1: cyc=2 inj=20 del=0 flits=0 lat=0/0 dl=1 strand=20 det=wait-for-graph@1x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "storm assigned lat=3 depth=1: cyc=597 inj=96 del=96 flits=384 lat=23449/588 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/10/18 unr=0/0",
    "storm adaptive-escape lat=3 depth=1: cyc=677 inj=96 del=96 flits=384 lat=27125/668 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/8/18 unr=0/0",
    "storm assigned+recovery lat=3 depth=1: cyc=645 inj=96 del=96 flits=384 lat=26265/636 dl=0 strand=0 det=wait-for-graph@1x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=6/6/0/0/5/16 unr=0/0",
    "storm every-vc lat=3 depth=1: cyc=209 inj=96 del=96 flits=384 lat=8029/200 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/15/18 unr=0/0",
    "storm single-vc lat=3 depth=2: cyc=3 inj=26 del=0 flits=0 lat=0/0 dl=1 strand=26 det=wait-for-graph@2x6 drain=0/0/0 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=0/0/0/0/0/0 unr=0/0",
    "storm assigned lat=3 depth=2: cyc=276 inj=96 del=96 flits=384 lat=10062/267 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/8/18 unr=0/0",
    "storm adaptive-escape lat=3 depth=2: cyc=328 inj=96 del=96 flits=384 lat=12364/319 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=6/6/0/0/8/18 unr=0/0",
    "storm assigned+recovery lat=3 depth=2: cyc=293 inj=96 del=96 flits=384 lat=11294/284 dl=0 strand=0 det=wait-for-graph@2x6 drain=1/6/6 flows=[0, 2, 3, 5, 6, 10] ch=13804d4a rc=6/6/0/0/6/16 unr=0/0",
    "storm every-vc lat=3 depth=2: cyc=81 inj=96 del=96 flits=384 lat=3601/73 dl=0 strand=0 det=- drain=0/0/0 flows=[] ch=09612b07 rc=4/4/0/0/9/11 unr=0/0",
];

#[test]
fn outcomes_match_the_golden_digests() {
    let _guard = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let designs = [trapped_ring(), random_ring("random"), stormy_ring()];
    let mut actual = Vec::new();
    for design in &designs {
        for config in configs() {
            for setup in SETUPS {
                let key = format!(
                    "{} {setup} lat={} depth={}",
                    design.name, config.credit_return_latency, config.buffer_depth
                );
                actual.push(format!("{key}: {}", digest(&run(design, setup, &config))));
            }
        }
    }
    if actual != GOLDEN {
        let mut table = String::new();
        for line in &actual {
            writeln!(table, "    {line:?},").unwrap();
        }
        let first = actual
            .iter()
            .zip(GOLDEN.iter())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.len().min(GOLDEN.len()));
        panic!(
            "engine outcomes drifted (first difference at row {first}); \
             actual table:\n{table}"
        );
    }
}

/// Renders `actual` as a pasteable table and panics when it differs from
/// `golden`.
fn assert_golden(actual: &[String], golden: &[&str]) {
    if actual == golden {
        return;
    }
    let mut table = String::new();
    for line in actual {
        writeln!(table, "    {line:?},").unwrap();
    }
    let first = actual
        .iter()
        .zip(golden.iter())
        .position(|(a, g)| a != g)
        .unwrap_or(actual.len().min(golden.len()));
    panic!("engine outcomes drifted (first difference at row {first}); actual table:\n{table}");
}

/// Digests of the unsafe single-VC baseline with up*/down* recovery routes
/// on D36_8 synthesized at 24 switches, depth-1 buffers, one row per
/// injection gap: the `fig_sim_strategies` configuration in which the
/// baseline deadlocks, the detector fires and the drain recovers.
const GOLDEN_D36_8: &[&str] = &[
    "gap=0: cyc=4088 inj=1632 del=1632 flits=13056 lat=2607868/4088 dl=0 strand=0 det=wait-for-graph@831x36 drain=3/78/54 flows=[5, 13, 19, 22, 27, 33, 49, 53, 59, 73, 89, 90, 96, 101, 104, 109, 113, 115, 117, 139, 145, 147, 153, 163, 169, 173, 177, 181, 187, 195, 197, 205, 211, 221, 234, 261] ch=c93c4b04 rc=0/0/0/0/0/0 unr=0/0",
    "gap=8: cyc=4088 inj=1632 del=1632 flits=13056 lat=2592955/4044 dl=0 strand=0 det=wait-for-graph@831x36 drain=3/78/54 flows=[5, 13, 19, 22, 27, 33, 49, 53, 59, 73, 89, 90, 96, 101, 104, 109, 113, 115, 117, 139, 145, 147, 153, 163, 169, 173, 177, 181, 187, 195, 197, 205, 211, 221, 234, 261] ch=c93c4b04 rc=0/0/0/0/0/0 unr=0/0",
    "gap=32: cyc=4059 inj=1632 del=1632 flits=13056 lat=2661777/4016 dl=0 strand=0 det=wait-for-graph@575x35 drain=4/86/57 flows=[5, 13, 19, 22, 27, 33, 49, 53, 59, 73, 89, 90, 96, 101, 104, 113, 115, 117, 137, 139, 145, 147, 153, 163, 168, 177, 181, 195, 197, 205, 211, 221, 230, 234, 261] ch=4c70ca99 rc=0/0/0/0/0/0 unr=0/0",
];

/// `vc.*` counter totals over the three runs of [`GOLDEN_D36_8`].
const GOLDEN_D36_8_COUNTERS: &[(&str, u64)] = &[
    ("vc.credit_stall_flit_cycles", 253_499),
    ("vc.cycles", 12_235),
    ("vc.delivered_packets", 4_896),
    ("vc.detector_invocations", 189),
    ("vc.drain_events", 10),
    ("vc.injected_packets", 4_896),
];

/// The `fig_sim_strategies` workload: four 8-flit packets on every flow of
/// a CDG cycle at cycle 0, then seeded uniform traffic.  Ids follow the
/// generation order, so they are not the admission order.
fn stress_workload(comm: &CommGraph, traffic: &TrafficConfig, stress: &[FlowId]) -> Workload {
    let mut packets: Vec<Packet> = stress
        .iter()
        .flat_map(|&flow| {
            (0..4).map(move |_| Packet {
                id: PacketId(0),
                flow,
                length: 8,
                created_at: 0,
            })
        })
        .collect();
    packets.extend(generate_workload(comm, traffic).packets);
    for (index, packet) in packets.iter_mut().enumerate() {
        packet.id = PacketId(index);
    }
    packets.sort_by_key(|p| (p.created_at, p.id.0));
    Workload { packets }
}

#[test]
fn d36_8_single_vc_recovery_matches_the_golden_digests() {
    let _guard = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let comm = Benchmark::D36x8.comm_graph();
    let design = synthesize(&comm, &SynthesisConfig::with_switches(24)).unwrap();
    let stress = Cdg::build(&design.topology, &design.routes).cyclic_flows();
    let recovery = route_all_updown(
        &design.topology,
        &comm,
        &design.core_map,
        SwitchId::from_index(0),
    )
    .unwrap();
    let vc_map = VcMap::from_design(&design.topology, &design.routes);
    let config = VcSimConfig {
        buffer_depth: 1,
        max_cycles: 600_000,
        ..VcSimConfig::default()
    };
    let scope = noc_telemetry::RecorderScope::new();
    let mut actual = Vec::new();
    for gap in [0, 8, 32] {
        let traffic = TrafficConfig {
            packets_per_flow: 4,
            packet_length: 8,
            mean_gap_cycles: gap,
            seed: 0xF1C5,
        };
        let workload = stress_workload(&comm, &traffic, &stress);
        let outcome = VcSimulator::new(&comm, &design.routes, &vc_map, &SingleVc, &config)
            .with_recovery(recovery.clone())
            .run_workload(&workload);
        actual.push(format!("gap={gap}: {}", digest(&outcome)));
    }
    let counters = scope.recorder().snapshot().counters;
    drop(scope);
    assert_golden(&actual, GOLDEN_D36_8);
    let totals: Vec<(&str, u64)> = counters
        .iter()
        .filter(|(name, _)| name.starts_with("vc."))
        .map(|(name, &total)| (name.as_str(), total))
        .collect();
    assert_eq!(totals, GOLDEN_D36_8_COUNTERS);
}

/// `vc.*` counter totals of the stormy random ring with recovery routes
/// (credit latency 3, depth 1): detector, drain and reconfiguration all fire.
const GOLDEN_COUNTERS: &[(&str, u64)] = &[
    ("vc.credit_stall_flit_cycles", 1036),
    ("vc.cycles", 645),
    ("vc.delivered_packets", 96),
    ("vc.detector_invocations", 27),
    ("vc.drain_events", 1),
    ("vc.injected_packets", 96),
    ("vc.reconfig_epochs", 6),
    ("vc.stall_cycles", 17),
];

#[test]
fn vc_counters_match_the_golden_totals() {
    let _guard = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let design = stormy_ring();
    let config = VcSimConfig {
        buffer_depth: 1,
        credit_return_latency: 3,
        max_cycles: 40_000,
        ..VcSimConfig::default()
    };
    let scope = noc_telemetry::RecorderScope::new();
    run(&design, "assigned+recovery", &config);
    let counters = scope.recorder().snapshot().counters;
    drop(scope);
    let actual: Vec<(&str, u64)> = counters
        .iter()
        .filter(|(name, _)| name.starts_with("vc."))
        .map(|(name, &total)| (name.as_str(), total))
        .collect();
    assert_eq!(actual, GOLDEN_COUNTERS);
}

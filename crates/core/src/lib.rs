//! CDG-based deadlock removal for wormhole NoCs.
//!
//! This crate is the reproduction of the core contribution of
//! *"A Method to Remove Deadlocks in Networks-on-Chips with Wormhole Flow
//! Control"* (Seiculescu, Murali, Benini, De Micheli — DATE 2010):
//!
//! * [`cdg`] builds the **Channel Dependency Graph** of Definition 4 from a
//!   topology and a set of static routes,
//! * [`cost`] implements Algorithm 2 — the forward/backward cost tables that
//!   decide which dependency of a cycle is cheapest to break,
//! * [`removal`] implements Algorithm 1 — the smallest-cycle-first loop that
//!   adds virtual channels and re-routes flows until the CDG is acyclic,
//! * [`resource_ordering`] implements the baseline the paper compares
//!   against (ascending channel classes along every route),
//! * [`escape`] implements escape-channel *avoidance* (VC layers restricted
//!   to the up*/down* subgraph — the CDG is acyclic by construction),
//! * [`recovery`] implements DBR-style *recovery* (detect cyclic SCCs,
//!   drain their flows onto up*/down* routes; no VCs, hop inflation and
//!   reconfiguration events instead),
//! * [`verify`] checks deadlock freedom after any of the transformations,
//! * [`certify`] decides exactly whether a cyclic design can really trap
//!   long worms, within a fixed search budget,
//! * [`vcmap`] snapshots the VC assignment a strategy produced (per-link VC
//!   counts + per-hop flow assignments) as the [`VcMap`] the VC-fidelity
//!   simulator consumes,
//! * [`report`] summarises what a removal run did (VCs added, cycles broken,
//!   direction choices) for the experiment harness, and names the strategy
//!   taxonomy ([`report::StrategyKind`]) the comparison sweeps use.
//!
//! # Quick start
//!
//! ```
//! use noc_topology::{Topology, CommGraph, CoreMap};
//! use noc_routing::shortest::route_all_shortest;
//! use noc_deadlock::{removal::{remove_deadlocks, RemovalConfig}, verify};
//!
//! // The 4-switch ring of Figure 1 with the four flows of the paper.
//! let mut topo = Topology::new();
//! let sw: Vec<_> = (0..4).map(|i| topo.add_switch(format!("SW{}", i + 1))).collect();
//! for i in 0..4 { topo.add_link(sw[i], sw[(i + 1) % 4], 1.0); }
//! let mut comm = CommGraph::new();
//! let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
//! comm.add_flow(cores[0], cores[3], 1.0);
//! comm.add_flow(cores[2], cores[0], 1.0);
//! comm.add_flow(cores[3], cores[1], 1.0);
//! comm.add_flow(cores[0], cores[2], 1.0);
//! let mut map = CoreMap::new(4);
//! for (i, &c) in cores.iter().enumerate() { map.assign(c, sw[i])?; }
//! let mut routes = route_all_shortest(&topo, &comm, &map)?;
//!
//! // The ring CDG is cyclic; the removal algorithm fixes it with one VC.
//! assert!(verify::check_deadlock_free(&topo, &routes).is_err());
//! let report = remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default())?;
//! assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
//! assert_eq!(report.added_vcs, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # As a pipeline stage
//!
//! Most callers do not drive this crate directly: the `noc-flow` crate wraps
//! it as the [`CycleBreaking`](https://docs.rs/noc-flow) strategy of its
//! staged pipeline API, where the same repair is a chain with the
//! verification built into every stage transition:
//!
//! ```
//! use noc_flow::{CycleBreaking, ResolutionDetail, RoutedStage};
//! use noc_synth::SynthesisConfig;
//! use noc_topology::benchmarks::Benchmark;
//!
//! let comm = Benchmark::D36x8.comm_graph();
//! let fixed = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(10))?
//!     .resolve_deadlocks(&CycleBreaking)?; // Algorithm 1 + re-verify
//! assert!(matches!(fixed.resolution().detail, ResolutionDetail::Removal(_)));
//! # Ok::<(), noc_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdg;
pub mod certify;
pub mod cost;
pub mod escape;
pub mod recovery;
pub mod removal;
pub mod report;
pub mod resource_ordering;
pub mod vcmap;
pub mod verify;

pub use cdg::{Cdg, CdgDelta};
pub use certify::{
    certify_deadlock_free, CertifyReport, CertifyVerdict, TrapWitness, TrapWorm, UnknownReason,
    WitnessError,
};
pub use escape::{apply_escape_channels, EscapeChannelResult, EscapeError};
pub use recovery::{apply_recovery_reconfig, RecoveryError, RecoveryResult, RecoveryStep};
pub use removal::{remove_deadlocks, DirectionPolicy, RemovalConfig, RemovalError};
pub use report::{
    CdgDeltaStats, CdgMaintenanceStats, ReconfigEvent, ReconfigStats, RemovalReport, StrategyKind,
};
pub use resource_ordering::{apply_resource_ordering, ResourceOrderingResult};
pub use vcmap::VcMap;

/// The paper's Figure 1: four flows on a 4-switch unidirectional ring, a
/// design with a cyclic CDG (the unit tests' shared fixture).
#[cfg(test)]
pub(crate) fn figure_1_design() -> (noc_topology::Topology, noc_routing::RouteSet) {
    use noc_routing::{Route, RouteSet};
    use noc_topology::{FlowId, LinkId, Topology};
    let mut topo = Topology::new();
    let sw: Vec<_> = (1..=4).map(|i| topo.add_switch(format!("SW{i}"))).collect();
    let links: Vec<LinkId> = (0..4)
        .map(|i| topo.add_link(sw[i], sw[(i + 1) % 4], 1.0))
        .collect();
    let mut routes = RouteSet::new(4);
    let spec: [&[usize]; 4] = [&[0, 1, 2], &[2, 3], &[3, 0], &[0, 1]];
    for (flow, hops) in spec.iter().enumerate() {
        let route = Route::from_links(hops.iter().map(|&l| links[l]));
        routes.set_route(FlowId::from_index(flow), route);
    }
    (topo, routes)
}

//! Recovery-based deadlock reconfiguration (DBR-style).
//!
//! Recovery schemes (cf. Dynamic Backtracking Reconfiguration,
//! arXiv:1211.5747) accept that deadlocks can form, detect them, and resolve
//! them by *draining* the involved traffic and switching it onto a
//! provably deadlock-free routing function — no extra virtual channels, the
//! cost is paid in reconfiguration events and longer recovery routes
//! instead.
//!
//! [`apply_recovery_reconfig`] models that scheme statically, at CAD time:
//!
//! 1. build the CDG and find its cyclic strongly-connected components with
//!    the existing SCC machinery ([`noc_graph::scc`]) — each cyclic SCC is a
//!    dependency region that could deadlock at runtime;
//! 2. *drain* every flow that contributes a dependency inside such an SCC
//!    and re-route it onto a shortest legal up*/down* path
//!    ([`noc_routing::updown::updown_routes`]) — the reconfigured routing
//!    function whole-SCC recovery switches to;
//! 3. patch the CDG with the drained flows' dependency deltas and repeat:
//!    reconfigured flows only create up*/down*-legal dependencies (which
//!    cannot close a cycle on their own), so every remaining cycle involves
//!    at least one not-yet-drained flow and each round makes strict
//!    progress.  The CDG is built once; each round applies
//!    `Cdg::remove_flow_deps` / `Cdg::add_flow_deps` per drained flow
//!    before the next detection pass.
//!
//! Each round is one *reconfiguration event*; its cost — SCCs collapsed,
//! channels involved, flows drained, hop inflation of the recovery routes —
//! is recorded as a [`RecoveryStep`], the per-reconfiguration stats the
//! strategy comparison plots.  Unlike cycle breaking and the VC-based
//! schemes, recovery changes *physical* routes (that is the point: it
//! reuses existing channels instead of buying new ones), so
//! [`RecoveryResult::added_vcs`](RecoveryResult) is always zero and the
//! interesting cost is [`RecoveryResult::extra_hops`].

use crate::cdg::{Cdg, CdgDelta};
use noc_graph::scc;
use noc_routing::updown::{updown_routes, UpDownLabels};
use noc_routing::{Route, RouteSet};
use noc_topology::{Channel, FlowId, SwitchId, Topology};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// One reconfiguration event: a detection pass plus the drain-and-re-route
/// of every flow inside the cyclic SCCs it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStep {
    /// Cyclic SCCs detected in this round's CDG.
    pub sccs: usize,
    /// Channel vertices inside those SCCs (the size of the deadlock-capable
    /// region being reconfigured).
    pub scc_channels: usize,
    /// Flows drained and moved onto up*/down* routes in this round.
    pub flows_drained: usize,
    /// Total hops of the drained flows before re-routing.
    pub hops_before: usize,
    /// Total hops of the same flows on their recovery routes.
    pub hops_after: usize,
}

/// Result of applying recovery-based reconfiguration to a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryResult {
    /// Reconfiguration events needed before the CDG became acyclic (0 when
    /// the design was already deadlock-free).
    pub reconfigurations: usize,
    /// Distinct flows drained and re-routed across all events.
    pub flows_reconfigured: usize,
    /// Per-event cost stats, in event order.
    pub steps: Vec<RecoveryStep>,
    /// `true` when the input CDG was already acyclic and nothing was done.
    pub already_deadlock_free: bool,
    /// Root of the BFS spanning tree of the recovery routing function.
    pub root: SwitchId,
}

impl RecoveryResult {
    /// Total hop inflation of the recovery routes versus the routes the
    /// drained flows had before (up*/down* routes are never shorter than
    /// the shortest-path originals).
    pub fn extra_hops(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.hops_after.saturating_sub(s.hops_before))
            .sum()
    }

    /// Total flows drained, counted per event (a flow is only ever drained
    /// once, so this equals [`flows_reconfigured`](Self::flows_reconfigured)).
    pub fn flows_drained(&self) -> usize {
        self.steps.iter().map(|s| s.flows_drained).sum()
    }
}

/// Errors reported by [`apply_recovery_reconfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A drained flow has no legal up*/down* route between its endpoints —
    /// the recovery routing function cannot serve this topology (e.g. a
    /// unidirectional ring, where some pairs force a down→up turn).
    NoEscapeRoute {
        /// The flow that could not be re-routed.
        flow: FlowId,
        /// Source switch of the flow's route.
        from: SwitchId,
        /// Destination switch of the flow's route.
        to: SwitchId,
    },
    /// A detection round found cycles but no flow left to drain — the CDG
    /// and the route set are inconsistent (never observed on designs built
    /// by this suite; each round must drain at least one fresh flow).
    Stalled {
        /// The reconfiguration round that made no progress (0-based).
        round: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoEscapeRoute { flow, from, to } => write!(
                f,
                "flow {flow} has no up*/down* recovery route from {from} to {to}"
            ),
            RecoveryError::Stalled { round } => write!(
                f,
                "reconfiguration round {round} found cycles but no flow to drain"
            ),
        }
    }
}

impl Error for RecoveryError {}

/// Applies recovery-based reconfiguration in place: detects cyclic CDG
/// regions via SCCs and drains their flows onto up*/down* routes (rooted at
/// `root`) until the CDG is acyclic.  The topology is never modified — no
/// VCs are added — but drained flows change their *physical* routes.
///
/// # Errors
///
/// * [`RecoveryError::NoEscapeRoute`] if a drained flow cannot be routed
///   under the up*/down* rule (the bundled synthesized designs use
///   bidirectional links, where a route always exists).
/// * [`RecoveryError::Stalled`] if a round makes no progress (defensive;
///   requires an inconsistent CDG/route pair).
pub fn apply_recovery_reconfig(
    topology: &Topology,
    routes: &mut RouteSet,
    root: SwitchId,
) -> Result<RecoveryResult, RecoveryError> {
    let labels = UpDownLabels::new(topology, root);
    let mut reconfigured: BTreeSet<FlowId> = BTreeSet::new();
    let mut steps: Vec<RecoveryStep> = Vec::new();

    // The CDG is built once; each round patches it with the drained flows'
    // dependency deltas.
    let mut cdg = Cdg::build(topology, routes);

    loop {
        let graph = cdg.graph();
        let components = scc::components(graph);
        if !components.has_cycle() {
            break;
        }
        let sccs = components.cyclic_ids().count();
        let scc_channels: usize = components
            .cyclic_ids()
            .map(|id| components.members(id).len())
            .sum();

        // Every flow contributing a dependency *inside* a cyclic SCC gets
        // drained.  BTreeSet keeps the drain order deterministic.
        let mut drain: BTreeSet<FlowId> = BTreeSet::new();
        for edge in graph.edges() {
            if components.is_internal(edge.source, edge.target) {
                drain.extend(edge.weight.as_slice().iter().copied());
            }
        }
        drain.retain(|flow| !reconfigured.contains(flow));
        if drain.is_empty() {
            return Err(RecoveryError::Stalled { round: steps.len() });
        }

        // Each drained flow keeps its endpoints; one up*/down* search per
        // distinct source routes them all.
        let link = |channel: &Channel| {
            topology
                .link(channel.link)
                .expect("routes reference known links")
        };
        let ends: Vec<(SwitchId, SwitchId)> = drain
            .iter()
            .map(|&flow| {
                let route = routes.route(flow).expect("drained flows have routes");
                // A flow on an in-SCC dependency has at least two hops.
                let first = route
                    .channels()
                    .first()
                    .expect("dependency implies a route");
                let last = route.channels().last().expect("dependency implies a route");
                (link(first).source, link(last).target)
            })
            .collect();
        let found = updown_routes(topology, &labels, &ends);

        let mut delta = CdgDelta::default();
        let mut hops_before = 0usize;
        let mut hops_after = 0usize;
        for ((&flow, &(from, to)), links) in drain.iter().zip(&ends).zip(found) {
            let route = routes.route(flow).expect("drained flows have routes");
            let channels = route.channels().to_vec();
            hops_before += route.hop_count();
            let links = links.ok_or(RecoveryError::NoEscapeRoute { flow, from, to })?;
            hops_after += links.len();
            cdg.remove_flow_deps(flow, &channels, &mut delta);
            routes.set_route(flow, Route::from_links(links));
            cdg.add_flow_deps(
                flow,
                routes.route(flow).expect("route was just set").channels(),
                &mut delta,
            );
            reconfigured.insert(flow);
        }

        steps.push(RecoveryStep {
            sccs,
            scc_channels,
            flows_drained: drain.len(),
            hops_before,
            hops_after,
        });
    }

    Ok(RecoveryResult {
        reconfigurations: steps.len(),
        flows_reconfigured: reconfigured.len(),
        already_deadlock_free: steps.is_empty(),
        steps,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use noc_topology::generators;
    use noc_topology::LinkId;

    /// All-to-all flows over a generated topology, routed shortest-path —
    /// a bidirectional ring under this routing has a cyclic CDG.
    fn all_to_all_shortest(
        generated: generators::Generated,
    ) -> (Topology, RouteSet, noc_topology::CommGraph) {
        use noc_routing::shortest::route_all_shortest;
        use noc_topology::{CommGraph, CoreMap};
        let n = generated.switches.len();
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    comm.add_flow(cores[i], cores[j], 1.0);
                }
            }
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        (generated.topology, routes, comm)
    }

    #[test]
    fn recovery_fixes_a_bidirectional_ring_without_adding_vcs() {
        let (topo, mut routes, _) = all_to_all_shortest(generators::bidirectional_ring(6, 1.0));
        assert!(verify::check_deadlock_free(&topo, &routes).is_err());
        let result = apply_recovery_reconfig(&topo, &mut routes, SwitchId::from_index(0)).unwrap();
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
        assert!(!result.already_deadlock_free);
        assert!(result.reconfigurations >= 1);
        assert_eq!(result.steps.len(), result.reconfigurations);
        assert_eq!(result.flows_drained(), result.flows_reconfigured);
        assert_eq!(topo.extra_vc_count(), 0, "recovery never buys VCs");
        // Up*/down* detours around the tree root make recovery routes
        // longer than the shortest-path originals.
        assert!(result.extra_hops() > 0);
    }

    #[test]
    fn acyclic_designs_are_left_untouched() {
        use noc_routing::updown::route_all_updown;
        use noc_topology::{CommGraph, CoreMap};
        let gen = generators::mesh2d(3, 3, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..9).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..9 {
            for j in 0..9 {
                if i != j {
                    comm.add_flow(cores[i], cores[j], 1.0);
                }
            }
        }
        let mut map = CoreMap::new(9);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, gen.switches[i]).unwrap();
        }
        let root = gen.switches[0];
        let topo = gen.topology;
        let mut routes = route_all_updown(&topo, &comm, &map, root).unwrap();
        let before = routes.clone();
        let result = apply_recovery_reconfig(&topo, &mut routes, root).unwrap();
        assert!(result.already_deadlock_free);
        assert_eq!(result.reconfigurations, 0);
        assert_eq!(result.flows_reconfigured, 0);
        assert_eq!(result.extra_hops(), 0);
        assert_eq!(
            routes.iter().count(),
            before.iter().count(),
            "no route was touched"
        );
        for (flow, route) in before.iter() {
            assert_eq!(routes.route(flow), Some(route));
        }
    }

    #[test]
    fn unidirectional_rings_have_no_recovery_route() {
        // A unidirectional ring forces down→up turns for some pairs, so the
        // up*/down* recovery function cannot serve it: typed error, not a
        // panic or an unsound result.
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..4).map(|i| topo.add_switch(format!("s{i}"))).collect();
        let links: Vec<LinkId> = (0..4)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % 4], 1.0))
            .collect();
        let mut routes = RouteSet::new(4);
        for i in 0..4 {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([links[i], links[(i + 1) % 4]]),
            );
        }
        let err = apply_recovery_reconfig(&topo, &mut routes, sw[0]).unwrap_err();
        assert!(matches!(err, RecoveryError::NoEscapeRoute { .. }));
        assert!(err.to_string().contains("recovery route"));
    }

    #[test]
    fn drained_routes_still_connect_their_endpoints() {
        let (topo, mut routes, comm) = all_to_all_shortest(generators::torus2d(3, 3, 1.0));
        let endpoints: Vec<(SwitchId, SwitchId)> = routes
            .iter()
            .map(|(_, r)| {
                let ch = r.channels();
                (
                    topo.link(ch[0].link).unwrap().source,
                    topo.link(ch[ch.len() - 1].link).unwrap().target,
                )
            })
            .collect();
        apply_recovery_reconfig(&topo, &mut routes, SwitchId::from_index(0)).unwrap();
        for ((_, route), (from, to)) in routes.iter().zip(endpoints) {
            let ch = route.channels();
            assert_eq!(topo.link(ch[0].link).unwrap().source, from);
            assert_eq!(topo.link(ch[ch.len() - 1].link).unwrap().target, to);
        }
        let _ = comm;
    }
}

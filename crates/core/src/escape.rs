//! Escape-channel deadlock *avoidance*.
//!
//! Instead of repairing a cyclic CDG after the fact (Algorithm 1) or
//! ordering channels along every route (resource ordering), avoidance
//! schemes reserve part of the VC space as an *escape layer* restricted to a
//! deadlock-free subgraph, so the design can never deadlock in the first
//! place and zero cycles ever need breaking (cf. Duato's theory and the
//! OQ/VOQ escape designs of arXiv:2303.10526).
//!
//! The deadlock-free subgraph used here is the up*/down* order of
//! [`noc_routing::updown`]: a BFS spanning tree labels every link *up*
//! (towards the root) or *down*, and a design whose routes never turn
//! down→up has an acyclic CDG.  Static routes produced by deadlock-oblivious
//! shortest-path routing *do* contain down→up turns, so
//! [`apply_escape_channels`] keeps every route on its physical links and
//! lifts it one VC **layer** at every illegal turn:
//!
//! * hops start on layer 0 (the base VCs);
//! * whenever a route would traverse an *up* link right after a *down* link
//!   — the turn the up*/down* order forbids — the remainder of the route
//!   moves to the next layer (an escape VC on each subsequent link);
//! * a link provides as many VCs as the highest layer crossing it, so links
//!   never used after an illegal turn keep their single base VC.
//!
//! Every layer on its own is an up*/down*-legal sub-design (its CDG is
//! acyclic by the classic spanning-tree argument), and route segments only
//! ever move to *higher* layers, so layer indices are non-decreasing along
//! every dependency chain: any CDG cycle would have to live inside a single
//! layer, which is impossible.  The whole CDG is therefore acyclic by
//! construction — the avoidance guarantee — and the cost of the scheme is
//! exactly the escape VCs it reserves, reported as
//! [`EscapeChannelResult::added_vcs`] and compared against the other
//! strategies in the `fig_strategy_matrix` sweep.

use crate::resource_ordering::assign_vc_layers;
use noc_routing::updown::{LinkDirection, UpDownLabels};
use noc_routing::RouteSet;
use noc_topology::{SwitchId, Topology, TopologyError};
use std::error::Error;
use std::fmt;

/// Result of applying escape-channel avoidance to a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeChannelResult {
    /// Number of VCs added on top of the single VC every link starts with
    /// (the escape layers actually materialised).
    pub added_vcs: usize,
    /// Number of VC layers used, base layer included (1 when every route is
    /// already up*/down*-legal and no escape VC was needed).
    pub layers: usize,
    /// Flows that needed at least one escape-layer hop.
    pub escaped_flows: usize,
    /// Total hops assigned to escape layers (layer ≥ 1) across all routes.
    pub escape_hops: usize,
    /// Root of the BFS spanning tree the up*/down* order was built from.
    pub root: SwitchId,
}

/// Errors reported by [`apply_escape_channels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscapeError {
    /// A route crosses a link whose endpoints are not reachable from the
    /// spanning-tree root, so the link has no up/down direction.
    UnreachableLink {
        /// The unlabelled link.
        link: noc_topology::LinkId,
        /// The root the labelling was built from.
        root: SwitchId,
    },
    /// An underlying topology-model error (unknown link).
    Topology(TopologyError),
}

impl fmt::Display for EscapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EscapeError::UnreachableLink { link, root } => write!(
                f,
                "link {link} is not reachable from the spanning-tree root {root}, \
                 so it has no up/down direction"
            ),
            EscapeError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl Error for EscapeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EscapeError::Topology(e) => Some(e),
            EscapeError::UnreachableLink { .. } => None,
        }
    }
}

impl From<TopologyError> for EscapeError {
    fn from(e: TopologyError) -> Self {
        EscapeError::Topology(e)
    }
}

/// Applies escape-channel avoidance in place: every route keeps its physical
/// links, hops are assigned to VC layers (ascending at every down→up turn of
/// the up*/down* order rooted at `root`), and every link grows enough VCs to
/// cover the highest layer that crosses it.
///
/// The resulting CDG is acyclic by construction — see the module docs — so
/// a design treated this way can never deadlock and no cycle breaking is
/// required.
///
/// # Errors
///
/// * [`EscapeError::Topology`] if a route references a link unknown to the
///   topology.
/// * [`EscapeError::UnreachableLink`] if a route crosses a link that the
///   BFS labelling could not reach from `root` (a disconnected topology);
///   the bundled synthesized designs are always connected.
pub fn apply_escape_channels(
    topology: &mut Topology,
    routes: &mut RouteSet,
    root: SwitchId,
) -> Result<EscapeChannelResult, EscapeError> {
    let labels = UpDownLabels::new(topology, root);
    let mut layer = 0usize;
    let mut prev: Option<LinkDirection> = None;
    let added_vcs = assign_vc_layers(topology, routes, |topology, hop, link| {
        let Some(direction) = labels.direction(topology, link) else {
            return Err(EscapeError::UnreachableLink { link, root });
        };
        if hop == 0 {
            layer = 0;
        } else if prev == Some(LinkDirection::Down) && direction == LinkDirection::Up {
            layer += 1;
        }
        prev = Some(direction);
        Ok(layer)
    })?;

    // Read the escape statistics back from the rewritten routes.
    let channels = || routes.iter().flat_map(|(_, route)| route.channels());
    Ok(EscapeChannelResult {
        added_vcs,
        layers: 1 + channels().map(|c| c.vc).max().unwrap_or(0),
        escaped_flows: routes
            .iter()
            .filter(|(_, route)| route.channels().iter().any(|c| c.vc > 0))
            .count(),
        escape_hops: channels().filter(|c| c.vc > 0).count(),
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure_1_design;
    use crate::verify;
    use noc_routing::Route;
    use noc_topology::{FlowId, LinkId};

    #[test]
    fn escape_layers_make_the_ring_deadlock_free() {
        let (mut topo, mut routes) = figure_1_design();
        assert!(verify::check_deadlock_free(&topo, &routes).is_err());
        let result =
            apply_escape_channels(&mut topo, &mut routes, SwitchId::from_index(0)).unwrap();
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
        assert!(result.added_vcs >= 1, "the ring needs an escape layer");
        assert!(result.layers >= 2);
        assert!(result.escaped_flows >= 1);
        assert_eq!(topo.extra_vc_count(), result.added_vcs);
    }

    #[test]
    fn routes_keep_their_physical_links() {
        let (mut topo, mut routes) = figure_1_design();
        let before: Vec<Vec<LinkId>> = routes.iter().map(|(_, r)| r.links().collect()).collect();
        apply_escape_channels(&mut topo, &mut routes, SwitchId::from_index(0)).unwrap();
        let after: Vec<Vec<LinkId>> = routes.iter().map(|(_, r)| r.links().collect()).collect();
        assert_eq!(before, after, "avoidance must only change VC assignments");
    }

    #[test]
    fn legal_updown_routes_need_zero_escape_vcs() {
        // Routes produced by up*/down* routing itself have no illegal turn,
        // so the escape scheme adds nothing and every hop stays on layer 0.
        use noc_routing::updown::route_all_updown;
        use noc_topology::{generators, CommGraph, CoreMap};
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
        let mut topo = gen.topology;
        let mut routes = route_all_updown(&topo, &comm, &map, root).unwrap();
        let result = apply_escape_channels(&mut topo, &mut routes, root).unwrap();
        assert_eq!(result.added_vcs, 0);
        assert_eq!(result.layers, 1);
        assert_eq!(result.escaped_flows, 0);
        assert_eq!(result.escape_hops, 0);
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
    }

    #[test]
    fn multiple_illegal_turns_stack_layers() {
        // One flow zig-zagging down→up→down→up across parallel links needs
        // two escape layers on the links it crosses after each turn.
        let mut topo = Topology::new();
        let s0 = topo.add_switch("s0");
        let s1 = topo.add_switch("s1");
        // Parallel links both ways: s0→s1 is Down (s1 deeper), s1→s0 is Up.
        let down: Vec<LinkId> = (0..3).map(|_| topo.add_link(s0, s1, 1.0)).collect();
        let up: Vec<LinkId> = (0..2).map(|_| topo.add_link(s1, s0, 1.0)).collect();
        let mut routes = RouteSet::new(1);
        routes.set_route(
            FlowId::from_index(0),
            Route::from_links([down[0], up[0], down[1], up[1], down[2]]),
        );
        let result = apply_escape_channels(&mut topo, &mut routes, s0).unwrap();
        assert_eq!(result.layers, 3, "two down→up turns → two escape layers");
        assert_eq!(result.escaped_flows, 1);
        let channels = routes.route(FlowId::from_index(0)).unwrap().channels();
        let vcs: Vec<usize> = channels.iter().map(|c| c.vc).collect();
        assert_eq!(vcs, vec![0, 1, 1, 2, 2]);
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
    }

    #[test]
    fn unknown_link_is_reported() {
        let mut topo = Topology::new();
        topo.add_switch("only");
        let mut routes = RouteSet::new(1);
        routes.set_route(
            FlowId::from_index(0),
            Route::from_links([LinkId::from_index(5)]),
        );
        let err =
            apply_escape_channels(&mut topo, &mut routes, SwitchId::from_index(0)).unwrap_err();
        assert!(matches!(err, EscapeError::Topology(_)));
        assert!(err.to_string().contains("topology error"));
    }

    #[test]
    fn unreachable_link_is_reported() {
        // Two disconnected islands: the island link has no up/down label
        // relative to a root on the other island.
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        let a = topo.add_switch("a");
        let b = topo.add_switch("b");
        let island = topo.add_link(a, b, 1.0);
        let _ = root;
        let mut routes = RouteSet::new(1);
        routes.set_route(FlowId::from_index(0), Route::from_links([island]));
        let err =
            apply_escape_channels(&mut topo, &mut routes, SwitchId::from_index(0)).unwrap_err();
        assert!(matches!(err, EscapeError::UnreachableLink { .. }));
        assert!(err.to_string().contains("not reachable"));
    }
}

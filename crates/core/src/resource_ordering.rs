//! The resource-ordering baseline (Dally & Towles).
//!
//! Channels are assigned to ordered classes; after a flow uses a channel of
//! class `k`, the next channel it acquires must have a class strictly
//! greater than `k`.  The straightforward static policy — hop `h` of every
//! route uses class `h` — guarantees the CDG is acyclic (class numbers
//! increase along every route, so no dependency can close a cycle), but a
//! link crossed at hop `h` by some flow needs at least `h + 1` VCs.  Long
//! routes therefore inflate the VC count, which is exactly the overhead the
//! paper measures against in Figures 8–10.

use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId, LinkId, Topology, TopologyError};

/// Result of applying resource ordering to a design.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceOrderingResult {
    /// Number of VCs added on top of the single VC every link starts with.
    pub added_vcs: usize,
    /// Number of channel classes used (= length of the longest route).
    pub classes: usize,
}

/// Applies resource ordering in place: every flow's hop `h` is moved onto VC
/// `h` of the link it crosses, and every link grows enough VCs to cover the
/// highest class that crosses it.
///
/// Returns the VC overhead, the metric plotted as the "Resource ordering"
/// series of Figures 8 and 9.
///
/// # Errors
///
/// Returns a [`TopologyError`] if a route references a link unknown to the
/// topology.
pub fn apply_resource_ordering(
    topology: &mut Topology,
    routes: &mut RouteSet,
) -> Result<ResourceOrderingResult, TopologyError> {
    let added_vcs = assign_vc_layers(topology, routes, |_, hop, _| Ok::<_, TopologyError>(hop))?;
    Ok(ResourceOrderingResult {
        added_vcs,
        classes: routes.max_hops(),
    })
}

/// Moves every hop onto the VC layer `layer_of(topology, hop, link)` picks
/// for it, walking each route from its first hop (`hop` is 0 at the start
/// of every route), then grows every link to cover the highest layer that
/// crosses it.  Returns the VCs added.
///
/// The one layering routine behind resource ordering (the layer is the hop
/// index) and escape channels ([`crate::escape`]: the layer climbs at every
/// down→up turn).
///
/// # Errors
///
/// Stops at the first hop whose link the topology does not know
/// ([`TopologyError::UnknownLink`]) or whose layer `layer_of` refuses.
pub(crate) fn assign_vc_layers<E: From<TopologyError>>(
    topology: &mut Topology,
    routes: &mut RouteSet,
    mut layer_of: impl FnMut(&Topology, usize, LinkId) -> Result<usize, E>,
) -> Result<usize, E> {
    // Highest layer needed on every link (every link keeps its base VC).
    let mut needed_vcs: Vec<usize> = vec![1; topology.link_count()];
    for flow_index in 0..routes.flow_count() {
        let channels = routes
            .route_mut(FlowId::from_index(flow_index))
            .expect("index is in range");
        for (hop, channel) in channels.iter_mut().enumerate() {
            let Some(needed) = needed_vcs.get_mut(channel.link.index()) else {
                return Err(TopologyError::UnknownLink(channel.link).into());
            };
            let layer = layer_of(topology, hop, channel.link)?;
            *channel = Channel::new(channel.link, layer);
            *needed = (*needed).max(layer + 1);
        }
    }

    let mut added = 0usize;
    for (index, &needed) in needed_vcs.iter().enumerate() {
        let link = LinkId::from_index(index);
        let current = topology
            .link(link)
            .ok_or(TopologyError::UnknownLink(link))?
            .vcs;
        for _ in current..needed {
            topology.add_vc(link)?;
            added += 1;
        }
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure_1_design;
    use crate::verify;
    use noc_routing::Route;

    #[test]
    fn resource_ordering_makes_the_ring_deadlock_free() {
        let (mut topo, mut routes) = figure_1_design();
        assert!(verify::check_deadlock_free(&topo, &routes).is_err());
        let result = apply_resource_ordering(&mut topo, &mut routes).unwrap();
        assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
        assert_eq!(result.classes, 3);
        assert!(result.added_vcs >= 3, "long routes force several classes");
    }

    #[test]
    fn resource_ordering_costs_more_than_the_removal_algorithm_on_the_ring() {
        let (mut ro_topo, mut ro_routes) = figure_1_design();
        let ro = apply_resource_ordering(&mut ro_topo, &mut ro_routes).unwrap();

        let (mut dr_topo, mut dr_routes) = figure_1_design();
        let dr = crate::removal::remove_deadlocks(
            &mut dr_topo,
            &mut dr_routes,
            &crate::removal::RemovalConfig::default(),
        )
        .unwrap();

        assert!(ro.added_vcs > dr.added_vcs);
    }

    #[test]
    fn vcs_match_the_longest_hop_position_per_link() {
        let (mut topo, mut routes) = figure_1_design();
        apply_resource_ordering(&mut topo, &mut routes).unwrap();
        // Link L2 (index 2) is the 3rd hop of F1 => needs 3 VCs.
        assert_eq!(topo.link(LinkId::from_index(2)).unwrap().vcs, 3);
        // Link L1 (index 1) is at most the 2nd hop => 2 VCs.
        assert_eq!(topo.link(LinkId::from_index(1)).unwrap().vcs, 2);
        // Link L0 is a 1st hop for F1/F4 but the 2nd hop of F3 => 2 VCs.
        assert_eq!(topo.link(LinkId::from_index(0)).unwrap().vcs, 2);
    }

    #[test]
    fn routes_keep_their_physical_links() {
        let (mut topo, mut routes) = figure_1_design();
        let before: Vec<Vec<LinkId>> = routes.iter().map(|(_, r)| r.links().collect()).collect();
        apply_resource_ordering(&mut topo, &mut routes).unwrap();
        let after: Vec<Vec<LinkId>> = routes.iter().map(|(_, r)| r.links().collect()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn empty_route_set_adds_nothing() {
        let (mut topo, _) = figure_1_design();
        let mut routes = RouteSet::new(0);
        let result = apply_resource_ordering(&mut topo, &mut routes).unwrap();
        assert_eq!(result.added_vcs, 0);
        assert_eq!(result.classes, 0);
        assert_eq!(topo.extra_vc_count(), 0);
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
        assert!(apply_resource_ordering(&mut topo, &mut routes).is_err());
    }
}

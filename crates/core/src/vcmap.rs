//! The VC assignment a deadlock strategy produced, as a standalone artifact.
//!
//! Every [`DeadlockStrategy`](https://docs.rs/noc-flow) encodes its virtual
//! channel spend in the design itself: the repaired [`Topology`] carries the
//! per-link VC counts and the repaired [`RouteSet`] carries the per-hop
//! [`Channel`](noc_topology::Channel) (link × VC) each flow was assigned.
//! The VC-fidelity
//! simulator (`noc_sim::vc_engine`) needs exactly that information — how
//! many buffers each link multiplexes, and which of them a flow's packets
//! are *supposed* to ride at every hop — without dragging the whole design
//! along.  [`VcMap`] is that shared seam: a compact, strategy-agnostic
//! snapshot of the VC assignment, built once per repaired design and handed
//! to the simulator (and to any [`VcPolicy`](https://docs.rs/noc-sim) that
//! interprets the assignment adaptively, Duato-style).

use noc_routing::RouteSet;
use noc_topology::{FlowId, LinkId, Topology};

/// A strategy's virtual-channel assignment: per-link VC counts plus the VC
/// index every flow was assigned at every hop of its route.
///
/// # Example
///
/// ```
/// use noc_deadlock::vcmap::VcMap;
/// use noc_routing::{Route, RouteSet};
/// use noc_topology::{Channel, FlowId, Topology};
///
/// let mut topo = Topology::new();
/// let a = topo.add_switch("a");
/// let b = topo.add_switch("b");
/// let c = topo.add_switch("c");
/// let l0 = topo.add_link(a, b, 1.0);
/// let l1 = topo.add_link(b, c, 1.0);
/// let escape = topo.add_vc(l1)?;
/// let mut routes = RouteSet::new(1);
/// routes.set_route(
///     FlowId::from_index(0),
///     Route::new(vec![Channel::base(l0), escape]),
/// );
///
/// let map = VcMap::from_design(&topo, &routes);
/// assert_eq!(map.link_vcs(l0), 1);
/// assert_eq!(map.link_vcs(l1), 2);
/// assert_eq!(map.assigned_vc(FlowId::from_index(0), 1), Some(1));
/// assert_eq!(map.total_channels(), 3);
/// assert!(!map.is_single_vc());
/// # Ok::<(), noc_topology::error::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VcMap {
    /// Number of VCs multiplexed on each link, indexed by [`LinkId`].
    link_vcs: Vec<usize>,
    /// Per flow, the assigned VC index of every hop of its route.
    flow_vcs: Vec<Vec<usize>>,
}

impl VcMap {
    /// Snapshots the VC assignment of a (possibly repaired) design: the
    /// per-link VC counts come from `topology`, the per-hop assignments from
    /// the [`Channel`](noc_topology::Channel)s of `routes`.
    pub fn from_design(topology: &Topology, routes: &RouteSet) -> Self {
        VcMap {
            link_vcs: topology.links().map(|(_, link)| link.vcs).collect(),
            flow_vcs: (0..routes.flow_count())
                .map(|index| {
                    routes
                        .route(FlowId::from_index(index))
                        .map(|route| route.channels().iter().map(|c| c.vc).collect())
                        .unwrap_or_default()
                })
                .collect(),
        }
    }

    /// Number of VCs on `link` (0 for a link unknown to the snapshot, which
    /// never happens for maps built by [`from_design`](Self::from_design)
    /// and queried with the same design).
    pub fn link_vcs(&self, link: LinkId) -> usize {
        self.link_vcs.get(link.index()).copied().unwrap_or(0)
    }

    /// The VC index assigned to `flow` at hop `hop` of its route, or `None`
    /// when the flow or hop is out of range (same-switch flows have no hops).
    pub fn assigned_vc(&self, flow: FlowId, hop: usize) -> Option<usize> {
        self.flow_vcs.get(flow.index())?.get(hop).copied()
    }

    /// Number of links covered by the snapshot.
    pub fn link_count(&self) -> usize {
        self.link_vcs.len()
    }

    /// Total channel count (sum of VCs over all links) — the buffer space a
    /// VC-fidelity simulator must materialise.
    pub fn total_channels(&self) -> usize {
        self.link_vcs.iter().sum()
    }

    /// `true` when the assignment never leaves the base layer: every link
    /// has a single VC and every hop is assigned VC 0.  Designs before any
    /// deadlock handling look like this — the configuration the unsafe
    /// single-VC simulation baseline reproduces on purpose.
    pub fn is_single_vc(&self) -> bool {
        self.link_vcs.iter().all(|&vcs| vcs <= 1)
            && self
                .flow_vcs
                .iter()
                .all(|hops| hops.iter().all(|&vc| vc == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::Route;
    use noc_topology::Channel;

    fn ring_with_escape() -> (Topology, RouteSet) {
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..3).map(|i| topo.add_switch(format!("s{i}"))).collect();
        let links: Vec<LinkId> = (0..3)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % 3], 1.0))
            .collect();
        let escape = topo.add_vc(links[1]).unwrap();
        let mut routes = RouteSet::new(2);
        routes.set_route(
            FlowId::from_index(0),
            Route::new(vec![Channel::base(links[0]), escape]),
        );
        // Flow 1 stays a same-switch (empty) route.
        (topo, routes)
    }

    #[test]
    fn snapshot_matches_the_design() {
        let (topo, routes) = ring_with_escape();
        let map = VcMap::from_design(&topo, &routes);
        assert_eq!(map.link_count(), 3);
        assert_eq!(map.link_vcs(LinkId::from_index(0)), 1);
        assert_eq!(map.link_vcs(LinkId::from_index(1)), 2);
        assert_eq!(map.total_channels(), 4);
        assert_eq!(
            map.total_channels() - map.link_count(),
            topo.extra_vc_count()
        );
        assert_eq!(map.assigned_vc(FlowId::from_index(0), 0), Some(0));
        assert_eq!(map.assigned_vc(FlowId::from_index(0), 1), Some(1));
        assert_eq!(map.assigned_vc(FlowId::from_index(0), 2), None);
        assert_eq!(map.assigned_vc(FlowId::from_index(1), 0), None);
        assert!(!map.is_single_vc());
    }

    #[test]
    fn out_of_range_queries_are_none_or_zero() {
        let (topo, routes) = ring_with_escape();
        let map = VcMap::from_design(&topo, &routes);
        assert_eq!(map.link_vcs(LinkId::from_index(99)), 0);
        assert_eq!(map.assigned_vc(FlowId::from_index(99), 0), None);
    }

    #[test]
    fn base_designs_are_single_vc() {
        let mut topo = Topology::new();
        let a = topo.add_switch("a");
        let b = topo.add_switch("b");
        let l = topo.add_link(a, b, 1.0);
        let mut routes = RouteSet::new(1);
        routes.set_route(FlowId::from_index(0), Route::from_links([l]));
        let map = VcMap::from_design(&topo, &routes);
        assert!(map.is_single_vc());
    }
}

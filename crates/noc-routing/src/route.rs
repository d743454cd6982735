//! The route data model: ordered channel lists per flow.

use noc_topology::{Channel, FlowId, LinkId, SwitchId, Topology};

/// A route (Definition 3): the ordered list of channels a flow traverses.
///
/// A flow whose source and destination cores are attached to the same switch
/// has an empty route — it never enters the switch-to-switch network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    channels: Vec<Channel>,
}

impl Route {
    /// Creates a route from an ordered channel list.
    pub fn new(channels: Vec<Channel>) -> Self {
        Route { channels }
    }

    /// Creates an empty (same-switch) route.
    pub fn empty() -> Self {
        Route::default()
    }

    /// Creates a route that uses VC 0 of every link in `links`, in order.
    pub fn from_links(links: impl IntoIterator<Item = LinkId>) -> Self {
        Route {
            channels: links.into_iter().map(Channel::base).collect(),
        }
    }

    /// The ordered channels of the route.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Mutable access to the channels (used by the deadlock-removal
    /// algorithm when re-routing a flow onto newly added VCs).
    pub fn channels_mut(&mut self) -> &mut Vec<Channel> {
        &mut self.channels
    }

    /// The ordered physical links of the route.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.channels.iter().map(|c| c.link)
    }

    /// Number of channels (= hops across the switch network).
    pub fn hop_count(&self) -> usize {
        self.channels.len()
    }

    /// Returns `true` for a same-switch route.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The switch sequence the route traverses, derived from `topology`
    /// (source switch of the first link, then target of each link).
    /// Returns `None` if any link is unknown to the topology.
    pub fn switch_path(&self, topology: &Topology) -> Option<Vec<SwitchId>> {
        if self.channels.is_empty() {
            return Some(Vec::new());
        }
        let mut path = Vec::with_capacity(self.channels.len() + 1);
        let first = topology.link(self.channels[0].link)?;
        path.push(first.source);
        for c in &self.channels {
            path.push(topology.link(c.link)?.target);
        }
        Some(path)
    }
}

impl FromIterator<Channel> for Route {
    fn from_iter<T: IntoIterator<Item = Channel>>(iter: T) -> Self {
        Route {
            channels: iter.into_iter().collect(),
        }
    }
}

/// The set of routes for every flow of a design, indexed by [`FlowId`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteSet {
    routes: Vec<Route>,
}

impl RouteSet {
    /// Creates a route set with `flow_count` empty routes.
    pub fn new(flow_count: usize) -> Self {
        RouteSet {
            routes: vec![Route::empty(); flow_count],
        }
    }

    /// Number of flows covered.
    pub fn flow_count(&self) -> usize {
        self.routes.len()
    }

    /// Returns the route of `flow`, if the id is in range.
    pub fn route(&self, flow: FlowId) -> Option<&Route> {
        self.routes.get(flow.index())
    }

    /// Returns a mutable reference to the route of `flow`.
    pub fn route_mut(&mut self, flow: FlowId) -> Option<&mut Route> {
        self.routes.get_mut(flow.index())
    }

    /// Replaces the route of `flow`.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn set_route(&mut self, flow: FlowId, route: Route) {
        self.routes[flow.index()] = route;
    }

    /// Iterates over `(FlowId, &Route)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &Route)> + '_ {
        self.routes
            .iter()
            .enumerate()
            .map(|(i, r)| (FlowId::from_index(i), r))
    }

    /// The longest route length across all flows (used by the
    /// resource-ordering baseline to size its channel-class count).
    pub fn max_hops(&self) -> usize {
        self.routes.iter().map(Route::hop_count).max().unwrap_or(0)
    }

    /// Number of flows that actually enter the switch network, i.e. whose
    /// route has at least one hop.  Flows between cores on the same switch
    /// have empty routes and are *not* counted.
    pub fn active_flow_count(&self) -> usize {
        self.routes.iter().filter(|r| !r.is_empty()).count()
    }

    /// Average hop count over the [`active_flow_count`](Self::active_flow_count)
    /// flows that actually enter the network.
    ///
    /// Zero-hop (same-switch) flows are **deliberately excluded** from the
    /// average: they never occupy a channel, so counting them would make a
    /// design with good core clustering look artificially "shorter-routed"
    /// than one where every flow crosses the network.  A route set with no
    /// active flows at all has a mean of `0.0`.
    pub fn mean_hops(&self) -> f64 {
        let (count, total) = self
            .routes
            .iter()
            .map(Route::hop_count)
            .filter(|&h| h > 0)
            .fold((0usize, 0usize), |(c, t), h| (c + 1, t + h));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Topology;

    fn two_link_route() -> (Topology, Route) {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let c = t.add_switch("c");
        let l0 = t.add_link(a, b, 1.0);
        let l1 = t.add_link(b, c, 1.0);
        (t, Route::from_links([l0, l1]))
    }

    #[test]
    fn route_accessors() {
        let (t, r) = two_link_route();
        assert_eq!(r.hop_count(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.channels()[1], Channel::base(LinkId::from_index(1)));
        let path = r.switch_path(&t).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], SwitchId::from_index(0));
        assert_eq!(path[2], SwitchId::from_index(2));
    }

    #[test]
    fn empty_route_has_empty_switch_path() {
        let (t, _) = two_link_route();
        let r = Route::empty();
        assert!(r.is_empty());
        assert_eq!(r.switch_path(&t), Some(vec![]));
    }

    #[test]
    fn switch_path_with_unknown_link_is_none() {
        let t = Topology::new();
        let r = Route::from_links([LinkId::from_index(0)]);
        assert_eq!(r.switch_path(&t), None);
    }

    #[test]
    fn route_set_indexing_and_queries() {
        let (_, r) = two_link_route();
        let mut rs = RouteSet::new(3);
        assert_eq!(rs.flow_count(), 3);
        let f1 = FlowId::from_index(1);
        rs.set_route(f1, r.clone());
        assert_eq!(rs.route(f1), Some(&r));
        assert_eq!(rs.max_hops(), 2);
        assert_eq!(rs.route(FlowId::from_index(9)), None);
    }

    #[test]
    fn mean_hops_ignores_local_flows() {
        let (_, r) = two_link_route();
        let mut rs = RouteSet::new(2);
        rs.set_route(FlowId::from_index(0), r);
        // One 2-hop flow plus one local (empty) flow: the local flow is
        // excluded, so the mean is 2.0, not 1.0.
        assert_eq!(rs.mean_hops(), 2.0);
        let empty = RouteSet::new(2);
        assert_eq!(empty.mean_hops(), 0.0);
    }

    #[test]
    fn active_flow_count_matches_nonempty_routes() {
        let (_, r) = two_link_route();
        let mut rs = RouteSet::new(3);
        assert_eq!(rs.active_flow_count(), 0);
        rs.set_route(FlowId::from_index(0), r.clone());
        rs.set_route(FlowId::from_index(2), r);
        assert_eq!(rs.active_flow_count(), 2);
        // mean_hops averages over exactly the active flows.
        assert_eq!(rs.mean_hops(), 2.0);
    }

    #[test]
    fn route_collects_from_channel_iterator() {
        let channels = vec![
            Channel::base(LinkId::from_index(0)),
            Channel::new(LinkId::from_index(1), 2),
        ];
        let r: Route = channels.iter().copied().collect();
        assert_eq!(r.channels(), channels.as_slice());
    }

    #[test]
    fn channels_mut_allows_rerouting() {
        let (_, mut r) = two_link_route();
        r.channels_mut()[0] = Channel::new(LinkId::from_index(0), 1);
        assert_eq!(r.channels()[0], Channel::new(LinkId::from_index(0), 1));
    }
}

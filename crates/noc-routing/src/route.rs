//! The route data model: ordered channel lists per flow.

use std::fmt;

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

    /// A borrowed view of the route, the form a [`RouteSet`] hands out.
    pub fn view(&self) -> RouteView<'_> {
        RouteView {
            channels: &self.channels,
        }
    }

    /// The ordered channels of the route.
    pub fn channels(&self) -> &[Channel] {
        self.view().channels()
    }

    /// The ordered physical links of the route.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.view().links()
    }

    /// Number of channels (= hops across the switch network).
    pub fn hop_count(&self) -> usize {
        self.view().hop_count()
    }

    /// Returns `true` for a same-switch route.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// The switch sequence the route traverses; see
    /// [`RouteView::switch_path`].
    pub fn switch_path(&self, topology: &Topology) -> Option<Vec<SwitchId>> {
        self.view().switch_path(topology)
    }
}

impl FromIterator<Channel> for Route {
    fn from_iter<T: IntoIterator<Item = Channel>>(iter: T) -> Self {
        Route {
            channels: iter.into_iter().collect(),
        }
    }
}

/// A borrowed route: one flow's channels, read in place from a
/// [`RouteSet`] (or from a [`Route`] through [`Route::view`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RouteView<'a> {
    channels: &'a [Channel],
}

impl<'a> RouteView<'a> {
    /// The ordered channels of the route.
    pub fn channels(self) -> &'a [Channel] {
        self.channels
    }

    /// The ordered physical links of the route.
    pub fn links(self) -> impl Iterator<Item = LinkId> + 'a {
        self.channels.iter().map(|c| c.link)
    }

    /// Number of channels (= hops across the switch network).
    pub fn hop_count(self) -> usize {
        self.channels.len()
    }

    /// Returns `true` for a same-switch route.
    pub fn is_empty(self) -> bool {
        self.channels.is_empty()
    }

    /// The switch sequence the route traverses, derived from `topology`
    /// (source switch of the first link, then target of each link).
    /// Returns `None` if any link is unknown to the topology.
    pub fn switch_path(self, topology: &Topology) -> Option<Vec<SwitchId>> {
        let Some(first) = self.channels.first() else {
            return Some(Vec::new());
        };
        let mut path = Vec::with_capacity(self.channels.len() + 1);
        path.push(topology.link(first.link)?.source);
        for c in self.channels {
            path.push(topology.link(c.link)?.target);
        }
        Some(path)
    }

    /// An owned copy of the route.
    pub fn to_route(self) -> Route {
        Route::new(self.channels.to_vec())
    }
}

/// Prints as the owned [`Route`] does.
impl fmt::Debug for RouteView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Route")
            .field("channels", &self.channels)
            .finish()
    }
}

/// The set of routes for every flow of a design, indexed by [`FlowId`].
///
/// Every route lives in one channel array: the route of flow `i` is
/// `channels[spans[i].0..spans[i].1]`, so cloning a route set copies two
/// arrays.  Replacing a route costs the route: one that fits where the old
/// route was is written there, a longer one is appended, and the space
/// routes left behind is reclaimed once it makes up half of `channels`.
/// Equality and `Debug` see only the per-flow channel lists.
#[derive(Clone, Default)]
pub struct RouteSet {
    channels: Vec<Channel>,
    spans: Vec<(usize, usize)>,
    /// Entries of `channels` that no route holds.
    slack: usize,
}

impl RouteSet {
    /// Creates a route set with `flow_count` empty routes.
    pub fn new(flow_count: usize) -> Self {
        RouteSet {
            spans: vec![(0, 0); flow_count],
            ..RouteSet::default()
        }
    }

    /// Number of flows covered.
    pub fn flow_count(&self) -> usize {
        self.spans.len()
    }

    /// Returns the route of `flow`, if the id is in range.
    pub fn route(&self, flow: FlowId) -> Option<RouteView<'_>> {
        self.spans.get(flow.index()).map(|&span| self.view(span))
    }

    fn view(&self, (start, end): (usize, usize)) -> RouteView<'_> {
        RouteView {
            channels: &self.channels[start..end],
        }
    }

    /// The channels of `flow`'s route, to rewrite in place (the
    /// deadlock-removal algorithm re-routes a flow onto newly added VCs
    /// this way).  A route of another length goes through
    /// [`set_route`](Self::set_route).
    pub fn route_mut(&mut self, flow: FlowId) -> Option<&mut [Channel]> {
        let &(start, end) = self.spans.get(flow.index())?;
        Some(&mut self.channels[start..end])
    }

    /// Replaces the route of `flow`.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn set_route(&mut self, flow: FlowId, route: Route) {
        let new = route.channels();
        let span = &mut self.spans[flow.index()];
        let old = span.1 - span.0;
        if new.len() <= old {
            self.channels[span.0..span.0 + new.len()].copy_from_slice(new);
            span.1 = span.0 + new.len();
            self.slack += old - new.len();
        } else {
            let start = self.channels.len();
            self.channels.extend_from_slice(new);
            *span = (start, self.channels.len());
            self.slack += old;
        }
        if 2 * self.slack > self.channels.len() {
            self.compact();
        }
    }

    /// Moves every route to the front of `channels`, in flow order.
    fn compact(&mut self) {
        let mut channels = Vec::with_capacity(self.channels.len() - self.slack);
        for span in &mut self.spans {
            let start = channels.len();
            channels.extend_from_slice(&self.channels[span.0..span.1]);
            *span = (start, channels.len());
        }
        self.channels = channels;
        self.slack = 0;
    }

    /// Iterates over `(FlowId, route)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, RouteView<'_>)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, &span)| (FlowId::from_index(i), self.view(span)))
    }

    /// The hop count of every flow's route, in flow order.
    fn hop_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.spans.iter().map(|&(start, end)| end - start)
    }

    /// The longest route length across all flows (used by the
    /// resource-ordering baseline to size its channel-class count).
    pub fn max_hops(&self) -> usize {
        self.hop_counts().max().unwrap_or(0)
    }

    /// Number of flows that actually enter the switch network, i.e. whose
    /// route has at least one hop.  Flows between cores on the same switch
    /// have empty routes and are *not* counted.
    pub fn active_flow_count(&self) -> usize {
        self.hop_counts().filter(|&h| h > 0).count()
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
            .hop_counts()
            .filter(|&h| h > 0)
            .fold((0usize, 0usize), |(c, t), h| (c + 1, t + h));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

impl PartialEq for RouteSet {
    fn eq(&self, other: &Self) -> bool {
        self.flow_count() == other.flow_count()
            && self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for RouteSet {}

/// Prints the per-flow routes, as a `Vec<Route>` field would.
impl fmt::Debug for RouteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let routes: Vec<RouteView<'_>> = self.iter().map(|(_, route)| route).collect();
        f.debug_struct("RouteSet").field("routes", &routes).finish()
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
        assert_eq!(rs.route(f1).map(RouteView::channels), Some(r.channels()));
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
    fn route_mut_allows_rerouting() {
        let (_, r) = two_link_route();
        let mut rs = RouteSet::new(1);
        let f = FlowId::from_index(0);
        rs.set_route(f, r);
        rs.route_mut(f).unwrap()[0] = Channel::new(LinkId::from_index(0), 1);
        let rerouted = rs.route(f).unwrap().channels();
        assert_eq!(rerouted[0], Channel::new(LinkId::from_index(0), 1));
    }

    /// Checks `rs` against the per-flow channel lists it should hold, and
    /// the free-space bookkeeping of the flat array.
    fn assert_matches_model(rs: &RouteSet, model: &[Vec<Channel>]) {
        assert_eq!(rs.flow_count(), model.len());
        for (i, want) in model.iter().enumerate() {
            let route = rs.route(FlowId::from_index(i)).unwrap();
            assert_eq!(route.channels(), want.as_slice());
            assert_eq!(route.hop_count(), want.len());
        }
        assert_eq!(rs.route(FlowId::from_index(model.len())), None);
        let iterated: Vec<(usize, Vec<Channel>)> = rs
            .iter()
            .map(|(f, r)| (f.index(), r.channels().to_vec()))
            .collect();
        let expected: Vec<(usize, Vec<Channel>)> = model.iter().cloned().enumerate().collect();
        assert_eq!(iterated, expected);

        let active: Vec<usize> = model.iter().map(Vec::len).filter(|&h| h > 0).collect();
        assert_eq!(rs.max_hops(), active.iter().copied().max().unwrap_or(0));
        assert_eq!(rs.active_flow_count(), active.len());
        let mean = if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<usize>() as f64 / active.len() as f64
        };
        assert_eq!(rs.mean_hops(), mean);

        let mut fresh = RouteSet::new(model.len());
        for (i, channels) in model.iter().enumerate() {
            fresh.set_route(FlowId::from_index(i), Route::new(channels.clone()));
        }
        assert_eq!(*rs, fresh);
        let live: usize = model.iter().map(Vec::len).sum();
        assert_eq!(rs.channels.len() - rs.slack, live);
        assert!(2 * rs.slack <= rs.channels.len());
    }

    #[test]
    fn flat_storage_matches_a_vec_model() {
        let mut rng = noc_rng::SmallRng::seed_from_u64(40);
        let mut compactions = 0;
        for flows in [1, 4, 19] {
            let mut rs = RouteSet::new(flows);
            let mut model = vec![Vec::new(); flows];
            let mut clones = Vec::new();
            for _ in 0..300 {
                let flow = rng.gen_range(0..flows);
                let before = rs.channels.len();
                match rng.gen_range(0..8) {
                    // Replace with a route of any length: grows, shrinks or
                    // keeps the span.
                    0..=3 => {
                        let len = rng.gen_range(0..12);
                        let channels: Vec<Channel> = (0..len)
                            .map(|_| {
                                let link = LinkId::from_index(rng.gen_range(0..16));
                                Channel::new(link, rng.gen_range(0..4))
                            })
                            .collect();
                        rs.set_route(FlowId::from_index(flow), Route::new(channels.clone()));
                        model[flow] = channels;
                    }
                    4 => {
                        rs.set_route(FlowId::from_index(flow), Route::empty());
                        model[flow].clear();
                    }
                    5 | 6 => {
                        let channels = rs.route_mut(FlowId::from_index(flow)).unwrap();
                        assert_eq!(channels.len(), model[flow].len());
                        for (hop, channel) in channels.iter_mut().enumerate() {
                            channel.vc += 1;
                            model[flow][hop].vc += 1;
                        }
                    }
                    _ => clones.push((rs.clone(), model.clone())),
                }
                if rs.channels.len() < before {
                    compactions += 1;
                }
                assert_matches_model(&rs, &model);
            }
            // Later writes to the original leave every clone as it was.
            for (clone, model) in &clones {
                assert_matches_model(clone, model);
            }
        }
        assert!(compactions >= 10, "only {compactions} compactions");
    }

    #[test]
    fn write_order_shows_in_neither_equality_nor_debug() {
        let (_, long) = two_link_route();
        let short = Route::from_links([LinkId::from_index(5)]);
        let (f0, f1) = (FlowId::from_index(0), FlowId::from_index(1));
        let mut forward = RouteSet::new(2);
        forward.set_route(f0, short.clone());
        forward.set_route(f1, long.clone());
        let mut backward = RouteSet::new(2);
        backward.set_route(f1, long.clone());
        backward.set_route(f0, long.clone());
        backward.set_route(f0, short.clone());
        assert_ne!(forward.channels, backward.channels);
        assert_eq!(forward, backward);
        let printed = format!("{forward:?}");
        assert_eq!(printed, format!("{backward:?}"));
        // The same text a `Vec<Route>` field prints.
        assert_eq!(
            printed,
            format!("RouteSet {{ routes: {:?} }}", vec![short, long])
        );
        backward.set_route(f1, Route::empty());
        assert_ne!(forward, backward);
        assert_ne!(forward, RouteSet::new(3));
    }
}

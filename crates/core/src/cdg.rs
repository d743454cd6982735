//! The Channel Dependency Graph (Definition 4).
//!
//! Vertices are channels (physical link + VC); there is an edge from channel
//! `ci` to channel `cj` when at least one route uses `ci` immediately
//! followed by `cj`.  A cycle in this graph is a necessary condition for a
//! routing-level deadlock under wormhole flow control (Dally & Towles), so
//! "deadlock-free" for this suite means "the CDG is acyclic".
//!
//! # Incremental maintenance
//!
//! The removal loop used to rebuild the whole CDG after every cycle break,
//! even though a break only touches the dependencies of the flows it
//! re-routes.  `Cdg::remove_flow_deps` / `Cdg::add_flow_deps` apply
//! exactly that per-flow delta: they maintain the per-edge flow multiset and
//! drop/create dependency edges as flows leave/enter channel pairs, while a
//! [`CdgDelta`] records which vertices were touched (the *dirty region*,
//! reported per break) and how many dependencies changed.  The incremental
//! cycle search does not rely on it: it finds the changed edges itself.
//!
//! All cycle queries rank vertices by their [`Channel`] (not by internal
//! node id), so an incrementally maintained CDG answers every query
//! identically to a freshly rebuilt one over the same topology and routes —
//! the equivalence the incremental removal loop is tested against.

use noc_graph::cycles::IncrementalCycleFinder;
use noc_graph::{cycles, scc, DiGraph, NodeId};
use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId, Topology};

/// The channel dependency graph of a routed design.
#[derive(Debug, Clone)]
pub struct Cdg {
    graph: DiGraph<Channel, FlowList>,
    /// The channels the topology had at build time are nodes
    /// `base[link]..base[link + 1]` in VC order, so their lookup is
    /// arithmetic: `base[link] + vc`.
    base: Vec<usize>,
    /// Channels added after the build (new VCs, or links the build's
    /// topology did not have): `later[link][vc]` holds the node index, or
    /// `usize::MAX` when the channel has no vertex.  Empty until the first
    /// such channel.
    later: Vec<Vec<usize>>,
}

/// The flows behind one dependency edge, in the order they first created
/// it.  Most dependencies carry one or two flows, so up to two are stored
/// inline and only a longer list allocates; the three shapes take the
/// space of one `Vec`.
#[derive(Debug, Clone)]
pub(crate) enum FlowList {
    One(FlowId),
    Two([FlowId; 2]),
    /// Any other count: more than two, or none left (an empty `Vec` does
    /// not allocate).
    Spilled(Vec<FlowId>),
}

impl FlowList {
    pub(crate) fn as_slice(&self) -> &[FlowId] {
        match self {
            FlowList::One(flow) => std::slice::from_ref(flow),
            FlowList::Two(flows) => flows,
            FlowList::Spilled(flows) => flows,
        }
    }

    /// Appends `flow` unless the list already holds it.
    fn insert(&mut self, flow: FlowId) {
        if self.as_slice().contains(&flow) {
            return;
        }
        match self {
            FlowList::One(first) => *self = FlowList::Two([*first, flow]),
            FlowList::Two([first, second]) => {
                *self = FlowList::Spilled(vec![*first, *second, flow]);
            }
            FlowList::Spilled(flows) => flows.push(flow),
        }
    }

    /// Removes `flow`, keeping the others' order.  Returns `false` when the
    /// list did not hold it.
    fn remove(&mut self, flow: FlowId) -> bool {
        let Some(at) = self.as_slice().iter().position(|&f| f == flow) else {
            return false;
        };
        match self {
            FlowList::One(_) => *self = FlowList::Spilled(Vec::new()),
            FlowList::Two(flows) => *self = FlowList::One(flows[1 - at]),
            FlowList::Spilled(flows) => {
                flows.remove(at);
            }
        }
        true
    }
}

/// Bookkeeping of one incremental CDG update (one cycle-break iteration):
/// how many dependency edges changed and which vertices they touched.
#[derive(Debug, Clone, Default)]
pub struct CdgDelta {
    /// Dependency edges that lost their last flow and were removed.
    pub deps_removed: usize,
    /// Dependency edges newly created for a first-time channel pair.
    pub deps_added: usize,
    /// Channel vertices created during the update (new VCs).
    pub channels_added: usize,
    /// Vertices incident to a removed or added dependency edge, with
    /// duplicates; use [`touched_nodes`](Self::touched_nodes) for the
    /// deduplicated set.
    touched: Vec<NodeId>,
}

impl CdgDelta {
    /// The deduplicated, sorted set of vertices incident to changed edges —
    /// the dirty region a break's [`CdgDeltaStats`](crate::report::CdgDeltaStats)
    /// reports.
    pub(crate) fn touched_nodes(&mut self) -> &[NodeId] {
        self.touched.sort();
        self.touched.dedup();
        &self.touched
    }
}

impl Cdg {
    /// Builds the CDG of `routes` over `topology` (Step 2 of Algorithm 1).
    ///
    /// Every channel of the topology becomes a vertex (channels never used by
    /// any route are isolated vertices and can obviously not take part in a
    /// cycle); every consecutive channel pair of every route contributes a
    /// dependency edge annotated with the flows that create it.
    pub fn build(topology: &Topology, routes: &RouteSet) -> Self {
        let mut graph = DiGraph::with_capacity(topology.channel_count(), routes.flow_count() * 2);
        let mut base = Vec::with_capacity(topology.link_count() + 1);
        for (id, link) in topology.links() {
            base.push(graph.node_count());
            for vc in 0..link.vcs {
                graph.add_node(Channel::new(id, vc));
            }
        }
        base.push(graph.node_count());
        let mut cdg = Cdg {
            graph,
            base,
            later: Vec::new(),
        };
        for (flow, route) in routes.iter() {
            let channels = route.channels();
            for pair in channels.windows(2) {
                cdg.add_dependency(pair[0], pair[1], flow);
            }
        }
        cdg
    }

    /// The vertex of `channel`: arithmetic for a channel the build's
    /// topology had, else looked up among the channels added later.
    pub(crate) fn vertex(&self, channel: Channel) -> Option<NodeId> {
        let link = channel.link.index();
        if let Some(range) = self.base.get(link..link + 2) {
            if channel.vc < range[1] - range[0] {
                return Some(NodeId::from_index(range[0] + channel.vc));
            }
        }
        let slot = *self.later.get(link)?.get(channel.vc)?;
        (slot != usize::MAX).then(|| NodeId::from_index(slot))
    }

    fn node_of(&mut self, channel: Channel) -> NodeId {
        if let Some(node) = self.vertex(channel) {
            return node;
        }
        let node = self.graph.add_node(channel);
        let link = channel.link.index();
        if link >= self.later.len() {
            self.later.resize_with(link + 1, Vec::new);
        }
        let row = &mut self.later[link];
        if channel.vc >= row.len() {
            row.resize(channel.vc + 1, usize::MAX);
        }
        row[channel.vc] = node.index();
        node
    }

    /// Adds the dependency `from -> to` caused by `flow`, creating vertices
    /// as needed and merging parallel dependencies into one edge.
    fn add_dependency(&mut self, from: Channel, to: Channel, flow: FlowId) {
        let from_node = self.node_of(from);
        let to_node = self.node_of(to);
        if let Some(edge) = self.graph.find_edge(from_node, to_node) {
            let flows = self
                .graph
                .edge_weight_mut(edge)
                .expect("edge found above is live");
            flows.insert(flow);
        } else {
            self.graph.add_edge(from_node, to_node, FlowList::One(flow));
        }
    }

    /// Creates a vertex for `channel` if it does not have one yet (new VCs
    /// added by a cycle break), counting the creation in `delta`.
    pub(crate) fn register_channel(&mut self, channel: Channel, delta: &mut CdgDelta) {
        if self.vertex(channel).is_none() {
            self.node_of(channel);
            delta.channels_added += 1;
        }
    }

    /// Removes the dependencies the route `channels` (the flow's route
    /// *before* a re-route) contributed for `flow`: the flow leaves the
    /// multiset of every consecutive pair, and a dependency edge whose last
    /// flow leaves is removed from the graph (its endpoints join the delta's
    /// dirty region).
    ///
    /// Pairs the flow does not actually sit on are skipped, which makes the
    /// call idempotent and lets routes that cross the same pair twice be
    /// removed with a single linear scan.
    pub(crate) fn remove_flow_deps(
        &mut self,
        flow: FlowId,
        channels: &[Channel],
        delta: &mut CdgDelta,
    ) {
        for pair in channels.windows(2) {
            let (Some(from), Some(to)) = (self.vertex(pair[0]), self.vertex(pair[1])) else {
                continue;
            };
            let Some(edge) = self.graph.find_edge(from, to) else {
                continue;
            };
            let flows = self
                .graph
                .edge_weight_mut(edge)
                .expect("edge found above is live");
            if !flows.remove(flow) {
                continue; // second crossing of the same pair, already removed
            }
            if flows.as_slice().is_empty() {
                self.graph.remove_edge(edge);
                delta.deps_removed += 1;
                delta.touched.push(from);
                delta.touched.push(to);
            }
        }
    }

    /// Adds the dependencies the route `channels` (the flow's route *after*
    /// a re-route) contributes for `flow`.  Newly created dependency edges
    /// join the delta's dirty region; pairs that already carry other flows
    /// only gain a multiset entry and leave the cycle structure untouched.
    pub(crate) fn add_flow_deps(
        &mut self,
        flow: FlowId,
        channels: &[Channel],
        delta: &mut CdgDelta,
    ) {
        for pair in channels.windows(2) {
            let from = self.node_of(pair[0]);
            let to = self.node_of(pair[1]);
            if let Some(edge) = self.graph.find_edge(from, to) {
                let flows = self
                    .graph
                    .edge_weight_mut(edge)
                    .expect("edge found above is live");
                flows.insert(flow);
            } else {
                self.graph.add_edge(from, to, FlowList::One(flow));
                delta.deps_added += 1;
                delta.touched.push(from);
                delta.touched.push(to);
            }
        }
    }

    /// Number of channel vertices.
    pub(crate) fn channel_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of dependency edges.
    pub fn dependency_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Returns `true` when the CDG has no directed cycle, i.e. the routed
    /// design is deadlock-free.
    pub fn is_acyclic(&self) -> bool {
        !scc::has_cycle(&self.graph)
    }

    /// Returns the smallest cycle as an ordered channel list
    /// (`GetSmallestCycle` of Algorithm 1), or `None` when acyclic.
    ///
    /// Vertices are ranked by their [`Channel`] (link, then VC), not by
    /// internal node id, so the answer depends only on which dependencies
    /// exist — a freshly built CDG and an incrementally maintained one
    /// return the same cycle for the same design.
    pub(crate) fn smallest_cycle(&self) -> Option<Vec<Channel>> {
        cycles::smallest_cycle_by(&self.graph, |n| self.channel_of(n)).map(|c| self.to_channels(c))
    }

    /// [`smallest_cycle`](Self::smallest_cycle) through an
    /// [`IncrementalCycleFinder`], which skips every channel whose certified
    /// lower bound from earlier queries rules out a shorter cycle.  The
    /// finder finds the edits since its last query by itself.  The answer is
    /// always identical to the plain search; only the work to find it
    /// shrinks.
    ///
    /// `copies` pairs each channel added since the finder's last query with
    /// the channel it duplicates, and declares that every re-routed flow
    /// took the duplicates in place of their originals: a break's edits
    /// (see [`IncrementalCycleFinder::smallest_cycle_with_copies`]).
    pub(crate) fn smallest_cycle_with(
        &self,
        finder: &mut IncrementalCycleFinder,
        copies: impl IntoIterator<Item = (Channel, Channel)>,
    ) -> Option<Vec<Channel>> {
        let vertex = |channel| self.vertex(channel).expect("copied channels have vertices");
        let copies: Vec<(NodeId, NodeId)> = copies
            .into_iter()
            .map(|(copy, original)| (vertex(copy), vertex(original)))
            .collect();
        finder
            .smallest_cycle_with_copies(&self.graph, &copies, |n| self.channel_of(n))
            .map(|c| self.to_channels(c))
    }

    /// The channel ranking shared by all cycle queries.
    fn channel_of(&self, node: NodeId) -> Channel {
        *self.graph.node_weight(node).expect("cycle nodes are valid")
    }

    /// Maps a node cycle back to the channel list the removal loop works on.
    fn to_channels(&self, cycle: Vec<NodeId>) -> Vec<Channel> {
        cycle.into_iter().map(|n| self.channel_of(n)).collect()
    }

    /// The flows responsible for the dependency `from -> to`, if that edge
    /// exists.
    pub(crate) fn dependency_flows(&self, from: Channel, to: Channel) -> Option<&[FlowId]> {
        let from_node = self.vertex(from)?;
        let to_node = self.vertex(to)?;
        let edge = self.graph.find_edge(from_node, to_node)?;
        self.graph.edge_weight(edge).map(FlowList::as_slice)
    }

    /// Borrow the underlying graph (e.g. for DOT export in diagnostics).
    pub(crate) fn graph(&self) -> &DiGraph<Channel, FlowList> {
        &self.graph
    }

    /// The flows that contribute a dependency *inside* a cyclic
    /// strongly-connected component — the flows whose packets can
    /// participate in a runtime deadlock (and the set a cycle-exercising
    /// stress workload should press on).  Empty iff the CDG is acyclic.
    /// Sorted, deduplicated.
    pub fn cyclic_flows(&self) -> Vec<FlowId> {
        let components = scc::components(&self.graph);
        let mut flows: Vec<FlowId> = self
            .graph
            .edges()
            .filter(|e| components.is_internal(e.source, e.target))
            .flat_map(|e| e.weight.as_slice().iter().copied())
            .collect();
        flows.sort();
        flows.dedup();
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure_1_design;
    use noc_routing::Route;
    use noc_topology::{CommGraph, CoreMap, LinkId, SwitchId};

    #[test]
    fn figure_2_cdg_shape() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        assert_eq!(cdg.channel_count(), 4);
        // Dependencies: L0->L1 (F1,F4), L1->L2 (F1), L2->L3 (F2), L3->L0 (F3).
        assert_eq!(cdg.dependency_count(), 4);
        let l = |i| Channel::base(LinkId::from_index(i));
        assert_eq!(
            cdg.dependency_flows(l(0), l(1)).unwrap(),
            &[FlowId::from_index(0), FlowId::from_index(3)]
        );
        assert!(cdg.dependency_flows(l(1), l(2)).is_some());
        assert!(cdg.dependency_flows(l(2), l(3)).is_some());
        assert!(cdg.dependency_flows(l(3), l(0)).is_some());
        assert!(cdg.dependency_flows(l(0), l(2)).is_none());
    }

    #[test]
    fn figure_2_cdg_is_cyclic_with_a_4_cycle() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        assert!(!cdg.is_acyclic());
        let cycle = cdg.smallest_cycle().unwrap();
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn figure_3_rerouting_f3_onto_a_new_vc_breaks_the_cycle() {
        // The paper's manual fix: add L1' (a new VC on link L1, our link 0)
        // and re-route F3 = {L4, L1} onto {L4, L1'}.
        let (mut topo, mut routes) = figure_1_design();
        let l0 = LinkId::from_index(0);
        let new_channel = topo.add_vc(l0).unwrap();
        let f3 = FlowId::from_index(2);
        routes.route_mut(f3).unwrap()[1] = new_channel;
        let cdg = Cdg::build(&topo, &routes);
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.channel_count(), 5);
    }

    #[test]
    fn cyclic_flows_names_every_flow_of_the_ring_knot() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        // All four channels are one cyclic SCC; every flow contributes a
        // dependency inside it.
        assert_eq!(
            cdg.cyclic_flows(),
            (0..4).map(FlowId::from_index).collect::<Vec<_>>()
        );
        // After the paper's manual fix the CDG is acyclic: no flow can
        // participate in a deadlock.
        let (mut topo, mut routes) = figure_1_design();
        let new_channel = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes.route_mut(FlowId::from_index(2)).unwrap()[1] = new_channel;
        let cdg = Cdg::build(&topo, &routes);
        assert!(cdg.cyclic_flows().is_empty());
    }

    #[test]
    fn empty_routes_produce_an_acyclic_cdg() {
        let (topo, _) = figure_1_design();
        let routes = RouteSet::new(4);
        let cdg = Cdg::build(&topo, &routes);
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.dependency_count(), 0);
        assert_eq!(cdg.channel_count(), 4);
        assert!(cdg.smallest_cycle().is_none());
    }

    #[test]
    fn parallel_flows_merge_into_one_dependency_edge() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        let l = |i| Channel::base(LinkId::from_index(i));
        // Adding the same dependency again for an existing flow must not
        // duplicate the flow entry.
        let mut cdg2 = cdg.clone();
        cdg2.add_dependency(l(0), l(1), FlowId::from_index(0));
        assert_eq!(cdg2.dependency_flows(l(0), l(1)).unwrap().len(), 2);
        assert_eq!(cdg2.dependency_count(), 4);
    }

    /// Every dependency of `cdg` as `(from, to, flows)`.
    fn dependencies(cdg: &Cdg) -> impl Iterator<Item = (Channel, Channel, &[FlowId])> + '_ {
        let graph = cdg.graph();
        graph.edges().map(move |e| {
            let channel = |node| *graph.node_weight(node).expect("valid node");
            (channel(e.source), channel(e.target), e.weight.as_slice())
        })
    }

    #[test]
    fn dependencies_iterator_matches_counts() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        assert_eq!(dependencies(&cdg).count(), cdg.dependency_count());
        let total_flow_refs: usize = dependencies(&cdg).map(|(_, _, f)| f.len()).sum();
        assert_eq!(total_flow_refs, 5); // F1 twice, F2, F3, F4 once each
    }

    /// Applies a re-route of `flow` from `old` to `new` as an incremental
    /// delta and returns the delta bookkeeping.
    fn apply_reroute(cdg: &mut Cdg, flow: FlowId, old: &[Channel], new: &[Channel]) -> CdgDelta {
        let mut delta = CdgDelta::default();
        cdg.remove_flow_deps(flow, old, &mut delta);
        cdg.add_flow_deps(flow, new, &mut delta);
        delta
    }

    /// The incremental CDG and a from-scratch rebuild must agree on the
    /// dependency structure: same edges, same flow sets, same smallest
    /// cycle.
    fn assert_structurally_equal(incremental: &Cdg, rebuilt: &Cdg) {
        assert_eq!(incremental.dependency_count(), rebuilt.dependency_count());
        for (from, to, flows) in dependencies(rebuilt) {
            let mut expected: Vec<FlowId> = flows.to_vec();
            expected.sort();
            let mut actual: Vec<FlowId> = incremental
                .dependency_flows(from, to)
                .unwrap_or_else(|| panic!("missing dependency {from} -> {to}"))
                .to_vec();
            actual.sort();
            assert_eq!(actual, expected, "flow set of {from} -> {to}");
        }
        assert_eq!(incremental.smallest_cycle(), rebuilt.smallest_cycle());
    }

    #[test]
    fn incremental_reroute_matches_rebuild() {
        // Re-route F3 of the Figure 1 ring onto a fresh VC (the paper's
        // manual Figure 3 fix), applied as a delta, and compare against a
        // from-scratch build of the updated design.
        let (mut topo, mut routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let f3 = FlowId::from_index(2);
        let old: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();

        let new_channel = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes.route_mut(f3).unwrap()[1] = new_channel;
        let new: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();

        let mut delta = CdgDelta::default();
        cdg.register_channel(new_channel, &mut delta);
        cdg.remove_flow_deps(f3, &old, &mut delta);
        cdg.add_flow_deps(f3, &new, &mut delta);

        assert_eq!(delta.channels_added, 1);
        assert_eq!(delta.deps_removed, 1, "L3 -> L0 had only F3");
        assert_eq!(delta.deps_added, 1, "L3 -> L0' is new");
        assert!(!delta.touched_nodes().is_empty());
        assert!(cdg.is_acyclic());
        assert_structurally_equal(&cdg, &Cdg::build(&topo, &routes));
    }

    #[test]
    fn removing_one_flow_of_a_shared_dependency_keeps_the_edge() {
        let (topo, routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let l = |i| Channel::base(LinkId::from_index(i));
        // L0 -> L1 is carried by F1 and F4; removing F1's route must keep it.
        let f1 = FlowId::from_index(0);
        let old: Vec<Channel> = routes.route(f1).unwrap().channels().to_vec();
        let delta = apply_reroute(&mut cdg, f1, &old, &[]);
        assert_eq!(cdg.dependency_flows(l(0), l(1)).unwrap().len(), 1);
        // F1 alone carried L1 -> L2.
        assert!(cdg.dependency_flows(l(1), l(2)).is_none());
        assert_eq!(delta.deps_removed, 1);
        assert_eq!(delta.deps_added, 0);
    }

    #[test]
    fn remove_flow_deps_is_idempotent_and_handles_double_crossings() {
        // A route crossing the same pair twice: removal must strip the
        // membership once, tolerate the second window, and a repeat call
        // must be a no-op.
        let mut topo = Topology::new();
        let s0 = topo.add_switch("s0");
        let s1 = topo.add_switch("s1");
        let l: Vec<Channel> = (0..3)
            .map(|_| Channel::base(topo.add_link(s0, s1, 1.0)))
            .collect();
        let (a, b, w) = (l[0], l[1], l[2]);
        let mut routes = RouteSet::new(1);
        let flow = FlowId::from_index(0);
        routes.set_route(flow, Route::new(vec![a, b, w, a, b]));
        let mut cdg = Cdg::build(&topo, &routes);
        assert_eq!(cdg.dependency_count(), 3); // a->b (twice, merged), b->w, w->a

        let old: Vec<Channel> = routes.route(flow).unwrap().channels().to_vec();
        let mut delta = CdgDelta::default();
        cdg.remove_flow_deps(flow, &old, &mut delta);
        assert_eq!(delta.deps_removed, 3);
        assert_eq!(cdg.dependency_count(), 0);

        let mut repeat = CdgDelta::default();
        cdg.remove_flow_deps(flow, &old, &mut repeat);
        assert_eq!(repeat.deps_removed, 0, "second removal is a no-op");
    }

    #[test]
    fn register_channel_is_idempotent() {
        let (topo, routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let fresh = Channel::new(LinkId::from_index(0), 1);
        let mut delta = CdgDelta::default();
        cdg.register_channel(fresh, &mut delta);
        cdg.register_channel(fresh, &mut delta);
        assert_eq!(delta.channels_added, 1);
        assert_eq!(cdg.channel_count(), 5);
    }

    #[test]
    fn vertex_finds_channels_added_after_the_build() {
        let (mut topo, routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let named = |cdg: &Cdg, channel| {
            let node = cdg.vertex(channel)?;
            Some(*cdg.graph().node_weight(node).expect("vertex is a node"))
        };
        for channel in topo.channels() {
            assert_eq!(named(&cdg, channel), Some(channel), "build-time {channel}");
        }
        // A second VC on link 2, a third on link 2, and a link the build's
        // topology did not have, registered out of order.
        let second = topo.add_vc(LinkId::from_index(2)).unwrap();
        let third = topo.add_vc(LinkId::from_index(2)).unwrap();
        let (s0, s2) = (SwitchId::from_index(0), SwitchId::from_index(2));
        let chord = Channel::base(topo.add_link(s0, s2, 1.0));
        assert_eq!(cdg.vertex(third), None);
        assert_eq!(cdg.vertex(chord), None);
        let mut delta = CdgDelta::default();
        for channel in [third, chord, second] {
            cdg.register_channel(channel, &mut delta);
        }
        assert_eq!(delta.channels_added, 3);
        for channel in topo.channels() {
            assert_eq!(named(&cdg, channel), Some(channel), "{channel}");
        }
        // Neither an unregistered VC nor an unknown link has a vertex.
        assert_eq!(cdg.vertex(Channel::new(LinkId::from_index(2), 3)), None);
        assert_eq!(cdg.vertex(Channel::new(LinkId::from_index(1), 1)), None);
        assert_eq!(cdg.vertex(Channel::base(LinkId::from_index(9))), None);
        // A route through a channel the topology lacks gets its vertex at
        // build time, through the same side index.
        let mut routes = RouteSet::new(1);
        let phantom = Channel::new(LinkId::from_index(7), 2);
        routes.set_route(FlowId::from_index(0), Route::new(vec![second, phantom]));
        let cdg = Cdg::build(&topo, &routes);
        assert_eq!(named(&cdg, phantom), Some(phantom));
        assert_eq!(cdg.channel_count(), topo.channel_count() + 1);
    }

    #[test]
    fn flow_lists_keep_insertion_order_inline_and_spilled() {
        let f = FlowId::from_index;
        let mut list = FlowList::One(f(4));
        let mut model = vec![f(4)];
        // One -> Two -> One (either slot) -> Two -> spilled -> empty.
        let steps = [
            (true, 4),
            (true, 1),
            (false, 1),
            (true, 1),
            (false, 4),
            (true, 4),
            (true, 9),
            (false, 1),
            (true, 2),
            (false, 7),
            (false, 4),
            (false, 9),
            (false, 2),
            (false, 2),
            (true, 3),
        ];
        for (add, index) in steps {
            let flow = f(index);
            if add {
                list.insert(flow);
                if !model.contains(&flow) {
                    model.push(flow);
                }
            } else {
                let held = model.contains(&flow);
                assert_eq!(list.remove(flow), held);
                model.retain(|&g| g != flow);
            }
            assert_eq!(list.as_slice(), model.as_slice());
        }
    }

    #[test]
    fn smallest_cycle_with_finder_matches_plain_query() {
        use noc_graph::cycles::IncrementalCycleFinder;
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            cdg.smallest_cycle_with(&mut finder, []),
            cdg.smallest_cycle()
        );
        // A second query against unchanged state must agree too.
        assert_eq!(
            cdg.smallest_cycle_with(&mut finder, []),
            cdg.smallest_cycle()
        );
    }

    #[test]
    fn smallest_cycle_with_scc_matches_plain_query() {
        use noc_graph::cycles::IncrementalCycleFinder;
        use noc_graph::scc;
        let (mut topo, mut routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let mut finder = IncrementalCycleFinder::new();
        let cycle = cdg.smallest_cycle_with(&mut finder, []);
        assert_eq!(cycle, cdg.smallest_cycle());
        // The cycle found lies inside one cyclic component of a plain SCC
        // pass over the same graph.
        let components = scc::cyclic_components(cdg.graph());
        assert_eq!(components.len(), 1);
        let component: Vec<Channel> = components[0]
            .iter()
            .map(|&n| *cdg.graph().node_weight(n).unwrap())
            .collect();
        let cycle = cycle.expect("Figure 1 is cyclic");
        assert!(cycle.iter().all(|c| component.contains(c)));

        // Apply the Figure 3 reroute incrementally, declared as the copy of
        // the channel it replaces.
        let f3 = FlowId::from_index(2);
        let old: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();
        let new_channel = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes.route_mut(f3).unwrap()[1] = new_channel;
        let new: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();
        let mut delta = CdgDelta::default();
        cdg.register_channel(new_channel, &mut delta);
        cdg.remove_flow_deps(f3, &old, &mut delta);
        cdg.add_flow_deps(f3, &new, &mut delta);
        assert_eq!(cdg.smallest_cycle(), None);
        assert_eq!(
            cdg.smallest_cycle_with(&mut finder, [(new_channel, old[1])]),
            None
        );
        assert!(scc::cyclic_components(cdg.graph()).is_empty());
    }

    #[test]
    fn xy_routed_mesh_has_acyclic_cdg() {
        // Classic result: dimension-order routing on a mesh is deadlock-free.
        use noc_routing::xy::{route_all_xy, MeshCoords};
        use noc_topology::generators;
        let generated = generators::mesh2d(3, 3, 1.0);
        let coords = MeshCoords::new(3, 3, generated.switches.clone());
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
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_xy(&generated.topology, &comm, &map, &coords).unwrap();
        let cdg = Cdg::build(&generated.topology, &routes);
        assert!(cdg.is_acyclic());
    }
}

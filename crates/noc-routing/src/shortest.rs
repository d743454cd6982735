//! Deadlock-oblivious minimum-cost routing.
//!
//! This is how the paper's *input* routes are produced: each flow follows a
//! minimum-cost path over the switch graph with no turn restrictions, so the
//! resulting channel dependency graph may contain cycles.  The
//! deadlock-removal algorithm (or a baseline) then has to make the design
//! safe.

use crate::route::{Route, RouteSet};
use crate::validate::RouteError;
use noc_topology::search::for_each_source;
pub use noc_topology::search::LinkCost;
use noc_topology::{CommGraph, CoreMap, FlowId, Topology};

/// Routes every flow of `comm` over `topology` along a minimum-cost path.
///
/// All routes use VC 0 of each link; extra VCs only come into play when a
/// deadlock-removal scheme assigns them.  Flows whose endpoints share a
/// switch get an empty route.
///
/// # Errors
///
/// * [`RouteError::Unroutable`] if some flow has no path between its switches.
/// * [`RouteError::Topology`] if a core is unmapped.
pub fn route_all_shortest(
    topology: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
) -> Result<RouteSet, RouteError> {
    route_all_with_cost(topology, comm, map, LinkCost::Hops)
}

/// Same as [`route_all_shortest`] but with an explicit [`LinkCost`] model.
///
/// Each source switch runs one search ([`for_each_source`]) that stops
/// once the source's last destination is settled, so a call holds
/// O(switches + flows) memory.  [`LinkCost::Hops`] searches by level-order
/// BFS and [`LinkCost::InverseBandwidth`] by heap Dijkstra; both settle
/// switches in (distance, index) order, so a uniform-cost topology gets the
/// same routes under either model.
/// When several flows fail, the error of the earliest one in flow order is
/// returned.
pub fn route_all_with_cost(
    topology: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
    cost: LinkCost,
) -> Result<RouteSet, RouteError> {
    let mut routes = RouteSet::new(comm.flow_count());
    // Endpoints of every flow before the first one with an unmapped core
    // (no later flow's error could be the earliest).
    let mut endpoints = Vec::with_capacity(comm.flow_count());
    let mut unmapped = None;
    for (_, flow) in comm.flows() {
        match (map.require(flow.source), map.require(flow.destination)) {
            (Ok(src), Ok(dst)) => endpoints.push((src, dst)),
            (Err(e), _) | (_, Err(e)) => {
                unmapped = Some(e);
                break;
            }
        }
    }
    let mut unroutable: Option<usize> = None;
    let mut path = Vec::new();
    for_each_source(topology, &endpoints, cost, |search, flows| {
        for &f in flows {
            if search.path_into(topology, endpoints[f].1, &mut path) {
                routes.set_route(
                    FlowId::from_index(f),
                    Route::from_links(path.iter().copied()),
                );
            } else {
                unroutable = Some(unroutable.map_or(f, |g| g.min(f)));
            }
        }
    });

    if let Some(f) = unroutable {
        let (from, to) = endpoints[f];
        return Err(RouteError::Unroutable {
            flow: FlowId::from_index(f),
            from,
            to,
        });
    }
    match unmapped {
        Some(e) => Err(RouteError::Topology(e)),
        None => Ok(routes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{DiGraph, EdgeId, EdgeRef, NodeId};
    use noc_rng::SmallRng;
    use noc_topology::validate::validate_design;
    use noc_topology::{generators, CommGraph, CoreId, CoreMap, LinkId, SwitchId};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The switch-level graph the reference routes over: one node per
    /// switch, one edge per physical link, edge payload = [`LinkId`].
    fn switch_graph(topology: &Topology) -> DiGraph<SwitchId, LinkId> {
        let mut g = DiGraph::with_capacity(topology.switch_count(), topology.link_count());
        for (id, _) in topology.switches() {
            let node = g.add_node(id);
            debug_assert_eq!(node.index(), id.index());
        }
        for (id, link) in topology.links() {
            g.add_edge(
                NodeId::from_index(link.source.index()),
                NodeId::from_index(link.target.index()),
                id,
            );
        }
        g
    }

    /// Result of a single-source Dijkstra run.
    #[derive(Debug, Clone)]
    struct ShortestPaths {
        dist: Vec<Option<u64>>,
        parent: Vec<Option<(NodeId, EdgeId)>>,
    }

    impl ShortestPaths {
        /// Distance from the source to `node`, or `None` if unreachable.
        fn distance(&self, node: NodeId) -> Option<u64> {
            self.dist.get(node.index()).copied().flatten()
        }

        /// Reconstructs the edge path from the source to `target`, or `None`
        /// if `target` is unreachable.  The source itself yields an empty
        /// path.
        fn edge_path_to(&self, target: NodeId) -> Option<Vec<EdgeId>> {
            self.distance(target)?;
            let mut edges = Vec::new();
            let mut cur = target;
            while let Some((prev, edge)) = self.parent[cur.index()] {
                edges.push(edge);
                cur = prev;
            }
            edges.reverse();
            Some(edges)
        }
    }

    /// Dijkstra from `source`, weighing each live edge by `edge_cost` and
    /// scanning out-edges in insertion order; edges mapped to `None` are
    /// skipped.
    fn dijkstra<N, E>(
        graph: &DiGraph<N, E>,
        source: NodeId,
        mut edge_cost: impl FnMut(EdgeRef<'_, E>) -> Option<u64>,
    ) -> ShortestPaths {
        let n = graph.node_count();
        let mut dist: Vec<Option<u64>> = vec![None; n];
        let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        if graph.contains_node(source) {
            dist[source.index()] = Some(0);
            heap.push(Reverse((0, source.index())));
        }
        while let Some(Reverse((d, idx))) = heap.pop() {
            if dist[idx] != Some(d) {
                continue; // stale entry
            }
            let node = NodeId::from_index(idx);
            for edge in graph.out_edges(node) {
                let next = edge.target;
                let Some(cost) = edge_cost(edge) else {
                    continue;
                };
                let nd = d.saturating_add(cost);
                if dist[next.index()].is_none_or(|old| nd < old) {
                    dist[next.index()] = Some(nd);
                    parent[next.index()] = Some((node, edge.id));
                    heap.push(Reverse((nd, next.index())));
                }
            }
        }
        ShortestPaths { dist, parent }
    }

    /// The router as it used to run: a switch graph, one full Dijkstra per
    /// distinct source switch kept alive for the whole call, and flows
    /// resolved one by one in flow order.
    fn reference_route_all(
        topology: &Topology,
        comm: &CommGraph,
        map: &CoreMap,
        cost: LinkCost,
    ) -> Result<RouteSet, RouteError> {
        let graph = switch_graph(topology);
        let mut routes = RouteSet::new(comm.flow_count());
        let mut cache: Vec<Option<ShortestPaths>> = vec![None; topology.switch_count()];
        for (flow_id, flow) in comm.flows() {
            let src = map.require(flow.source).map_err(RouteError::Topology)?;
            let dst = map
                .require(flow.destination)
                .map_err(RouteError::Topology)?;
            if src == dst {
                routes.set_route(flow_id, Route::empty());
                continue;
            }
            let sp = cache[src.index()].get_or_insert_with(|| {
                dijkstra(&graph, NodeId::from_index(src.index()), |e| {
                    Some(cost.of(topology.link(*e.weight).expect("valid link")))
                })
            });
            let edge_path =
                sp.edge_path_to(NodeId::from_index(dst.index()))
                    .ok_or(RouteError::Unroutable {
                        flow: flow_id,
                        from: src,
                        to: dst,
                    })?;
            let links: Vec<LinkId> = edge_path
                .iter()
                .map(|&e| *graph.edge_weight(e).expect("live edge"))
                .collect();
            routes.set_route(flow_id, Route::from_links(links));
        }
        Ok(routes)
    }

    /// A random design: parallel links, self-loops, few distinct
    /// bandwidths (cost ties), sometimes too few links to connect the
    /// fabric, same-switch flows and, rarely, an unmapped core.
    fn random_design(rng: &mut SmallRng) -> (Topology, CommGraph, CoreMap) {
        let switches = rng.gen_range(1usize..13);
        let mut t = Topology::new();
        let sw: Vec<_> = (0..switches)
            .map(|i| t.add_switch(format!("s{i}")))
            .collect();
        for _ in 0..rng.gen_range(0usize..4 * switches) {
            let a = sw[rng.gen_range(0..switches)];
            let b = sw[rng.gen_range(0..switches)];
            let bw = [1.0, 1.0, 2.0, 3.0, 1e7][rng.gen_range(0usize..5)];
            t.add_link(a, b, bw);
            if rng.gen_range(0usize..5) == 0 {
                t.add_link(a, b, bw); // parallel link
            }
        }
        let cores = rng.gen_range(1usize..10);
        let mut comm = CommGraph::new();
        let ids: Vec<_> = (0..cores).map(|i| comm.add_core(format!("c{i}"))).collect();
        for _ in 0..rng.gen_range(0usize..3 * cores) {
            comm.add_flow(
                ids[rng.gen_range(0..cores)],
                ids[rng.gen_range(0..cores)],
                1.0,
            );
        }
        let mut map = CoreMap::new(cores);
        for &c in &ids {
            if rng.gen_range(0usize..40) != 0 {
                map.assign(c, sw[rng.gen_range(0..switches)]).unwrap();
            }
        }
        (t, comm, map)
    }

    #[test]
    fn grouped_routing_matches_the_cached_dijkstra_reference() {
        let mut rng = SmallRng::seed_from_u64(0x0019_D1C5);
        let (mut routed, mut failed) = (0, 0);
        for case in 0..800 {
            let (t, comm, map) = random_design(&mut rng);
            for cost in [LinkCost::Hops, LinkCost::InverseBandwidth] {
                let actual = route_all_with_cost(&t, &comm, &map, cost);
                let expected = reference_route_all(&t, &comm, &map, cost);
                assert_eq!(actual, expected, "case {case} ({cost:?})");
                if expected.is_ok() {
                    routed += 1;
                } else {
                    failed += 1;
                }
            }
        }
        // Both outcomes are exercised, not just one.
        assert!(
            routed > 200 && failed > 200,
            "{routed} routed, {failed} failed"
        );
    }

    /// A design whose links all share one bandwidth, so that
    /// [`LinkCost::InverseBandwidth`] weighs every link alike: a random
    /// graph of 20–300 switches with parallel links and self-loops
    /// (`family` 0, a quarter of them without the ring that connects the
    /// rest), or a torus (1) or mesh (2)
    /// with random extra links.  Every core is mapped, core `i` to switch
    /// `i`.
    fn uniform_design(rng: &mut SmallRng, family: usize) -> (Topology, CommGraph, CoreMap) {
        // 1e6 costs 1 per link, the others cost more; none rounds to 0.
        let bw = [1.0, 3.0, 1e6][rng.gen_range(0usize..3)];
        let (mut t, extra) = match family {
            0 => {
                let mut t = Topology::new();
                let n = rng.gen_range(20usize..301);
                let sw: Vec<_> = (0..n).map(|i| t.add_switch(format!("s{i}"))).collect();
                // Mostly strongly connected: a ring through a random
                // permutation of the switches.
                if rng.gen_range(0usize..4) != 0 {
                    let mut order = sw.clone();
                    for i in (1..n).rev() {
                        order.swap(i, rng.gen_range(0..i + 1));
                    }
                    for i in 0..n {
                        t.add_link(order[i], order[(i + 1) % n], bw);
                    }
                }
                (t, rng.gen_range(n / 2..4 * n))
            }
            _ => {
                let (rows, cols) = (rng.gen_range(4usize..18), rng.gen_range(5usize..18));
                let generated = if family == 1 {
                    generators::torus2d(rows, cols, bw)
                } else {
                    generators::mesh2d(rows, cols, bw)
                };
                let extra = rng.gen_range(0..generated.switches.len() / 4);
                (generated.topology, extra)
            }
        };
        let n = t.switch_count();
        for _ in 0..extra {
            let a = SwitchId::from_index(rng.gen_range(0..n));
            let b = match rng.gen_range(0usize..10) {
                0 => a, // self-loop
                _ => SwitchId::from_index(rng.gen_range(0..n)),
            };
            t.add_link(a, b, bw);
            if rng.gen_range(0usize..5) == 0 {
                t.add_link(a, b, bw); // parallel link
            }
        }
        let mut comm = CommGraph::new();
        let mut map = CoreMap::new(n);
        for i in 0..n {
            let core = comm.add_core(format!("c{i}"));
            map.assign(core, SwitchId::from_index(i)).unwrap();
        }
        for _ in 0..rng.gen_range(1..2 * n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            comm.add_flow(CoreId::from_index(a), CoreId::from_index(b), 1.0);
        }
        (t, comm, map)
    }

    /// The level-order BFS that routes [`LinkCost::Hops`] picks the same
    /// parent link for every switch on a route as the heap Dijkstra that
    /// routes [`LinkCost::InverseBandwidth`], which is a uniform cost when
    /// all links share one bandwidth; and `validate_design`, which also
    /// runs the BFS, accepts a design exactly when it routes.
    #[test]
    fn unit_cost_bfs_routes_match_the_heap_on_uniform_bandwidths() {
        let mut rng = SmallRng::seed_from_u64(0xB0F5_2010);
        let (mut routed, mut failed) = (0, 0);
        for case in 0..90 {
            let (t, comm, map) = uniform_design(&mut rng, case % 3);
            let hops = route_all_with_cost(&t, &comm, &map, LinkCost::Hops);
            let heap = route_all_with_cost(&t, &comm, &map, LinkCost::InverseBandwidth);
            assert_eq!(hops, heap, "case {case}");
            let valid = validate_design(&t, &comm, &map);
            assert_eq!(valid.is_ok(), hops.is_ok(), "case {case}: {valid:?}");
            if hops.is_ok() {
                routed += 1;
            } else {
                failed += 1;
            }
        }
        assert!(
            routed > 70 && failed > 3,
            "{routed} routed, {failed} failed"
        );
    }

    /// Two flows that both fail, on a fabric where `s1` is cut off: one is
    /// unroutable, the other has an unmapped core.
    fn two_failing_flows(unroutable_first: bool) -> Result<RouteSet, RouteError> {
        let mut t = noc_topology::Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        t.add_link(s1, s0, 1.0);
        let mut comm = CommGraph::new();
        let (a, b, c) = (comm.add_core("a"), comm.add_core("b"), comm.add_core("c"));
        let mut map = CoreMap::new(3);
        map.assign(a, s0).unwrap();
        map.assign(b, s1).unwrap();
        if unroutable_first {
            comm.add_flow(a, b, 1.0);
            comm.add_flow(a, c, 1.0);
        } else {
            comm.add_flow(a, c, 1.0);
            comm.add_flow(a, b, 1.0);
        }
        route_all_shortest(&t, &comm, &map)
    }

    #[test]
    fn earliest_failing_flow_wins() {
        assert_eq!(
            two_failing_flows(true),
            Err(RouteError::Unroutable {
                flow: noc_topology::FlowId::from_index(0),
                from: SwitchId::from_index(0),
                to: SwitchId::from_index(1),
            })
        );
        assert_eq!(
            two_failing_flows(false),
            Err(RouteError::Topology(
                noc_topology::TopologyError::UnmappedCore(noc_topology::CoreId::from_index(2))
            ))
        );
    }

    fn ring_design() -> (
        noc_topology::Topology,
        CommGraph,
        CoreMap,
        Vec<noc_topology::SwitchId>,
    ) {
        let generated = generators::unidirectional_ring(4, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
        // Flows matching the paper's Figure 1/2 example.
        comm.add_flow(cores[0], cores[3], 10.0); // R1 = L0 L1 L2
        comm.add_flow(cores[2], cores[0], 10.0); // R2 = L2 L3
        comm.add_flow(cores[3], cores[1], 10.0); // R3 = L3 L0
        comm.add_flow(cores[0], cores[2], 10.0); // R4 = L0 L1
        let mut map = CoreMap::new(4);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        (generated.topology, comm, map, generated.switches)
    }

    #[test]
    fn ring_routes_follow_the_only_path() {
        let (t, c, m, _) = ring_design();
        let routes = route_all_shortest(&t, &c, &m).unwrap();
        assert_eq!(
            routes
                .route(noc_topology::FlowId::from_index(0))
                .unwrap()
                .hop_count(),
            3
        );
        assert_eq!(
            routes
                .route(noc_topology::FlowId::from_index(1))
                .unwrap()
                .hop_count(),
            2
        );
        assert_eq!(
            routes
                .route(noc_topology::FlowId::from_index(2))
                .unwrap()
                .hop_count(),
            2
        );
        assert_eq!(
            routes
                .route(noc_topology::FlowId::from_index(3))
                .unwrap()
                .hop_count(),
            2
        );
    }

    #[test]
    fn same_switch_flow_gets_empty_route() {
        let generated = generators::bidirectional_ring(3, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        let f = comm.add_flow(a, b, 1.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[0]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        assert!(routes.route(f).unwrap().is_empty());
    }

    #[test]
    fn unroutable_flow_is_an_error() {
        let mut t = noc_topology::Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        let f = comm.add_flow(a, b, 1.0);
        let mut map = CoreMap::new(2);
        map.assign(a, s0).unwrap();
        map.assign(b, s1).unwrap();
        let err = route_all_shortest(&t, &comm, &map).unwrap_err();
        match err {
            RouteError::Unroutable { flow, from, to } => {
                assert_eq!(flow, f);
                assert_eq!(from, s0);
                assert_eq!(to, s1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unmapped_core_is_an_error() {
        let (t, c, _, _) = ring_design();
        let empty = CoreMap::new(c.core_count());
        assert!(matches!(
            route_all_shortest(&t, &c, &empty),
            Err(RouteError::Topology(_))
        ));
    }

    #[test]
    fn inverse_bandwidth_prefers_wide_links() {
        // Two parallel 2-hop paths; the wide one should win even though hops tie.
        let mut t = noc_topology::Topology::new();
        let s = [
            t.add_switch("src"),
            t.add_switch("narrow"),
            t.add_switch("wide"),
            t.add_switch("dst"),
        ];
        t.add_link(s[0], s[1], 1.0);
        t.add_link(s[1], s[3], 1.0);
        let wide_a = t.add_link(s[0], s[2], 100.0);
        let wide_b = t.add_link(s[2], s[3], 100.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        let f = comm.add_flow(a, b, 1.0);
        let mut map = CoreMap::new(2);
        map.assign(a, s[0]).unwrap();
        map.assign(b, s[3]).unwrap();
        let routes = route_all_with_cost(&t, &comm, &map, LinkCost::InverseBandwidth).unwrap();
        let links: Vec<_> = routes.route(f).unwrap().links().collect();
        assert_eq!(links, vec![wide_a, wide_b]);
    }

    #[test]
    fn all_routes_are_contiguous_switch_paths() {
        let (t, c, m, _) = ring_design();
        let routes = route_all_shortest(&t, &c, &m).unwrap();
        for (_, r) in routes.iter() {
            let path = r.switch_path(&t).unwrap();
            for (i, link) in r.links().enumerate() {
                let l = t.link(link).unwrap();
                assert_eq!(l.source, path[i]);
                assert_eq!(l.target, path[i + 1]);
            }
        }
    }
}

//! Algorithm 2: finding the cheapest dependency of a cycle to break.
//!
//! For a cycle `C = [c_0, …, c_{j-1}]` of the CDG the candidate operations
//! are "remove the dependency `d_i = (c_i, c_{i+1 mod j})`", each in one of
//! two directions:
//!
//! * **forward** — duplicate the channels a flow used from where it entered
//!   the cycle up to `c_i`,
//! * **backward** — duplicate the channels from `c_{i+1}` to where the flow
//!   exits the cycle.
//!
//! The cost of a candidate is the number of channels that must be duplicated
//! (= extra VCs added), taking the maximum over the flows that create the
//! dependency, exactly as in the paper's Table 1.
//!
//! # Only the cycle's flows
//!
//! A flow's entry in row `i` is non-zero in either direction exactly when
//! its route holds `c_i` immediately followed by `c_{i+1}`, i.e. when the
//! flow creates the dependency `d_i`.  The CDG already lists, per
//! dependency, the flows that create it (`Cdg::dependency_flows`), so the
//! flows with a non-zero row are exactly the union of those lists over the
//! cycle's edges, and every other flow's row is all zeros.  `cost_tables`
//! therefore visits only that union, in ascending flow order (the order the
//! route set iterates in), computes both directions in one walk per route,
//! and finds cycle positions through a dense per-vertex table.  The cost of
//! one cycle is proportional to the routes of its flows, not to the whole
//! route set.

use crate::cdg::Cdg;
use crate::removal::DirectionPolicy;
use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId};

/// Direction in which a cycle is broken (Figures 5 and 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Duplicate channels from the flow's entry into the cycle up to the
    /// removed dependency.
    Forward,
    /// Duplicate channels from just after the removed dependency to the
    /// flow's exit from the cycle.
    Backward,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Forward => f.write_str("forward"),
            Direction::Backward => f.write_str("backward"),
        }
    }
}

/// The per-flow / per-dependency cost table of Algorithm 2 (the paper's
/// Table 1), kept around for tests, diagnostics and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostTable {
    /// Flows that create at least one dependency of the cycle, ascending.
    pub flows: Vec<FlowId>,
    /// `costs[f][i]` is the cost of breaking dependency `i` considering flow
    /// `flows[f]` alone; 0 means the flow does not create that dependency.
    pub costs: Vec<Vec<usize>>,
    /// Column-wise maximum: how many channels must be duplicated to break
    /// dependency `i` (0 only if nothing creates the dependency, which
    /// cannot happen for a genuine CDG cycle).
    pub combined: Vec<usize>,
}

impl CostTable {
    /// The minimum combined cost and the dependency index achieving it, i.e.
    /// the pair `⟨cost, pos⟩` returned by Algorithm 2.  Dependencies that no
    /// flow creates are skipped.
    fn best(&self) -> Option<(usize, usize)> {
        self.combined
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (c, i))
            .min()
    }

    /// A table over `flows` with the given rows and their column maximum.
    fn new(flows: Vec<FlowId>, costs: Vec<Vec<usize>>, len: usize) -> Self {
        let mut combined = vec![0usize; len];
        for row in &costs {
            for (max, &c) in combined.iter_mut().zip(row) {
                *max = (*max).max(c);
            }
        }
        CostTable {
            flows,
            costs,
            combined,
        }
    }
}

/// Both directions' cost tables of one cycle (`FindDepToBreakForward` and
/// `FindDepToBreakBackward`, Steps 5–6 of Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleCosts {
    /// The forward table.
    pub forward: CostTable,
    /// The backward table.
    pub backward: CostTable,
}

impl CycleCosts {
    /// Step 7: the cheapest plan among the directions `policy` allows, as
    /// `(cost, dependency index, direction)`.  Ties go to the forward
    /// direction, matching the `f_cost ≤ b_cost` comparison in Algorithm 1.
    /// `None` when no allowed direction has a plan.
    pub(crate) fn best_break(&self, policy: DirectionPolicy) -> Option<(usize, usize, Direction)> {
        [
            (Direction::Forward, &self.forward),
            (Direction::Backward, &self.backward),
        ]
        .into_iter()
        .filter(|&(direction, _)| policy.allows(direction))
        .filter_map(|(direction, table)| table.best().map(|(cost, pos)| (cost, pos, direction)))
        .min_by_key(|&(cost, _, _)| cost)
    }
}

/// Marks a CDG vertex that is not on the cycle in the position table.
const OFF_CYCLE: usize = usize::MAX;

/// Computes the forward and backward cost tables of `cycle`, a cycle of
/// `cdg`, whose dependencies are created by the flows of `routes` (see the
/// [module docs](self) for why only the cycle's own flows are visited).
pub(crate) fn cost_tables(cycle: &[Channel], cdg: &Cdg, routes: &RouteSet) -> CycleCosts {
    let len = cycle.len();
    let mut flows: Vec<FlowId> = (0..len)
        .filter_map(|k| cdg.dependency_flows(cycle[k], cycle[(k + 1) % len]))
        .flatten()
        .copied()
        .collect();
    flows.sort_unstable();
    flows.dedup();

    let mut position = vec![OFF_CYCLE; cdg.channel_count()];
    for (k, &channel) in cycle.iter().enumerate() {
        if let Some(node) = cdg.vertex(channel) {
            position[node.index()] = k;
        }
    }
    let on_cycle = |channel: Channel| {
        cdg.vertex(channel)
            .map(|node| position[node.index()])
            .filter(|&k| k != OFF_CYCLE)
    };

    let mut forward = Vec::with_capacity(flows.len());
    let mut backward = Vec::with_capacity(flows.len());
    for &flow in &flows {
        let path = routes
            .route(flow)
            .expect("flows of CDG edges exist in the route set")
            .channels();
        let mut f_row = vec![0usize; len];
        let mut b_row = vec![0usize; len];
        // `seen` counts the cycle channels of the path up to here.  Forward
        // costs the channels from the flow's entry up to `c_k`, the last
        // crossing of `d_k` winning.  Backward costs the channels from
        // `c_{k+1}` to the flow's exit, the first crossing winning: the walk
        // notes `seen` at that crossing and subtracts it from the total once
        // the total is known.
        let mut seen = 0usize;
        for (i, &channel) in path.iter().enumerate() {
            let Some(k) = on_cycle(channel) else {
                continue;
            };
            seen += 1;
            if path.get(i + 1) == Some(&cycle[(k + 1) % len]) {
                f_row[k] = seen;
                if b_row[k] == 0 {
                    b_row[k] = seen;
                }
            }
        }
        for cost in b_row.iter_mut().filter(|c| **c > 0) {
            *cost = seen - *cost;
        }
        forward.push(f_row);
        backward.push(b_row);
    }

    CycleCosts {
        forward: CostTable::new(flows.clone(), forward, len),
        backward: CostTable::new(flows, backward, len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::removal::{creating_flows, offending_flows};
    use noc_graph::cycles;
    use noc_rng::SmallRng;
    use noc_routing::Route;
    use noc_topology::{LinkId, Topology};

    /// Algorithm 2 as the pseudocode states it, kept as the reference the
    /// CDG-driven tables are checked against: every route of the set is
    /// scanned, one direction at a time, with a linear cycle lookup per
    /// channel.
    fn cost_table(cycle: &[Channel], routes: &RouteSet, direction: Direction) -> CostTable {
        let len = cycle.len();
        let pos_in_cycle = |c: Channel| cycle.iter().position(|&x| x == c);

        let mut flows = Vec::new();
        let mut costs: Vec<Vec<usize>> = Vec::new();

        for (flow, route) in routes.iter() {
            let path = route.channels();
            // Steps 3–7: only flows that use more than one channel of the
            // cycle can create (and therefore break) a dependency of it.
            let in_cycle = path.iter().filter(|c| pos_in_cycle(**c).is_some()).count();
            if in_cycle <= 1 {
                continue;
            }
            let mut row = vec![0usize; len];
            match direction {
                Direction::Forward => {
                    // Walk the path source → destination; `val` counts the
                    // cycle channels seen so far.
                    let mut val = 0usize;
                    for i in 0..path.len() {
                        let Some(k) = pos_in_cycle(path[i]) else {
                            continue;
                        };
                        val += 1;
                        if i + 1 < path.len() && cycle[(k + 1) % len] == path[i + 1] {
                            row[k] = val;
                        }
                    }
                }
                Direction::Backward => {
                    // Walk the path destination → source; `val` counts the
                    // cycle channels from here to the flow's exit.
                    let mut val = 0usize;
                    for i in (0..path.len()).rev() {
                        let Some(kc) = pos_in_cycle(path[i]) else {
                            continue;
                        };
                        val += 1;
                        if i >= 1 {
                            if let Some(k) = pos_in_cycle(path[i - 1]) {
                                if (k + 1) % len == kc {
                                    row[k] = val;
                                }
                            }
                        }
                    }
                }
            }
            if row.iter().any(|&c| c > 0) {
                flows.push(flow);
                costs.push(row);
            }
        }
        CostTable::new(flows, costs, len)
    }

    /// The CDG-driven tables of `cycle` over the CDG of `routes`.
    fn tables(cycle: &[Channel], routes: &RouteSet) -> CycleCosts {
        cost_tables(cycle, &Cdg::build(&Topology::new(), routes), routes)
    }

    /// The Figure 1 / Figure 2 example with its four flows.  Channels of the
    /// cycle are VC 0 of links L0..L3 (the paper's L1..L4).
    fn figure_2_cycle_and_routes() -> (Vec<Channel>, RouteSet) {
        let l = |i| Channel::base(LinkId::from_index(i));
        let cycle = vec![l(0), l(1), l(2), l(3)];
        let mut routes = RouteSet::new(4);
        routes.set_route(FlowId::from_index(0), Route::new(vec![l(0), l(1), l(2)]));
        routes.set_route(FlowId::from_index(1), Route::new(vec![l(2), l(3)]));
        routes.set_route(FlowId::from_index(2), Route::new(vec![l(3), l(0)]));
        routes.set_route(FlowId::from_index(3), Route::new(vec![l(0), l(1)]));
        (cycle, routes)
    }

    #[test]
    fn forward_cost_table_matches_table_1() {
        let (cycle, routes) = figure_2_cycle_and_routes();
        let table = tables(&cycle, &routes).forward;
        // Rows: F1 = [1, 2, 0, 0], F2 = [0, 0, 1, 0], F3 = [0, 0, 0, 1],
        //       F4 = [1, 0, 0, 0]; MAX = [1, 2, 1, 1].
        assert_eq!(table.flows.len(), 4);
        assert_eq!(table.costs[0], vec![1, 2, 0, 0]);
        assert_eq!(table.costs[1], vec![0, 0, 1, 0]);
        assert_eq!(table.costs[2], vec![0, 0, 0, 1]);
        assert_eq!(table.costs[3], vec![1, 0, 0, 0]);
        assert_eq!(table.combined, vec![1, 2, 1, 1]);
        assert_eq!(table.best(), Some((1, 0)));
    }

    #[test]
    fn backward_cost_table_for_the_example() {
        let (cycle, routes) = figure_2_cycle_and_routes();
        let table = tables(&cycle, &routes).backward;
        // F1 (L0 L1 L2): D0 needs L1,L2 duplicated (2); D1 needs L2 (1).
        // F2 (L2 L3): D2 needs L3 (1).  F3 (L3 L0): D3 needs L0 (1).
        // F4 (L0 L1): D0 needs L1 (1).
        assert_eq!(table.costs[0], vec![2, 1, 0, 0]);
        assert_eq!(table.costs[1], vec![0, 0, 1, 0]);
        assert_eq!(table.costs[2], vec![0, 0, 0, 1]);
        assert_eq!(table.costs[3], vec![1, 0, 0, 0]);
        assert_eq!(table.combined, vec![2, 1, 1, 1]);
        assert_eq!(table.best(), Some((1, 1)));
    }

    #[test]
    fn best_break_prefers_forward_on_ties() {
        let (cycle, routes) = figure_2_cycle_and_routes();
        let costs = tables(&cycle, &routes);
        let (cost, _pos, dir) = costs.best_break(DirectionPolicy::Both).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(dir, Direction::Forward);
    }

    #[test]
    fn best_break_masks_the_directions_the_policy_forbids() {
        let (cycle, routes) = figure_2_cycle_and_routes();
        let costs = tables(&cycle, &routes);
        assert_eq!(
            costs.best_break(DirectionPolicy::ForwardOnly),
            Some((1, 0, Direction::Forward))
        );
        assert_eq!(
            costs.best_break(DirectionPolicy::BackwardOnly),
            Some((1, 1, Direction::Backward))
        );
    }

    #[test]
    fn flows_outside_the_cycle_are_ignored() {
        let (cycle, routes) = figure_2_cycle_and_routes();
        // A flow using only one cycle channel must not appear in the table.
        let extra = Channel::base(LinkId::from_index(9));
        let mut routes2 = RouteSet::new(5);
        for (f, r) in routes.iter() {
            routes2.set_route(f, r.to_route());
        }
        routes2.set_route(FlowId::from_index(4), Route::new(vec![extra, cycle[0]]));
        assert_eq!(tables(&cycle, &routes2).forward.flows.len(), 4);
    }

    #[test]
    fn flow_crossing_the_cycle_twice_counts_cumulatively() {
        // A flow that enters the cycle, leaves, and re-enters: the val
        // counter keeps growing, matching the pseudocode.
        let l = |i| Channel::base(LinkId::from_index(i));
        let cycle = vec![l(0), l(1), l(2), l(3)];
        let mut routes = RouteSet::new(2);
        routes.set_route(
            FlowId::from_index(0),
            Route::new(vec![l(0), l(1), l(7), l(2), l(3)]),
        );
        // A second flow closes the cycle so all dependencies exist.
        routes.set_route(FlowId::from_index(1), Route::new(vec![l(1), l(2)]));
        let table = tables(&cycle, &routes).forward;
        // Flow 0 creates D0 (cost 1: only L0 seen) and D2 (cost 3: L0, L1, L2 seen);
        // it does NOT create D1 (L1 is followed by L7 in the path) nor D3
        // (the path ends at L3).
        assert_eq!(table.costs[0], vec![1, 0, 3, 0]);
    }

    #[test]
    fn acyclic_or_uninvolved_cycle_yields_no_plan() {
        let l = |i| Channel::base(LinkId::from_index(i));
        let cycle = vec![l(0), l(1)];
        let routes = RouteSet::new(1); // empty route, creates nothing
        let costs = tables(&cycle, &routes);
        assert!(costs.best_break(DirectionPolicy::Both).is_none());
        assert!(costs.forward.flows.is_empty());
        assert_eq!(costs.forward.best(), None);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::Forward.to_string(), "forward");
        assert_eq!(Direction::Backward.to_string(), "backward");
    }

    /// The CDG-driven tables equal the route scan in both directions, and
    /// the flows the CDG lists for each cycle edge are the flows a route
    /// scan finds, for the smallest cycle of `(topology, routes)` and the
    /// shortest cycles through a spread of its vertices.  Returns how many
    /// cycles were compared (0 for an acyclic design).
    fn assert_tables_match_route_scan(
        topology: &Topology,
        routes: &RouteSet,
        label: &str,
    ) -> usize {
        let cdg = Cdg::build(topology, routes);
        let Some(smallest) = cdg.smallest_cycle() else {
            return 0;
        };
        let graph = cdg.graph();
        let step = (graph.node_count() / 8).max(1);
        let mut cycles = vec![smallest];
        cycles.extend(
            graph
                .node_ids()
                .step_by(step)
                .filter_map(|node| cycles::shortest_cycle_through(graph, node))
                .map(|cycle| {
                    cycle
                        .into_iter()
                        .map(|n| *graph.node_weight(n).expect("cycle nodes are live"))
                        .collect()
                }),
        );
        for (c, cycle) in cycles.iter().enumerate() {
            let costs = cost_tables(cycle, &cdg, routes);
            for (direction, table) in [
                (Direction::Forward, &costs.forward),
                (Direction::Backward, &costs.backward),
            ] {
                assert_eq!(
                    *table,
                    cost_table(cycle, routes, direction),
                    "{label}: cycle {c} {direction} table"
                );
            }
            for k in 0..cycle.len() {
                let (from, to) = (cycle[k], cycle[(k + 1) % cycle.len()]);
                assert_eq!(
                    creating_flows(&cdg, from, to),
                    offending_flows(routes, from, to),
                    "{label}: cycle {c} flows of d_{k}"
                );
            }
        }
        cycles.len()
    }

    /// Every Fig 8 (D26_media, 5–25 switches) and Fig 9 (D36_8, 10–35
    /// switches) grid design.
    #[test]
    fn cost_tables_match_the_route_scan_on_the_figure_grids() {
        use noc_synth::{synthesize, SynthesisConfig};
        use noc_topology::benchmarks::Benchmark;
        let grid: Vec<(Benchmark, usize)> = (5..=25)
            .map(|s| (Benchmark::D26Media, s))
            .chain((10..=35).map(|s| (Benchmark::D36x8, s)))
            .collect();
        let compared = noc_flow::executor::parallel_map_ordered(&grid, 0, |&(benchmark, s)| {
            let design = synthesize(&benchmark.comm_graph(), &SynthesisConfig::with_switches(s))
                .expect("grid synthesis succeeds");
            assert_tables_match_route_scan(
                &design.topology,
                &design.routes,
                &format!("{benchmark}/{s}"),
            )
        });
        assert!(
            compared.iter().filter(|&&n| n > 0).count() >= 20,
            "too few cyclic grid designs"
        );
    }

    /// The shortest-path routed tori of the incremental-equivalence suite.
    #[test]
    fn cost_tables_match_the_route_scan_on_tori() {
        use noc_routing::shortest::route_all_shortest;
        use noc_topology::generators;
        for side in [8, 12] {
            for seed in [0xD47E_2010, 0x5EED] {
                let generated = generators::torus2d(side, side, 1.0);
                let workload = generators::uniform_traffic(&generated, 4, seed, 1.0);
                let routes = route_all_shortest(&generated.topology, &workload.comm, &workload.map)
                    .expect("a torus is strongly connected");
                let label = format!("torus2d {side}x{side} seed {seed:#x}");
                assert!(assert_tables_match_route_scan(&generated.topology, &routes, &label) > 0);
            }
        }
    }

    /// A unidirectional ring with random chords whose flows run along the
    /// ring, occasionally detouring over a chord (the chorded-ring family of
    /// the incremental-equivalence suite), plus `walks` flows that jump
    /// between random links and so cross cycle edges more than once.
    fn chorded_ring(rng: &mut SmallRng, walks: usize) -> (Topology, RouteSet) {
        let switches = rng.gen_range(4..9_usize);
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..switches)
            .map(|i| topo.add_switch(format!("s{i}")))
            .collect();
        let ring: Vec<LinkId> = (0..switches)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % switches], 1.0))
            .collect();
        let mut extra = Vec::new();
        for _ in 0..rng.gen_range(0..3_usize) {
            let a = rng.gen_range(0..switches);
            let b = rng.gen_range(0..switches);
            if a != b {
                extra.push(topo.add_link(sw[a], sw[b], 1.0));
            }
        }
        let flows = rng.gen_range(3..9_usize);
        let mut routes = RouteSet::new(flows + walks);
        for f in 0..flows {
            let start = rng.gen_range(0..switches);
            let hops = rng.gen_range(2..switches.max(3));
            let mut links: Vec<LinkId> = (0..hops).map(|h| ring[(start + h) % switches]).collect();
            if !extra.is_empty() && rng.gen_range(0..4_usize) == 0 {
                links.push(extra[rng.gen_range(0..extra.len())]);
            }
            routes.set_route(FlowId::from_index(f), Route::from_links(links));
        }
        let all: Vec<LinkId> = ring.iter().chain(&extra).copied().collect();
        for f in flows..flows + walks {
            let mut at = rng.gen_range(0..ring.len());
            let mut links = Vec::new();
            for _ in 0..rng.gen_range(2..12_usize) {
                if rng.gen_range(0..3_usize) == 0 {
                    links.push(all[rng.gen_range(0..all.len())]);
                } else {
                    links.push(ring[at]);
                    at = (at + 1) % ring.len();
                }
            }
            routes.set_route(FlowId::from_index(f), Route::from_links(links));
        }
        (topo, routes)
    }

    /// The incremental-equivalence suite's chorded rings, same seed.
    #[test]
    fn cost_tables_match_the_route_scan_on_chorded_rings() {
        let mut rng = SmallRng::seed_from_u64(0xD10C);
        for case in 0..24 {
            let (topo, routes) = chorded_ring(&mut rng, 0);
            assert_tables_match_route_scan(&topo, &routes, &format!("chorded ring {case}"));
        }
    }

    /// 200 seeded random designs, each after 0–3 random re-routes that move
    /// a stretch of one flow onto fresh VCs or back onto VC 0, so cycles run
    /// over added VCs and routes mix VCs of one link.
    #[test]
    fn cost_tables_match_the_route_scan_on_random_rerouted_designs() {
        let mut rng = SmallRng::seed_from_u64(0xC057_7AB1);
        let mut cyclic = 0;
        for case in 0..200 {
            let walks = rng.gen_range(0..4_usize);
            let (mut topo, mut routes) = chorded_ring(&mut rng, walks);
            for _ in 0..rng.gen_range(0..4_usize) {
                let flow = FlowId::from_index(rng.gen_range(0..routes.flow_count()));
                let channels = routes.route_mut(flow).expect("flow exists");
                let start = rng.gen_range(0..channels.len());
                let end = rng.gen_range(start..channels.len()) + 1;
                for channel in &mut channels[start..end] {
                    *channel = if rng.gen_range(0..2_usize) == 0 {
                        topo.add_vc(channel.link).expect("routes use known links")
                    } else {
                        Channel::base(channel.link)
                    };
                }
            }
            if assert_tables_match_route_scan(&topo, &routes, &format!("random case {case}")) > 0 {
                cyclic += 1;
            }
        }
        assert!(
            cyclic >= 100,
            "only {cyclic} of 200 random designs are cyclic"
        );
    }
}

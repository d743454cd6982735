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
    /// Flows that take part in the cycle (use at least two of its channels).
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
    pub fn best(&self) -> Option<(usize, usize)> {
        self.combined
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (c, i))
            .min()
    }
}

/// Computes the cost table for `cycle` in the given direction
/// (`FindDepToBreakForward` / `FindDepToBreakBackward`).
pub fn cost_table(cycle: &[Channel], routes: &RouteSet, direction: Direction) -> CostTable {
    let len = cycle.len();
    let pos_in_cycle = |c: Channel| cycle.iter().position(|&x| x == c);

    let mut flows = Vec::new();
    let mut costs: Vec<Vec<usize>> = Vec::new();

    for (flow, route) in routes.iter() {
        let path = route.channels();
        // Steps 3–7: only flows that use more than one channel of the cycle
        // can create (and therefore break) a dependency of the cycle.
        let in_cycle = path.iter().filter(|c| pos_in_cycle(**c).is_some()).count();
        if in_cycle <= 1 {
            continue;
        }
        let mut row = vec![0usize; len];
        match direction {
            Direction::Forward => {
                // Walk the path source → destination; `val` counts the cycle
                // channels seen so far ("how many channels would have to be
                // duplicated up to here").
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
                // Walk the path destination → source; `val` counts the cycle
                // channels from here to the flow's exit from the cycle.
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

    // Step 20: combined effect = column-wise maximum.
    let mut combined = vec![0usize; len];
    for row in &costs {
        for (i, &c) in row.iter().enumerate() {
            combined[i] = combined[i].max(c);
        }
    }

    CostTable {
        flows,
        costs,
        combined,
    }
}

/// Runs Algorithm 2 in both directions and returns the cheaper plan as
/// `(cost, dependency index, direction)`.  Ties go to the forward direction,
/// matching the `f_cost ≤ b_cost` comparison in Algorithm 1.
pub fn best_break(cycle: &[Channel], routes: &RouteSet) -> Option<(usize, usize, Direction)> {
    let forward = cost_table(cycle, routes, Direction::Forward).best();
    let backward = cost_table(cycle, routes, Direction::Backward).best();
    match (forward, backward) {
        (Some((fc, fp)), Some((bc, bp))) => {
            if fc <= bc {
                Some((fc, fp, Direction::Forward))
            } else {
                Some((bc, bp, Direction::Backward))
            }
        }
        (Some((fc, fp)), None) => Some((fc, fp, Direction::Forward)),
        (None, Some((bc, bp))) => Some((bc, bp, Direction::Backward)),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::Route;
    use noc_topology::LinkId;

    /// The Figure 1 / Figure 2 example with its four flows.  Channels of the
    /// cycle are VC 0 of links L0..L3 (the paper's L1..L4).
    fn figure_2_cycle_and_routes() -> (Vec<Channel>, RouteSet) {
        let l = |i| Channel::base(LinkId::from_index(i));
        let cycle = vec![l(0), l(1), l(2), l(3)];
        let mut routes = RouteSet::new(4);
        routes.set_route(
            noc_topology::FlowId::from_index(0),
            Route::new(vec![l(0), l(1), l(2)]),
        );
        routes.set_route(
            noc_topology::FlowId::from_index(1),
            Route::new(vec![l(2), l(3)]),
        );
        routes.set_route(
            noc_topology::FlowId::from_index(2),
            Route::new(vec![l(3), l(0)]),
        );
        routes.set_route(
            noc_topology::FlowId::from_index(3),
            Route::new(vec![l(0), l(1)]),
        );
        (cycle, routes)
    }

    #[test]
    fn forward_cost_table_matches_table_1() {
        let (cycle, routes) = figure_2_cycle_and_routes();
        let table = cost_table(&cycle, &routes, Direction::Forward);
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
        let table = cost_table(&cycle, &routes, Direction::Backward);
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
        let (cost, _pos, dir) = best_break(&cycle, &routes).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(dir, Direction::Forward);
    }

    #[test]
    fn flows_outside_the_cycle_are_ignored() {
        let (cycle, mut routes) = figure_2_cycle_and_routes();
        // A flow using only one cycle channel must not appear in the table.
        let extra = Channel::base(LinkId::from_index(9));
        let mut routes2 = RouteSet::new(5);
        for (f, r) in routes.iter() {
            routes2.set_route(f, r.clone());
        }
        routes2.set_route(
            noc_topology::FlowId::from_index(4),
            Route::new(vec![extra, cycle[0]]),
        );
        routes = routes2;
        let table = cost_table(&cycle, &routes, Direction::Forward);
        assert_eq!(table.flows.len(), 4);
    }

    #[test]
    fn flow_crossing_the_cycle_twice_counts_cumulatively() {
        // A flow that enters the cycle, leaves, and re-enters: the val
        // counter keeps growing, matching the pseudocode.
        let l = |i| Channel::base(LinkId::from_index(i));
        let cycle = vec![l(0), l(1), l(2), l(3)];
        let mut routes = RouteSet::new(2);
        routes.set_route(
            noc_topology::FlowId::from_index(0),
            Route::new(vec![l(0), l(1), l(7), l(2), l(3)]),
        );
        // A second flow closes the cycle so all dependencies exist.
        routes.set_route(
            noc_topology::FlowId::from_index(1),
            Route::new(vec![l(1), l(2)]),
        );
        let table = cost_table(&cycle, &routes, Direction::Forward);
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
        assert!(best_break(&cycle, &routes).is_none());
        let table = cost_table(&cycle, &routes, Direction::Forward);
        assert!(table.flows.is_empty());
        assert_eq!(table.best(), None);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::Forward.to_string(), "forward");
        assert_eq!(Direction::Backward.to_string(), "backward");
    }
}

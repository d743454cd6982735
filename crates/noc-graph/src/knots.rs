//! Knot detection on top of the strongly-connected components.
//!
//! A **knot** of a directed graph is a strongly-connected component with no
//! edge leaving it: once a token is inside, *every* path stays inside.  In
//! waiting-graph terms (Dally/Verbeek-style deadlock analysis) a cyclic knot
//! is exactly an inescapable configuration — every member's successors are
//! all members too, so under OR-semantics ("one live successor is enough to
//! escape") nothing inside can ever become live.  A cycle that is *not*
//! contained in a knot always offers at least one escape successor and is
//! therefore not sufficient for a deadlock on its own.
//!
//! The certified static verifier (`core::certify`) uses this module to
//! validate trap witnesses: the worm wait-for digraph of a witness must be a
//! cyclic knot, otherwise some worm has an escape and the configuration
//! drains.

use crate::digraph::{DiGraph, NodeId};
use crate::scc::{self, Components};

/// The ids of the components of `graph` with no edge leaving the component
/// (the *sink* components of the condensation), ascending, i.e. in the
/// reverse topological order [`scc::tarjan_scc`] yields.
///
/// Every graph with at least one node has at least one sink component; a
/// trivial single node with no outgoing edges is one.
fn sink_components<'a, N, E>(
    graph: &'a DiGraph<N, E>,
    components: &'a Components,
) -> impl Iterator<Item = usize> + 'a {
    (0..components.len()).filter(|&id| {
        components.members(id).iter().all(|&node| {
            graph
                .successors(node)
                .all(|succ| components.is_internal(node, succ))
        })
    })
}

/// The **cyclic knots** of `graph`: sink components that contain a cycle
/// (more than one node, or a single node with a self-loop).  Empty iff every
/// cycle of the graph can reach an escape successor outside its component.
fn knots<N, E>(graph: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    let components = scc::components(graph);
    sink_components(graph, &components)
        .filter(|&id| components.is_cyclic(id))
        .map(|id| components.members(id).to_vec())
        .collect()
}

/// `true` when `graph` contains no cyclic knot — every node can reach a node
/// that is outside every cycle, so no inescapable waiting configuration
/// exists.
pub fn is_knot_free<N, E>(graph: &DiGraph<N, E>) -> bool {
    knots(graph).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(nodes: usize, edges: &[(usize, usize)]) -> DiGraph<usize, ()> {
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..nodes).map(|i| g.add_node(i)).collect();
        for &(a, b) in edges {
            g.add_edge(ids[a], ids[b], ());
        }
        g
    }

    fn sinks<N>(g: &DiGraph<N, ()>) -> Vec<Vec<NodeId>> {
        let components = scc::components(g);
        sink_components(g, &components)
            .map(|id| components.members(id).to_vec())
            .collect()
    }

    fn as_indices<N: Copy + Ord>(g: &DiGraph<N, ()>, components: Vec<Vec<NodeId>>) -> Vec<Vec<N>> {
        let mut out: Vec<Vec<N>> = components
            .into_iter()
            .map(|c| {
                let mut c: Vec<N> = c.into_iter().map(|n| *g.node_weight(n).unwrap()).collect();
                c.sort();
                c
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn pure_cycle_is_a_knot() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(as_indices(&g, knots(&g)), vec![vec![0, 1, 2]]);
        assert!(!is_knot_free(&g));
    }

    #[test]
    fn cycle_with_an_escape_edge_is_not_a_knot() {
        // The triangle can leak into node 3, which terminates: every member
        // has an escape path.
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (1, 3)]);
        assert!(knots(&g).is_empty());
        assert!(is_knot_free(&g));
        // Node 3 is still a (trivial, acyclic) sink component.
        assert_eq!(as_indices(&g, sinks(&g)), vec![vec![3]]);
    }

    #[test]
    fn escape_into_another_cycle_moves_the_knot_downstream() {
        // Cycle {0,1} escapes into cycle {2,3}, which has no way out: only
        // the downstream cycle is a knot.
        let g = graph(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        assert_eq!(as_indices(&g, knots(&g)), vec![vec![2, 3]]);
    }

    #[test]
    fn self_loop_is_a_knot_but_a_plain_sink_is_not() {
        let g = graph(2, &[(0, 0)]);
        assert_eq!(as_indices(&g, knots(&g)), vec![vec![0]]);
        // Node 1 has no edges at all: a sink component, but acyclic.
        assert_eq!(sinks(&g).len(), 2);
    }

    #[test]
    fn self_loop_with_an_exit_edge_is_not_a_knot() {
        // Node 0 waits on itself but can also leave to node 1: its component
        // is cyclic but not a sink, and the sink {1} is acyclic.
        let g = graph(2, &[(0, 0), (0, 1)]);
        assert!(knots(&g).is_empty());
        assert_eq!(as_indices(&g, sinks(&g)), vec![vec![1]]);
    }

    #[test]
    fn two_disjoint_cycles_are_two_knots() {
        let g = graph(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(as_indices(&g, knots(&g)), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn empty_graph_has_no_knots() {
        let g: DiGraph<usize, ()> = DiGraph::new();
        assert!(sinks(&g).is_empty());
        assert!(is_knot_free(&g));
    }
}

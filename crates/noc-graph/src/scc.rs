//! Strongly-connected components (Tarjan's algorithm, iterative).
//!
//! A CDG is deadlock-free exactly when every strongly-connected component is
//! trivial (a single node without a self-loop), so SCC computation doubles as
//! a fast acyclicity check and is also used to restrict expensive cycle
//! enumeration to the component that actually contains cycles.
//!
//! # One kernel
//!
//! Every entry point runs the same O(V + E) kernel.  Its DFS stack holds one
//! frame per open node with that node's successor iterator, so resuming a
//! node after a child returns continues the iterator where it stopped: no
//! successor list is collected and no node is rescanned.  "On the Tarjan
//! stack" is read off the arrays the kernel keeps anyway (visited, and not
//! yet assigned a component), and a self-loop is noted in the frame, so the
//! kernel allocates its per-node arrays once per call and nothing per node.
//!
//! The kernel returns [`Components`]: a component id per node and a cyclic
//! flag per component, with the members of each component in the order
//! Tarjan pops them.  [`tarjan_scc`], [`cyclic_components`] and
//! [`has_cycle`] are views over it; callers that need "which component is
//! this node in" read [`Components::component_of`] instead of rebuilding
//! that map from the component lists.

use crate::digraph::{DiGraph, NodeId};

/// The strongly-connected components of a graph, numbered in the order
/// Tarjan's algorithm completes them: reverse topological order of the
/// condensation, so a component only reaches components with smaller ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component id of every node.
    component: Vec<u32>,
    /// The members of component `c` are `members[offsets[c]..offsets[c + 1]]`,
    /// in the order they were popped off the Tarjan stack.
    members: Vec<NodeId>,
    offsets: Vec<usize>,
    /// Whether each component contains a cycle: more than one node, or a
    /// single node with a self-loop.
    cyclic: Vec<bool>,
}

impl Components {
    /// Number of components.
    pub(crate) fn len(&self) -> usize {
        self.cyclic.len()
    }

    /// `true` for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.cyclic.is_empty()
    }

    /// The id of the component containing `node`.
    pub fn component_of(&self, node: NodeId) -> usize {
        self.component[node.index()] as usize
    }

    /// The members of component `id`, in Tarjan pop order.
    pub fn members(&self, id: usize) -> &[NodeId] {
        &self.members[self.offsets[id]..self.offsets[id + 1]]
    }

    /// `true` when component `id` contains a cycle: more than one node, or
    /// a single node with a self-loop.
    pub(crate) fn is_cyclic(&self, id: usize) -> bool {
        self.cyclic[id]
    }

    /// `true` when some component contains a cycle.
    pub fn has_cycle(&self) -> bool {
        self.cyclic.contains(&true)
    }

    /// The ids of the components that contain a cycle, ascending.
    pub fn cyclic_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&id| self.cyclic[id])
    }

    /// `true` when both endpoints of the edge `source -> target` lie in one
    /// component.  Such an edge lies on a cycle, so its component is cyclic.
    pub fn is_internal(&self, source: NodeId, target: NodeId) -> bool {
        self.component[source.index()] == self.component[target.index()]
    }
}

/// Marks a node the DFS has not reached, or one not yet in a component.
const NONE: u32 = u32::MAX;

/// One open node of the DFS: the node, the rest of its successors, and
/// whether a self-loop was seen among those already scanned.
struct Frame<I> {
    node: usize,
    successors: I,
    self_loop: bool,
}

/// The Tarjan kernel over nodes `0..node_count`, whose successors
/// `successors(v)` yields in the order the DFS visits them.  Roots are tried
/// in ascending node order.
pub(crate) fn components_of<I: Iterator<Item = usize>>(
    node_count: usize,
    successors: impl Fn(usize) -> I,
) -> Components {
    assert!(
        u32::try_from(node_count).is_ok(),
        "the SCC kernel indexes nodes with u32"
    );
    let mut index = vec![NONE; node_count];
    let mut lowlink = vec![NONE; node_count];
    let mut component = vec![NONE; node_count];
    let mut stack: Vec<usize> = Vec::new();
    let mut frames: Vec<Frame<I>> = Vec::new();
    let mut members = Vec::with_capacity(node_count);
    let mut offsets = vec![0];
    let mut cyclic = Vec::new();
    let mut next_index = 0u32;

    for root in 0..node_count {
        if index[root] != NONE {
            continue;
        }
        let mut descend = Some(root);
        loop {
            if let Some(v) = descend.take() {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                frames.push(Frame {
                    node: v,
                    successors: successors(v),
                    self_loop: false,
                });
            }
            let Some(frame) = frames.last_mut() else {
                break;
            };
            let v = frame.node;
            if let Some(w) = frame.successors.next() {
                frame.self_loop |= w == v;
                if index[w] == NONE {
                    descend = Some(w);
                } else if component[w] == NONE {
                    // w is still on the Tarjan stack.
                    lowlink[v] = lowlink[v].min(index[w]);
                }
                continue;
            }
            let self_loop = frame.self_loop;
            frames.pop();
            if let Some(parent) = frames.last() {
                lowlink[parent.node] = lowlink[parent.node].min(lowlink[v]);
            }
            if lowlink[v] == index[v] {
                let id = cyclic.len() as u32;
                let start = members.len();
                loop {
                    let w = stack.pop().expect("the root is on the Tarjan stack");
                    component[w] = id;
                    members.push(NodeId::from_index(w));
                    if w == v {
                        break;
                    }
                }
                cyclic.push(members.len() - start > 1 || self_loop);
                offsets.push(members.len());
            }
        }
    }
    Components {
        component,
        members,
        offsets,
        cyclic,
    }
}

/// The strongly-connected components of `graph`, with component ids, cyclic
/// flags and member order exactly as [`tarjan_scc`] reports them.  The DFS
/// follows each node's live out-edges in insertion order.
pub fn components<N, E>(graph: &DiGraph<N, E>) -> Components {
    components_of(graph.node_count(), |v| {
        graph.successors(NodeId::from_index(v)).map(NodeId::index)
    })
}

/// Computes the strongly-connected components of `graph`.
///
/// Components are returned in reverse topological order of the condensation
/// (i.e. a component only depends on components that appear *before* it in
/// the returned vector).  Every node appears in exactly one component.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, scc};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, ());
/// g.add_edge(b, a, ());
/// g.add_edge(b, c, ());
/// let comps = scc::tarjan_scc(&g);
/// assert_eq!(comps.len(), 2);
/// ```
pub fn tarjan_scc<N, E>(graph: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    let components = components(graph);
    (0..components.len())
        .map(|id| components.members(id).to_vec())
        .collect()
}

/// Returns the strongly-connected components that can contain a cycle:
/// components with more than one node, plus single nodes with a self-loop.
pub fn cyclic_components<N, E>(graph: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    let components = components(graph);
    components
        .cyclic_ids()
        .map(|id| components.members(id).to_vec())
        .collect()
}

/// Returns `true` if the graph contains at least one directed cycle.
pub fn has_cycle<N, E>(graph: &DiGraph<N, E>) -> bool {
    components(graph).has_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_has_trivial_components() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
        assert!(!has_cycle(&g));
        assert!(cyclic_components(&g).is_empty());
    }

    #[test]
    fn cycle_forms_one_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            g.add_edge(nodes[i], nodes[(i + 1) % 4], ());
        }
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 4);
        assert!(has_cycle(&g));
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        // cycle 0-1-2, cycle 3-4-5, bridge 2->3
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[0], ());
        g.add_edge(n[3], n[4], ());
        g.add_edge(n[4], n[5], ());
        g.add_edge(n[5], n[3], ());
        g.add_edge(n[2], n[3], ());
        let comps = cyclic_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(has_cycle(&g));
        assert_eq!(cyclic_components(&g).len(), 1);
    }

    #[test]
    fn removing_the_back_edge_breaks_the_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let back = g.add_edge(b, a, ());
        assert!(has_cycle(&g));
        g.remove_edge(back);
        assert!(!has_cycle(&g));
    }

    #[test]
    fn reverse_topological_order_of_condensation() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let comps = tarjan_scc(&g);
        // b's component must come before a's (reverse topological order).
        let pos_a = comps.iter().position(|c| c.contains(&a)).unwrap();
        let pos_b = comps.iter().position(|c| c.contains(&b)).unwrap();
        assert!(pos_b < pos_a);
    }

    #[test]
    fn every_node_in_exactly_one_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..10).map(|_| g.add_node(())).collect();
        for i in 0..9 {
            g.add_edge(n[i], n[i + 1], ());
        }
        g.add_edge(n[9], n[4], ()); // one cycle 4..9
        let comps = tarjan_scc(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
        let mut seen = [false; 10];
        for c in &comps {
            for node in c {
                assert!(!seen[node.index()], "node appears twice");
                seen[node.index()] = true;
            }
        }
    }
}

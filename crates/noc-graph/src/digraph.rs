//! A compact directed multigraph with stable node and edge identifiers.
//!
//! Nodes and edges carry arbitrary payloads.  Identifiers are small
//! newtype-wrapped indices ([`NodeId`], [`EdgeId`]) so that higher layers
//! (topology, CDG) can build dense side tables keyed by `index()`.

use std::fmt;

/// Identifier of a node inside a [`DiGraph`].
///
/// Node ids are dense indices assigned in insertion order and remain valid
/// for the lifetime of the graph (nodes are never removed; higher layers
/// mark nodes unused instead, which mirrors how channels are only ever
/// *added* by the deadlock-removal algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw dense index.
    ///
    /// Only meaningful for indices previously produced by the same graph.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge inside a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(usize);

impl EdgeId {
    /// Creates an edge id from a raw dense index.
    pub(crate) fn from_index(index: usize) -> Self {
        EdgeId(index)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A borrowed view of one edge: its id, endpoints and payload.
#[derive(Debug, PartialEq, Eq)]
pub struct EdgeRef<'a, E> {
    /// Edge identifier.
    pub id: EdgeId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Borrowed edge payload.
    pub weight: &'a E,
}

impl<'a, E> Clone for EdgeRef<'a, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, E> Copy for EdgeRef<'a, E> {}

/// The end of an out-edge list: no edge follows.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeData<E> {
    source: NodeId,
    target: NodeId,
    weight: E,
    /// Removed edges stay in the arena but are skipped by all iterators.
    removed: bool,
    /// The next edge out of `source`, in insertion order, or [`NIL`].
    next: usize,
}

/// A node's out-edges, threaded through the edge arena: the first and the
/// last edge out of it ([`NIL`] when it has none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutList {
    first: usize,
    last: usize,
}

impl OutList {
    const EMPTY: OutList = OutList {
        first: NIL,
        last: NIL,
    };
}

/// A directed multigraph with payloads on nodes and edges.
///
/// Parallel edges and self-loops are allowed (a CDG never contains
/// self-loops because a route never uses the same channel twice in a row,
/// but the graph layer does not enforce domain rules).
///
/// # Example
///
/// ```
/// use noc_graph::DiGraph;
///
/// let mut g: DiGraph<&str, u32> = DiGraph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let e = g.add_edge(a, b, 7);
/// assert_eq!(g.edge_weight(e), Some(&7));
/// assert_eq!(g.out_degree(a), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeData<E>>,
    /// Per node, its out-edges in insertion order, linked through
    /// `EdgeData::next`: no allocation per node.
    out_lists: Vec<OutList>,
    /// Every removed edge, in removal order, each once.
    removals: Vec<EdgeId>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_lists: Vec::new(),
            removals: Vec::new(),
        }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_lists: Vec::with_capacity(nodes),
            removals: Vec::new(),
        }
    }

    /// Adds a node with the given payload and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(weight);
        self.out_lists.push(OutList::EMPTY);
        id
    }

    /// Adds a directed edge `source -> target` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not belong to this graph.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(source.0 < self.nodes.len(), "source node out of bounds");
        assert!(target.0 < self.nodes.len(), "target node out of bounds");
        let id = EdgeId(self.edges.len());
        self.edges.push(EdgeData {
            source,
            target,
            weight,
            removed: false,
            next: NIL,
        });
        let list = &mut self.out_lists[source.0];
        match list.last {
            NIL => list.first = id.0,
            last => self.edges[last].next = id.0,
        }
        list.last = id.0;
        id
    }

    /// Marks an edge as removed.  Returns `true` if the edge existed and was
    /// live before the call.
    ///
    /// Removal is *logical*: the edge id stays allocated so other ids remain
    /// stable, but the edge no longer appears in any iteration, degree count
    /// or traversal.  This matches the paper's CDG surgery where breaking a
    /// cycle removes dependency edges while new channel vertices are added.
    /// The graph logs the edge in its removal log, which the incremental
    /// cycle search reads its edits from.
    pub fn remove_edge(&mut self, edge: EdgeId) -> bool {
        match self.edges.get_mut(edge.0) {
            Some(data) if !data.removed => {
                data.removed = true;
                self.removals.push(edge);
                true
            }
            _ => false,
        }
    }

    /// Number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (non-removed) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.removed).count()
    }

    /// One past the largest edge id ever allocated, removed edges included.
    ///
    /// Edge ids are allocated in ascending order and never reused, so the
    /// edges added since this value was last read are exactly the ids at or
    /// past it.
    pub(crate) fn edge_id_bound(&self) -> usize {
        self.edges.len()
    }

    /// Every edge removed so far, in removal order, each once.
    ///
    /// The log only grows, so the edges removed since it was last read are
    /// the entries past its length then.  A clone carries the log.
    pub(crate) fn removals(&self) -> &[EdgeId] {
        &self.removals
    }

    /// The source of an edge, live or removed.
    ///
    /// # Panics
    ///
    /// Panics if the id was never allocated by this graph.
    pub(crate) fn edge_source(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.0].source
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns a reference to the payload of `node`, if it exists.
    pub fn node_weight(&self, node: NodeId) -> Option<&N> {
        self.nodes.get(node.0)
    }

    /// Returns a reference to the payload of `edge` if it exists and is live.
    pub fn edge_weight(&self, edge: EdgeId) -> Option<&E> {
        self.edges
            .get(edge.0)
            .filter(|e| !e.removed)
            .map(|e| &e.weight)
    }

    /// Returns a mutable reference to the payload of `edge` if it is live.
    pub fn edge_weight_mut(&mut self, edge: EdgeId) -> Option<&mut E> {
        self.edges
            .get_mut(edge.0)
            .filter(|e| !e.removed)
            .map(|e| &mut e.weight)
    }

    /// Returns the `(source, target)` endpoints of a live edge.
    pub(crate) fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges
            .get(edge.0)
            .filter(|e| !e.removed)
            .map(|e| (e.source, e.target))
    }

    /// Returns `true` if `node` is a valid id for this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.0 < self.nodes.len()
    }

    /// Returns the first live edge `source -> target`, if any.
    pub fn find_edge(&self, source: NodeId, target: NodeId) -> Option<EdgeId> {
        self.out_edges(source)
            .find(|e| e.target == target)
            .map(|e| e.id)
    }

    /// Returns `true` if there is at least one live edge `source -> target`.
    pub fn has_edge(&self, source: NodeId, target: NodeId) -> bool {
        self.find_edge(source, target).is_some()
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.removed)
            .map(|(i, e)| EdgeRef {
                id: EdgeId(i),
                source: e.source,
                target: e.target,
                weight: &e.weight,
            })
    }

    /// Iterates over the live outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        let mut cursor = self.out_lists.get(node.0).map_or(NIL, |list| list.first);
        std::iter::from_fn(move || {
            while cursor != NIL {
                let id = cursor;
                let e = &self.edges[id];
                cursor = e.next;
                if !e.removed {
                    return Some(EdgeRef {
                        id: EdgeId(id),
                        source: e.source,
                        target: e.target,
                        weight: &e.weight,
                    });
                }
            }
            None
        })
    }

    /// Iterates over the successor nodes of `node` (one entry per live edge,
    /// so parallel edges yield duplicates).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node).map(|e| e.target)
    }

    /// Number of live outgoing edges of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges(node).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DiGraph<&'static str, u32>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let nodes = vec![g.add_node("a"), g.add_node("b"), g.add_node("c")];
        g.add_edge(nodes[0], nodes[1], 1);
        g.add_edge(nodes[1], nodes[2], 2);
        g.add_edge(nodes[2], nodes[0], 3);
        (g, nodes)
    }

    #[test]
    fn add_and_count() {
        let (g, _) = sample();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_graph_defaults() {
        let g: DiGraph<(), ()> = DiGraph::default();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn node_and_edge_weights() {
        let (mut g, n) = sample();
        assert_eq!(g.node_weight(n[1]), Some(&"b"));

        let e = g.find_edge(n[0], n[1]).unwrap();
        assert_eq!(g.edge_weight(e), Some(&1));
        *g.edge_weight_mut(e).unwrap() = 10;
        assert_eq!(g.edge_weight(e), Some(&10));
    }

    #[test]
    fn endpoints_and_degrees() {
        let (g, n) = sample();
        let e = g.find_edge(n[2], n[0]).unwrap();
        assert_eq!(g.edge_endpoints(e), Some((n[2], n[0])));
        assert_eq!(g.out_degree(n[0]), 1);
        assert_eq!(g.successors(n[0]).collect::<Vec<_>>(), vec![n[1]]);
    }

    #[test]
    fn remove_edge_is_logical() {
        let (mut g, n) = sample();
        let e = g.find_edge(n[0], n[1]).unwrap();
        assert!(g.remove_edge(e));
        assert!(!g.remove_edge(e), "double removal reports false");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(e), None);
        assert_eq!(g.edge_endpoints(e), None);
        assert!(!g.has_edge(n[0], n[1]));
        assert_eq!(g.out_degree(n[0]), 0);
        // Other edges unaffected.
        assert!(g.has_edge(n[1], n[2]));
    }

    #[test]
    fn edge_id_bound_counts_removed_edges_too() {
        let (mut g, n) = sample();
        assert_eq!(g.edge_id_bound(), 3);
        g.remove_edge(g.find_edge(n[0], n[1]).unwrap());
        assert_eq!(g.edge_id_bound(), 3);
        let e = g.add_edge(n[0], n[1], 4);
        assert_eq!(e, EdgeId::from_index(3));
        assert_eq!(g.edge_id_bound(), 4);
    }

    #[test]
    fn removal_log_records_each_removed_edge_once() {
        let (mut g, n) = sample();
        let first = g.find_edge(n[1], n[2]).unwrap();
        let second = g.find_edge(n[0], n[1]).unwrap();
        assert!(g.removals().is_empty());
        assert!(g.remove_edge(first));
        assert!(!g.remove_edge(first), "a second removal is not logged");
        assert!(g.remove_edge(second));
        assert_eq!(g.removals(), [first, second]);
        assert_eq!(
            g.edge_source(first),
            n[1],
            "a removed edge keeps its source"
        );
    }

    #[test]
    fn a_clone_carries_the_removal_log() {
        let (mut g, n) = sample();
        let e = g.find_edge(n[2], n[0]).unwrap();
        g.remove_edge(e);
        let mut copy = g.clone();
        assert_eq!(copy.removals(), [e]);
        let f = copy.find_edge(n[0], n[1]).unwrap();
        copy.remove_edge(f);
        assert_eq!(copy.removals(), [e, f]);
        assert_eq!(g.removals(), [e], "the original's log is its own");
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.successors(a).count(), 2);
    }

    #[test]
    fn find_edge_skips_removed_parallel_edge() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(a, b, 2);
        g.remove_edge(e1);
        assert_eq!(g.find_edge(a, b), Some(e2));
    }

    /// Random add/remove sequences against a model that keeps each node's
    /// out-edges in a `Vec`: the threaded lists list the same live edges in
    /// the same order, and every count and the removal log agree.
    #[test]
    fn threaded_out_lists_match_a_vec_model() {
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x0D15);
        for _ in 0..48 {
            let mut g: DiGraph<usize, usize> = DiGraph::new();
            let mut model: Vec<Vec<EdgeId>> = Vec::new();
            let mut targets: Vec<NodeId> = Vec::new();
            let mut removed: Vec<EdgeId> = Vec::new();
            let mut live = 0usize;
            for step in 0..rng.gen_range(1..160) {
                match rng.gen_range(0..10) {
                    0..=1 => {
                        model.push(Vec::new());
                        assert_eq!(g.add_node(step).index(), model.len() - 1);
                    }
                    2..=6 if !model.is_empty() => {
                        // Parallel edges and self-loops come up often on
                        // few nodes.
                        let a = NodeId(rng.gen_range(0..model.len()));
                        let b = NodeId(rng.gen_range(0..model.len()));
                        let e = g.add_edge(a, b, step);
                        assert_eq!(e.0, targets.len(), "edge ids are dense");
                        model[a.0].push(e);
                        targets.push(b);
                        live += 1;
                    }
                    7..=9 if !targets.is_empty() => {
                        let e = EdgeId(rng.gen_range(0..targets.len()));
                        let was_live = !removed.contains(&e);
                        assert_eq!(g.remove_edge(e), was_live);
                        if was_live {
                            removed.push(e);
                            live -= 1;
                        }
                    }
                    _ => {}
                }
            }
            assert_eq!(g.node_count(), model.len());
            assert_eq!(g.edge_count(), live);
            assert_eq!(g.removals(), removed.as_slice());
            for (a, list) in model.iter().enumerate() {
                let a = NodeId(a);
                let expected: Vec<EdgeId> = list
                    .iter()
                    .copied()
                    .filter(|e| !removed.contains(e))
                    .collect();
                let actual: Vec<EdgeId> = g.out_edges(a).map(|e| e.id).collect();
                assert_eq!(actual, expected, "out-edges of {a}");
                assert_eq!(g.out_degree(a), expected.len());
                assert!(g.out_edges(a).all(|e| e.source == a));
                for b in 0..model.len() {
                    let b = NodeId(b);
                    let first = expected.iter().copied().find(|e| targets[e.0] == b);
                    assert_eq!(g.find_edge(a, b), first, "find_edge({a}, {b})");
                }
            }
            assert_eq!(g.out_edges(NodeId(model.len())).count(), 0);
            assert_eq!(g.find_edge(NodeId(model.len()), NodeId(0)), None);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_with_foreign_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(5), ());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::from_index(3).to_string(), "n3");
        assert_eq!(EdgeId::from_index(4).to_string(), "e4");
    }
}

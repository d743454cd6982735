//! Cycle search in directed graphs.
//!
//! The deadlock-removal algorithm (Algorithm 1 of the paper) repeatedly asks
//! for the *smallest* cycle of the channel dependency graph
//! (`GetSmallestCycle`).  The paper finds cycles by running a breadth-first
//! search from every vertex and checking whether the start vertex is
//! reached again; [`smallest_cycle`] returns exactly the shortest cycle that
//! strategy finds over all start vertices.
//!
//! # Canonical search order
//!
//! Every search in this module scans successors in ascending *rank* order
//! (node id for the plain entry points, a caller-supplied key for the `_by`
//! variants).  That makes each result a pure function of the edge **set**,
//! independent of the order edges happened to be inserted — which is what
//! lets an incrementally maintained graph (edges logically removed and new
//! ones appended, see [`crate::DiGraph::remove_edge`]) return bit-identical cycles
//! to a freshly rebuilt copy of the same graph.  The incremental
//! deadlock-removal loop in `noc-deadlock` relies on this contract.
//!
//! # A length search decides, the canonical BFS reports
//!
//! Every search runs over a compressed, deduplicated adjacency with dense
//! `u32` indices and epoch-stamped workspaces that are reused from search
//! to search, so a per-vertex search allocates nothing but the cycle it
//! returns.  For the smallest-cycle scan the adjacency holds only the
//! members of cyclic strongly connected components, each with its
//! successors in rank order, and only the edges inside each component
//! (found by the [`scc`] kernel): a node outside the start's component can
//! never lie on a path back to the start, so it can neither close a cycle
//! nor parent a node that does.
//!
//! A per-vertex search of the scan only has to decide how long the
//! shortest cycle through its vertex is: the outcome and every bound it
//! certifies depend on that length alone.  A bidirectional length search
//! (forward from the vertex and backward to it, always growing the smaller
//! frontier) decides it, and the canonical BFS, capped at that length,
//! runs only for a cycle the scan returns.  The BFS tree, and so the cycle
//! reported, is the one the search over the whole graph builds.
//!
//! # Incremental search
//!
//! [`IncrementalCycleFinder`] answers repeated smallest-cycle queries over a
//! graph that changes a little between queries.  It keeps a certified lower
//! bound per node ("no cycle through `v` has at most `bounds[v]` nodes"),
//! skips every node whose bound already rules out a cycle under the current
//! cap, and lowers the bounds near the edges added since its last query,
//! unless the caller declares that those edits only copied nodes, which
//! shortens no cycle.  Skipping a node is exact because the skipped BFS
//! would have returned nothing, so every answer is identical to the full
//! scan.
//!
//! The finder pays for the edits, not for the graph.  It reads them off
//! [`DiGraph`]'s append-only edge arena (ids past the last query's mark are
//! new) and its removal log, patches the adjacency the last query saw, and
//! keeps that query's strongly connected components.  A certificate that
//! costs the edits times their degree proves that no two old components
//! merged; Tarjan then runs only over the components the edits touched and
//! the new nodes, and over the whole graph only when the certificate fails.
//! The scan's pool is kept too, and only the rows of the nodes an edit
//! reached are built again.
//!
//! A search the finder does run looks past the cap, up to twice the node's
//! bound, so the bound it certifies survives later queries whose cap is
//! larger: as the smallest cycle grows, a node is searched again only a
//! logarithmic number of times.  A cycle found past the cap raises the
//! node's bound and leaves the scan's cap and answer alone; a cycle within
//! the cap is the one a BFS stopped at the cap returns.

use crate::digraph::{DiGraph, EdgeId, NodeId};
use crate::scc;

/// Returns the shortest directed cycle through `start`, as the ordered list
/// of nodes `[start, ..., last]` such that every consecutive pair is an edge
/// and `last -> start` closes the cycle.  Returns `None` when no cycle passes
/// through `start`.
///
/// Runs a BFS from `start` over successors; the first time `start` is seen
/// again, the BFS tree gives a shortest closing path (this is the per-vertex
/// search the paper describes).  Successors are scanned in ascending node-id
/// order, so the returned cycle depends only on the edge set (see the
/// [module docs](self)).
pub fn shortest_cycle_through<N, E>(graph: &DiGraph<N, E>, start: NodeId) -> Option<Vec<NodeId>> {
    shortest_cycle_through_bounded(graph, start, usize::MAX)
}

/// [`shortest_cycle_through`] with an inclusive length bound: only cycles of
/// at most `max_len` nodes are found, and the BFS never explores deeper than
/// the bound allows.  `max_len == 0` always returns `None`.
///
/// When the shortest cycle through `start` is within the bound, the result
/// is *identical* to the unbounded search (the bound only prunes layers the
/// unbounded BFS would have visited after finding the cycle), which is what
/// allows bound-pruned scans to stay exact.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, cycles};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
/// for i in 0..4 { g.add_edge(n[i], n[(i + 1) % 4], ()); }
/// assert_eq!(cycles::shortest_cycle_through_bounded(&g, n[0], 4).unwrap().len(), 4);
/// assert_eq!(cycles::shortest_cycle_through_bounded(&g, n[0], 3), None);
/// ```
pub fn shortest_cycle_through_bounded<N, E>(
    graph: &DiGraph<N, E>,
    start: NodeId,
    max_len: usize,
) -> Option<Vec<NodeId>> {
    if !graph.contains_node(start) {
        return None;
    }
    // Node-id space is its own rank order: rows ascend by node index.
    let adjacency = Csr::of_graph(graph);
    BfsWorkspace::default()
        .shortest_cycle(&adjacency, start.index() as u32, max_len)
        .map(|path| {
            path.into_iter()
                .map(|p| NodeId::from_index(p as usize))
                .collect()
        })
}

/// Returns the smallest directed cycle of the graph (fewest nodes), or
/// `None` if the graph is acyclic.
///
/// Ties are broken towards the cycle whose starting vertex has the smallest
/// node id, and the per-vertex BFS scans successors in ascending node-id
/// order, which makes the result a deterministic function of the edge set.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, cycles};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
/// // Big cycle 0-1-2-3-4 and a chord creating the small cycle 2-3.
/// for i in 0..5 { g.add_edge(n[i], n[(i + 1) % 5], ()); }
/// g.add_edge(n[3], n[2], ());
/// let cycle = cycles::smallest_cycle(&g).unwrap();
/// assert_eq!(cycle.len(), 2);
/// ```
pub fn smallest_cycle<N, E>(graph: &DiGraph<N, E>) -> Option<Vec<NodeId>> {
    smallest_cycle_by(graph, NodeId::index)
}

/// [`smallest_cycle`] with a caller-supplied node ranking.
///
/// `rank` must be injective (distinct nodes map to distinct keys).  The
/// smallest cycle is selected by fewest nodes first, then by the smallest
/// rank of the vertex the cycle is reported from, and the BFS scans
/// successors in ascending rank order.  Two graphs holding the same logical
/// edge set under a shared ranking therefore return the same cycle even if
/// their node ids and edge insertion orders differ — the property the
/// incremental CDG maintenance in `noc-deadlock` is built on (it ranks
/// vertices by their channel, which both the rebuilt and the incrementally
/// maintained CDG agree on).
///
/// This is the first query of a fresh [`IncrementalCycleFinder`], so the
/// stateless and the incremental search share one code path.
pub fn smallest_cycle_by<N, E, K: Ord>(
    graph: &DiGraph<N, E>,
    rank: impl Fn(NodeId) -> K,
) -> Option<Vec<NodeId>> {
    IncrementalCycleFinder::new().smallest_cycle_by(graph, rank)
}

/// Incremental smallest-cycle search over a graph that changes between
/// queries.
///
/// The deadlock-removal loop breaks one dependency per iteration: a handful
/// of edges disappear, a handful appear, and the rest of the graph is
/// untouched.  Most per-vertex searches of the next query would therefore
/// repeat work whose outcome is already known.  The finder keeps three
/// pieces of state between queries:
///
/// 1. **Certified per-node lower bounds.**  `bounds[v]` means "no cycle
///    through `v` has at most `bounds[v]` nodes".  The scan visits the
///    cyclic-component members in rank order under a shrinking cap, exactly
///    as the full search does, but skips `v` when `bounds[v] >= cap`: the
///    BFS from `v` would return nothing.  A search that does run looks for
///    the length `L` of the shortest cycle through `v` up to
///    `limit = max(cap, 2 * bounds[v])` nodes, past the cap, with the
///    bidirectional length search, and has three outcomes:
///    - a cycle of `L <= cap` nodes: the canonical BFS capped at `L`
///      reports the cycle, the cap becomes `L - 1`, the cycle becomes the
///      answer so far, and the bound becomes `L - 1`;
///    - a cycle with `cap < L <= limit`: the bound becomes `L - 1`, and the
///      cap and the answer stay;
///    - no cycle: the bound becomes `limit`.
///
///    Every bound stays certified, since the length search finds the
///    shortest cycle through its start within its limit.  A bounded BFS
///    returns the same cycle as an unbounded one whenever that cycle fits,
///    so the first outcome reports exactly the cycle a BFS stopped at the
///    cap reports, and the other two leave the scan's state as that BFS
///    would.  Skipping never drops a node from another node's BFS.  The BFS
///    trees, the cycles and the (length, rank) tie-break are therefore
///    those of the full search.  Searching past the cap makes a bound
///    outlive the cap it was found under: doubling it on each search means
///    that while the smallest cycle grows to `L`, a node is searched
///    `O(log L)` times, not once per increase of the cap.
/// 2. **The pool, patched where an edit changed it.**  The pool is what the
///    scan searches: the cyclic-component members ascending by rank, each
///    member's successors inside its component ascending by rank (the
///    order the canonical BFS scans them in), and the same edges reversed.
///    Each member keeps one dense slot while it stays in the pool, so a new
///    node that ranks between two old ones moves no other row, and the
///    searches' buffers stay sized by the pool.  A query rebuilds only the
///    rows of its *stale* nodes: those whose out-edges changed, the new
///    nodes, and, for an old component that split, every member that no
///    longer shares a part with the member naming it ("away") and every
///    member with a pool edge into an away one.  An edge inside an old
///    component that now runs between two of its parts has an away end, so
///    any other node keeps its row and its cyclic flag (see the certificate
///    below: a component that did not split keeps every edge inside it and
///    gains only new nodes, each reached over a changed row).  The reversed
///    rows of the heads of the pool edges that changed are patched, and
///    each node that left or joined the cyclic components leaves or enters
///    the order at its rank.  Before patching, a query checks with one
///    `rank` call per pool node that the kept order is still strictly
///    ascending, and builds the whole pool again if not, so callers may
///    change `rank` between queries; a declared copy map promises the
///    order, and the check is skipped.
/// 3. **The adjacency and partition, patched from the graph's edits.**
///    The finder keeps the deduplicated node-id adjacency the last query
///    saw, the length of the graph's edge arena and of its removal log at
///    that query, and that query's strongly connected components.  The
///    edits since are the ids past the arena's old length (new edges) and
///    the log's new entries (removed edges, see [`DiGraph::remove_edge`]),
///    so reading them costs the edits, not the graph.  Only the rows of
///    their tails are read again from the graph; diffing them against the
///    kept rows gives the removed and added edges, deduplicated, without
///    any hint from the caller.
///
///    Removing edges only removes cycles, so bounds survive removals.  A
///    cycle through `v` that is new runs over an added edge `a -> b` and
///    has at least `dist(v -> tails) + 1 + dist(heads -> v)` nodes, where
///    `tails` and `heads` collect the endpoints of every added edge inside a
///    cyclic component.  The bounds are lowered with one forward and one
///    backward multi-source BFS, both cut off at the largest bound they
///    could lower.  A caller that declares a copy map
///    ([`smallest_cycle_with_copies`](Self::smallest_cycle_with_copies))
///    proves that no cycle got shorter, and nothing is lowered.
///
///    The old partition is trusted under a certificate.  Every added edge
///    `u -> w` between old nodes, and every path `u ~> w` from an old node
///    through new nodes to an old node, must either stay inside one old
///    component, or leave `comp(u)` for `comp(w)` where `u` had an edge into
///    `comp(w)` at the last query.  Proof that no two old components merge:
///    contract every old component to one vertex.  An edge of the new
///    graph between two old components is either an old edge, or an added
///    edge or new-node path whose component pair the certificate found
///    among the old edges, so the contracted graph, new nodes aside, is a
///    subgraph of the old condensation, which is acyclic.  A cycle of the
///    new graph through two old components would be a cycle of it.  Hence
///    every component of the new graph lies inside one old component plus
///    new nodes.  An old component that lost no internal edge and gained no
///    internal edge or path keeps every path inside it, and gains no node
///    (a new node in it would lie on a path through new nodes between two
///    of its members), so it stays a component, cyclic exactly when it
///    was.  Tarjan therefore runs only over the touched components and the
///    new nodes, restricted to the edges among them; every component of the
///    graph that meets this region lies inside it, so the region's
///    components are the graph's.  When
///    the certificate fails, or checking it would cost more than a full
///    pass, the whole partition is computed again.
///
/// The result is always identical to the full per-vertex scan — the state
/// only ever prunes, never changes the answer — which the property tests in
/// `tests/graph_properties.rs` pin against an independent reference.  Debug
/// builds also check every query's patched state against one built from
/// scratch: the adjacency against the graph, and the pool's order, rows and
/// reversed rows against a fresh pool.
///
/// The graph must be the one the last query saw, changed only through
/// [`DiGraph`]'s own methods (a clone of it counts), since the finder reads
/// the edits off its edge arena and removal log.  Ask about an unrelated
/// graph with a new finder.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, cycles, cycles::IncrementalCycleFinder};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
/// for i in 0..4 { g.add_edge(n[i], n[(i + 1) % 4], ()); }
/// let mut finder = IncrementalCycleFinder::new();
/// assert_eq!(finder.smallest_cycle_by(&g, |v| v.index()).unwrap().len(), 4);
///
/// // Break the ring: the finder notices the edit by itself.
/// let e = g.find_edge(n[3], n[0]).unwrap();
/// g.remove_edge(e);
/// assert_eq!(finder.smallest_cycle_by(&g, |v| v.index()), None);
///
/// // Close a shorter ring: the bounds near the new edge are lowered.
/// g.add_edge(n[1], n[0], ());
/// assert_eq!(finder.smallest_cycle_by(&g, |v| v.index()), Some(vec![n[0], n[1]]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalCycleFinder {
    /// Per node id: no cycle through the node has at most this many nodes,
    /// in the graph the last query saw.  Empty before the first query.
    bounds: Vec<usize>,
    /// What the last query saw of the graph.  `None` before the first query.
    seen: Option<Seen>,
    /// The last query's pool, for the next query to patch.
    pool: Pool,
    /// Length-search buffers reused by every per-node search.
    lengths: MeetWorkspace,
    /// BFS buffers reused by every search that reports a cycle.
    workspace: BfsWorkspace,
}

impl IncrementalCycleFinder {
    /// A finder with no cached state: the first query is a plain global
    /// search.
    pub fn new() -> Self {
        Self::default()
    }

    /// The smallest cycle of `graph` under the ranking `rank`, exactly as
    /// the full per-vertex scan returns it, skipping every node whose
    /// certified bound rules out a cycle under the current cap.
    ///
    /// `rank` must be injective.  The bounds are kept per node id and do
    /// not depend on `rank`.  The graph may gain nodes and gain or lose
    /// edges between queries through [`DiGraph`]'s methods; the finder
    /// reads every edit off the edge arena and the removal log.  A graph
    /// with fewer nodes, a shorter edge arena or a shorter removal log than
    /// the last query saw cannot be the same graph, so the finder starts
    /// afresh on it.
    pub fn smallest_cycle_by<N, E, K: Ord>(
        &mut self,
        graph: &DiGraph<N, E>,
        rank: impl Fn(NodeId) -> K,
    ) -> Option<Vec<NodeId>> {
        self.query(graph, None, rank)
    }

    /// [`smallest_cycle_by`](Self::smallest_cycle_by) for a graph whose
    /// edits since the last query only copied nodes: `copies` pairs every
    /// node added since then with the older node it copies.
    ///
    /// The caller promises, under the map φ that takes each copy to its
    /// original and every other node to itself, that every edge added since
    /// the last query maps onto an edge that query saw, and that `rank`
    /// orders the old nodes as it did then.  Then every cycle maps to a
    /// closed walk of the same length through the images of its nodes, so
    /// no old node's shortest cycle got shorter: the finder keeps every
    /// bound as it stands, and keeps the pool's order without checking it.
    /// Debug builds check the edge promise on every query, and the order
    /// against a fresh pool.  On a first query the map says nothing, and
    /// the answer is always the one [`smallest_cycle_by`](Self::smallest_cycle_by)
    /// gives.
    ///
    /// # Example
    ///
    /// ```
    /// use noc_graph::{DiGraph, cycles::IncrementalCycleFinder};
    ///
    /// let mut g: DiGraph<(), ()> = DiGraph::new();
    /// let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
    /// for i in 0..3 { g.add_edge(n[i], n[(i + 1) % 3], ()); }
    /// let mut finder = IncrementalCycleFinder::new();
    /// assert_eq!(finder.smallest_cycle_by(&g, |v| v.index()).unwrap().len(), 3);
    ///
    /// // Move the path n[2] -> n[0] -> n[1] onto a copy of n[0].
    /// let copy = g.add_node(());
    /// g.add_edge(n[2], copy, ());
    /// g.add_edge(copy, n[1], ());
    /// g.remove_edge(g.find_edge(n[2], n[0]).unwrap());
    /// let found = finder.smallest_cycle_with_copies(&g, &[(copy, n[0])], |v| v.index());
    /// assert_eq!(found, Some(vec![n[1], n[2], copy]));
    /// ```
    pub fn smallest_cycle_with_copies<N, E, K: Ord>(
        &mut self,
        graph: &DiGraph<N, E>,
        copies: &[(NodeId, NodeId)],
        rank: impl Fn(NodeId) -> K,
    ) -> Option<Vec<NodeId>> {
        self.query(graph, Some(copies), rank)
    }

    /// One query, with the copy map the caller declared, if any.
    fn query<N, E, K: Ord>(
        &mut self,
        graph: &DiGraph<N, E>,
        copies: Option<&[(NodeId, NodeId)]>,
        rank: impl Fn(NodeId) -> K,
    ) -> Option<Vec<NodeId>> {
        noc_telemetry::counter("cycles.queries", 1);
        let (seen, edits, _) = self.sync(graph, copies);
        self.scan(seen, edits.as_ref(), rank)
    }

    /// The smallest cycle of the graph `seen` holds, with `edits` what
    /// changed since the last query (`None` if there was none), keeping
    /// `seen` for the next query.
    fn scan<K: Ord>(
        &mut self,
        seen: Seen,
        edits: Option<&Edits>,
        rank: impl Fn(NodeId) -> K,
    ) -> Option<Vec<NodeId>> {
        let stale = edits.and_then(|edits| edits.stale.as_deref());
        let copied = edits.is_some_and(|edits| edits.copied);
        self.pool.update(&seen, stale, copied, &rank);
        self.update_bounds(&seen.partition, edits);

        // The canonical scan: ascending rank, each BFS capped at one less
        // than the best length so far, so the first node to reach the
        // smallest length wins.
        let mut cap = usize::MAX;
        let mut best = None;
        let (mut runs, mut beyond, mut skips) = (0u64, 0u64, 0u64);
        for &start in &self.pool.order {
            if cap == 0 {
                break;
            }
            let bound = &mut self.bounds[self.pool.node[start as usize] as usize];
            if *bound >= cap {
                skips += 1;
                continue;
            }
            runs += 1;
            // Search past the cap, so the bound this search certifies
            // outlives later increases of the cap.  A cycle within the cap
            // is the one a BFS capped at `cap` returns.
            let limit = cap.max(bound.saturating_mul(BOUND_GROWTH));
            match self
                .lengths
                .cycle_length(&self.pool.graph, &self.pool.reverse, start, limit)
            {
                Some(len) if len <= cap => {
                    let path = self
                        .workspace
                        .shortest_cycle(&self.pool.graph, start, len)
                        .expect("a cycle of the searched length exists");
                    debug_assert_eq!(path.len(), len);
                    cap = len - 1;
                    *bound = cap;
                    best = Some(path.into_iter().map(|s| self.pool.node_at(s)).collect());
                }
                Some(len) => {
                    beyond += 1;
                    *bound = len - 1;
                }
                None => *bound = limit,
            }
        }
        noc_telemetry::counter("cycles.scan_pool", self.pool.order.len() as u64);
        noc_telemetry::counter("cycles.bfs_runs", runs);
        noc_telemetry::counter("cycles.beyond_cap", beyond);
        noc_telemetry::counter("cycles.certified_skips", skips);
        noc_telemetry::counter(
            "cycles.meet_visits",
            std::mem::take(&mut self.lengths.visits),
        );
        noc_telemetry::counter(
            "cycles.bfs_visits",
            std::mem::take(&mut self.workspace.visits),
        );
        self.seen = Some(seen);
        best
    }

    /// Brings what the last query saw up to `graph` and returns it with the
    /// edits since that query (`None` when there is no last query to
    /// compare with) and the pass that brought the partition up to date.
    /// `copies` is the copy map the caller declared, if any.
    ///
    /// The removed and added edges come from the removal log and the edge
    /// arena; only their tails' rows are read again.  The partition is
    /// patched over the components the edits touched while the certificate
    /// holds (see the [type docs](Self)), and computed again otherwise.
    fn sync<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        copies: Option<&[(NodeId, NodeId)]>,
    ) -> (Seen, Option<Edits>, Pass) {
        let n = graph.node_count();
        assert!(
            u32::try_from(n).is_ok(),
            "cycle search indexes nodes with u32"
        );
        let (bound, log) = (graph.edge_id_bound(), graph.removals());
        let Some(mut seen) = self.seen.take().filter(|seen| {
            seen.adjacency.len() <= n && seen.edges <= bound && seen.removals <= log.len()
        }) else {
            self.bounds.clear();
            return (Seen::of(graph), None, Pass::First);
        };
        let old_n = seen.adjacency.len();

        // The rows whose live out-edges changed: the tails of the edges
        // removed since the last query and of those added since.
        let mut changed: Vec<u32> = log[seen.removals..]
            .iter()
            .map(|&edge| graph.edge_source(edge).index() as u32)
            .collect();
        changed.extend(
            (seen.edges..bound)
                .filter_map(|id| graph.edge_endpoints(EdgeId::from_index(id)))
                .map(|(source, _)| source.index() as u32),
        );
        (seen.edges, seen.removals) = (bound, log.len());
        changed.sort_unstable();
        changed.dedup();
        let mut rows = Csr::with_capacity(changed.len());
        for &node in &changed {
            let successors = graph.successors(NodeId::from_index(node as usize));
            rows.push_set(successors.map(|succ| succ.index() as u32));
        }

        // Diff each changed row against the row the last query saw.
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for (i, &node) in changed.iter().enumerate() {
            let before = if (node as usize) < old_n {
                seen.adjacency.successors(node as usize)
            } else {
                &[]
            };
            let after = rows.successors(i);
            for &w in before {
                if after.binary_search(&w).is_err() {
                    removed.push((node, w));
                }
            }
            for &w in after {
                if before.binary_search(&w).is_err() {
                    added.push((node, w));
                }
            }
        }

        if let Some(copies) = copies.filter(|_| cfg!(debug_assertions)) {
            seen.check_copies(n, copies, &added);
        }
        let touched = seen.touched_components(&changed, &rows, &removed, &added);
        seen.adjacency.splice(n, &changed, &rows);
        if cfg!(debug_assertions) {
            assert_eq!(
                seen.adjacency,
                Csr::of_graph(graph),
                "the edits read off the removal log and the arena patch the adjacency to the graph's"
            );
        }
        seen.partition.grow(n);
        let (stale, pass) = match touched {
            Some(touched) => {
                // A pool row changes only where its out-edges changed, or
                // where an edge inside an old component now runs between
                // two of its parts.  Such an edge has an end away from the
                // part holding the old component's name: the away node is
                // stale, and so is every node with a pool edge into it.
                let mut away = Vec::new();
                seen.partition
                    .recompute(&seen.adjacency, old_n, &touched, &mut away);
                let mut stale = changed;
                stale.extend(old_n as u32..n as u32);
                let pool = &self.pool;
                for &node in &away {
                    stale.push(node);
                    let s = pool.slot[node as usize];
                    let predecessors = pool.reverse.successors(s as usize);
                    stale.extend(predecessors.iter().map(|&p| pool.node[p as usize]));
                }
                stale.sort_unstable();
                stale.dedup();
                (Some(stale), Pass::Partial)
            }
            None => {
                noc_telemetry::counter("scc.fallback_to_full", 1);
                seen.partition = Partition::of(&seen.adjacency);
                (None, Pass::Fallback)
            }
        };
        let edits = Edits {
            added,
            stale,
            copied: copies.is_some(),
        };
        (seen, Some(edits), pass)
    }

    /// Brings `bounds` from the graph of the last query to the current
    /// pool's: nodes on no cycle are certified for every length, new nodes
    /// for none, and every pool node is lowered to the shortest cycle an
    /// edge added since the last query could close through it (`edits` is
    /// `None` on a first query).  After edits that only copied nodes no
    /// cycle got shorter, so nothing is lowered.
    ///
    /// Only a stale node can have joined or left the pool, so only stale
    /// nodes are certified again (every node when `edits` names none), and
    /// the lowering visits only the pool nodes near an added edge.
    fn update_bounds(&mut self, partition: &Partition, edits: Option<&Edits>) {
        let n = partition.component.len();
        self.bounds.resize(n, 0);
        let mut certify = |v: u32| {
            if !partition.is_cyclic(v) {
                self.bounds[v as usize] = usize::MAX;
            }
        };
        match edits.and_then(|edits| edits.stale.as_deref()) {
            Some(stale) => stale.iter().for_each(|&v| certify(v)),
            None => (0..n as u32).for_each(certify),
        }
        let Some(edits) = edits.filter(|edits| !edits.copied) else {
            return;
        };

        // Added edges inside one cyclic component, the only edges of the
        // pool graph; an edge between components lies on no cycle.
        let (mut tails, mut heads) = (Vec::new(), Vec::new());
        let slot = |v: u32| self.pool.slot[v as usize];
        for &(tail, head) in &edits.added {
            if partition.is_cyclic(tail) && partition.is_internal(tail, head) {
                tails.push(slot(tail));
                heads.push(slot(head));
            }
        }
        if heads.is_empty() {
            return;
        }

        // A node farther than the largest bound from either side cannot be
        // lowered, so both searches stop there.
        let limit = self
            .pool
            .node
            .iter()
            .filter(|&&v| v != NO_SLOT)
            .map(|&v| self.bounds[v as usize])
            .max()
            .unwrap_or(0);
        let near = self.lengths.around(
            (&self.pool.graph, &heads),
            (&self.pool.reverse, &tails),
            limit,
        );
        for (s, len) in near {
            let bound = &mut self.bounds[self.pool.node[s as usize] as usize];
            *bound = (*bound).min(len);
        }
    }
}

/// How far past its bound a per-node search looks: a BFS from a node whose
/// bound is `b` runs to at least `BOUND_GROWTH * b` nodes, so as the smallest
/// cycle grows to `L`, each node is searched again only `O(log L)` times.
const BOUND_GROWTH: usize = 2;

/// What changed since the last query, as `sync` found it.
struct Edits {
    /// The edges added, deduplicated, in node-id space.
    added: Vec<(u32, u32)>,
    /// Every node whose pool row may differ from the last query's,
    /// ascending, or `None` when any node's may (the partition was computed
    /// again over the whole graph).
    stale: Option<Vec<u32>>,
    /// Whether the caller declared the edits a copy map: the graph maps
    /// onto the last query's, and the old nodes keep their rank order.
    copied: bool,
}

/// The search space of a query, kept from query to query: the members of
/// the cyclic strongly connected components and the edges inside each
/// component.
///
/// Each member holds a *slot*, a dense index that stays its own while it
/// stays in the pool, so the searches' buffers are sized by the pool, not
/// by the graph, and a node that joins between two others in rank order
/// moves no other row.  A member that leaves frees its slot for the next
/// one that joins.  A fresh pool gives out slots in rank order.
#[derive(Debug, Clone, Default)]
struct Pool {
    /// The slots of the members, ascending by the rank of their nodes.
    order: Vec<u32>,
    /// Per node: its slot, [`NO_SLOT`] for a node on no cycle.
    slot: Vec<u32>,
    /// Per slot: its node, [`NO_SLOT`] for a free slot.
    node: Vec<u32>,
    /// The free slots, the next to be taken last.
    free: Vec<u32>,
    /// Per slot: the slots of its node's successors inside its component,
    /// ascending by rank, the order the canonical BFS scans them in.  Empty
    /// exactly for the free slots: every member of a cyclic component has
    /// an edge inside it.
    graph: Csr,
    /// `graph` with every edge reversed, each row ascending by slot.
    reverse: Csr,
}

/// A pool member as [`Pool::by_node`] shows it: its node, its successors
/// in rank order and its predecessors ascending.
type MemberRows = (u32, Vec<u32>, Vec<u32>);

/// Marks a node without a slot, or a slot without a node, in [`Pool`].
const NO_SLOT: u32 = u32::MAX;

impl Pool {
    /// The pool of the graph `seen` holds, built from scratch under `rank`.
    fn of<K: Ord>(seen: &Seen, rank: &impl Fn(NodeId) -> K) -> Self {
        let (adjacency, partition) = (&seen.adjacency, &seen.partition);
        let n = adjacency.len();
        let mut keyed: Vec<(K, u32)> = (0..n as u32)
            .filter(|&v| partition.is_cyclic(v))
            .map(|v| (rank(NodeId::from_index(v as usize)), v))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let node: Vec<u32> = keyed.iter().map(|&(_, v)| v).collect();
        let mut slot = vec![NO_SLOT; n];
        for (s, &v) in node.iter().enumerate() {
            slot[v as usize] = s as u32;
        }
        // Slots follow rank, so sorting a row by slot sorts it by rank.
        let mut graph = Csr::with_capacity(node.len());
        for &v in &node {
            graph.push_set(
                partition
                    .internal_successors(adjacency, v)
                    .map(|w| slot[w as usize]),
            );
        }
        let reverse = graph.reversed();
        Pool {
            order: (0..node.len() as u32).collect(),
            slot,
            node,
            free: Vec::new(),
            graph,
            reverse,
        }
    }

    /// Brings the pool up to the graph `seen` holds, whose stale nodes are
    /// `stale` (`None`: every node may be), under `rank`.  The pool is
    /// patched while the kept order is still strictly ascending under
    /// `rank`, and built again otherwise; `ranks_kept` declares the order
    /// ascending, and skips the check.
    fn update<K: Ord>(
        &mut self,
        seen: &Seen,
        stale: Option<&[u32]>,
        ranks_kept: bool,
        rank: &impl Fn(NodeId) -> K,
    ) {
        let ascending = ranks_kept || {
            let mut keys = self.order.iter().map(|&s| rank(self.node_at(s)));
            keys.next().is_none_or(|mut previous| {
                keys.all(|key| {
                    let ascending = previous < key;
                    previous = key;
                    ascending
                })
            })
        };
        match stale {
            Some(stale) if ascending => {
                self.patch(seen, stale, rank);
                if cfg!(debug_assertions) {
                    let (kept, fresh) = (self.by_node(), Pool::of(seen, rank).by_node());
                    assert_eq!(kept.0, fresh.0, "kept order against a full sort");
                    assert_eq!(kept.1, fresh.1, "kept rows against a fresh pool");
                }
            }
            _ => *self = Pool::of(seen, rank),
        }
    }

    /// The node slot `s` holds.
    fn node_at(&self, s: u32) -> NodeId {
        NodeId::from_index(self.node[s as usize] as usize)
    }

    /// Where `node` goes in the order: the number of members that rank
    /// before it.
    fn position<K: Ord>(&self, node: u32, rank: &impl Fn(NodeId) -> K) -> usize {
        let key = rank(NodeId::from_index(node as usize));
        self.order.partition_point(|&s| rank(self.node_at(s)) < key)
    }

    /// Moves the `stale` nodes (ascending; every other node keeps its slot
    /// and row) in and out of the pool, rebuilds their rows and the
    /// reversed rows the changes reach, and keeps the order ascending.
    fn patch<K: Ord>(&mut self, seen: &Seen, stale: &[u32], rank: &impl Fn(NodeId) -> K) {
        let (adjacency, partition) = (&seen.adjacency, &seen.partition);
        self.slot.resize(adjacency.len(), NO_SLOT);
        let (mut changed, mut leaving, mut joining) = (Vec::new(), Vec::new(), Vec::new());
        for &v in stale {
            let s = self.slot[v as usize];
            match (s != NO_SLOT, partition.is_cyclic(v)) {
                (true, true) => changed.push(s),
                (true, false) => leaving.push(s),
                (false, true) => joining.push(v),
                (false, false) => {}
            }
        }
        // A few nodes leave and join per edit, so each moves the rest of
        // the order once rather than the order being rebuilt.  Every
        // leaving slot is free before a joining node takes one.
        for &s in &leaving {
            let v = self.node[s as usize];
            let at = self.position(v, rank);
            debug_assert_eq!(self.order[at], s);
            self.order.remove(at);
            self.slot[v as usize] = NO_SLOT;
            self.node[s as usize] = NO_SLOT;
            self.free.push(s);
            changed.push(s);
        }
        for &v in &joining {
            let s = self.free.pop().unwrap_or_else(|| {
                self.node.push(NO_SLOT);
                self.node.len() as u32 - 1
            });
            self.slot[v as usize] = s;
            self.node[s as usize] = v;
            let at = self.position(v, rank);
            self.order.insert(at, s);
            changed.push(s);
        }
        changed.sort_unstable();
        changed.dedup();

        let slots = self.node.len();
        let by_rank = |a: &u32, b: &u32| rank(self.node_at(*a)).cmp(&rank(self.node_at(*b)));
        let mut rows = Csr::with_capacity(changed.len());
        // The pool edges that left and joined, as (head, tail) slots.
        let (mut gone, mut came) = (Vec::new(), Vec::new());
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for &s in &changed {
            before.clear();
            if (s as usize) < self.graph.len() {
                before.extend_from_slice(self.graph.successors(s as usize));
            }
            before.sort_unstable();
            after.clear();
            if let Some(&v) = self.node.get(s as usize).filter(|&&v| v != NO_SLOT) {
                after.extend(
                    partition
                        .internal_successors(adjacency, v)
                        .map(|w| self.slot[w as usize]),
                );
                after.sort_unstable();
            }
            for &w in &before {
                if after.binary_search(&w).is_err() {
                    gone.push((w, s));
                }
            }
            for &w in &after {
                if before.binary_search(&w).is_err() {
                    came.push((w, s));
                }
            }
            after.sort_unstable_by(by_rank);
            rows.push_row(after.iter().copied());
        }
        self.graph.splice(slots, &changed, &rows);

        gone.sort_unstable();
        came.sort_unstable();
        let mut heads: Vec<u32> = gone.iter().chain(&came).map(|&(head, _)| head).collect();
        heads.sort_unstable();
        heads.dedup();
        let mut reversed = Csr::with_capacity(heads.len());
        for &head in &heads {
            let old = if (head as usize) < self.reverse.len() {
                self.reverse.successors(head as usize)
            } else {
                &[]
            };
            let first = came.partition_point(|&(h, _)| h < head);
            let last = came.partition_point(|&(h, _)| h <= head);
            reversed.push_set(
                old.iter()
                    .copied()
                    .filter(|&tail| gone.binary_search(&(head, tail)).is_err())
                    .chain(came[first..last].iter().map(|&(_, tail)| tail)),
            );
        }
        self.reverse.splice(slots, &heads, &reversed);
    }

    /// The pool with every slot replaced by its node: the order, and per
    /// member, ascending by node, its successors (in rank order) and its
    /// predecessors (ascending).  Two pools search the same space exactly
    /// when these agree, whichever slots they gave out.
    fn by_node(&self) -> (Vec<u32>, Vec<MemberRows>) {
        let order = self.order.iter().map(|&s| self.node[s as usize]).collect();
        let nodes =
            |row: &[u32]| -> Vec<u32> { row.iter().map(|&s| self.node[s as usize]).collect() };
        let mut rows: Vec<MemberRows> = (0..self.node.len())
            .filter(|&s| self.node[s] != NO_SLOT)
            .map(|s| {
                let mut predecessors = nodes(self.reverse.successors(s));
                predecessors.sort_unstable();
                (self.node[s], nodes(self.graph.successors(s)), predecessors)
            })
            .collect();
        rows.sort_unstable();
        for (s, &v) in self.node.iter().enumerate() {
            if v != NO_SLOT {
                assert_eq!(self.slot[v as usize], s as u32, "slot maps disagree");
            } else {
                assert!(
                    self.graph.successors(s).is_empty() && self.reverse.successors(s).is_empty()
                );
            }
        }
        (order, rows)
    }
}

/// How a query brought the kept partition up to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// There was no last query to patch: everything was read afresh.
    First,
    /// The certificate held: Tarjan ran over the touched components only.
    Partial,
    /// The certificate failed, or checking it would have cost more than a
    /// full pass: Tarjan ran over the whole graph.
    Fallback,
}

/// What a query saw of the graph, kept so that the next query patches it
/// from the edits instead of rebuilding it.
#[derive(Debug, Clone)]
struct Seen {
    /// The deduplicated adjacency in node-id space.
    adjacency: Csr,
    /// The length of the graph's edge arena: every edge id added later is
    /// at least this.
    edges: usize,
    /// The length of the graph's removal log: every edge removed later is
    /// logged past this.
    removals: usize,
    /// The strongly connected components of `adjacency`.
    partition: Partition,
}

impl Seen {
    /// Everything read from `graph` afresh: its adjacency and one Tarjan
    /// pass over all of it.
    fn of<N, E>(graph: &DiGraph<N, E>) -> Self {
        let adjacency = Csr::of_graph(graph);
        let partition = Partition::of(&adjacency);
        Seen {
            adjacency,
            edges: graph.edge_id_bound(),
            removals: graph.removals().len(),
            partition,
        }
    }

    /// Panics unless `copies` is a copy map from the graph of `n` nodes to
    /// the adjacency still held: each node added since it pairs with one
    /// older node, and each edge in `added` maps onto a held edge.
    fn check_copies(&self, n: usize, copies: &[(NodeId, NodeId)], added: &[(u32, u32)]) {
        let old_n = self.adjacency.len();
        let mut original = vec![NO_SLOT; n - old_n];
        for &(copy, of) in copies {
            let (copy, of) = (copy.index(), of.index());
            assert!(
                (old_n..n).contains(&copy) && of < old_n,
                "declared copies: node {copy} is not a new node copying node {of} of the last query's graph"
            );
            original[copy - old_n] = of as u32;
        }
        let phi = |v: u32| match v as usize {
            v if v < old_n => v as u32,
            v => original[v - old_n],
        };
        assert!(
            !original.contains(&NO_SLOT),
            "declared copies: a node added since the last query is listed as no copy"
        );
        for &(u, w) in added {
            assert!(
                self.adjacency
                    .successors(phi(u) as usize)
                    .binary_search(&phi(w))
                    .is_ok(),
                "declared copies: the added edge {u} -> {w} maps onto no edge of the last query's graph"
            );
        }
    }

    /// The components an edit touched, named as in the kept partition, or
    /// `None` when the certificate fails and components may have merged, or
    /// when checking it would cost more than a full pass.
    ///
    /// `changed` lists the rows that changed, ascending, `rows` holds their
    /// new successors, and `removed` and `added` are the edges that left and
    /// joined them; the adjacency is still the last query's.  A component
    /// is touched when it lost an internal edge, or gained an internal edge
    /// or a path through new nodes between two of its members.  Any other
    /// added edge or new-node path must leave `comp(u)` for a component `u`
    /// already had an edge into.
    fn touched_components(
        &self,
        changed: &[u32],
        rows: &Csr,
        removed: &[(u32, u32)],
        added: &[(u32, u32)],
    ) -> Option<Vec<u32>> {
        let old_n = self.adjacency.len() as u32;
        let component = &self.partition.component;
        let mut touched: Vec<u32> = removed
            .iter()
            .filter(|&&(u, w)| component[u as usize] == component[w as usize])
            .map(|&(u, _)| component[u as usize])
            .collect();
        // Whether an edge or new-node path `u ~> w` between old nodes keeps
        // the certificate, noting the component it stays inside.
        let mut certify = |u: u32, w: u32| {
            let (from, to) = (component[u as usize], component[w as usize]);
            if from == to {
                touched.push(from);
                true
            } else {
                self.adjacency
                    .successors(u as usize)
                    .iter()
                    .any(|&x| component[x as usize] == to)
            }
        };
        // Every edge of a new node is new, so its successors are in `rows`
        // (none if it has no live out-edge).
        let new_successors = |v: u32| match changed.binary_search(&v) {
            Ok(i) => rows.successors(i),
            Err(_) => &[],
        };
        // Per changed row: the mark of the last search that reached it.
        let mut reached = vec![0; changed.len()];
        let mut stack = Vec::new();
        // The searches through new nodes may cost at most a full pass.
        let mut budget = self.adjacency.len() + self.adjacency.edge_count();
        for (i, &(u, w)) in added.iter().enumerate() {
            if u >= old_n {
                // Covered from the old node that reaches `u`, if any.
                continue;
            }
            if w < old_n {
                if !certify(u, w) {
                    return None;
                }
                continue;
            }
            // Every old node reached from `u` over `w` and new nodes only.
            let mark = i + 1;
            stack.push(w);
            while let Some(v) = stack.pop() {
                let successors = new_successors(v);
                budget = budget.checked_sub(successors.len() + 1)?;
                for &x in successors {
                    if x < old_n {
                        if !certify(u, x) {
                            return None;
                        }
                    } else if let Ok(j) = changed.binary_search(&x) {
                        if reached[j] != mark {
                            reached[j] = mark;
                            stack.push(x);
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        Some(touched)
    }
}

/// The strongly connected components of a graph, each named by one of its
/// members.
#[derive(Debug, Clone)]
struct Partition {
    /// Per node: the node that names its component.
    component: Vec<u32>,
    /// Per naming node: whether its component contains a cycle.  The entry
    /// of a node that names no component is stale.
    cyclic: Vec<bool>,
    /// Per node: the next member of its component, [`END`] after the last.
    /// Each component's list starts at its name.
    next: Vec<u32>,
    /// Buffers of [`recompute`](Self::recompute), kept between queries.
    scratch: Rescan,
}

/// The buffers of a partial Tarjan pass.  Between passes every entry of
/// `local` is [`OUTSIDE`].
#[derive(Debug, Clone, Default)]
struct Rescan {
    /// The nodes the pass covers.
    region: Vec<u32>,
    /// Per node: its index in `region`.
    local: Vec<u32>,
}

/// Marks a node outside the region in [`Rescan::local`].
const OUTSIDE: u32 = u32::MAX;
/// Ends a member list in [`Partition::next`].
const END: u32 = u32::MAX;

impl Partition {
    /// The components of `adjacency`, by one Tarjan pass over all of it.
    fn of(adjacency: &Csr) -> Self {
        noc_telemetry::counter("scc.full_recomputes", 1);
        let _span = noc_telemetry::span("scc", "full_tarjan");
        let n = adjacency.len();
        let components = scc::components_of(n, |v| {
            adjacency.successors(v).iter().map(|&succ| succ as usize)
        });
        let mut partition = Partition {
            component: vec![0; n],
            cyclic: vec![false; n],
            next: vec![END; n],
            scratch: Rescan::default(),
        };
        partition.assign(&components, |v| v as u32);
        partition
    }

    /// Extends the partition to `n` nodes, each new node its own component.
    fn grow(&mut self, n: usize) {
        let old_n = self.component.len();
        self.component.extend(old_n as u32..n as u32);
        self.cyclic.resize(n, false);
        self.next.resize(n, END);
    }

    /// Computes the components of `adjacency` again over the `touched`
    /// components and the nodes from `old_n` on, which the certificate
    /// proved hold every component that changed, and appends to `away`
    /// every old node that no longer shares a component with the node that
    /// named its old one.  An old component none of whose members is away
    /// kept every edge inside it.
    fn recompute(&mut self, adjacency: &Csr, old_n: usize, touched: &[u32], away: &mut Vec<u32>) {
        let n = adjacency.len();
        let Rescan {
            mut region,
            mut local,
        } = std::mem::take(&mut self.scratch);
        local.resize(n, OUTSIDE);
        region.clear();
        for &name in touched {
            let mut member = name;
            while member != END {
                region.push(member);
                member = self.next[member as usize];
            }
        }
        region.extend(old_n as u32..n as u32);
        noc_telemetry::counter("scc.partial_recomputes", 1);
        noc_telemetry::counter("scc.partial_nodes", region.len() as u64);
        let _span = noc_telemetry::span("scc", "partial_tarjan");
        for (i, &v) in region.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let components = scc::components_of(region.len(), |i| {
            adjacency
                .successors(region[i] as usize)
                .iter()
                .filter_map(|&succ| {
                    let i = local[succ as usize];
                    (i != OUTSIDE).then_some(i as usize)
                })
        });
        // The old name of every old node in the region is in the region.
        let new_id =
            |v: u32| components.component_of(NodeId::from_index(local[v as usize] as usize));
        away.extend(
            region.iter().filter(|&&v| {
                (v as usize) < old_n && new_id(v) != new_id(self.component[v as usize])
            }),
        );
        for &v in &region {
            local[v as usize] = OUTSIDE;
        }
        self.assign(&components, |i| region[i]);
        self.scratch = Rescan { region, local };
    }

    /// Records `components`, found over an index space whose index `i` is
    /// the node `node(i)`.
    fn assign(&mut self, components: &scc::Components, node: impl Fn(usize) -> u32) {
        for id in 0..components.len() {
            let members = components.members(id);
            let name = node(members[0].index());
            let mut last = name;
            for member in members {
                let member = node(member.index());
                self.component[member as usize] = name;
                self.next[last as usize] = member;
                last = member;
            }
            self.next[last as usize] = END;
            self.cyclic[name as usize] = components.is_cyclic(id);
        }
    }

    fn is_cyclic(&self, node: u32) -> bool {
        self.cyclic[self.component[node as usize] as usize]
    }

    /// `true` when both endpoints of `tail -> head` lie in one component.
    fn is_internal(&self, tail: u32, head: u32) -> bool {
        self.component[tail as usize] == self.component[head as usize]
    }

    /// The successors of `node` in `adjacency` inside its component, which
    /// are none for a node on no cycle.
    fn internal_successors<'a>(
        &'a self,
        adjacency: &'a Csr,
        node: u32,
    ) -> impl Iterator<Item = u32> + 'a {
        adjacency
            .successors(node as usize)
            .iter()
            .copied()
            .filter(move |&succ| self.is_internal(node, succ))
    }
}

/// Compressed adjacency over dense `u32` indices: the successors of `i`
/// are `targets[spans[i].0..spans[i].1]`, deduplicated, ascending unless
/// the owner says otherwise.  Replacing a row costs the row: one that fits
/// where the old row was is written there, a longer one is appended, and
/// the space rows left behind is reclaimed once it makes up half of
/// `targets`.
#[derive(Debug, Clone, Default)]
struct Csr {
    spans: Vec<(u32, u32)>,
    targets: Vec<u32>,
    /// Entries of `targets` that no row holds.
    slack: usize,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len()).all(|i| self.successors(i) == other.successors(i))
    }
}

impl Eq for Csr {}

impl Csr {
    fn with_capacity(rows: usize) -> Self {
        Csr {
            spans: Vec::with_capacity(rows),
            ..Csr::default()
        }
    }

    /// The live edges of `graph` in node-id space.
    fn of_graph<N, E>(graph: &DiGraph<N, E>) -> Self {
        let n = graph.node_count();
        assert!(
            u32::try_from(n).is_ok(),
            "cycle search indexes nodes with u32"
        );
        let mut csr = Csr::with_capacity(n);
        for node in graph.node_ids() {
            csr.push_set(graph.successors(node).map(|succ| succ.index() as u32));
        }
        csr
    }

    /// Appends the next row, its targets in the order given.
    fn push_row(&mut self, targets: impl Iterator<Item = u32>) {
        let start = self.end();
        self.targets.extend(targets);
        self.spans.push((start, self.end()));
    }

    /// Appends the next row, sorting and deduplicating its targets
    /// (parallel edges reach the same successor).
    fn push_set(&mut self, targets: impl Iterator<Item = u32>) {
        let start = self.targets.len();
        self.targets.extend(targets);
        self.targets[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.targets.len() {
            if kept == start || self.targets[i] != self.targets[kept - 1] {
                self.targets[kept] = self.targets[i];
                kept += 1;
            }
        }
        self.targets.truncate(kept);
        self.spans.push((start as u32, self.end()));
    }

    /// The length of `targets`, which row spans index with `u32`.
    fn end(&self) -> u32 {
        u32::try_from(self.targets.len()).expect("cycle search indexes edges with u32")
    }

    fn len(&self) -> usize {
        self.spans.len()
    }

    /// The number of edges the rows hold.
    fn edge_count(&self) -> usize {
        self.targets.len() - self.slack
    }

    fn successors(&self, i: usize) -> &[u32] {
        let (start, end) = self.spans[i];
        &self.targets[start as usize..end as usize]
    }

    /// Brings the adjacency to `n` rows: row `changed[i]` becomes row `i` of
    /// `rows`, and rows past the old end that `changed` does not list are
    /// empty.  Costs the changed rows, plus, now and then, one pass that
    /// reclaims the space old rows left.
    fn splice(&mut self, n: usize, changed: &[u32], rows: &Csr) {
        self.spans.resize(n, (0, 0));
        for (i, &row) in changed.iter().enumerate() {
            let (start, end) = self.spans[row as usize];
            let (old, new) = ((end - start) as usize, rows.successors(i));
            if new.len() <= old {
                let start = start as usize;
                self.targets[start..start + new.len()].copy_from_slice(new);
                self.spans[row as usize].1 = (start + new.len()) as u32;
                self.slack += old - new.len();
            } else {
                let start = self.end();
                self.targets.extend_from_slice(new);
                self.spans[row as usize] = (start, self.end());
                self.slack += old;
            }
        }
        if 2 * self.slack > self.targets.len() {
            let mut compact = Csr::with_capacity(n);
            for i in 0..n {
                compact.push_row(self.successors(i).iter().copied());
            }
            *self = compact;
        }
    }

    /// The same graph with every edge reversed, each row ascending.
    fn reversed(&self) -> Csr {
        let mut fill = vec![0u32; self.len() + 1];
        for i in 0..self.len() {
            for &target in self.successors(i) {
                fill[target as usize + 1] += 1;
            }
        }
        for i in 1..fill.len() {
            fill[i] += fill[i - 1];
        }
        let spans = fill.windows(2).map(|w| (w[0], w[1])).collect();
        let mut targets = vec![0; self.edge_count()];
        for source in 0..self.len() {
            for &target in self.successors(source) {
                targets[fill[target as usize] as usize] = source as u32;
                fill[target as usize] += 1;
            }
        }
        Csr {
            spans,
            targets,
            slack: 0,
        }
    }
}

/// Buffers of the length search, reused across searches: one side grows
/// from the start along the pool's edges, the other towards the start along
/// its reversed edges.  A node counts as labelled by a side when that
/// side's stamp equals the current epoch, so starting a search clears
/// nothing.
#[derive(Debug, Clone, Default)]
struct MeetWorkspace {
    forward: Side,
    backward: Side,
    epoch: u32,
    /// Nodes expanded since the counter was last taken.
    visits: u64,
}

impl MeetWorkspace {
    /// The length of the shortest cycle through `start` in `graph`, whose
    /// reversal is `reverse`, if it has at most `limit` nodes: the length of
    /// the cycle `BfsWorkspace::shortest_cycle(graph, start, limit)`
    /// returns.
    ///
    /// The forward side labels nodes with their distance from `start`, the
    /// backward side with their distance to it, and each round expands one
    /// whole layer of the side with the smaller frontier.  Every edge
    /// `u -> w` scanned with `u` labelled forward and `w` backward closes a
    /// walk from `start` back to it of `df(u) + 1 + db(w)` edges, which
    /// contains a cycle through `start` at most that long; `best` is the
    /// shortest such walk.
    ///
    /// Invariant: after `radius` rounds, if the shortest cycle through
    /// `start` has `L <= radius` nodes, then `best == L`.  No walk is shorter
    /// than `L`, so `best >= L` always.  The cycle's `i`-th node is at
    /// distance `i` from the start and `L - i` to it.  In the round that
    /// brought `radius` from `L - 1` to `L`, the two sides had expanded `a`
    /// and `b` layers with `a + b = L - 1`, so the cycle's `a`-th node sat
    /// on the forward frontier and its `(a + 1)`-th on the backward one;
    /// whichever side expanded scanned the edge between them with both
    /// labels set, a walk of `a + 1 + b = L` edges.
    ///
    /// Hence the search may stop once `radius + 1 >= min(best, limit + 1)`:
    /// then `L <= radius` (found), or `L > radius`, so `L >= best` (found as
    /// well) or `L > limit`.  It also stops when a side's frontier empties
    /// after `a` layers: no node is `a` hops from (or to) the start, so
    /// `L <= a <= radius`, or there is no cycle at all.
    fn cycle_length(
        &mut self,
        graph: &Csr,
        reverse: &Csr,
        start: u32,
        limit: usize,
    ) -> Option<usize> {
        let n = graph.len();
        let epoch = self.next_epoch();
        self.forward.begin(n, &[start], epoch);
        self.backward.begin(n, &[start], epoch);

        let stop = limit.saturating_add(1);
        let mut best = usize::MAX;
        let mut radius = 0;
        while radius + 1 < best.min(stop) {
            let ahead = self.forward.frontier_len();
            let behind = self.backward.frontier_len();
            if ahead == 0 || behind == 0 {
                break;
            }
            let closed = if ahead <= behind {
                self.visits += ahead as u64;
                self.forward.expand(graph, &self.backward, epoch)
            } else {
                self.visits += behind as u64;
                self.backward.expand(reverse, &self.forward, epoch)
            };
            best = best.min(closed);
            radius += 1;
        }
        // `best < stop` is `best <= limit`, except that the sentinel
        // `usize::MAX` never passes, even when `limit` is unbounded.
        (best < stop).then_some(best)
    }

    /// Labels forward every node fewer than `limit` hops from the nearest
    /// of `heads` along `graph`, and backward every node fewer than
    /// `limit` hops to the nearest of `tails` along `reverse`, `graph`
    /// reversed.  Yields each node both sides labelled with the sum of its
    /// two distances.
    fn around<'a>(
        &'a mut self,
        (graph, heads): (&Csr, &[u32]),
        (reverse, tails): (&Csr, &[u32]),
        limit: usize,
    ) -> impl Iterator<Item = (u32, usize)> + 'a {
        let epoch = self.next_epoch();
        self.forward.begin(graph.len(), heads, epoch);
        self.backward.begin(graph.len(), tails, epoch);
        for _ in 1..limit {
            if self.forward.frontier_len() == 0 {
                break;
            }
            self.forward.expand(graph, &self.backward, epoch);
        }
        for _ in 1..limit {
            if self.backward.frontier_len() == 0 {
                break;
            }
            self.backward.expand(reverse, &self.forward, epoch);
        }
        let (forward, backward) = (&self.forward, &self.backward);
        forward.queue.iter().filter_map(move |&node| {
            let node_at = node as usize;
            (backward.stamp[node_at] == epoch).then(|| {
                (
                    node,
                    forward.dist[node_at] as usize + backward.dist[node_at] as usize,
                )
            })
        })
    }

    /// A fresh epoch, which leaves every node unlabelled by both sides.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.forward.stamp.fill(0);
            self.backward.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// One side of the length search: BFS distances from (or to) the start.
#[derive(Debug, Clone, Default)]
struct Side {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    /// Every labelled node in BFS order; the frontier, the last layer, is
    /// `queue[layer..]`.
    queue: Vec<u32>,
    layer: usize,
}

impl Side {
    /// Labels only `sources`, at distance 0, in a graph of `n` nodes.
    fn begin(&mut self, n: usize, sources: &[u32], epoch: u32) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.queue.clear();
        for &source in sources {
            if self.stamp[source as usize] != epoch {
                self.stamp[source as usize] = epoch;
                self.dist[source as usize] = 0;
                self.queue.push(source);
            }
        }
        self.layer = 0;
    }

    fn frontier_len(&self) -> usize {
        self.queue.len() - self.layer
    }

    /// Expands the frontier by one layer along `graph`'s edges and returns
    /// the shortest walk through the start closed by a scanned edge into a
    /// node `other` has labelled (`usize::MAX` if none).
    fn expand(&mut self, graph: &Csr, other: &Side, epoch: u32) -> usize {
        let mut closed = usize::MAX;
        let end = self.queue.len();
        for i in self.layer..end {
            let node = self.queue[i];
            let next = self.dist[node as usize] + 1;
            for &succ in graph.successors(node as usize) {
                let succ = succ as usize;
                if other.stamp[succ] == epoch {
                    closed = closed.min(next as usize + other.dist[succ] as usize);
                }
                if self.stamp[succ] != epoch {
                    self.stamp[succ] = epoch;
                    self.dist[succ] = next;
                    self.queue.push(succ as u32);
                }
            }
        }
        self.layer = end;
        closed
    }
}

/// Buffers of the BFS kernel, reused across searches: a node counts as
/// visited when its stamp equals the current epoch, so starting a new BFS
/// clears nothing.
#[derive(Debug, Clone, Default)]
struct BfsWorkspace {
    stamp: Vec<u32>,
    epoch: u32,
    parent: Vec<u32>,
    depth: Vec<u32>,
    queue: Vec<u32>,
    /// Nodes dequeued since the counter was last taken.
    visits: u64,
}

impl BfsWorkspace {
    /// The canonical bounded BFS: the shortest cycle through `start` of at
    /// most `max_len` nodes, as `[start, ..., last]`.  Successors are
    /// scanned in the order each row lists them, ascending rank, so the BFS
    /// tree, and the cycle, depend only on the edge set and the ranking.
    fn shortest_cycle(&mut self, graph: &Csr, start: u32, max_len: usize) -> Option<Vec<u32>> {
        if max_len == 0 {
            return None;
        }
        let n = graph.len();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.parent.resize(n, 0);
            self.depth.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.stamp[start as usize] = epoch;
        self.depth[start as usize] = 0;
        self.queue.clear();
        self.queue.push(start);
        let mut head = 0;
        let found = loop {
            let Some(&node) = self.queue.get(head) else {
                break None;
            };
            head += 1;
            let successors = graph.successors(node as usize);
            // The edge node -> start closes a cycle of depth + 1 nodes,
            // within the bound by the enqueue guard below; a self-loop is
            // the degenerate case node == start.
            if successors.contains(&start) {
                break Some(node);
            }
            // A node enqueued at depth d + 1 can close a cycle of d + 2
            // nodes at best; deeper layers cannot beat the bound.
            let depth = self.depth[node as usize];
            if depth as usize + 2 > max_len {
                continue;
            }
            for &succ in successors {
                if self.stamp[succ as usize] != epoch {
                    self.stamp[succ as usize] = epoch;
                    self.parent[succ as usize] = node;
                    self.depth[succ as usize] = depth + 1;
                    self.queue.push(succ);
                }
            }
        };
        self.visits += head as u64;
        // Walk the BFS tree from the closing node back to the root.
        let last = found?;
        let mut path = vec![last];
        let mut cur = last;
        while cur != start {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> (DiGraph<usize, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], ());
        }
        (g, nodes)
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        assert!(smallest_cycle(&g).is_none());
    }

    #[test]
    fn ring_cycle_is_found_in_order() {
        let (g, nodes) = ring(4);
        let cycle = smallest_cycle(&g).unwrap();
        assert_eq!(cycle.len(), 4);
        // Consecutive elements must be connected, and last -> first closes it.
        for w in cycle.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]));
        assert!(cycle.contains(&nodes[0]));
    }

    #[test]
    fn smallest_of_two_cycles_is_returned() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        // 5-cycle over 0..5 and a 2-cycle between 4 and 5.
        for i in 0..5 {
            g.add_edge(n[i], n[(i + 1) % 5], ());
        }
        g.add_edge(n[4], n[5], ());
        g.add_edge(n[5], n[4], ());
        let cycle = smallest_cycle(&g).unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&n[4]) && cycle.contains(&n[5]));
    }

    #[test]
    fn self_loop_is_a_cycle_of_length_one() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        let cycle = smallest_cycle(&g).unwrap();
        assert_eq!(cycle, vec![a]);
    }

    #[test]
    fn shortest_cycle_through_specific_node() {
        let (g, nodes) = ring(5);
        for &n in &nodes {
            let c = shortest_cycle_through(&g, n).unwrap();
            assert_eq!(c.len(), 5);
            assert_eq!(c[0], n, "cycle must start at the requested node");
        }
    }

    #[test]
    fn shortest_cycle_through_self_loop_is_a_single_node() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(a, a, ());
        // The self-loop beats the 2-cycle from a's perspective.
        assert_eq!(shortest_cycle_through(&g, a).unwrap(), vec![a]);
        // b has no self-loop: its shortest cycle is the 2-cycle, with both
        // nodes reported exactly once.
        assert_eq!(shortest_cycle_through(&g, b).unwrap(), vec![b, a]);
    }

    #[test]
    fn shortest_cycle_through_two_cycle_has_no_duplicates() {
        let (g, nodes) = ring(2);
        for (i, &n) in nodes.iter().enumerate() {
            let c = shortest_cycle_through(&g, n).unwrap();
            assert_eq!(c.len(), 2, "2-cycle must have exactly two nodes");
            assert_eq!(c[0], n);
            assert_eq!(c[1], nodes[(i + 1) % 2]);
        }
    }

    #[test]
    fn shortest_cycle_through_prefers_short_closing_path() {
        // start -> a -> start (2-cycle) and start -> a -> b -> start
        // (3-cycle): BFS must return the 2-cycle.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(s, a, ());
        g.add_edge(a, b, ());
        g.add_edge(b, s, ());
        g.add_edge(a, s, ());
        assert_eq!(shortest_cycle_through(&g, s).unwrap(), vec![s, a]);
    }

    #[test]
    fn node_off_cycle_reports_none() {
        let (mut g, nodes) = ring(3);
        let extra = g.add_node(99);
        g.add_edge(nodes[0], extra, ());
        assert!(shortest_cycle_through(&g, extra).is_none());
        assert!(shortest_cycle_through(&g, nodes[0]).is_some());
    }

    #[test]
    fn bounded_search_respects_the_bound_and_matches_unbounded_within_it() {
        let (g, nodes) = ring(4);
        assert_eq!(shortest_cycle_through_bounded(&g, nodes[0], 0), None);
        assert_eq!(shortest_cycle_through_bounded(&g, nodes[0], 3), None);
        assert_eq!(
            shortest_cycle_through_bounded(&g, nodes[0], 4),
            shortest_cycle_through(&g, nodes[0]),
        );
        assert_eq!(
            shortest_cycle_through_bounded(&g, nodes[0], usize::MAX),
            shortest_cycle_through(&g, nodes[0]),
        );
    }

    #[test]
    fn canonical_result_is_independent_of_edge_insertion_order() {
        // Two 3-cycles through node 0: via (1, 2) and via (3, 4).  Build the
        // same edge set in two different insertion orders; the canonical
        // search must return the same cycle for both.
        let build = |edges: &[(usize, usize)]| {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
            for &(a, b) in edges {
                g.add_edge(n[a], n[b], ());
            }
            g
        };
        let forward = build(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let reversed = build(&[(4, 0), (3, 4), (0, 3), (2, 0), (1, 2), (0, 1)]);
        assert_eq!(smallest_cycle(&forward), smallest_cycle(&reversed));
    }

    #[test]
    fn smallest_cycle_by_reversed_rank_flips_the_tie_break() {
        // Two disjoint 2-cycles; under the identity rank the 0-1 cycle wins,
        // under a reversed rank the 2-3 cycle does.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[0], ());
        g.add_edge(n[2], n[3], ());
        g.add_edge(n[3], n[2], ());
        let ids = smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(ids[0], n[0]);
        let reversed = smallest_cycle_by(&g, |v| usize::MAX - v.index()).unwrap();
        assert_eq!(reversed[0], n[3]);
    }

    #[test]
    fn removed_edge_breaks_the_cycle() {
        let (mut g, nodes) = ring(4);
        let e = g.find_edge(nodes[3], nodes[0]).unwrap();
        g.remove_edge(e);
        assert!(smallest_cycle(&g).is_none());
    }

    #[test]
    fn smallest_cycle_of_a_ring_spans_the_ring() {
        for n in 2..8 {
            let (g, _) = ring(n);
            assert_eq!(smallest_cycle(&g).map(|c| c.len()), Some(n));
        }
    }

    #[test]
    fn finder_matches_global_search_without_any_hints() {
        let (g, _) = ring(5);
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()),
            smallest_cycle(&g),
        );
        // Asking again, with every bound certified by the first query,
        // must not change the answer.
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()),
            smallest_cycle(&g),
        );
    }

    #[test]
    fn finder_survives_a_disjoint_untouched_cycle() {
        // Two disjoint rings; break the one the finder reported.  The other
        // ring is nowhere near the edit, so a search restarted only around
        // changed edges would miss it.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        for i in 0..3 {
            g.add_edge(n[i], n[(i + 1) % 3], ());
            g.add_edge(n[3 + i], n[3 + (i + 1) % 3], ());
        }
        let mut finder = IncrementalCycleFinder::new();
        let first = finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(first[0], n[0]);
        let e = g.find_edge(n[2], n[0]).unwrap();
        g.remove_edge(e);
        let second = finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(second, smallest_cycle(&g).unwrap());
        assert_eq!(second[0], n[3]);
    }

    #[test]
    fn finder_picks_up_new_shorter_cycles_via_dirty_nodes() {
        let (mut g, nodes) = ring(6);
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()).unwrap().len(),
            6
        );
        // Add a chord creating a 2-cycle; the finder's diff finds the new
        // edge and lowers the bounds of the nodes it closes a cycle through.
        g.add_edge(nodes[1], nodes[0], ());
        let cycle = finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle, smallest_cycle(&g).unwrap());
    }

    #[test]
    fn finder_matches_global_search_as_disjoint_rings_break() {
        // Rings of 3, 5 and 9 nodes; break the smallest one each time.
        let mut g: DiGraph<usize, ()> = DiGraph::new();
        let mut rings = Vec::new();
        for len in [3, 5, 9] {
            let nodes: Vec<_> = (0..len).map(|i| g.add_node(i)).collect();
            for i in 0..len {
                g.add_edge(nodes[i], nodes[(i + 1) % len], ());
            }
            rings.push(nodes);
        }
        let mut finder = IncrementalCycleFinder::new();
        for ring in &rings {
            let found = finder.smallest_cycle_by(&g, NodeId::index);
            assert_eq!(found, smallest_cycle(&g));
            assert_eq!(found.unwrap().len(), ring.len());
            let e = g.find_edge(ring[ring.len() - 1], ring[0]).unwrap();
            g.remove_edge(e);
        }
        assert_eq!(finder.smallest_cycle_by(&g, NodeId::index), None);
    }

    #[test]
    fn finder_finds_a_new_cycle_through_a_node_certified_past_the_cap() {
        // A 4-ring (0..4) ranks before a 6-ring (4..10).
        let mut g: DiGraph<usize, ()> = DiGraph::new();
        let n: Vec<_> = (0..10).map(|i| g.add_node(i)).collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], ());
        }
        for i in 0..6 {
            g.add_edge(n[4 + i], n[4 + (i + 1) % 6], ());
        }
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            finder.smallest_cycle_by(&g, NodeId::index).unwrap().len(),
            4
        );
        assert_eq!(finder.bounds[n[4].index()], 3);

        // Stretch the 4-ring to 5 nodes: the cap drops to 4 only, and the
        // 6-ring's nodes, bounded by 3, search up to 6 nodes and certify 5.
        let e = g.find_edge(n[3], n[0]).unwrap();
        g.remove_edge(e);
        let extra = g.add_node(10);
        g.add_edge(n[3], extra, ());
        g.add_edge(extra, n[0], ());
        assert_eq!(
            finder.smallest_cycle_by(&g, NodeId::index).unwrap().len(),
            5
        );
        assert_eq!(finder.bounds[n[4].index()], 5);

        // A chord closes a 3-cycle through nodes whose bound is past the cap.
        g.add_edge(n[6], n[4], ());
        let found = finder.smallest_cycle_by(&g, NodeId::index);
        assert_eq!(found, smallest_cycle(&g));
        assert_eq!(found, Some(vec![n[4], n[5], n[6]]));
    }

    #[test]
    fn finder_follows_a_rank_that_changes_between_queries() {
        // Two disjoint 2-cycles tie on length; the rank decides.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            g.add_edge(n[a], n[b], ());
        }
        let identity = |v: NodeId| v.index();
        let reversed = |v: NodeId| usize::MAX - v.index();
        let mut finder = IncrementalCycleFinder::new();
        for round in 0..3 {
            let (found, expected) = if round == 1 {
                (
                    finder.smallest_cycle_by(&g, reversed),
                    smallest_cycle_by(&g, reversed),
                )
            } else {
                (
                    finder.smallest_cycle_by(&g, identity),
                    smallest_cycle_by(&g, identity),
                )
            };
            assert_eq!(found, expected, "round {round}");
            assert_eq!(found.unwrap()[0], if round == 1 { n[3] } else { n[0] });
        }
    }

    #[test]
    fn nodes_added_between_queries_merge_into_the_rank_order() {
        // Under a reversed rank every new node ranks before the old ones.
        let reversed = |v: NodeId| usize::MAX - v.index();
        let (mut g, _) = ring(3);
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            finder.smallest_cycle_by(&g, reversed),
            smallest_cycle_by(&g, reversed)
        );

        // A second 3-ring ties with the first and wins on rank.
        let fresh: Vec<_> = (3..6).map(|i| g.add_node(i)).collect();
        for i in 0..3 {
            g.add_edge(fresh[i], fresh[(i + 1) % 3], ());
        }
        let found = finder.smallest_cycle_by(&g, reversed);
        assert_eq!(found, smallest_cycle_by(&g, reversed));
        assert_eq!(found.unwrap()[0], fresh[2]);
        let mut expected: Vec<NodeId> = g.node_ids().collect();
        expected.sort_by_key(|&v| reversed(v));
        let order: Vec<NodeId> = finder
            .pool
            .order
            .iter()
            .map(|&s| finder.pool.node_at(s))
            .collect();
        assert_eq!(order, expected);
    }

    /// Rings of 4 to 9 nodes with a chord or two, joined by edges that run
    /// only from a ring to a later one, so every ring is a component.
    fn ring_chain(rng: &mut noc_rng::SmallRng) -> DiGraph<usize, ()> {
        let mut g = DiGraph::new();
        let mut previous: Vec<NodeId> = Vec::new();
        for _ in 0..rng.gen_range(2..5usize) {
            let len = rng.gen_range(4..10usize);
            let first = g.node_count();
            let nodes: Vec<_> = (first..first + len).map(|i| g.add_node(i)).collect();
            for i in 0..len {
                g.add_edge(nodes[i], nodes[(i + 1) % len], ());
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let a = nodes[rng.gen_range(0..len)];
                let b = nodes[rng.gen_range(0..len)];
                g.add_edge(a, b, ());
            }
            for _ in 0..rng.gen_range(1..4usize).min(previous.len()) {
                let from = previous[rng.gen_range(0..previous.len())];
                g.add_edge(from, nodes[rng.gen_range(0..len)], ());
            }
            previous.extend(nodes);
        }
        g
    }

    #[test]
    fn kept_adjacency_and_partition_match_a_fresh_pass_through_breaks() {
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x5CC5);
        let (mut partial, mut fallback) = (0, 0);
        for case in 0..40 {
            let mut g = ring_chain(&mut rng);
            let mut finder = IncrementalCycleFinder::new();
            for step in 0..30 {
                let (seen, edits, pass) = finder.sync(&g, None);
                match pass {
                    Pass::Partial => partial += 1,
                    Pass::Fallback => fallback += 1,
                    Pass::First => assert_eq!(step, 0),
                }
                let fresh = Csr::of_graph(&g);
                assert_eq!(
                    seen.adjacency, fresh,
                    "case {case}, step {step}: patched adjacency"
                );
                let components = scc::components_of(fresh.len(), |v| {
                    fresh.successors(v).iter().map(|&succ| succ as usize)
                });
                for v in g.node_ids() {
                    let id = components.component_of(v);
                    assert_eq!(
                        seen.partition.is_cyclic(v.index() as u32),
                        components.is_cyclic(id),
                        "case {case}, step {step}: cyclic membership of {v}"
                    );
                }
                for edge in g.edges() {
                    let (u, w) = (edge.source.index() as u32, edge.target.index() as u32);
                    assert_eq!(
                        seen.partition.is_internal(u, w),
                        components.is_internal(edge.source, edge.target),
                        "case {case}, step {step}: internal edge {u} -> {w}"
                    );
                }
                let found = finder.scan(seen, edits.as_ref(), NodeId::index);
                assert_eq!(found, smallest_cycle(&g), "case {case}, step {step}");

                // Algorithm 1's edit: route the cycle's dependency `a -> b`
                // through a new node `d`.
                if let Some(cycle) = found {
                    let i = rng.gen_range(0..cycle.len());
                    let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
                    let d = g.add_node(g.node_count());
                    g.add_edge(a, d, ());
                    g.add_edge(d, b, ());
                    while let Some(e) = g.find_edge(a, b) {
                        g.remove_edge(e);
                    }
                }
                // Now and then an edge anywhere, which may join components
                // and break the certificate, or a removal.
                let n = g.node_count();
                match rng.gen_range(0..6usize) {
                    0 => {
                        let a = NodeId::from_index(rng.gen_range(0..n));
                        let b = NodeId::from_index(rng.gen_range(0..n));
                        g.add_edge(a, b, ());
                    }
                    1 => {
                        let live: Vec<_> = g.edges().map(|e| e.id).collect();
                        if !live.is_empty() {
                            g.remove_edge(live[rng.gen_range(0..live.len())]);
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(
            partial > 0 && fallback > 0,
            "partial {partial}, fallback {fallback}"
        );
    }

    #[test]
    fn kept_pool_matches_a_fresh_build_under_a_rank_that_interleaves_new_nodes() {
        // A node added to split the dependency `a -> b` takes `a`'s weight,
        // so under the rank (weight, id) it sorts right after `a`, before
        // every later old node, as a break's new VC channels sort between
        // old channels.  Every fifth query flips the rank, and from step 10
        // on the finder queries a clone of the graph.
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x9001);
        let (mut patched, mut interleaved) = (0, 0);
        for case in 0..40 {
            let mut g = ring_chain(&mut rng);
            let mut finder = IncrementalCycleFinder::new();
            for step in 0..30 {
                if step == 10 {
                    g = g.clone();
                }
                let flipped = step % 5 == 4;
                let rank = |v: NodeId| {
                    let key = (*g.node_weight(v).unwrap(), v.index());
                    if flipped {
                        (usize::MAX - key.0, usize::MAX - key.1)
                    } else {
                        key
                    }
                };
                let (seen, edits, pass) = finder.sync(&g, None);
                if pass == Pass::Partial && step % 5 != 0 {
                    patched += 1;
                }
                let found = finder.scan(seen, edits.as_ref(), rank);
                assert_eq!(
                    finder.pool.by_node(),
                    Pool::of(finder.seen.as_ref().unwrap(), &rank).by_node(),
                    "case {case}, step {step}: kept pool"
                );
                assert_eq!(
                    found,
                    smallest_cycle_by(&g, rank),
                    "case {case}, step {step}"
                );

                if let Some(cycle) = found {
                    let i = rng.gen_range(0..cycle.len());
                    let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
                    let weight = *g.node_weight(a).unwrap();
                    interleaved +=
                        usize::from(g.node_ids().any(|v| *g.node_weight(v).unwrap() > weight));
                    let d = g.add_node(weight);
                    g.add_edge(a, d, ());
                    g.add_edge(d, b, ());
                    while let Some(e) = g.find_edge(a, b) {
                        g.remove_edge(e);
                    }
                }
                let n = g.node_count();
                match rng.gen_range(0..6usize) {
                    0 => {
                        let a = NodeId::from_index(rng.gen_range(0..n));
                        let b = NodeId::from_index(rng.gen_range(0..n));
                        g.add_edge(a, b, ());
                    }
                    1 => {
                        let live: Vec<_> = g.edges().map(|e| e.id).collect();
                        if !live.is_empty() {
                            g.remove_edge(live[rng.gen_range(0..live.len())]);
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(
            patched > 0 && interleaved > 0,
            "patched {patched}, interleaved {interleaved}"
        );
    }

    #[test]
    fn a_certificate_dearer_than_a_full_pass_falls_back() {
        // A 3-ring (3 nodes, 3 edges) grows a chain of new nodes from one
        // ring node to the next.  Following a chain of 2 costs less than a
        // Tarjan pass over the old graph; following one of 10 costs more.
        for (len, expected) in [(2, Pass::Partial), (10, Pass::Fallback)] {
            let (mut g, nodes) = ring(3);
            let mut finder = IncrementalCycleFinder::new();
            finder.smallest_cycle_by(&g, NodeId::index);
            let chain: Vec<_> = (3..3 + len).map(|i| g.add_node(i)).collect();
            g.add_edge(nodes[0], chain[0], ());
            for pair in chain.windows(2) {
                g.add_edge(pair[0], pair[1], ());
            }
            g.add_edge(chain[len - 1], nodes[1], ());
            let (seen, edits, pass) = finder.sync(&g, None);
            assert_eq!(pass, expected, "chain of {len}");
            let found = finder.scan(seen, edits.as_ref(), NodeId::index);
            assert_eq!(found, smallest_cycle(&g), "chain of {len}");
        }
    }

    /// The length search over the whole node-id adjacency of `g`, with the
    /// nodes it expanded.
    fn length_of(g: &DiGraph<usize, ()>, start: NodeId, limit: usize) -> (Option<usize>, u64) {
        let graph = Csr::of_graph(g);
        let mut lengths = MeetWorkspace::default();
        let len = lengths.cycle_length(&graph, &graph.reversed(), start.index() as u32, limit);
        (len, lengths.visits)
    }

    /// A random graph with self-loops, 2-cycles, parallel edges and a tail
    /// of nodes that lie on no cycle.
    fn cycle_mix(rng: &mut noc_rng::SmallRng) -> DiGraph<usize, ()> {
        let n = rng.gen_range(1..14usize);
        let tail = rng.gen_range(0..4usize);
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n + tail).map(|i| g.add_node(i)).collect();
        for _ in 0..rng.gen_range(0..3 * n) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            g.add_edge(nodes[a], nodes[b], ());
            match rng.gen_range(0..8usize) {
                0 => drop(g.add_edge(nodes[a], nodes[a], ())),
                1 => drop(g.add_edge(nodes[b], nodes[a], ())),
                2 => drop(g.add_edge(nodes[a], nodes[b], ())),
                _ => {}
            }
        }
        // The tail hangs off the core and never leads back.
        for i in n..n + tail {
            let from = rng.gen_range(0..i);
            g.add_edge(nodes[from], nodes[i], ());
        }
        g
    }

    #[test]
    fn length_search_matches_the_canonical_bfs_at_every_limit() {
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x4D33);
        for case in 0..400 {
            let g = cycle_mix(&mut rng);
            for start in g.node_ids() {
                let shortest = shortest_cycle_through(&g, start).map(|c| c.len());
                let len = shortest.unwrap_or(g.node_count());
                let limits = [0, 1, 2, len.saturating_sub(1), len, len + 1, usize::MAX];
                for limit in limits {
                    let expected =
                        shortest_cycle_through_bounded(&g, start, limit).map(|c| c.len());
                    assert_eq!(
                        length_of(&g, start, limit).0,
                        expected,
                        "case {case}, start {start:?}, limit {limit}",
                    );
                }
            }
        }
    }

    #[test]
    fn length_search_stops_as_soon_as_the_stop_rule_allows() {
        // Both frontiers of a ring hold one node, so the search expands one
        // node per round: `L` rounds find the ring, `L - 1` rule it out.
        for n in 1..9 {
            let (g, nodes) = ring(n);
            assert_eq!(length_of(&g, nodes[0], usize::MAX), (Some(n), n as u64));
            assert_eq!(length_of(&g, nodes[0], n), (Some(n), n as u64));
            assert_eq!(length_of(&g, nodes[0], n - 1), (None, n as u64 - 1));
        }
        // A start off every cycle, with no successor: its forward frontier
        // empties in the first round and ends the search.
        let (mut g, nodes) = ring(3);
        let extra = g.add_node(3);
        g.add_edge(nodes[0], extra, ());
        assert_eq!(length_of(&g, extra, usize::MAX), (None, 1));
    }

    #[test]
    fn length_search_grows_the_smaller_frontier() {
        // Node 0 fans out to 1..=4, which all lead to 5, and 5 closes the
        // cycle back to 0.  After one forward round the forward frontier
        // holds four nodes and the backward one a single node, so the
        // search grows backward twice (from 0, then from 5) and meets on
        // the edges into 5: three nodes expanded, where a forward search
        // expands all six.
        let mut g: DiGraph<usize, ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|i| g.add_node(i)).collect();
        for i in 1..5 {
            g.add_edge(n[0], n[i], ());
            g.add_edge(n[i], n[5], ());
        }
        g.add_edge(n[5], n[0], ());
        assert_eq!(length_of(&g, n[0], usize::MAX), (Some(3), 3));
    }
}

//! Property-style tests for the graph substrate.
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so these properties are checked over a seeded stream of
//! random graphs from `noc-rng` — same properties, deterministic cases.

use noc_graph::{cycles, scc, DiGraph, NodeId};
use noc_rng::SmallRng;
use std::collections::VecDeque;

const CASES: u64 = 64;

/// A random directed graph with up to `max_nodes` nodes and `max_edges`
/// edges, drawn from `rng`.
fn random_graph(
    rng: &mut SmallRng,
    max_nodes: usize,
    max_edges: usize,
) -> (DiGraph<usize, ()>, Vec<NodeId>) {
    let n = rng.gen_range(2..max_nodes);
    let e = rng.gen_range(0..max_edges);
    let mut g = DiGraph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
    for _ in 0..e {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        g.add_edge(nodes[a], nodes[b], ());
    }
    (g, nodes)
}

/// Tarjan SCC partitions the node set: every node in exactly one component.
#[test]
fn scc_is_a_partition() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 30, 120);
        let n = g.node_count();
        let comps = scc::tarjan_scc(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, n);
        let mut seen = vec![false; n];
        for c in &comps {
            for node in c {
                assert!(!seen[node.index()]);
                seen[node.index()] = true;
            }
        }
    }
}

/// The two cycle oracles agree: Tarjan finds no cyclic component <=>
/// smallest_cycle returns None.
#[test]
fn cycle_oracles_agree() {
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 25, 80);
        assert_eq!(!scc::has_cycle(&g), cycles::smallest_cycle(&g).is_none());
    }
}

/// Any cycle returned is a real cycle: consecutive nodes are connected and
/// the last node connects back to the first.
#[test]
fn returned_cycle_is_valid() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 25, 80);
        if let Some(cycle) = cycles::smallest_cycle(&g) {
            assert!(!cycle.is_empty());
            for w in cycle.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
            assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]));
            // A smallest cycle visits each node at most once.
            let mut sorted = cycle.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), cycle.len());
        }
    }
}

/// Removing every edge of a found cycle makes that particular cycle
/// impossible (the graph may still have other cycles, but at least one
/// fewer).
#[test]
fn removing_cycle_edges_reduces_cycles() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for _ in 0..CASES {
        let (mut g, _) = random_graph(&mut rng, 15, 40);
        if let Some(cycle) = cycles::smallest_cycle(&g) {
            for i in 0..cycle.len() {
                let a = cycle[i];
                let b = cycle[(i + 1) % cycle.len()];
                while let Some(e) = g.find_edge(a, b) {
                    g.remove_edge(e);
                }
            }
            // The specific cycle cannot exist any more: at least one of its
            // consecutive pairs has no edge.
            let still_complete =
                (0..cycle.len()).all(|i| g.has_edge(cycle[i], cycle[(i + 1) % cycle.len()]));
            assert!(!still_complete);
        }
    }
}

/// The incremental finder must return exactly what the stateless global
/// search returns, across a randomized sequence of edge removals and
/// additions — the exactness contract the incremental deadlock-removal
/// loop relies on.
#[test]
fn incremental_finder_tracks_global_search_through_random_edits() {
    let mut rng = SmallRng::seed_from_u64(0xC1C1E);
    for _ in 0..CASES {
        let (mut g, nodes) = random_graph(&mut rng, 20, 50);
        let mut finder = cycles::IncrementalCycleFinder::new();
        for _ in 0..12 {
            assert_eq!(
                finder.smallest_cycle_by(&g, |v| v.index()),
                cycles::smallest_cycle(&g),
                "finder diverged from the global search"
            );
            // Random edit: remove a live edge or add a fresh one.
            if rng.gen_range(0..2_usize) == 0 {
                let live: Vec<_> = g.edges().map(|e| e.id).collect();
                if let Some(&id) = live.get(rng.gen_range(0..live.len().max(1))) {
                    g.remove_edge(id);
                }
            } else {
                let a = nodes[rng.gen_range(0..nodes.len())];
                let b = nodes[rng.gen_range(0..nodes.len())];
                g.add_edge(a, b, ());
            }
        }
    }
}

/// The paper's `GetSmallestCycle`, written without the library's search
/// code: an allocating BFS over the whole graph from every vertex, scanning
/// successors in ascending `rank`; the first edge back to the start closes
/// that vertex's shortest cycle, read off the BFS tree.  The smallest cycle
/// is the minimum by (length, rank of the start vertex).
fn reference_smallest_cycle<K: Ord>(
    g: &DiGraph<usize, ()>,
    rank: impl Fn(NodeId) -> K,
) -> Option<Vec<NodeId>> {
    let mut best: Option<Vec<NodeId>> = None;
    for start in g.node_ids() {
        let Some(cycle) = reference_cycle_through(g, start, &rank) else {
            continue;
        };
        let better = best
            .as_ref()
            .is_none_or(|b| (cycle.len(), rank(start)) < (b.len(), rank(b[0])));
        if better {
            best = Some(cycle);
        }
    }
    best
}

fn reference_cycle_through<K: Ord>(
    g: &DiGraph<usize, ()>,
    start: NodeId,
    rank: &impl Fn(NodeId) -> K,
) -> Option<Vec<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut visited = vec![false; g.node_count()];
    let mut queue = VecDeque::from([start]);
    visited[start.index()] = true;
    while let Some(node) = queue.pop_front() {
        let mut succs: Vec<NodeId> = g.successors(node).collect();
        succs.sort_by_key(|&s| rank(s));
        succs.dedup();
        for succ in succs {
            if succ == start {
                let mut path = vec![node];
                while let Some(p) = parent[path.last().unwrap().index()] {
                    path.push(p);
                }
                path.reverse();
                return Some(path);
            }
            if !visited[succ.index()] {
                visited[succ.index()] = true;
                parent[succ.index()] = Some(node);
                queue.push_back(succ);
            }
        }
    }
    None
}

/// A ring of 8 to 29 nodes with up to three random chords: sparse, with
/// long smallest cycles and several equal-length ones competing in the
/// tie-break.
fn chorded_ring(rng: &mut SmallRng) -> DiGraph<usize, ()> {
    let n = rng.gen_range(8..30_usize);
    let mut g = DiGraph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
    for i in 0..n {
        g.add_edge(nodes[i], nodes[(i + 1) % n], ());
    }
    for _ in 0..rng.gen_range(0..4_usize) {
        let a = nodes[rng.gen_range(0..n)];
        let b = nodes[rng.gen_range(0..n)];
        g.add_edge(a, b, ());
    }
    g
}

/// A directed k x l torus (edges right and down, wrapping) with a few
/// edges dropped: many equal-length paths, so the BFS tree decides which
/// of several equal-length cycles is reported.
fn sparse_torus(rng: &mut SmallRng) -> DiGraph<usize, ()> {
    let (k, l) = (rng.gen_range(2..6_usize), rng.gen_range(2..6_usize));
    let mut g = DiGraph::new();
    let nodes: Vec<_> = (0..k * l).map(|i| g.add_node(i)).collect();
    for i in 0..k {
        for j in 0..l {
            for (di, dj) in [(0, 1), (1, 0)] {
                if rng.gen_range(0..6_usize) != 0 {
                    let to = ((i + di) % k) * l + (j + dj) % l;
                    g.add_edge(nodes[i * l + j], nodes[to], ());
                }
            }
        }
    }
    g
}

/// An injective, non-identity ranking that stays defined as nodes are
/// added (odd multipliers permute `u64`).
fn scrambled(v: NodeId) -> u64 {
    (v.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `smallest_cycle` and `smallest_cycle_by` under a non-identity rank
/// equal the independent reference.
#[test]
fn smallest_cycle_matches_an_independent_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0AC1E);
    for case in 0..CASES {
        let g = match case % 3 {
            0 => random_graph(&mut rng, 30, 70).0,
            1 => chorded_ring(&mut rng),
            _ => sparse_torus(&mut rng),
        };
        assert_eq!(
            cycles::smallest_cycle(&g),
            reference_smallest_cycle(&g, NodeId::index)
        );
        assert_eq!(
            cycles::smallest_cycle_by(&g, scrambled),
            reference_smallest_cycle(&g, scrambled)
        );
    }
}

/// A finder driven through seeded edge removals, edge additions and node
/// additions, told nothing about the edits, equals the independent
/// reference after every one of them.  Chorded rings and sparse tori keep
/// the smallest cycle long, so the certified bounds skip most nodes.
#[test]
fn incremental_finder_matches_an_independent_reference_through_edits() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for case in 0..CASES {
        let mut g = match case % 3 {
            0 => random_graph(&mut rng, 30, 70).0,
            1 => chorded_ring(&mut rng),
            _ => sparse_torus(&mut rng),
        };
        let mut by_id = cycles::IncrementalCycleFinder::new();
        let mut by_scrambled = cycles::IncrementalCycleFinder::new();
        for _ in 0..16 {
            assert_eq!(
                by_id.smallest_cycle_by(&g, NodeId::index),
                reference_smallest_cycle(&g, NodeId::index)
            );
            assert_eq!(
                by_scrambled.smallest_cycle_by(&g, scrambled),
                reference_smallest_cycle(&g, scrambled)
            );
            let n = g.node_count();
            match rng.gen_range(0..5_usize) {
                0 | 1 => {
                    let live: Vec<_> = g.edges().map(|e| e.id).collect();
                    if !live.is_empty() {
                        g.remove_edge(live[rng.gen_range(0..live.len())]);
                    }
                }
                2 | 3 => {
                    let a = NodeId::from_index(rng.gen_range(0..n));
                    let b = NodeId::from_index(rng.gen_range(0..n));
                    g.add_edge(a, b, ());
                }
                _ => {
                    let fresh = g.add_node(n);
                    let a = NodeId::from_index(rng.gen_range(0..n));
                    let b = NodeId::from_index(rng.gen_range(0..n));
                    g.add_edge(a, fresh, ());
                    g.add_edge(fresh, b, ());
                }
            }
        }
    }
}

/// One finder, edited through a seeded sequence, follows a rank that
/// changes once partway through: every answer equals the independent
/// reference under the rank of the moment.
#[test]
fn incremental_finder_follows_a_rank_change_through_edits() {
    let other = |v: NodeId| u64::MAX - scrambled(v);
    let mut rng = SmallRng::seed_from_u64(0x2A4C);
    for case in 0..CASES {
        let mut g = match case % 3 {
            0 => random_graph(&mut rng, 30, 70).0,
            1 => chorded_ring(&mut rng),
            _ => sparse_torus(&mut rng),
        };
        let switch_at = rng.gen_range(1..12_usize);
        let mut finder = cycles::IncrementalCycleFinder::new();
        for step in 0..12 {
            if step < switch_at {
                assert_eq!(
                    finder.smallest_cycle_by(&g, scrambled),
                    reference_smallest_cycle(&g, scrambled),
                    "case {case}, step {step}"
                );
            } else {
                assert_eq!(
                    finder.smallest_cycle_by(&g, other),
                    reference_smallest_cycle(&g, other),
                    "case {case}, step {step}"
                );
            }
            let n = g.node_count();
            match rng.gen_range(0..3_usize) {
                0 => {
                    let live: Vec<_> = g.edges().map(|e| e.id).collect();
                    if !live.is_empty() {
                        g.remove_edge(live[rng.gen_range(0..live.len())]);
                    }
                }
                1 => {
                    let a = NodeId::from_index(rng.gen_range(0..n));
                    let b = NodeId::from_index(rng.gen_range(0..n));
                    g.add_edge(a, b, ());
                }
                _ => {
                    let fresh = g.add_node(n);
                    let a = NodeId::from_index(rng.gen_range(0..n));
                    let b = NodeId::from_index(rng.gen_range(0..n));
                    g.add_edge(a, fresh, ());
                    g.add_edge(fresh, b, ());
                }
            }
        }
    }
}

/// Rings of 4 to 9 nodes with a chord or two, joined by edges that run
/// only from a ring to a later one, so every ring is a component.
fn ring_chain(rng: &mut SmallRng) -> DiGraph<usize, ()> {
    let mut g = DiGraph::new();
    let mut previous: Vec<NodeId> = Vec::new();
    for _ in 0..rng.gen_range(2..5_usize) {
        let len = rng.gen_range(4..10_usize);
        let first = g.node_count();
        let nodes: Vec<_> = (first..first + len).map(|i| g.add_node(i)).collect();
        for i in 0..len {
            g.add_edge(nodes[i], nodes[(i + 1) % len], ());
        }
        for _ in 0..rng.gen_range(0..3_usize) {
            let a = nodes[rng.gen_range(0..len)];
            let b = nodes[rng.gen_range(0..len)];
            g.add_edge(a, b, ());
        }
        for _ in 0..rng.gen_range(1..4_usize).min(previous.len()) {
            let from = previous[rng.gen_range(0..previous.len())];
            g.add_edge(from, nodes[rng.gen_range(0..len)], ());
        }
        previous.extend(nodes);
    }
    g
}

/// Breaks `cycle` the way deadlock removal does and returns the copy map:
/// copies a segment of the cycle that ends at the tail of one of its edges,
/// moves the path through the segment onto the copies, and mostly drops
/// the edge out of the segment (a flow that stays behind may keep it).  A
/// few other edges at the segment move onto the copies as well.  Every
/// added edge maps onto an edge of the graph before the break.
fn break_like_edit(
    g: &mut DiGraph<usize, ()>,
    cycle: &[NodeId],
    rng: &mut SmallRng,
) -> Vec<(NodeId, NodeId)> {
    let len = cycle.len();
    let at = |i: usize| cycle[i % len];
    let (pos, cost) = (rng.gen_range(0..len), rng.gen_range(1..len + 1));
    // The segment in cycle order: it ends at `pos`, whose edge breaks.
    let first = pos + len - (cost - 1);
    let segment: Vec<NodeId> = (first..first + cost).map(at).collect();
    let old: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.source, e.target)).collect();
    let mut copies = Vec::with_capacity(cost);
    for &original in &segment {
        let copy = g.add_node(g.node_count());
        copies.push((copy, original));
    }
    let copy_of = |v: NodeId| copies.iter().find(|&&(_, o)| o == v).map(|&(c, _)| c);

    // The path pred -> segment -> next moves onto the copies.
    let pred = at(first + len - 1);
    g.add_edge(pred, copies[0].0, ());
    for pair in copies.windows(2) {
        g.add_edge(pair[0].0, pair[1].0, ());
    }
    g.add_edge(copies[cost - 1].0, at(pos + 1), ());
    if rng.gen_range(0..4_usize) != 0 {
        while let Some(edge) = g.find_edge(at(pos), at(pos + 1)) {
            g.remove_edge(edge);
        }
    }
    // Other edges at the segment: each end that was copied may move.
    for &(u, w) in &old {
        if rng.gen_range(0..3_usize) != 0 {
            continue;
        }
        let tail = copy_of(u).filter(|_| rng.gen_range(0..2_usize) == 0);
        let head = copy_of(w).filter(|_| rng.gen_range(0..2_usize) == 0);
        if tail.is_none() && head.is_none() {
            continue;
        }
        g.add_edge(tail.unwrap_or(u), head.unwrap_or(w), ());
        if rng.gen_range(0..2_usize) == 0 {
            if let Some(edge) = g.find_edge(u, w) {
                g.remove_edge(edge);
            }
        }
    }
    copies
}

/// A finder told that each edit only copied nodes answers exactly as the
/// stateless search and a finder told nothing do, through seeded loops of
/// break-like edits on ring chains, chorded rings and small tori, under
/// the identity rank and one that sorts copies between old nodes.
#[test]
fn declared_copies_keep_every_answer_through_break_like_edits() {
    let mut rng = SmallRng::seed_from_u64(0xC0B1E5);
    for case in 0..CASES {
        let mut g = match case % 3 {
            0 => ring_chain(&mut rng),
            1 => chorded_ring(&mut rng),
            _ => sparse_torus(&mut rng),
        };
        let rank = |v: NodeId| {
            if case % 2 == 0 {
                v.index() as u64
            } else {
                scrambled(v)
            }
        };
        let mut declared = cycles::IncrementalCycleFinder::new();
        let mut undeclared = cycles::IncrementalCycleFinder::new();
        let mut copies = Vec::new();
        for step in 0..12 {
            let expected = cycles::smallest_cycle_by(&g, rank);
            assert_eq!(
                declared.smallest_cycle_with_copies(&g, &copies, rank),
                expected,
                "case {case}, step {step}: declared"
            );
            assert_eq!(
                undeclared.smallest_cycle_by(&g, rank),
                expected,
                "case {case}, step {step}: undeclared"
            );
            let Some(cycle) = expected else {
                break;
            };
            copies = break_like_edit(&mut g, &cycle, &mut rng);
        }
    }
}

/// Debug builds check a declared copy map: an added edge whose image under
/// the map is no edge of the last query's graph panics.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "maps onto no edge")]
fn a_declared_copy_with_an_edge_onto_no_old_edge_panics() {
    let mut g: DiGraph<usize, ()> = DiGraph::new();
    let n: Vec<_> = (0..4).map(|i| g.add_node(i)).collect();
    for i in 0..4 {
        g.add_edge(n[i], n[(i + 1) % 4], ());
    }
    let mut finder = cycles::IncrementalCycleFinder::new();
    assert!(finder.smallest_cycle_by(&g, NodeId::index).is_some());
    // The copy of n[0] gets an edge to n[2], but n[0] -> n[2] is no edge.
    let copy = g.add_node(4);
    g.add_edge(n[3], copy, ());
    g.add_edge(copy, n[2], ());
    finder.smallest_cycle_with_copies(&g, &[(copy, n[0])], NodeId::index);
}

/// Edges added with no word to the finder never change its answer: it
/// finds every edit in the graph's edge arena by itself.
#[test]
fn incremental_finder_is_exact_even_without_dirty_hints() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for _ in 0..CASES {
        let (mut g, nodes) = random_graph(&mut rng, 15, 35);
        let mut finder = cycles::IncrementalCycleFinder::new();
        for _ in 0..8 {
            assert_eq!(
                finder.smallest_cycle_by(&g, |v| v.index()),
                cycles::smallest_cycle(&g),
            );
            // Edit without telling the finder anything.
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            g.add_edge(a, b, ());
        }
    }
}

/// The bounded per-node search agrees with the unbounded one whenever the
/// true cycle fits the bound, and finds nothing when it does not.
#[test]
fn bounded_cycle_search_is_consistent_with_unbounded() {
    let mut rng = SmallRng::seed_from_u64(0xB0BB);
    for _ in 0..CASES {
        let (g, nodes) = random_graph(&mut rng, 18, 45);
        for &v in &nodes {
            let full = cycles::shortest_cycle_through(&g, v);
            match &full {
                Some(cycle) => {
                    assert_eq!(
                        cycles::shortest_cycle_through_bounded(&g, v, cycle.len()).as_ref(),
                        Some(cycle),
                    );
                    if cycle.len() > 1 {
                        assert_eq!(
                            cycles::shortest_cycle_through_bounded(&g, v, cycle.len() - 1),
                            None,
                        );
                    }
                }
                None => {
                    assert_eq!(
                        cycles::shortest_cycle_through_bounded(&g, v, usize::MAX),
                        None,
                    );
                }
            }
        }
    }
}

/// A random graph with self-loops, 2-cycles, parallel edges and a tail of
/// nodes that lie on no cycle.
fn cycle_mix(rng: &mut SmallRng) -> DiGraph<usize, ()> {
    let n = rng.gen_range(1..16_usize);
    let tail = rng.gen_range(0..4_usize);
    let mut g = DiGraph::new();
    let nodes: Vec<_> = (0..n + tail).map(|i| g.add_node(i)).collect();
    for _ in 0..rng.gen_range(0..3 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        g.add_edge(nodes[a], nodes[b], ());
        match rng.gen_range(0..8_usize) {
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

/// Every node in turn ranks first, so a fresh finder's first per-node
/// search is that node's length search with no limit, and the searches
/// after it run under the cap it sets; a second query searches past the
/// cap from certified bounds, and a third follows the removal of the
/// answer's closing edge.  Every answer equals the independent reference,
/// and the first-ranked node is reported exactly when the canonical BFS
/// from it finds a cycle of the smallest length.
#[test]
fn finder_decides_every_first_ranked_node_like_the_canonical_bfs() {
    let mut rng = SmallRng::seed_from_u64(0x3EE7);
    for case in 0..CASES {
        let graph = cycle_mix(&mut rng);
        for first in graph.node_ids() {
            let rank = |v: NodeId| (v != first, v.index());
            let through = cycles::shortest_cycle_through_bounded(&graph, first, usize::MAX)
                .map(|cycle| cycle.len());
            let mut g = graph.clone();
            let mut finder = cycles::IncrementalCycleFinder::new();
            for query in 0..3 {
                let expected = reference_smallest_cycle(&g, rank);
                let found = finder.smallest_cycle_by(&g, rank);
                assert_eq!(
                    found, expected,
                    "case {case}, first {first:?}, query {query}"
                );
                let Some(cycle) = found else {
                    break;
                };
                if query < 2 {
                    assert_eq!(cycle[0] == first, through == Some(cycle.len()));
                }
                if query == 1 {
                    let closing = g.find_edge(*cycle.last().unwrap(), cycle[0]).unwrap();
                    g.remove_edge(closing);
                }
            }
        }
    }
}

/// The iterative Tarjan the SCC kernel replaced, kept as the
/// reference for component order: on every resume it re-collects the node's
/// successors, and at the end it re-scans them to fold child lowlinks.
fn reference_tarjan_scc(graph: &DiGraph<usize, ()>) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    enum Frame {
        Enter(NodeId),
        Continue(NodeId, usize),
    }

    for start in graph.node_ids() {
        if index[start.index()] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v.index()] = next_index;
                    lowlink[v.index()] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v.index()] = true;
                    call_stack.push(Frame::Continue(v, 0));
                }
                Frame::Continue(v, succ_pos) => {
                    let succs: Vec<NodeId> = graph.successors(v).collect();
                    let mut pos = succ_pos;
                    let mut descended = false;
                    while pos < succs.len() {
                        let w = succs[pos];
                        if index[w.index()] == usize::MAX {
                            call_stack.push(Frame::Continue(v, pos));
                            call_stack.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w.index()] {
                            lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                        }
                        pos += 1;
                    }
                    if descended {
                        continue;
                    }
                    for &w in &succs {
                        if on_stack[w.index()] {
                            lowlink[v.index()] = lowlink[v.index()].min(lowlink[w.index()]);
                        }
                    }
                    if lowlink[v.index()] == index[v.index()] {
                        let mut component = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w.index()] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.push(component);
                    }
                }
            }
        }
    }
    components
}

/// The SCC kernel reports exactly what the Tarjan it replaced reported:
/// the same components, in the same order, each with its members in the
/// same order, on graphs with self-loops, parallel edges and removed edges;
/// and the cyclic views agree.
#[test]
fn scc_kernel_matches_the_reference_tarjan_exactly() {
    let mut rng = SmallRng::seed_from_u64(0x7A21A);
    for case in 0..256 {
        let (mut g, nodes) = random_graph(&mut rng, 40, 120);
        for _ in 0..rng.gen_range(0..4_usize) {
            let v = nodes[rng.gen_range(0..nodes.len())];
            g.add_edge(v, v, ());
        }
        let live: Vec<_> = g.edges().map(|e| (e.id, e.source, e.target)).collect();
        for &(id, source, target) in &live {
            match rng.gen_range(0..6_usize) {
                0 => {
                    g.remove_edge(id);
                }
                1 => {
                    g.add_edge(source, target, ());
                }
                _ => {}
            }
        }
        let expected = reference_tarjan_scc(&g);
        assert_eq!(scc::tarjan_scc(&g), expected, "case {case}");

        let cyclic: Vec<Vec<NodeId>> = expected
            .iter()
            .filter(|c| c.len() > 1 || g.has_edge(c[0], c[0]))
            .cloned()
            .collect();
        assert_eq!(scc::cyclic_components(&g), cyclic, "case {case}");
        assert_eq!(scc::has_cycle(&g), !cyclic.is_empty(), "case {case}");
        let components = scc::components(&g);
        for (id, members) in expected.iter().enumerate() {
            for &node in members {
                assert_eq!(components.component_of(node), id, "case {case}");
            }
        }
    }
}

/// The kernel keeps its DFS on the heap: a 200k-node path (200k trivial
/// components, the sink first) and a 200k-node ring (one component) run
/// without touching the call stack's depth.
#[test]
fn scc_kernel_handles_200k_deep_paths_and_rings() {
    const N: usize = 200_000;
    let mut g: DiGraph<(), ()> = DiGraph::with_capacity(N, N);
    let nodes: Vec<NodeId> = (0..N).map(|_| g.add_node(())).collect();
    for pair in nodes.windows(2) {
        g.add_edge(pair[0], pair[1], ());
    }
    let sink_first: Vec<Vec<NodeId>> = nodes.iter().rev().map(|&n| vec![n]).collect();
    assert_eq!(scc::tarjan_scc(&g), sink_first);
    assert!(!scc::has_cycle(&g));

    g.add_edge(nodes[N - 1], nodes[0], ());
    let ring = scc::tarjan_scc(&g);
    assert_eq!(ring.len(), 1);
    assert_eq!(ring[0].len(), N);
    assert!(scc::has_cycle(&g));
}

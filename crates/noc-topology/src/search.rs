//! Per-source path search over a topology, shared by design validation and
//! shortest-path routing.
//!
//! Both callers ask the same question for every flow — is there a path from
//! the flow's source switch to its destination switch, and which one is
//! cheapest — so both hand their flows to [`for_each_source`], which runs
//! one search per distinct source switch on one reusable workspace
//! ([`SourceSearch`]).  A call therefore holds O(switches + flows) memory
//! however many sources it searches from, and each search stops as soon as
//! its last destination is settled.
//!
//! [`LinkCost::Hops`] (every link costs 1) searches by level-order BFS, in
//! O(switches + links) per source; every other cost model runs Dijkstra on a
//! binary heap.  Both settle switches in the same (distance, index) order,
//! so they report the same paths (see [`SourceSearch`]).

use crate::ids::{LinkId, SwitchId};
use crate::topology::{Link, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost model for link selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkCost {
    /// Every link costs 1: pure hop-count minimisation.
    #[default]
    Hops,
    /// Link cost is inversely proportional to its bandwidth, so wide links
    /// are preferred.
    InverseBandwidth,
}

impl LinkCost {
    /// The integer cost of `link` under this model.
    pub fn of(self, link: &Link) -> u64 {
        match self {
            LinkCost::Hops => 1,
            // Map bandwidth to an integer cost; wider links cost less.
            LinkCost::InverseBandwidth => (1_000_000.0 / link.bandwidth.max(1e-6)).round() as u64,
        }
    }
}

/// Runs one search per distinct source switch of the flows that enter the
/// network (`endpoints[f]` is flow `f`'s `(source, destination)` switch
/// pair; same-switch flows are skipped), weighing links by `cost`, and
/// hands each source's flows, in flow order, to `visit` together with the
/// finished search.  Sources are visited in ascending switch order.
pub fn for_each_source(
    topology: &Topology,
    endpoints: &[(SwitchId, SwitchId)],
    cost: LinkCost,
    mut visit: impl FnMut(&SourceSearch, &[usize]),
) {
    // A stable sort keeps flow order within each source.
    let mut by_source: Vec<usize> = (0..endpoints.len())
        .filter(|&f| endpoints[f].0 != endpoints[f].1)
        .collect();
    by_source.sort_by_key(|&f| endpoints[f].0);
    let mut search = SourceSearch::default();
    for flows in by_source.chunk_by(|&a, &b| endpoints[a].0 == endpoints[b].0) {
        let targets = flows.iter().map(|&f| endpoints[f].1);
        search.run(topology, endpoints[flows[0]].0, targets, cost);
        visit(&search, flows);
    }
}

/// A reusable single-source search over a topology's out-link lists, as
/// run by [`for_each_source`]; its arrays grow to the largest topology it
/// has searched.
///
/// Every per-switch array is stamped with the epoch of the search that
/// wrote it, so starting a new search costs O(1), not O(switches).  Links
/// are relaxed in ascending [`LinkId`] order, a parent changes only on a
/// strictly shorter distance, and switches are settled in (distance, index)
/// order.  A settled switch's distance and parent link are therefore final,
/// which is what lets a search stop once every requested target
/// is settled: the paths it reports are exactly those a search run to
/// exhaustion would report.
///
/// Under [`LinkCost::InverseBandwidth`] a binary heap yields that settle
/// order.  Under [`LinkCost::Hops`] a level-order BFS yields the same one
/// without a heap: every switch at distance d + 1 is first reached while
/// the switches at distance d are settled, so sorting each newly found
/// level by switch index before settling it reproduces the heap's
/// (distance, index) order.  A later reach is never strictly shorter, so a
/// switch's parent is the first link, in ascending id order, out of the
/// lowest-index switch one level up — the same parent the heap keeps.
#[derive(Debug, Clone, Default)]
pub struct SourceSearch {
    epoch: u32,
    /// `reached[s] == epoch`: switch `s` has a tentative or final distance.
    reached: Vec<u32>,
    /// `pending[s] == epoch`: switch `s` is a target not settled yet.
    pending: Vec<u32>,
    /// Tentative distances (heap search only).
    dist: Vec<u64>,
    /// The link a reached switch (other than the source) was entered by.
    parent: Vec<LinkId>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Reached switches in settle order, one level after another (BFS only).
    frontier: Vec<usize>,
    source: usize,
}

impl SourceSearch {
    /// Searches from `source`, weighing each link by `cost`, and stops once
    /// every switch of `targets` is settled (or nothing more is reachable).
    /// A `source` outside the topology reaches nothing.
    fn run(
        &mut self,
        topology: &Topology,
        source: SwitchId,
        targets: impl IntoIterator<Item = SwitchId>,
        cost: LinkCost,
    ) {
        let n = topology.switch_count();
        if self.reached.len() < n {
            self.reached.resize(n, 0);
            self.pending.resize(n, 0);
            self.parent.resize(n, LinkId::from_index(0));
        }
        if self.epoch == u32::MAX {
            self.reached.fill(0);
            self.pending.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.source = source.index();
        let mut remaining = 0usize;
        for target in targets {
            let t = target.index();
            if t < n && self.pending[t] != self.epoch {
                self.pending[t] = self.epoch;
                remaining += 1;
            }
        }
        if self.source < n {
            self.reached[self.source] = self.epoch;
            match cost {
                LinkCost::Hops => self.settle_levels(topology, remaining),
                LinkCost::InverseBandwidth => self.settle_by_heap(topology, remaining, cost),
            }
        }
    }

    /// Settles switch `idx`: `true` when it was the last pending target.
    fn settle(&mut self, idx: usize, remaining: &mut usize) -> bool {
        if self.pending[idx] != self.epoch {
            return false;
        }
        self.pending[idx] = 0;
        *remaining -= 1;
        *remaining == 0
    }

    /// Unit-cost search: a BFS that settles each level in ascending switch
    /// index, the heap's (distance, index) order.
    fn settle_levels(&mut self, topology: &Topology, mut remaining: usize) {
        let epoch = self.epoch;
        self.frontier.clear();
        self.frontier.push(self.source);
        let mut level = 0;
        while level < self.frontier.len() {
            let end = self.frontier.len();
            self.frontier[level..end].sort_unstable();
            for i in level..end {
                let idx = self.frontier[i];
                if self.settle(idx, &mut remaining) {
                    return;
                }
                for (id, link) in topology.links_from(SwitchId::from_index(idx)) {
                    let next = link.target.index();
                    if self.reached[next] != epoch {
                        self.reached[next] = epoch;
                        self.parent[next] = id;
                        self.frontier.push(next);
                    }
                }
            }
            level = end;
        }
    }

    /// Dijkstra on a binary heap, for costs that differ between links.
    fn settle_by_heap(&mut self, topology: &Topology, mut remaining: usize, cost: LinkCost) {
        let epoch = self.epoch;
        if self.dist.len() < self.reached.len() {
            self.dist.resize(self.reached.len(), 0);
        }
        self.heap.clear();
        self.dist[self.source] = 0;
        self.heap.push(Reverse((0, self.source)));
        while let Some(Reverse((d, idx))) = self.heap.pop() {
            if self.dist[idx] != d {
                continue; // stale entry
            }
            if self.settle(idx, &mut remaining) {
                return;
            }
            for (id, link) in topology.links_from(SwitchId::from_index(idx)) {
                let next = link.target.index();
                let nd = d.saturating_add(cost.of(link));
                if self.reached[next] != epoch || nd < self.dist[next] {
                    self.reached[next] = epoch;
                    self.dist[next] = nd;
                    self.parent[next] = id;
                    self.heap.push(Reverse((nd, next)));
                }
            }
        }
    }

    /// `true` when the last search reached `switch`.  After an
    /// early stop this is exact for the run's targets (and the switches
    /// settled before them), which is all a caller may ask about.
    pub(crate) fn reached(&self, switch: SwitchId) -> bool {
        self.reached.get(switch.index()) == Some(&self.epoch)
    }

    /// Writes the link path of the last run from its source to `target`
    /// into `path` (cleared first; empty for the source itself).  Returns
    /// `false`, leaving `path` empty, when `target` was not reached.
    pub fn path_into(&self, topology: &Topology, target: SwitchId, path: &mut Vec<LinkId>) -> bool {
        path.clear();
        if !self.reached(target) {
            return false;
        }
        let mut cur = target.index();
        while cur != self.source {
            let link = self.parent[cur];
            path.push(link);
            cur = topology
                .link(link)
                .expect("parent links belong to the searched topology")
                .source
                .index();
        }
        path.reverse();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn early_stop_reports_the_exhaustive_paths() {
        let generated = generators::torus2d(4, 5, 1.0);
        let topo = &generated.topology;
        let mut full = SourceSearch::default();
        let mut early = SourceSearch::default();
        let all: Vec<SwitchId> = generated.switches.clone();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &src in &all {
            full.run(topo, src, all.iter().copied(), LinkCost::Hops);
            for &dst in &all {
                early.run(topo, src, [dst], LinkCost::Hops);
                assert!(full.path_into(topo, dst, &mut a));
                assert!(early.path_into(topo, dst, &mut b));
                assert_eq!(a, b, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn unreachable_and_unknown_switches_are_not_reached() {
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        t.add_link(s0, s1, 1.0);
        let mut search = SourceSearch::default();
        let mut path = Vec::new();
        search.run(&t, s0, [s1, s2, SwitchId::from_index(7)], LinkCost::Hops);
        assert!(search.path_into(&t, s1, &mut path));
        assert_eq!(path, vec![LinkId::from_index(0)]);
        assert!(!search.path_into(&t, s2, &mut path));
        assert!(!search.reached(SwitchId::from_index(7)));
        search.run(&t, SwitchId::from_index(5), [s0], LinkCost::Hops);
        assert!(!search.reached(s0));
        assert!(!SourceSearch::default().reached(s0));
    }
}

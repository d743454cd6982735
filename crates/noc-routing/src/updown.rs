//! Up*/down* routing.
//!
//! A classic deadlock-free routing scheme for arbitrary topologies: a
//! spanning tree is built from a root switch, every link is labelled *up*
//! (towards the root) or *down* (away from it), and a legal route never
//! traverses an *up* link after a *down* link.  Because the up→down order is
//! a partial order on channels, the resulting CDG is acyclic.
//!
//! The suite uses it both as an alternative input-routing function (the
//! paper's method accepts any routing function) and as a sanity check that
//! the deadlock-removal algorithm adds zero VCs to already-safe routings.

use crate::route::{Route, RouteSet};
use crate::validate::RouteError;
use noc_topology::{CommGraph, CoreMap, FaultSet, LinkId, SwitchId, Topology};
use std::collections::VecDeque;

/// The up/down labelling of a topology's links relative to a BFS spanning
/// tree rooted at the switch it was built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpDownLabels {
    /// BFS level of every switch (root = 0).
    level: Vec<Option<usize>>,
}

/// Direction of a link under the up*/down* labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// Towards the root (to a strictly smaller level, or same level with a
    /// smaller switch index).
    Up,
    /// Away from the root.
    Down,
}

impl UpDownLabels {
    /// Builds the labelling with a BFS spanning tree rooted at `root`.
    ///
    /// Switches unreachable from the root (ignoring direction) get no level;
    /// routes touching them are rejected later.
    pub fn new(topology: &Topology, root: SwitchId) -> Self {
        Self::build(topology, root, None)
    }

    /// Builds the labelling over the fabric that survives `faults`: the BFS
    /// spans only [usable](FaultSet::link_usable) links, so failed regions
    /// get no level and routes into them are rejected.  The root must be an
    /// up switch for the labelling to cover anything.
    pub fn surviving(topology: &Topology, root: SwitchId, faults: &FaultSet) -> Self {
        Self::build(topology, root, Some(faults))
    }

    fn build(topology: &Topology, root: SwitchId, faults: Option<&FaultSet>) -> Self {
        let usable = |link: LinkId| faults.is_none_or(|f| f.link_usable(topology, link));
        let mut level = vec![None; topology.switch_count()];
        let root_up = faults.is_none_or(|f| f.switch_up(root));
        if root.index() < topology.switch_count() && root_up {
            level[root.index()] = Some(0);
            let mut queue = VecDeque::from([root]);
            while let Some(sw) = queue.pop_front() {
                let here = level[sw.index()].expect("queued switches have levels");
                let neighbors = topology
                    .links_from(sw)
                    .filter(|&(id, _)| usable(id))
                    .map(|(_, l)| l.target)
                    .chain(
                        topology
                            .links_to(sw)
                            .filter(|&(id, _)| usable(id))
                            .map(|(_, l)| l.source),
                    );
                for n in neighbors {
                    if level[n.index()].is_none() {
                        level[n.index()] = Some(here + 1);
                        queue.push_back(n);
                    }
                }
            }
        }
        UpDownLabels { level }
    }

    /// BFS level of a switch (0 for the root), or `None` if unreachable.
    fn level(&self, switch: SwitchId) -> Option<usize> {
        self.level.get(switch.index()).copied().flatten()
    }

    /// Direction of the link `source -> target`, or `None` if either switch
    /// is unreachable from the root.
    pub fn direction(&self, topology: &Topology, link: LinkId) -> Option<LinkDirection> {
        let l = topology.link(link)?;
        let ls = self.level(l.source)?;
        let lt = self.level(l.target)?;
        Some(
            if lt < ls || (lt == ls && l.target.index() < l.source.index()) {
                LinkDirection::Up
            } else {
                LinkDirection::Down
            },
        )
    }
}

/// Routes every flow with up*/down* routing relative to a BFS tree rooted at
/// `root`.
///
/// The route search is a BFS over `(switch, phase)` states where the phase
/// records whether a *down* link has already been taken; this finds a
/// shortest route among the legal up*/down* routes.  It runs once per
/// distinct source switch ([`updown_routes`]).
///
/// # Errors
///
/// The first failing flow, in flow order, decides the error:
///
/// * [`RouteError::Topology`] if a core is unmapped.
/// * [`RouteError::Unroutable`] if no legal up*/down* route exists (e.g. the
///   topology is not physically connected, or is directed in a way that
///   breaks tree reachability).
pub fn route_all_updown(
    topology: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
    root: SwitchId,
) -> Result<RouteSet, RouteError> {
    let labels = UpDownLabels::new(topology, root);
    let mut routes = RouteSet::new(comm.flow_count());
    // Flows up to the first unmapped one, with their switch pairs.
    let mut routed = Vec::new();
    let mut unmapped = None;
    for (flow_id, flow) in comm.flows() {
        let ends = map
            .require(flow.source)
            .and_then(|src| Ok((src, map.require(flow.destination)?)));
        match ends {
            Ok((src, dst)) if src == dst => routes.set_route(flow_id, Route::empty()),
            Ok(pair) => routed.push((flow_id, pair)),
            Err(error) => {
                unmapped = Some(error);
                break;
            }
        }
    }
    let pairs: Vec<(SwitchId, SwitchId)> = routed.iter().map(|&(_, pair)| pair).collect();
    for ((flow, (from, to)), links) in routed
        .into_iter()
        .zip(updown_routes(topology, &labels, &pairs))
    {
        let links = links.ok_or(RouteError::Unroutable { flow, from, to })?;
        routes.set_route(flow, Route::from_links(links));
    }
    match unmapped {
        Some(error) => Err(error.into()),
        None => Ok(routes),
    }
}

/// The shortest legal up*/down* route of every `(src, dst)` pair under
/// `labels`, as link lists in `pairs`' order; `None` where no legal route
/// exists.  One [`UpDownTree`] per distinct source answers all of that
/// source's pairs.
///
/// This is the batch search behind [`route_all_updown`], exposed for
/// callers that re-route some flows onto the up*/down* subgraph (e.g.
/// recovery-based deadlock reconfiguration, which drains the flows of a
/// cyclic dependency region and moves only those onto up*/down* paths).
pub fn updown_routes(
    topology: &Topology,
    labels: &UpDownLabels,
    pairs: &[(SwitchId, SwitchId)],
) -> Vec<Option<Vec<LinkId>>> {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| pairs[i].0);
    let mut routes = vec![None; pairs.len()];
    for group in order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0) {
        let tree = UpDownTree::new(topology, labels, pairs[group[0]].0);
        for &i in group {
            routes[i] = tree.route_to(pairs[i].1);
        }
    }
    routes
}

/// The shortest legal up*/down* routes from one source switch to every
/// switch: one BFS over `(switch, has_gone_down)` states respecting the
/// up*/down* rule.
///
/// The route to a destination is the one to the first of its states the
/// search discovers.  A search for that destination alone would pop exactly
/// that state first and stop there, so both give the same route; the tree
/// answers every destination of the source from one search.
#[derive(Debug, Clone)]
pub struct UpDownTree {
    /// Per state `2 * switch + phase` (phase 0 = still allowed to go up,
    /// 1 = down only): the state it was discovered from and the link taken.
    /// `None` for the source state and for undiscovered states.
    parent: Vec<Option<(usize, LinkId)>>,
    /// Per switch: the first of its states the search discovered.
    first: Vec<Option<usize>>,
}

impl UpDownTree {
    /// Searches every up*/down* route from `src` under `labels`.
    pub fn new(topology: &Topology, labels: &UpDownLabels, src: SwitchId) -> Self {
        Self::search(topology, labels, src, None)
    }

    /// [`new`](Self::new) over the fabric surviving `faults`: only
    /// [usable](FaultSet::link_usable) links are traversed.  Pair it with
    /// [`UpDownLabels::surviving`] built on the same fault set — labels from
    /// the intact fabric may label a route legal that detours through a
    /// failed region.
    pub fn avoiding(
        topology: &Topology,
        labels: &UpDownLabels,
        src: SwitchId,
        faults: &FaultSet,
    ) -> Self {
        Self::search(topology, labels, src, Some(faults))
    }

    fn search(
        topology: &Topology,
        labels: &UpDownLabels,
        src: SwitchId,
        faults: Option<&FaultSet>,
    ) -> Self {
        let n = topology.switch_count();
        let mut tree = UpDownTree {
            parent: vec![None; 2 * n],
            first: vec![None; n],
        };
        let root = 2 * src.index();
        tree.first[src.index()] = Some(root);
        // Discovery order is pop order: the queue is a list with a cursor.
        let mut queue = vec![root];
        let mut head = 0;
        while let Some(&state) = queue.get(head) {
            head += 1;
            let (sw, phase) = (SwitchId::from_index(state / 2), state % 2);
            for (link_id, link) in topology.links_from(sw) {
                if !faults.is_none_or(|f| f.link_usable(topology, link_id)) {
                    continue;
                }
                let Some(dir) = labels.direction(topology, link_id) else {
                    continue;
                };
                let next_phase = match (phase, dir) {
                    (_, LinkDirection::Down) => 1,
                    (0, LinkDirection::Up) => 0,
                    _ => continue, // illegal down→up turn
                };
                let next = 2 * link.target.index() + next_phase;
                if next != root && tree.parent[next].is_none() {
                    tree.parent[next] = Some((state, link_id));
                    tree.first[link.target.index()].get_or_insert(next);
                    queue.push(next);
                }
            }
        }
        tree
    }

    /// The shortest legal route to `dst` as a link list, or `None` when no
    /// legal route exists (the signal the simulator's fault epochs turn into
    /// a typed `Unreachable` outcome).  The source itself yields an empty
    /// route.
    pub fn route_to(&self, dst: SwitchId) -> Option<Vec<LinkId>> {
        let mut state = (*self.first.get(dst.index())?)?;
        let mut links = Vec::new();
        while let Some((prev, link)) = self.parent[state] {
            links.push(link);
            state = prev;
        }
        links.reverse();
        Some(links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_routes;
    use noc_topology::{generators, CommGraph, CoreMap, FlowId};

    fn all_to_all_design(
        generated: noc_topology::generators::Generated,
    ) -> (Topology, CommGraph, CoreMap) {
        let n = generated.switches.len();
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    comm.add_flow(cores[i], cores[j], 5.0);
                }
            }
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        (generated.topology, comm, map)
    }

    #[test]
    fn updown_routes_a_mesh_completely_and_validly() {
        let (t, c, m) = all_to_all_design(generators::mesh2d(3, 3, 1.0));
        let routes = route_all_updown(&t, &c, &m, SwitchId::from_index(0)).unwrap();
        validate_routes(&t, &c, &m, &routes).unwrap();
        for (fid, _) in c.flows() {
            assert!(!routes.route(fid).unwrap().is_empty());
        }
    }

    #[test]
    fn no_route_ever_turns_from_down_to_up() {
        let (t, c, m) = all_to_all_design(generators::bidirectional_ring(6, 1.0));
        let root = SwitchId::from_index(0);
        let labels = UpDownLabels::new(&t, root);
        let routes = route_all_updown(&t, &c, &m, root).unwrap();
        for (_, route) in routes.iter() {
            let mut gone_down = false;
            for link in route.links() {
                match labels.direction(&t, link).unwrap() {
                    LinkDirection::Down => gone_down = true,
                    LinkDirection::Up => assert!(!gone_down, "illegal down→up turn"),
                }
            }
        }
    }

    #[test]
    fn levels_follow_bfs_distance() {
        let generated = generators::chain(4, 1.0);
        let labels = UpDownLabels::new(&generated.topology, generated.switches[0]);
        for (i, &sw) in generated.switches.iter().enumerate() {
            assert_eq!(labels.level(sw), Some(i));
        }
    }

    #[test]
    fn updown_route_finds_legal_paths_and_reports_dead_ends() {
        // Unidirectional 4-ring, tree rooted at SW0: the only physical path
        // SW1 -> SW3 (1→2→3) turns down→up, so no legal route exists, while
        // SW0 -> SW2 (0→1→2) is all-down and legal.
        let mut t = Topology::new();
        let sw: Vec<_> = (0..4).map(|i| t.add_switch(format!("s{i}"))).collect();
        for i in 0..4 {
            t.add_link(sw[i], sw[(i + 1) % 4], 1.0);
        }
        let labels = UpDownLabels::new(&t, sw[0]);
        let route = |src: SwitchId, dst| UpDownTree::new(&t, &labels, src).route_to(dst);
        let legal = route(sw[0], sw[2]).unwrap();
        assert_eq!(legal.len(), 2);
        assert!(route(sw[1], sw[3]).is_none());
        assert_eq!(route(sw[2], sw[2]), Some(Vec::new()));
    }

    #[test]
    fn disconnected_switch_is_unroutable() {
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        let f = comm.add_flow(a, b, 1.0);
        let mut map = CoreMap::new(2);
        map.assign(a, s0).unwrap();
        map.assign(b, s1).unwrap();
        let err = route_all_updown(&t, &comm, &map, s0).unwrap_err();
        assert!(matches!(err, RouteError::Unroutable { flow, .. } if flow == f));
    }

    #[test]
    fn updown_route_can_be_longer_than_shortest() {
        // On a ring, up*/down* cannot use the link crossing the "top" of the
        // tree in both directions, so some routes are non-minimal — but all
        // flows must still be routable.
        let (t, c, m) = all_to_all_design(generators::bidirectional_ring(8, 1.0));
        let routes = route_all_updown(&t, &c, &m, SwitchId::from_index(0)).unwrap();
        let shortest = crate::shortest::route_all_shortest(&t, &c, &m).unwrap();
        let mut some_longer = false;
        for (fid, _) in c.flows() {
            let ud = routes.route(fid).unwrap().hop_count();
            let sp = shortest.route(fid).unwrap().hop_count();
            assert!(ud >= sp);
            if ud > sp {
                some_longer = true;
            }
        }
        assert!(
            some_longer,
            "up*/down* on a ring should detour at least once"
        );
        let _ = FlowId::from_index(0);
    }

    #[test]
    fn surviving_labels_route_around_failed_links() {
        use noc_topology::FaultSet;
        // Bidirectional 6-ring with the 0-1 segment failed in both
        // directions: every pair is still reachable the long way around,
        // and no surviving route touches the failed links.
        let generated = generators::bidirectional_ring(6, 1.0);
        let t = generated.topology;
        let sw = generated.switches;
        let mut faults = FaultSet::new(&t);
        let fwd = t.find_link(sw[0], sw[1]).unwrap();
        let back = t.find_link(sw[1], sw[0]).unwrap();
        faults.fail_link_pair(&t, fwd);
        let labels = UpDownLabels::surviving(&t, sw[0], &faults);
        for &src in &sw {
            let tree = UpDownTree::avoiding(&t, &labels, src, &faults);
            for &dst in &sw {
                let route = tree
                    .route_to(dst)
                    .unwrap_or_else(|| panic!("{src} -> {dst} must survive one dead segment"));
                assert!(!route.contains(&fwd) && !route.contains(&back));
            }
        }
        // The intact-fabric search would happily use the dead segment.
        let intact = UpDownLabels::new(&t, sw[0]);
        let through = UpDownTree::new(&t, &intact, sw[0]).route_to(sw[1]).unwrap();
        assert_eq!(through, vec![fwd]);
    }

    #[test]
    fn surviving_labels_skip_failed_switches_and_partitions() {
        use noc_topology::FaultSet;
        // Chain 0-1-2-3 with switch 1 failed: 0 is cut off from {2, 3}.
        let generated = generators::chain(4, 1.0);
        let t = generated.topology;
        let sw = generated.switches;
        let mut faults = FaultSet::new(&t);
        faults.fail_switch(sw[1]);
        let labels = UpDownLabels::surviving(&t, sw[2], &faults);
        assert_eq!(labels.level(sw[1]), None, "failed switches get no level");
        assert_eq!(labels.level(sw[0]), None, "0 is unreachable past the hole");
        let tree = UpDownTree::avoiding(&t, &labels, sw[2], &faults);
        assert!(tree.route_to(sw[0]).is_none());
        assert!(tree.route_to(sw[3]).is_some());
        // A root that is itself failed labels nothing.
        let dead_root = UpDownLabels::surviving(&t, sw[1], &faults);
        assert_eq!(dead_root.level(sw[1]), None);
        assert_eq!(dead_root.level(sw[2]), None);
    }
}

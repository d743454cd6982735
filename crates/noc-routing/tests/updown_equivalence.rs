//! The per-source up*/down* search gives every pair the route of a search
//! for that pair alone.
//!
//! [`UpDownTree`] runs one BFS over `(switch, phase)` states per source
//! and reads each destination's route from the first of its states it
//! discovers.  The reference below is the per-pair BFS it replaced: it pops
//! states in the same order and stops at the first state of the
//! destination.  Seeded random topologies with parallel links, one-way
//! links, unreachable switches and illegal turns, on the intact fabric and
//! under fault sets with [`UpDownLabels::surviving`], must agree on every
//! pair, through the tree, the batch search and `route_all_updown`.

use noc_rng::SmallRng;
use noc_routing::updown::{
    route_all_updown, updown_routes, LinkDirection, UpDownLabels, UpDownTree,
};
use noc_routing::{Route, RouteError, RouteSet};
use noc_topology::{CommGraph, CoreMap, FaultSet, LinkId, SwitchId, Topology};
use std::collections::VecDeque;

const CASES: u64 = 96;

/// The shortest legal up*/down* route `src -> dst` found by a BFS for that
/// pair alone, over the links `faults` leaves usable.
fn per_pair_route(
    topology: &Topology,
    labels: &UpDownLabels,
    src: SwitchId,
    dst: SwitchId,
    faults: Option<&FaultSet>,
) -> Option<Vec<LinkId>> {
    let n = topology.switch_count();
    let mut visited = vec![[false; 2]; n];
    let mut parent: Vec<[Option<(SwitchId, usize, LinkId)>; 2]> = vec![[None; 2]; n];
    let mut queue = VecDeque::new();
    visited[src.index()][0] = true;
    queue.push_back((src, 0usize));
    while let Some((sw, phase)) = queue.pop_front() {
        if sw == dst {
            let mut links = Vec::new();
            let (mut cur, mut ph) = (sw, phase);
            while let Some((prev, prev_phase, link)) = parent[cur.index()][ph] {
                links.push(link);
                cur = prev;
                ph = prev_phase;
            }
            links.reverse();
            return Some(links);
        }
        for (link_id, link) in topology.links_from(sw) {
            if !faults.is_none_or(|f| f.link_usable(topology, link_id)) {
                continue;
            }
            let Some(dir) = labels.direction(topology, link_id) else {
                continue;
            };
            let next_phase = match (phase, dir) {
                (0, LinkDirection::Up) => 0,
                (_, LinkDirection::Down) => 1,
                _ => continue,
            };
            let next = link.target;
            if !visited[next.index()][next_phase] {
                visited[next.index()][next_phase] = true;
                parent[next.index()][next_phase] = Some((sw, phase, link_id));
                queue.push_back((next, next_phase));
            }
        }
    }
    None
}

/// A random fabric of 2–13 switches: bidirectional pairs, one-way links
/// and parallel copies of either, and sometimes a switch with no link.
fn random_topology(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2..14usize);
    let mut t = Topology::new();
    let sw: Vec<SwitchId> = (0..n).map(|i| t.add_switch(format!("s{i}"))).collect();
    let isolated = rng.gen_range(0..4usize) == 0;
    let linked = if isolated { n - 1 } else { n };
    for _ in 0..rng.gen_range(0..3 * n) {
        if linked < 2 {
            break;
        }
        let a = sw[rng.gen_range(0..linked)];
        let b = sw[rng.gen_range(0..linked)];
        if a == b {
            continue;
        }
        let copies = if rng.gen_range(0..5usize) == 0 { 2 } else { 1 };
        let one_way = rng.gen_range(0..3usize) == 0;
        for _ in 0..copies {
            t.add_link(a, b, 1.0);
            if !one_way {
                t.add_link(b, a, 1.0);
            }
        }
    }
    t
}

/// A random fault set: a few failed link pairs and maybe a failed switch.
fn random_faults(rng: &mut SmallRng, t: &Topology) -> FaultSet {
    let mut faults = FaultSet::new(t);
    if t.link_count() > 0 {
        for _ in 0..rng.gen_range(0..3usize) {
            let link = LinkId::from_index(rng.gen_range(0..t.link_count()));
            faults.fail_link_pair(t, link);
        }
    }
    if rng.gen_range(0..3usize) == 0 {
        faults.fail_switch(SwitchId::from_index(rng.gen_range(0..t.switch_count())));
    }
    faults
}

fn switches(t: &Topology) -> impl Iterator<Item = SwitchId> + Clone {
    (0..t.switch_count()).map(SwitchId::from_index)
}

#[test]
fn every_tree_route_equals_the_per_pair_search() {
    let mut rng = SmallRng::seed_from_u64(0x0DD5);
    let (mut routed, mut unroutable, mut detoured) = (0, 0, 0);
    for case in 0..CASES {
        let t = random_topology(&mut rng);
        let root = SwitchId::from_index(rng.gen_range(0..t.switch_count()));
        let faults = (case % 2 == 1).then(|| random_faults(&mut rng, &t));
        let labels = match &faults {
            Some(faults) => UpDownLabels::surviving(&t, root, faults),
            None => UpDownLabels::new(&t, root),
        };
        for src in switches(&t) {
            let tree = match &faults {
                Some(faults) => UpDownTree::avoiding(&t, &labels, src, faults),
                None => UpDownTree::new(&t, &labels, src),
            };
            for dst in switches(&t) {
                let expected = per_pair_route(&t, &labels, src, dst, faults.as_ref());
                let got = tree.route_to(dst);
                assert_eq!(got, expected, "case {case}: {src} -> {dst}");
                match &expected {
                    None => unroutable += 1,
                    Some(links) => {
                        routed += 1;
                        let hops = per_pair_route(&t, &UpDownLabels::new(&t, src), src, dst, None);
                        detoured += usize::from(hops.is_some_and(|h| h.len() < links.len()));
                    }
                }
            }
            // Switches past the topology have no route.
            assert_eq!(tree.route_to(SwitchId::from_index(t.switch_count())), None);
        }
    }
    // The random family exercises all three outcomes.
    assert!(routed > 500 && unroutable > 500 && detoured > 0);
}

#[test]
fn batch_routes_and_route_all_updown_equal_the_per_pair_search() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    let mut errors = 0;
    for case in 0..CASES {
        let t = random_topology(&mut rng);
        let n = t.switch_count();
        let root = SwitchId::from_index(rng.gen_range(0..n));
        let labels = UpDownLabels::new(&t, root);

        // Pairs in random order, sources repeated and interleaved.
        let pairs: Vec<(SwitchId, SwitchId)> = (0..rng.gen_range(0..3 * n))
            .map(|_| {
                let src = SwitchId::from_index(rng.gen_range(0..n));
                (src, SwitchId::from_index(rng.gen_range(0..n)))
            })
            .collect();
        let expected: Vec<_> = pairs
            .iter()
            .map(|&(src, dst)| per_pair_route(&t, &labels, src, dst, None))
            .collect();
        assert_eq!(updown_routes(&t, &labels, &pairs), expected, "case {case}");

        // The same pairs as flows, one core per switch plus one unmapped
        // core that some cases route a flow from.
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..=n).map(|i| comm.add_core(format!("c{i}"))).collect();
        let mut map = CoreMap::new(cores.len());
        for (i, &core) in cores[..n].iter().enumerate() {
            map.assign(core, SwitchId::from_index(i)).unwrap();
        }
        let unmapped_at =
            (case % 3 == 0 && !pairs.is_empty()).then(|| rng.gen_range(0..pairs.len()));
        let mut reference = RouteSet::new(pairs.len());
        let mut first_error = None;
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let flow = if unmapped_at == Some(i) {
                first_error.get_or_insert(RouteError::Topology(
                    noc_topology::TopologyError::UnmappedCore(cores[n]),
                ));
                comm.add_flow(cores[n], cores[dst.index()], 1.0)
            } else {
                comm.add_flow(cores[src.index()], cores[dst.index()], 1.0)
            };
            if first_error.is_some() {
                continue;
            }
            match per_pair_route(&t, &labels, src, dst, None) {
                Some(links) => reference.set_route(flow, Route::from_links(links)),
                None => {
                    first_error = Some(RouteError::Unroutable {
                        flow,
                        from: src,
                        to: dst,
                    })
                }
            }
        }
        let got = route_all_updown(&t, &comm, &map, root);
        match first_error {
            Some(error) => {
                errors += 1;
                assert_eq!(got, Err(error), "case {case}");
            }
            None => assert_eq!(got, Ok(reference), "case {case}"),
        }
    }
    assert!(
        errors > 10 && CASES - errors > 10,
        "{errors} of {CASES} cases fail"
    );
}

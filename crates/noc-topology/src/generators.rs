//! Generators for regular NoC topologies.
//!
//! The paper's method applies to arbitrary topologies; these generators
//! provide the regular shapes (rings, meshes, tori, stars, trees) that are
//! used in tests, in examples and as sanity baselines next to the
//! application-specific topologies produced by `noc-synth`.

use crate::comm::{CommGraph, CoreMap};
use crate::ids::SwitchId;
use crate::topology::Topology;
use noc_rng::SmallRng;

/// A generated topology together with its switch handles, in generation
/// order (row-major for meshes/tori).
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// The generated topology.
    pub topology: Topology,
    /// All switches in generation order.
    pub switches: Vec<SwitchId>,
}

/// Unidirectional ring of `n` switches (the shape of Figure 1 of the paper).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn unidirectional_ring(n: usize, bandwidth: f64) -> Generated {
    assert!(n > 0, "a ring needs at least one switch");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topology.add_switch(format!("ring{i}")))
        .collect();
    for i in 0..n {
        topology.add_link(switches[i], switches[(i + 1) % n], bandwidth);
    }
    Generated { topology, switches }
}

/// Bidirectional ring of `n` switches.
pub fn bidirectional_ring(n: usize, bandwidth: f64) -> Generated {
    assert!(n > 0, "a ring needs at least one switch");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topology.add_switch(format!("ring{i}")))
        .collect();
    for i in 0..n {
        let next = (i + 1) % n;
        if n > 1 {
            topology.add_bidirectional_link(switches[i], switches[next], bandwidth);
        }
    }
    Generated { topology, switches }
}

/// Open chain (line) of `n` switches with bidirectional links.
pub fn chain(n: usize, bandwidth: f64) -> Generated {
    assert!(n > 0, "a chain needs at least one switch");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topology.add_switch(format!("chain{i}")))
        .collect();
    for i in 0..n.saturating_sub(1) {
        topology.add_bidirectional_link(switches[i], switches[i + 1], bandwidth);
    }
    Generated { topology, switches }
}

/// 2-D mesh of `rows × cols` switches with bidirectional links, row-major
/// switch order.
pub fn mesh2d(rows: usize, cols: usize, bandwidth: f64) -> Generated {
    assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..rows * cols)
        .map(|i| topology.add_switch(format!("mesh{}_{}", i / cols, i % cols)))
        .collect();
    let at = |r: usize, c: usize| switches[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                topology.add_bidirectional_link(at(r, c), at(r, c + 1), bandwidth);
            }
            if r + 1 < rows {
                topology.add_bidirectional_link(at(r, c), at(r + 1, c), bandwidth);
            }
        }
    }
    Generated { topology, switches }
}

/// 2-D torus of `rows × cols` switches (mesh plus wraparound links).
pub fn torus2d(rows: usize, cols: usize, bandwidth: f64) -> Generated {
    assert!(rows > 1 && cols > 1, "torus dimensions must be at least 2");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..rows * cols)
        .map(|i| topology.add_switch(format!("torus{}_{}", i / cols, i % cols)))
        .collect();
    let at = |r: usize, c: usize| switches[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            topology.add_bidirectional_link(at(r, c), at(r, (c + 1) % cols), bandwidth);
            topology.add_bidirectional_link(at(r, c), at((r + 1) % rows, c), bandwidth);
        }
    }
    Generated { topology, switches }
}

/// Star: switch 0 is the hub, every other switch connects to it with a
/// bidirectional link.
pub fn star(n: usize, bandwidth: f64) -> Generated {
    assert!(n > 0, "a star needs at least one switch");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topology.add_switch(format!("star{i}")))
        .collect();
    for i in 1..n {
        topology.add_bidirectional_link(switches[0], switches[i], bandwidth);
    }
    Generated { topology, switches }
}

/// Fully connected topology: a bidirectional link between every switch pair.
pub fn fully_connected(n: usize, bandwidth: f64) -> Generated {
    assert!(n > 0, "need at least one switch");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topology.add_switch(format!("full{i}")))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            topology.add_bidirectional_link(switches[i], switches[j], bandwidth);
        }
    }
    Generated { topology, switches }
}

/// Balanced binary-tree topology with `n` switches (heap indexing: switch
/// `i` connects to `2i+1` and `2i+2`), bidirectional links.
pub fn binary_tree(n: usize, bandwidth: f64) -> Generated {
    assert!(n > 0, "a tree needs at least one switch");
    let mut topology = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topology.add_switch(format!("tree{i}")))
        .collect();
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                topology.add_bidirectional_link(switches[i], switches[child], bandwidth);
            }
        }
    }
    Generated { topology, switches }
}

/// 3-D mesh of `dx × dy × dz` switches with bidirectional links.  Switch
/// order is `(x, y, z)` with `z` fastest (`index = (x * dy + y) * dz + z`).
pub fn mesh3d(dx: usize, dy: usize, dz: usize, bandwidth: f64) -> Generated {
    assert!(
        dx > 0 && dy > 0 && dz > 0,
        "mesh dimensions must be positive"
    );
    let mut topology = Topology::new();
    let mut switches = Vec::with_capacity(dx * dy * dz);
    for x in 0..dx {
        for y in 0..dy {
            for z in 0..dz {
                switches.push(topology.add_switch(format!("mesh3d{x}_{y}_{z}")));
            }
        }
    }
    let at = |x: usize, y: usize, z: usize| switches[(x * dy + y) * dz + z];
    for x in 0..dx {
        for y in 0..dy {
            for z in 0..dz {
                if x + 1 < dx {
                    topology.add_bidirectional_link(at(x, y, z), at(x + 1, y, z), bandwidth);
                }
                if y + 1 < dy {
                    topology.add_bidirectional_link(at(x, y, z), at(x, y + 1, z), bandwidth);
                }
                if z + 1 < dz {
                    topology.add_bidirectional_link(at(x, y, z), at(x, y, z + 1), bandwidth);
                }
            }
        }
    }
    Generated { topology, switches }
}

/// 3-D torus of `dx × dy × dz` switches (3-D mesh plus wraparound links in
/// every dimension).
pub fn torus3d(dx: usize, dy: usize, dz: usize, bandwidth: f64) -> Generated {
    assert!(
        dx > 1 && dy > 1 && dz > 1,
        "torus dimensions must be at least 2"
    );
    let mut topology = Topology::new();
    let mut switches = Vec::with_capacity(dx * dy * dz);
    for x in 0..dx {
        for y in 0..dy {
            for z in 0..dz {
                switches.push(topology.add_switch(format!("torus3d{x}_{y}_{z}")));
            }
        }
    }
    let at = |x: usize, y: usize, z: usize| switches[(x * dy + y) * dz + z];
    for x in 0..dx {
        for y in 0..dy {
            for z in 0..dz {
                topology.add_bidirectional_link(at(x, y, z), at((x + 1) % dx, y, z), bandwidth);
                topology.add_bidirectional_link(at(x, y, z), at(x, (y + 1) % dy, z), bandwidth);
                topology.add_bidirectional_link(at(x, y, z), at(x, y, (z + 1) % dz), bandwidth);
            }
        }
    }
    Generated { topology, switches }
}

/// Fat tree: a complete `arity`-ary tree of `levels` levels whose links get
/// *fatter* toward the root — a link between levels `l` and `l + 1` carries
/// `bandwidth * arity^(levels - 2 - l)`, so the aggregate bandwidth crossing
/// each level is constant (the classic fat-tree property).  Switch order is
/// breadth-first (root first); leaves are the last `arity^(levels-1)`
/// switches.
///
/// # Panics
///
/// Panics if `levels == 0` or `arity == 0`.
pub fn fat_tree(levels: usize, arity: usize, bandwidth: f64) -> Generated {
    assert!(levels > 0, "a fat tree needs at least one level");
    assert!(arity > 0, "fat-tree arity must be positive");
    let mut topology = Topology::new();
    let mut switches = Vec::new();
    // Build level by level; `level_start[l]` is the index of the first
    // switch of level `l`.
    let mut level_start = Vec::with_capacity(levels + 1);
    let mut width = 1usize;
    for level in 0..levels {
        level_start.push(switches.len());
        for i in 0..width {
            switches.push(topology.add_switch(format!("fat{level}_{i}")));
        }
        width *= arity;
    }
    level_start.push(switches.len());
    for level in 0..levels.saturating_sub(1) {
        // Deeper links are thinner: the leaf level gets `bandwidth`, each
        // level above multiplies by `arity`.
        let fatness = bandwidth * (arity as f64).powi((levels - 2 - level) as i32);
        let parents = level_start[level + 1] - level_start[level];
        for p in 0..parents {
            let parent = switches[level_start[level] + p];
            for c in 0..arity {
                let child = switches[level_start[level + 1] + p * arity + c];
                topology.add_bidirectional_link(parent, child, fatness);
            }
        }
    }
    Generated { topology, switches }
}

/// Dragonfly: `groups` groups of `routers_per_group` routers each.  Routers
/// within a group are fully connected; every unordered pair of groups is
/// joined by one bidirectional global link, attached round-robin to the
/// routers of each group (each router offers `global_per_router` global
/// ports).  Switch order is group-major.
///
/// # Panics
///
/// Panics when a dimension is zero or the global ports cannot cover the
/// `groups - 1` links each group needs
/// (`routers_per_group * global_per_router < groups - 1`).
pub fn dragonfly(
    groups: usize,
    routers_per_group: usize,
    global_per_router: usize,
    bandwidth: f64,
) -> Generated {
    assert!(groups > 0, "a dragonfly needs at least one group");
    assert!(routers_per_group > 0, "groups need at least one router");
    assert!(
        groups == 1 || routers_per_group * global_per_router >= groups - 1,
        "not enough global ports: {} routers x {} ports < {} peer groups",
        routers_per_group,
        global_per_router,
        groups - 1
    );
    let mut topology = Topology::new();
    let mut switches = Vec::with_capacity(groups * routers_per_group);
    for g in 0..groups {
        for r in 0..routers_per_group {
            switches.push(topology.add_switch(format!("dfly{g}_{r}")));
        }
    }
    let at = |g: usize, r: usize| switches[g * routers_per_group + r];
    // Intra-group all-to-all.
    for g in 0..groups {
        for a in 0..routers_per_group {
            for b in (a + 1)..routers_per_group {
                topology.add_bidirectional_link(at(g, a), at(g, b), bandwidth);
            }
        }
    }
    // One global link per group pair, spread round-robin over each group's
    // routers in pair order.
    let mut used_ports = vec![0usize; groups];
    for i in 0..groups {
        for j in (i + 1)..groups {
            let ri = used_ports[i] % routers_per_group;
            let rj = used_ports[j] % routers_per_group;
            used_ports[i] += 1;
            used_ports[j] += 1;
            topology.add_bidirectional_link(at(i, ri), at(j, rj), bandwidth);
        }
    }
    Generated { topology, switches }
}

/// A synthetic communication workload over a generated topology: one core
/// per switch (core `i` attached to `switches[i]`) plus a seeded random flow
/// set — the communication-graph side of the scaling benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkload {
    /// The communication graph (one core per switch, flows as generated).
    pub comm: CommGraph,
    /// The core-to-switch attachment (core `i` on switch `i`).
    pub map: CoreMap,
}

/// One core per switch, attached in switch order.
fn cores_per_switch(generated: &Generated) -> (CommGraph, CoreMap, Vec<crate::ids::CoreId>) {
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..generated.switches.len())
        .map(|i| comm.add_core(format!("c{i}")))
        .collect();
    let mut map = CoreMap::new(cores.len());
    for (i, &core) in cores.iter().enumerate() {
        map.assign(core, generated.switches[i])
            .expect("cores and switches are index-aligned");
    }
    (comm, map, cores)
}

/// Uniform-random traffic: every core sends `flows_per_core` flows of
/// `bandwidth` each to destinations drawn uniformly from all *other*
/// switches.  Deterministic in `seed`.
///
/// # Panics
///
/// Panics if the topology has fewer than two switches (no valid
/// destination exists).
pub fn uniform_traffic(
    generated: &Generated,
    flows_per_core: usize,
    seed: u64,
    bandwidth: f64,
) -> SyntheticWorkload {
    let n = generated.switches.len();
    assert!(n > 1, "uniform traffic needs at least two switches");
    let (mut comm, map, cores) = cores_per_switch(generated);
    let mut rng = SmallRng::seed_from_u64(seed);
    for (i, &source) in cores.iter().enumerate() {
        for _ in 0..flows_per_core {
            let mut dest = rng.gen_range(0..n - 1);
            if dest >= i {
                dest += 1; // skip self, keeping the draw uniform
            }
            comm.add_flow(source, cores[dest], bandwidth);
        }
    }
    SyntheticWorkload { comm, map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSet;

    /// Weak connectivity: one component with every link taken undirected.
    fn weakly_connected(topology: &Topology) -> bool {
        topology
            .connectivity_after(&FaultSet::new(topology))
            .is_fully_connected()
    }

    #[test]
    fn unidirectional_ring_matches_figure_1() {
        let g = unidirectional_ring(4, 1.0);
        assert_eq!(g.topology.switch_count(), 4);
        assert_eq!(g.topology.link_count(), 4);
        // Every switch has exactly one outgoing and one incoming link.
        for &sw in &g.switches {
            assert_eq!(g.topology.links_from(sw).count(), 1);
            assert_eq!(g.topology.links_to(sw).count(), 1);
        }
        // Following the one outgoing link from switch 0 returns to it after
        // exactly four hops: the links form one cycle through every switch.
        let mut at = g.switches[0];
        for hop in 1..=4 {
            at = g.topology.links_from(at).next().unwrap().1.target;
            assert_eq!(at == g.switches[0], hop == 4);
        }
    }

    #[test]
    fn bidirectional_ring_has_twice_the_links() {
        let g = bidirectional_ring(5, 1.0);
        assert_eq!(g.topology.link_count(), 10);
    }

    #[test]
    fn chain_is_connected_and_acyclic_in_one_direction() {
        let g = chain(6, 1.0);
        assert_eq!(g.topology.link_count(), 10);
        assert!(weakly_connected(&g.topology));
    }

    #[test]
    fn mesh_link_count_is_correct() {
        let g = mesh2d(3, 4, 1.0);
        assert_eq!(g.topology.switch_count(), 12);
        // Horizontal: 3 rows * 3 = 9 pairs, vertical: 2 * 4 = 8 pairs, times 2 directions.
        assert_eq!(g.topology.link_count(), 2 * (9 + 8));
        assert!(weakly_connected(&g.topology));
    }

    #[test]
    fn torus_has_wraparound() {
        let g = torus2d(3, 3, 1.0);
        assert_eq!(g.topology.switch_count(), 9);
        // Every node has 4 outgoing links (right, left via neighbour's wrap, down, up).
        for &sw in &g.switches {
            assert_eq!(g.topology.links_from(sw).count(), 4);
        }
    }

    #[test]
    fn star_and_tree_are_connected() {
        for generated in [star(7, 1.0), binary_tree(7, 1.0)] {
            assert!(weakly_connected(&generated.topology));
        }
        assert_eq!(star(7, 1.0).topology.link_count(), 12);
        assert_eq!(binary_tree(7, 1.0).topology.link_count(), 12);
    }

    #[test]
    fn fully_connected_has_n_choose_2_pairs() {
        let g = fully_connected(6, 1.0);
        assert_eq!(g.topology.link_count(), 6 * 5);
    }

    #[test]
    fn single_switch_edge_cases() {
        assert_eq!(unidirectional_ring(1, 1.0).topology.link_count(), 1); // self loop link
        assert_eq!(bidirectional_ring(1, 1.0).topology.link_count(), 0);
        assert_eq!(chain(1, 1.0).topology.link_count(), 0);
        assert_eq!(star(1, 1.0).topology.link_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn zero_size_panics() {
        chain(0, 1.0);
    }

    #[test]
    fn mesh3d_counts_and_connectivity() {
        let g = mesh3d(3, 4, 5, 1.0);
        assert_eq!(g.topology.switch_count(), 60);
        // Internal pairs: x: 2*4*5, y: 3*3*5, z: 3*4*4; times 2 directions.
        assert_eq!(g.topology.link_count(), 2 * (40 + 45 + 48));
        assert!(weakly_connected(&g.topology));
    }

    #[test]
    fn torus3d_is_regular_of_degree_six() {
        let g = torus3d(3, 3, 3, 1.0);
        assert_eq!(g.topology.switch_count(), 27);
        for &sw in &g.switches {
            assert_eq!(g.topology.links_from(sw).count(), 6);
            assert_eq!(g.topology.links_to(sw).count(), 6);
        }
    }

    #[test]
    fn fat_tree_fattens_toward_the_root() {
        let g = fat_tree(3, 2, 1.0);
        assert_eq!(g.topology.switch_count(), 7); // 1 + 2 + 4
        assert_eq!(g.topology.link_count(), 12); // 6 pairs
                                                 // Root links carry arity x the leaf-link bandwidth.
        let (_, root_link) = g.topology.links_from(g.switches[0]).next().unwrap();
        assert_eq!(root_link.bandwidth, 2.0);
        let (_, leaf_link) = g.topology.links_from(g.switches[1]).nth(1).unwrap();
        assert_eq!(leaf_link.bandwidth, 1.0);
        assert!(weakly_connected(&g.topology));
    }

    #[test]
    fn dragonfly_counts_and_connectivity() {
        let g = dragonfly(4, 3, 1, 1.0);
        assert_eq!(g.topology.switch_count(), 12);
        // Intra: 4 groups * C(3,2)=3 pairs; global: C(4,2)=6 pairs; times 2.
        assert_eq!(g.topology.link_count(), 2 * (4 * 3 + 6));
        assert!(weakly_connected(&g.topology));
    }

    #[test]
    #[should_panic(expected = "not enough global ports")]
    fn dragonfly_rejects_insufficient_global_ports() {
        dragonfly(8, 2, 1, 1.0);
    }

    #[test]
    fn uniform_traffic_is_seeded_and_never_self_directed() {
        let g = mesh2d(4, 4, 1.0);
        let a = uniform_traffic(&g, 3, 7, 1.0);
        let b = uniform_traffic(&g, 3, 7, 1.0);
        assert_eq!(a, b, "same seed, same workload");
        assert_eq!(a.comm.core_count(), 16);
        assert_eq!(a.comm.flow_count(), 48);
        assert!(a.comm.cores().all(|(c, _)| a.map.switch_of(c).is_some()));
        for (_, flow) in a.comm.flows() {
            assert_ne!(flow.source, flow.destination);
        }
        let c = uniform_traffic(&g, 3, 8, 1.0);
        assert_ne!(a, c, "different seed, different destinations");
    }
}

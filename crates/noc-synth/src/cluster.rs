//! Core-to-switch clustering.
//!
//! Cores that exchange a lot of traffic should share a switch so their flows
//! never enter the switch-to-switch network.  This module implements a
//! greedy, balanced affinity clustering: cores are considered in decreasing
//! order of total traffic and each is placed on the switch where it has the
//! highest affinity to already-placed cores, subject to a per-switch
//! capacity that keeps cluster sizes balanced.

use noc_topology::{CommGraph, CoreId};

/// A clustering of cores into `switch_count` groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `assignment[core.index()]` = switch index in `0..switch_count`.
    pub assignment: Vec<usize>,
    /// Number of clusters (= switches).
    pub switch_count: usize,
}

impl Clustering {
    /// The cluster (switch index) of `core`.
    pub(crate) fn cluster_of(&self, core: CoreId) -> usize {
        self.assignment[core.index()]
    }

    /// The cores assigned to `cluster`.
    pub fn members(&self, cluster: usize) -> Vec<CoreId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .map(|(i, _)| CoreId::from_index(i))
            .collect()
    }

    /// Total communication bandwidth that stays inside a cluster (higher is
    /// better for the same switch count).
    pub fn internal_bandwidth(&self, comm: &CommGraph) -> f64 {
        comm.flows()
            .filter(|(_, f)| {
                self.assignment[f.source.index()] == self.assignment[f.destination.index()]
            })
            .map(|(_, f)| f.bandwidth)
            .sum()
    }
}

/// Greedy balanced affinity clustering of the cores of `comm` into
/// `switch_count` clusters.
///
/// The per-switch capacity is `ceil(core_count / switch_count)`, so clusters
/// stay within one core of each other in size — matching the area-balancing
/// behaviour of floorplan-aware synthesis tools.
///
/// # Panics
///
/// Panics if `switch_count` is zero.
pub fn cluster_cores(comm: &CommGraph, switch_count: usize) -> Clustering {
    assert!(switch_count > 0, "need at least one switch");
    let n = comm.core_count();
    let capacity = n.div_ceil(switch_count);
    let mut assignment = vec![usize::MAX; n];

    // One pass over the flows, in flow order: each core's sent and received
    // traffic, and the pairwise affinity (bandwidth in either direction; a
    // self-flow counts once).  Every entry adds the same terms in the same
    // order as a per-core or per-pair rescan of the flow list would.
    let mut sent = vec![0.0; n];
    let mut received = vec![0.0; n];
    let mut affinity = vec![0.0; n * n];
    for (_, flow) in comm.flows() {
        let (a, b) = (flow.source.index(), flow.destination.index());
        sent[a] += flow.bandwidth;
        received[b] += flow.bandwidth;
        affinity[a * n + b] += flow.bandwidth;
        if a != b {
            affinity[b * n + a] += flow.bandwidth;
        }
    }

    // Order cores by total traffic (descending) so the heavy hitters anchor
    // the clusters; ties break on index for determinism.
    let traffic: Vec<f64> = sent.iter().zip(&received).map(|(s, r)| s + r).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        traffic[b]
            .partial_cmp(&traffic[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    // Members of each cluster, kept sorted by core index so a cluster's
    // score sums its members' affinities in ascending core order.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); switch_count];
    for core in order {
        // Affinity of this core to every cluster that still has room.
        let row = &affinity[core * n..(core + 1) * n];
        let mut best_cluster = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        for (cluster, list) in members.iter().enumerate() {
            if list.len() >= capacity {
                continue;
            }
            let score: f64 = list.iter().map(|&other| row[other]).sum();
            // Prefer higher affinity; among equal affinities prefer the
            // emptier cluster (spreads isolated cores evenly).
            let tie_break = -(list.len() as f64) * 1e-6;
            if score + tie_break > best_score {
                best_score = score + tie_break;
                best_cluster = cluster;
            }
        }
        debug_assert_ne!(best_cluster, usize::MAX, "capacity guarantees a free slot");
        assignment[core] = best_cluster;
        let list = &mut members[best_cluster];
        let at = list.partition_point(|&m| m < core);
        list.insert(at, core);
    }

    Clustering {
        assignment,
        switch_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_rng::SmallRng;
    use noc_topology::benchmarks::Benchmark;

    /// Communication affinity between two cores: the sum of flow bandwidths
    /// in either direction, rescanning every flow.
    fn reference_affinity(comm: &CommGraph, a: CoreId, b: CoreId) -> f64 {
        comm.flows()
            .filter(|(_, f)| {
                (f.source == a && f.destination == b) || (f.source == b && f.destination == a)
            })
            .map(|(_, f)| f.bandwidth)
            .sum()
    }

    /// The clusterer as it used to run: traffic and every affinity are
    /// recomputed by scanning the flow list.
    fn reference_cluster_cores(comm: &CommGraph, switch_count: usize) -> Clustering {
        let n = comm.core_count();
        let capacity = n.div_ceil(switch_count);
        let mut assignment = vec![usize::MAX; n];
        let mut sizes = vec![0usize; switch_count];
        let mut order: Vec<CoreId> = comm.cores().map(|(id, _)| id).collect();
        let traffic = |c: CoreId| -> f64 {
            let leaving = comm.flows().filter(|(_, f)| f.source == c);
            let arriving = comm.flows().filter(|(_, f)| f.destination == c);
            leaving.map(|(_, f)| f.bandwidth).sum::<f64>()
                + arriving.map(|(_, f)| f.bandwidth).sum::<f64>()
        };
        order.sort_by(|&a, &b| {
            traffic(b)
                .partial_cmp(&traffic(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        });
        for core in order {
            let mut best_cluster = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            for (cluster, &size) in sizes.iter().enumerate() {
                if size >= capacity {
                    continue;
                }
                let score: f64 = comm
                    .cores()
                    .filter(|(other, _)| assignment[other.index()] == cluster)
                    .map(|(other, _)| reference_affinity(comm, core, other))
                    .sum();
                let tie_break = -(sizes[cluster] as f64) * 1e-6;
                if score + tie_break > best_score {
                    best_score = score + tie_break;
                    best_cluster = cluster;
                }
            }
            assignment[core.index()] = best_cluster;
            sizes[best_cluster] += 1;
        }
        Clustering {
            assignment,
            switch_count,
        }
    }

    #[test]
    fn affinity_sums_both_directions() {
        let mut g = CommGraph::new();
        let c: Vec<_> = (0..3).map(|i| g.add_core(format!("c{i}"))).collect();
        g.add_flow(c[0], c[2], 100.0);
        g.add_flow(c[1], c[2], 50.0);
        g.add_flow(c[2], c[0], 25.0);
        g.add_flow(c[1], c[1], 5.0);
        assert_eq!(reference_affinity(&g, c[0], c[2]), 125.0);
        assert_eq!(reference_affinity(&g, c[2], c[0]), 125.0);
        assert_eq!(reference_affinity(&g, c[0], c[1]), 0.0);
        // A self-flow counts once.
        assert_eq!(reference_affinity(&g, c[1], c[1]), 5.0);
    }

    /// Cluster scores must add members' affinities in ascending core order:
    /// here `1e16 + 1 + 1` rounds to `1e16` but `1 + 1 + 1e16` does not,
    /// which decides whether core 5 joins cores {0, 1, 2} or {3, 4}.
    #[test]
    fn member_scores_add_in_core_order() {
        let mut comm = CommGraph::new();
        let c: Vec<_> = (0..7).map(|i| comm.add_core(format!("c{i}"))).collect();
        comm.add_flow(c[0], c[1], 5e16);
        comm.add_flow(c[1], c[2], 5e16);
        comm.add_flow(c[3], c[4], 5e16);
        comm.add_flow(c[5], c[0], 1e16);
        comm.add_flow(c[5], c[1], 1.0);
        comm.add_flow(c[5], c[2], 1.0);
        comm.add_flow(c[5], c[3], 1e16 + 2.0);
        let clustering = cluster_cores(&comm, 2);
        assert_eq!(clustering, reference_cluster_cores(&comm, 2));
        assert_eq!(clustering.cluster_of(c[0]), clustering.cluster_of(c[2]));
        assert_eq!(clustering.cluster_of(c[5]), clustering.cluster_of(c[3]));
        assert_ne!(clustering.cluster_of(c[5]), clustering.cluster_of(c[0]));
    }

    #[test]
    fn clustering_matches_the_flow_rescanning_reference() {
        let mut rng = SmallRng::seed_from_u64(0x0019_00C1);
        for case in 0..600 {
            let cores = rng.gen_range(1usize..24);
            let switches = rng.gen_range(1usize..cores + 1);
            let mut comm = CommGraph::new();
            let ids: Vec<_> = (0..cores).map(|i| comm.add_core(format!("c{i}"))).collect();
            for _ in 0..rng.gen_range(0usize..3 * cores + 1) {
                let a = ids[rng.gen_range(0..cores)];
                // Self-flows on purpose, about one in eight.
                let b = if rng.gen_range(0usize..8) == 0 {
                    a
                } else {
                    ids[rng.gen_range(0..cores)]
                };
                // Equal and zero bandwidths on purpose, plus fractional
                // ones whose sums depend on the addition order.
                let bw = [0.0, 1.0, 1.0, 10.0, 0.1, 0.7, 1e-9][rng.gen_range(0usize..7)];
                comm.add_flow(a, b, bw);
                // Duplicate flows between one pair.
                if rng.gen_range(0usize..6) == 0 {
                    comm.add_flow(b, a, bw);
                    comm.add_flow(a, b, bw);
                }
            }
            assert_eq!(
                cluster_cores(&comm, switches),
                reference_cluster_cores(&comm, switches),
                "case {case}: {cores} cores, {switches} switches"
            );
        }
    }

    fn pair_heavy_comm() -> CommGraph {
        // Two tightly-coupled pairs and two loners.
        let mut g = CommGraph::new();
        let c: Vec<_> = (0..6).map(|i| g.add_core(format!("c{i}"))).collect();
        g.add_flow(c[0], c[1], 1000.0);
        g.add_flow(c[1], c[0], 1000.0);
        g.add_flow(c[2], c[3], 1000.0);
        g.add_flow(c[3], c[2], 1000.0);
        g.add_flow(c[4], c[5], 1.0);
        g
    }

    #[test]
    fn heavy_pairs_share_a_cluster() {
        let comm = pair_heavy_comm();
        let clustering = cluster_cores(&comm, 3);
        assert_eq!(
            clustering.cluster_of(CoreId::from_index(0)),
            clustering.cluster_of(CoreId::from_index(1))
        );
        assert_eq!(
            clustering.cluster_of(CoreId::from_index(2)),
            clustering.cluster_of(CoreId::from_index(3))
        );
    }

    #[test]
    fn clusters_are_balanced() {
        let comm = Benchmark::D26Media.comm_graph();
        for switches in [2, 5, 8, 13, 26] {
            let clustering = cluster_cores(&comm, switches);
            let capacity = comm.core_count().div_ceil(switches);
            assert!(
                (0..switches).all(|c| clustering.members(c).len() <= capacity),
                "{switches} switches"
            );
            // Every core is assigned.
            assert!(clustering.assignment.iter().all(|&a| a < switches));
        }
    }

    #[test]
    fn more_switches_never_increase_internal_bandwidth() {
        let comm = Benchmark::D36x8.comm_graph();
        let few = cluster_cores(&comm, 4).internal_bandwidth(&comm);
        let many = cluster_cores(&comm, 18).internal_bandwidth(&comm);
        assert!(few >= many);
    }

    #[test]
    fn one_switch_keeps_everything_internal() {
        let comm = pair_heavy_comm();
        let clustering = cluster_cores(&comm, 1);
        assert_eq!(clustering.internal_bandwidth(&comm), comm.total_bandwidth());
        assert_eq!(clustering.members(0).len(), comm.core_count());
    }

    #[test]
    fn clustering_is_deterministic() {
        let comm = Benchmark::D35Bott.comm_graph();
        assert_eq!(cluster_cores(&comm, 7), cluster_cores(&comm, 7));
    }

    #[test]
    #[should_panic(expected = "at least one switch")]
    fn zero_switches_panics() {
        cluster_cores(&pair_heavy_comm(), 0);
    }
}

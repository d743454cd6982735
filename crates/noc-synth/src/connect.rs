//! Switch-interconnect construction.
//!
//! Given a clustering of cores onto switches and the inter-cluster traffic
//! demands, this module decides which switch-to-switch physical links to
//! open.  Two ingredients:
//!
//! * a **backbone** that guarantees connectivity — either a maximum-weight
//!   spanning tree over the demand matrix (few links, tends to produce
//!   acyclic channel dependency graphs) or a ring ordered by cluster index
//!   (the classic shape of Figure 1 of the paper, prone to CDG cycles),
//! * **shortcut links** for the heaviest remaining demands, added while both
//!   endpoint switches stay below the maximum degree allowed by the
//!   technology (the paper points out that link-count constraints are what
//!   keep designers from just opening more links).

use crate::cluster::Clustering;
use noc_topology::{CommGraph, SwitchId, Topology};

/// Which connectivity backbone to build before adding shortcut links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backbone {
    /// Maximum-weight spanning tree over the inter-cluster demand matrix.
    #[default]
    SpanningTree,
    /// Ring over the switches in cluster-index order.
    Ring,
}

/// Parameters of the interconnect construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectConfig {
    /// Backbone shape.
    pub backbone: Backbone,
    /// Maximum number of *neighbouring switches* a switch may have
    /// (bidirectional link pairs count once).  Must be ≥ 2.
    pub max_degree: usize,
    /// Bandwidth assigned to every opened link, in the same abstract MB/s
    /// units as the communication graph.
    pub link_bandwidth: f64,
}

impl Default for ConnectConfig {
    fn default() -> Self {
        ConnectConfig {
            backbone: Backbone::SpanningTree,
            max_degree: 4,
            link_bandwidth: 2000.0,
        }
    }
}

/// Result of the interconnect construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// The switch-level topology (bidirectional links).
    pub topology: Topology,
    /// Switch handles indexed by cluster index.
    pub switches: Vec<SwitchId>,
}

/// Inter-cluster demand matrix: `demand[a][b]` is the bandwidth flowing from
/// cluster `a` to cluster `b`.
fn demand_matrix(comm: &CommGraph, clustering: &Clustering) -> Vec<Vec<f64>> {
    let k = clustering.switch_count;
    let mut demand = vec![vec![0.0; k]; k];
    for (_, flow) in comm.flows() {
        let a = clustering.assignment[flow.source.index()];
        let b = clustering.assignment[flow.destination.index()];
        if a != b {
            demand[a][b] += flow.bandwidth;
        }
    }
    demand
}

/// Builds the switch interconnect for `clustering` under `config`.
pub(crate) fn build_interconnect(
    comm: &CommGraph,
    clustering: &Clustering,
    config: &ConnectConfig,
) -> Interconnect {
    let k = clustering.switch_count;
    let mut topology = Topology::new();
    let switches: Vec<SwitchId> = (0..k)
        .map(|i| topology.add_switch(format!("sw{i}")))
        .collect();
    if k == 1 {
        return Interconnect { topology, switches };
    }

    let demand = demand_matrix(comm, clustering);
    // Symmetric demand for undirected link decisions.
    let sym = |a: usize, b: usize| demand[a][b] + demand[b][a];

    let mut neighbor_count = vec![0usize; k];
    let mut connected = vec![vec![false; k]; k];
    let connect = |topology: &mut Topology,
                   neighbor_count: &mut Vec<usize>,
                   connected: &mut Vec<Vec<bool>>,
                   a: usize,
                   b: usize| {
        if a == b || connected[a][b] {
            return;
        }
        topology.add_bidirectional_link(switches[a], switches[b], config.link_bandwidth);
        connected[a][b] = true;
        connected[b][a] = true;
        neighbor_count[a] += 1;
        neighbor_count[b] += 1;
    };

    match config.backbone {
        Backbone::Ring => {
            for i in 0..k {
                connect(
                    &mut topology,
                    &mut neighbor_count,
                    &mut connected,
                    i,
                    (i + 1) % k,
                );
            }
        }
        Backbone::SpanningTree => {
            for (a, b) in max_spanning_tree(k, sym) {
                connect(&mut topology, &mut neighbor_count, &mut connected, a, b);
            }
        }
    }

    // Shortcut links: consider unconnected pairs in decreasing demand order
    // and open a link while both endpoints respect the degree constraint.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for a in 0..k {
        for b in (a + 1)..k {
            let w = sym(a, b);
            if w > 0.0 && !connected[a][b] {
                pairs.push((a, b, w));
            }
        }
    }
    pairs.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then((x.0, x.1).cmp(&(y.0, y.1)))
    });
    for (a, b, _) in pairs {
        if neighbor_count[a] < config.max_degree && neighbor_count[b] < config.max_degree {
            connect(&mut topology, &mut neighbor_count, &mut connected, a, b);
        }
    }

    Interconnect { topology, switches }
}

/// Prim-style maximum spanning tree over `k ≥ 1` switches under the
/// symmetric `weight`, grown from switch 0, as `(tree endpoint, new switch)` edges in
/// the order they join.
///
/// Each switch outside the tree keeps its best tree endpoint as (weight,
/// smallest endpoint), so one step costs O(k) and the tree O(k²).  The next
/// edge is the heaviest; ties go to the smallest (tree endpoint, new switch)
/// pair — the edge a scan over every (tree, outside) pair in ascending order
/// would keep.
fn max_spanning_tree(k: usize, weight: impl Fn(usize, usize) -> f64) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(k - 1);
    let mut in_tree = vec![false; k];
    in_tree[0] = true;
    let mut best: Vec<(f64, usize)> = (0..k).map(|b| (weight(0, b), 0)).collect();
    for _ in 1..k {
        let mut pick: Option<usize> = None;
        for b in (0..k).filter(|&b| !in_tree[b]) {
            let better = pick.is_none_or(|p| {
                let ((w, a), (pw, pa)) = (best[b], best[p]);
                w > pw || (w == pw && (a, b) < (pa, p))
            });
            if better {
                pick = Some(b);
            }
        }
        let b = pick.expect("tree grows one switch per iteration");
        in_tree[b] = true;
        edges.push((best[b].1, b));
        for c in (0..k).filter(|&c| !in_tree[c]) {
            let w = weight(b, c);
            let (cw, ca) = best[c];
            if w > cw || (w == cw && b < ca) {
                best[c] = (w, b);
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_cores;
    use noc_rng::SmallRng;
    use noc_topology::benchmarks::Benchmark;
    use noc_topology::FaultSet;

    /// The O(k³) Prim the interconnect used to run: every step scans every
    /// (tree, outside) pair in ascending order and keeps the heaviest,
    /// ties towards the smallest pair.
    fn reference_max_spanning_tree(
        k: usize,
        weight: impl Fn(usize, usize) -> f64,
    ) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        let mut in_tree = vec![false; k];
        in_tree[0] = true;
        for _ in 1..k {
            let mut best: Option<(usize, usize, f64)> = None;
            for a in (0..k).filter(|&a| in_tree[a]) {
                for b in (0..k).filter(|&b| !in_tree[b]) {
                    let w = weight(a, b);
                    let better = match best {
                        None => true,
                        Some((ba, bb, bw)) => w > bw || (w == bw && (a, b) < (ba, bb)),
                    };
                    if better {
                        best = Some((a, b, w));
                    }
                }
            }
            let (a, b, _) = best.expect("tree grows one switch per iteration");
            in_tree[b] = true;
            edges.push((a, b));
        }
        edges
    }

    #[test]
    fn spanning_tree_matches_the_pairwise_scan() {
        let mut rng = SmallRng::seed_from_u64(0x0019_7EEE);
        for case in 0..600 {
            let k = rng.gen_range(1usize..14);
            // Few distinct weights, many zeros: ties everywhere.
            let mut weight = vec![0.0; k * k];
            for a in 0..k {
                for b in (a + 1)..k {
                    let w = [0.0, 0.0, 1.0, 2.5, 2.5, 7.0][rng.gen_range(0usize..6)];
                    weight[a * k + b] = w;
                    weight[b * k + a] = w;
                }
            }
            let w = |a: usize, b: usize| weight[a * k + b];
            assert_eq!(
                max_spanning_tree(k, w),
                reference_max_spanning_tree(k, w),
                "case {case}: {weight:?}"
            );
        }
    }

    fn interconnect_for(
        benchmark: Benchmark,
        switches: usize,
        config: &ConnectConfig,
    ) -> (CommGraph, Clustering, Interconnect) {
        let comm = benchmark.comm_graph();
        let clustering = cluster_cores(&comm, switches);
        let ic = build_interconnect(&comm, &clustering, config);
        (comm, clustering, ic)
    }

    #[test]
    fn interconnect_is_always_weakly_connected() {
        for benchmark in [Benchmark::D26Media, Benchmark::D36x8, Benchmark::D38Tvopd] {
            for switches in [2, 5, 9, 14] {
                let (_, _, ic) = interconnect_for(benchmark, switches, &ConnectConfig::default());
                assert!(
                    ic.topology
                        .connectivity_after(&FaultSet::new(&ic.topology))
                        .is_fully_connected(),
                    "{benchmark} with {switches} switches"
                );
            }
        }
    }

    #[test]
    fn ring_backbone_has_at_least_k_link_pairs() {
        let config = ConnectConfig {
            backbone: Backbone::Ring,
            ..ConnectConfig::default()
        };
        let (_, _, ic) = interconnect_for(Benchmark::D26Media, 6, &config);
        assert!(ic.topology.link_count() >= 2 * 6);
    }

    #[test]
    fn spanning_tree_backbone_has_at_least_k_minus_1_pairs() {
        let (_, _, ic) = interconnect_for(Benchmark::D26Media, 6, &ConnectConfig::default());
        assert!(ic.topology.link_count() >= 2 * 5);
    }

    #[test]
    fn degree_constraint_is_respected_for_shortcuts() {
        let config = ConnectConfig {
            max_degree: 3,
            ..ConnectConfig::default()
        };
        let (_, _, ic) = interconnect_for(Benchmark::D36x8, 12, &config);
        // The spanning tree may exceed the limit on a hub node by necessity,
        // but the shortcut stage never pushes a switch beyond max_degree + the
        // backbone degree it already had.  With a tree backbone the absolute
        // bound max(tree_degree, max_degree) is hard to state simply, so we
        // check the practical bound that no switch exceeds max_degree unless
        // the tree alone made it so.
        let tree_only = build_interconnect(
            &Benchmark::D36x8.comm_graph(),
            &cluster_cores(&Benchmark::D36x8.comm_graph(), 12),
            &ConnectConfig {
                max_degree: 2, // forces "no shortcuts beyond the tree"
                ..ConnectConfig::default()
            },
        );
        for (sw, _) in ic.topology.switches() {
            let pairs = ic.topology.links_from(sw).count();
            let tree_pairs = tree_only.topology.links_from(sw).count();
            assert!(
                pairs <= 3.max(tree_pairs),
                "switch {sw} exceeds degree bound"
            );
        }
    }

    #[test]
    fn single_switch_interconnect_is_empty() {
        let (_, _, ic) = interconnect_for(Benchmark::D26Media, 1, &ConnectConfig::default());
        assert_eq!(ic.topology.switch_count(), 1);
        assert_eq!(ic.topology.link_count(), 0);
    }

    #[test]
    fn demand_matrix_only_counts_cross_cluster_flows() {
        let comm = Benchmark::D26Media.comm_graph();
        let clustering = cluster_cores(&comm, 4);
        let demand = demand_matrix(&comm, &clustering);
        let cross: f64 = demand.iter().flatten().sum();
        let internal = clustering.internal_bandwidth(&comm);
        let total = comm.total_bandwidth();
        assert!((cross + internal - total).abs() < 1e-6);
        for (i, row) in demand.iter().enumerate() {
            assert_eq!(row[i], 0.0);
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = interconnect_for(Benchmark::D36x6, 10, &ConnectConfig::default()).2;
        let b = interconnect_for(Benchmark::D36x6, 10, &ConnectConfig::default()).2;
        assert_eq!(a.topology, b.topology);
    }
}

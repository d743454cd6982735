//! CSR-vs-DiGraph equivalence on real channel dependency graphs.
//!
//! The unit-level properties in `noc-graph` check the frozen CSR view on
//! random graphs; this harness checks it where it matters — on the CDGs of
//! every Figure 8 (D26_media) and Figure 9 (D36_8) grid point, of the
//! seeded random ring / chorded-ring / mesh population, and of the scaling
//! sweep's smaller generator points.  For each design the mutable
//! [`noc_graph::DiGraph`] and its [`noc_graph::CsrGraph`] freeze must agree
//! on the smallest cycle (the canonical search order contract), the SCC
//! partition, the knots, and hop distances.

use noc_bench::{random_routed_design, routed_benchmark, scale_design, sweeps, ScaleTopology};
use noc_deadlock::cdg::Cdg;
use noc_graph::{cycles, knots, scc, shortest_path, DiGraph, NodeId};
use noc_topology::benchmarks::Benchmark;
use noc_topology::Channel;

/// Canonicalizes a Tarjan partition: members ascending, components ordered
/// by smallest member.
fn canonical(mut comps: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    for c in &mut comps {
        c.sort();
    }
    comps.sort_by_key(|c| c[0]);
    comps
}

/// Asserts DiGraph/CSR agreement on one CDG.
fn assert_cdg_equivalence(graph: &DiGraph<Channel, Vec<noc_topology::FlowId>>, label: &str) {
    let frozen = graph.freeze();
    assert_eq!(
        cycles::smallest_cycle(&frozen),
        cycles::smallest_cycle(graph),
        "{label}: smallest cycle differs between CSR and DiGraph"
    );
    assert_eq!(
        canonical(scc::tarjan_scc(&frozen)),
        canonical(scc::tarjan_scc(graph)),
        "{label}: SCC partition differs between CSR and DiGraph"
    );
    assert_eq!(
        canonical(knots::knots(&frozen)),
        canonical(knots::knots(graph)),
        "{label}: knots differ between CSR and DiGraph"
    );
    if graph.node_count() > 0 {
        let src = graph.node_ids().next().expect("non-empty graph");
        let sp_g = shortest_path::hop_distances(graph, src);
        let sp_c = shortest_path::hop_distances(&frozen, src);
        for node in graph.node_ids() {
            assert_eq!(
                sp_g.distance(node),
                sp_c.distance(node),
                "{label}: hop distance differs between CSR and DiGraph"
            );
        }
    }
}

#[test]
fn csr_matches_digraph_on_the_figure_grids() {
    for (benchmark, counts) in [
        (Benchmark::D26Media, sweeps::FIG8_SWITCH_COUNTS),
        (Benchmark::D36x8, sweeps::FIG9_SWITCH_COUNTS),
    ] {
        for switches in counts {
            let routed = routed_benchmark(benchmark, switches);
            let cdg = Cdg::build(routed.topology(), routed.routes());
            assert_cdg_equivalence(cdg.graph(), &format!("{benchmark}/{switches}"));
        }
    }
}

#[test]
fn csr_matches_digraph_on_seeded_random_designs() {
    for seed in 0..noc_bench::DEFAULT_RANDOM_DESIGNS as u64 {
        let routed = random_routed_design(seed);
        let cdg = Cdg::build(routed.topology(), routed.routes());
        assert_cdg_equivalence(cdg.graph(), &format!("random design, seed {seed}"));
    }
}

#[test]
fn csr_matches_digraph_on_scaling_designs() {
    // The smaller scaling-grid families; the tori contribute cyclic CDGs,
    // which is where the canonical search order contract has teeth.
    for spec in [
        ScaleTopology::Mesh2d { rows: 16, cols: 16 },
        ScaleTopology::Torus2d { rows: 16, cols: 16 },
        ScaleTopology::Torus3d {
            dx: 4,
            dy: 4,
            dz: 4,
        },
        ScaleTopology::FatTree {
            levels: 4,
            arity: 3,
        },
        ScaleTopology::Dragonfly {
            groups: 5,
            routers: 4,
            global_ports: 1,
        },
    ] {
        let design = scale_design(spec);
        let cdg = Cdg::build(&design.topology, &design.routes);
        assert_cdg_equivalence(
            cdg.graph(),
            &format!("{}/{}", spec.family(), spec.switch_count()),
        );
    }
}

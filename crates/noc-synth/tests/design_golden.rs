//! Golden digests of synthesized and routed designs.
//!
//! Design preparation (clustering, interconnect construction, shortest-path
//! routing) must produce bit-identical output whenever its implementation
//! changes: every downstream answer — VC counts, removal breaks, simulator
//! outcomes — is a function of it.  Each case below reduces one design to a
//! 64-bit FNV-1a digest of
//!
//! * the clustering (`assignment`, cluster count),
//! * the link list (endpoints, VC count and bandwidth bits, in `LinkId`
//!   order),
//! * the core map, and
//! * every route's channel list,
//!
//! and compares it with a pinned value.  A mismatch prints the whole actual
//! table, so an intended semantic change can restate it in one paste.

use noc_routing::shortest::{route_all_shortest, route_all_with_cost, LinkCost};
use noc_routing::RouteSet;
use noc_synth::cluster::Clustering;
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::generators::{self, Generated};
use noc_topology::{CoreMap, Topology};

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn clustering(&mut self, clustering: &Clustering) {
        self.word(clustering.switch_count as u64);
        self.word(clustering.assignment.len() as u64);
        for &cluster in &clustering.assignment {
            self.word(cluster as u64);
        }
    }

    fn topology(&mut self, topology: &Topology) {
        self.word(topology.switch_count() as u64);
        self.word(topology.link_count() as u64);
        for (_, link) in topology.links() {
            self.word(link.source.index() as u64);
            self.word(link.target.index() as u64);
            self.word(link.vcs as u64);
            self.word(link.bandwidth.to_bits());
        }
    }

    fn core_map(&mut self, map: &CoreMap) {
        self.word(map.core_count() as u64);
        for core in 0..map.core_count() {
            let switch = map.switch_of(noc_topology::CoreId::from_index(core));
            self.word(switch.map_or(u64::MAX, |s| s.index() as u64));
        }
    }

    fn routes(&mut self, routes: &RouteSet) {
        self.word(routes.flow_count() as u64);
        for (flow, route) in routes.iter() {
            self.word(flow.index() as u64);
            self.word(route.channels().len() as u64);
            for channel in route.channels() {
                self.word(channel.link.index() as u64);
                self.word(channel.vc as u64);
            }
        }
    }
}

/// Compares `actual` `(case, digest)` rows with `expected`, printing the
/// whole actual table on any difference.
fn assert_table(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((case, digest), (want_case, want))| case == want_case && digest == want);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(case, digest)| format!("        (\"{case}\", {digest:#018x}),\n"))
            .collect();
        panic!("design digests changed; actual table:\n{table}");
    }
}

fn synthesized_digest(benchmark: Benchmark, config: &SynthesisConfig) -> u64 {
    let comm = benchmark.comm_graph();
    let design = synthesize(&comm, config)
        .unwrap_or_else(|e| panic!("{benchmark} @ {}: {e}", config.switch_count));
    let mut digest = Digest::new();
    digest.clustering(&design.clustering);
    digest.topology(&design.topology);
    digest.core_map(&design.core_map);
    digest.routes(&design.routes);
    digest.0
}

/// Every design point of Figures 8 (D26_media, 5..=25 switches) and 9
/// (D36_8, 10..=35 switches), synthesized with the figures' default
/// configuration.
#[test]
fn fig8_fig9_grid_designs_are_pinned() {
    let mut actual = Vec::new();
    for (benchmark, counts) in [(Benchmark::D26Media, 5..=25), (Benchmark::D36x8, 10..=35)] {
        for switches in counts {
            let config = SynthesisConfig::with_switches(switches);
            actual.push((
                format!("{benchmark}@{switches}"),
                synthesized_digest(benchmark, &config),
            ));
        }
    }
    assert_table(&actual, FIG89_GRID);
}

/// Every benchmark at 4, 9 and 14 switches, with both backbones.
#[test]
fn benchmark_designs_with_both_backbones_are_pinned() {
    let mut actual = Vec::new();
    for benchmark in Benchmark::ALL {
        for switches in [4, 9, 14] {
            for (backbone, config) in [
                ("tree", SynthesisConfig::with_switches(switches)),
                ("ring", SynthesisConfig::with_switches_ring(switches)),
            ] {
                actual.push((
                    format!("{benchmark}@{switches}/{backbone}"),
                    synthesized_digest(benchmark, &config),
                ));
            }
        }
    }
    assert_table(&actual, BENCHMARKS);
}

/// Shortest-path routes of a seeded uniform workload (two flows per core)
/// on every generator family at small sizes, under both cost models.
#[test]
fn generator_family_routes_are_pinned() {
    let families: Vec<(&str, Generated)> = vec![
        (
            "unidirectional_ring",
            generators::unidirectional_ring(7, 1.0),
        ),
        ("bidirectional_ring", generators::bidirectional_ring(8, 2.0)),
        ("chain", generators::chain(6, 1.0)),
        ("mesh2d", generators::mesh2d(4, 5, 1.0)),
        ("torus2d", generators::torus2d(4, 4, 3.0)),
        ("star", generators::star(6, 1.0)),
        ("fully_connected", generators::fully_connected(5, 1.0)),
        ("binary_tree", generators::binary_tree(11, 1.0)),
        ("mesh3d", generators::mesh3d(3, 3, 2, 1.0)),
        ("torus3d", generators::torus3d(3, 3, 3, 1.0)),
        ("fat_tree", generators::fat_tree(3, 2, 1.0)),
        ("dragonfly", generators::dragonfly(5, 4, 1, 1.0)),
    ];
    let mut actual = Vec::new();
    for (name, generated) in &families {
        let workload = generators::uniform_traffic(generated, 2, 0x5EED_0019, 1.0);
        for (cost_name, routes) in [
            (
                "hops",
                route_all_shortest(&generated.topology, &workload.comm, &workload.map),
            ),
            (
                "inverse_bandwidth",
                route_all_with_cost(
                    &generated.topology,
                    &workload.comm,
                    &workload.map,
                    LinkCost::InverseBandwidth,
                ),
            ),
        ] {
            let routes = routes.unwrap_or_else(|e| panic!("{name}/{cost_name}: {e}"));
            let mut digest = Digest::new();
            digest.topology(&generated.topology);
            digest.core_map(&workload.map);
            digest.routes(&routes);
            actual.push((format!("{name}/{cost_name}"), digest.0));
        }
    }
    assert_table(&actual, GENERATOR_ROUTES);
}

const FIG89_GRID: &[(&str, u64)] = &[
    ("D26_media@5", 0xf40525fd50401479),
    ("D26_media@6", 0xd3b1909eb3ee962f),
    ("D26_media@7", 0x3ee37c8e502347d1),
    ("D26_media@8", 0x2bf04e9a9e5e732e),
    ("D26_media@9", 0xa72d01b9ed9c0f58),
    ("D26_media@10", 0xb24d9af4b0b0d1e8),
    ("D26_media@11", 0x1eb378be7cca8a14),
    ("D26_media@12", 0xba5e24dfa3a114a0),
    ("D26_media@13", 0x754766bcd5d05ccc),
    ("D26_media@14", 0x8af2f6cd21d1add6),
    ("D26_media@15", 0x796b1fe7e0caadb0),
    ("D26_media@16", 0x361f16f442417fea),
    ("D26_media@17", 0x8c3f220fb394a085),
    ("D26_media@18", 0x9aad80d9b64dd6f4),
    ("D26_media@19", 0xf6502c07d79c77b4),
    ("D26_media@20", 0x649d8b97b34d583e),
    ("D26_media@21", 0xba74aec1e7231918),
    ("D26_media@22", 0x7cb9bb0d1bb3ee42),
    ("D26_media@23", 0xd589070740c3305c),
    ("D26_media@24", 0x6fcfe94d06b6e5a6),
    ("D26_media@25", 0xb1110b78065fdf70),
    ("D36_8@10", 0x51d1052695607987),
    ("D36_8@11", 0x82ba8a3561e53f41),
    ("D36_8@12", 0xaf7c9d615d2c5163),
    ("D36_8@13", 0x8dd5254aab623b2d),
    ("D36_8@14", 0xc7678ac5dfdd491d),
    ("D36_8@15", 0x22147ec158f7df0d),
    ("D36_8@16", 0xe250d404bd8ac6bd),
    ("D36_8@17", 0x626464f6bda8c02d),
    ("D36_8@18", 0xc16b4f4aff7b58df),
    ("D36_8@19", 0x706541f48a30dc79),
    ("D36_8@20", 0x278f63bb45bd77f1),
    ("D36_8@21", 0x9912c5c76599a531),
    ("D36_8@22", 0x55f4580859094ab9),
    ("D36_8@23", 0x5abc37aebbf87599),
    ("D36_8@24", 0x9d6d311a8d736731),
    ("D36_8@25", 0x201eb783dee51371),
    ("D36_8@26", 0x403abdf0830116a9),
    ("D36_8@27", 0x1c62baf004e208c9),
    ("D36_8@28", 0xf3d7ac9de8a65031),
    ("D36_8@29", 0x3f37e4830094f221),
    ("D36_8@30", 0x0e529e0d5e339259),
    ("D36_8@31", 0xa33b217f0dcdb9e9),
    ("D36_8@32", 0x2c52ac3c30cd2d31),
    ("D36_8@33", 0xce31947157a54661),
    ("D36_8@34", 0x3d05943d4ad2f6e9),
    ("D36_8@35", 0xba80a781bed6b5d9),
];

const BENCHMARKS: &[(&str, u64)] = &[
    ("D26_media@4/tree", 0xdafebd34a042b5ac),
    ("D26_media@4/ring", 0x16f9245d03b7636c),
    ("D26_media@9/tree", 0xa72d01b9ed9c0f58),
    ("D26_media@9/ring", 0x39c28b6d66810a9e),
    ("D26_media@14/tree", 0x8af2f6cd21d1add6),
    ("D26_media@14/ring", 0x1b098a0b51e51292),
    ("D36_4@4/tree", 0xef11ff1e61e794f8),
    ("D36_4@4/ring", 0x2f7eb7ffb748297e),
    ("D36_4@9/tree", 0xca77faae5f1a2424),
    ("D36_4@9/ring", 0xd04f1788f8d980ab),
    ("D36_4@14/tree", 0x637cae29e8dfffe7),
    ("D36_4@14/ring", 0x175e5b5cbd064bdc),
    ("D36_6@4/tree", 0xd8de01e70acd2efa),
    ("D36_6@4/ring", 0xde434365b4160ab7),
    ("D36_6@9/tree", 0x8c621b91fdcc5c6f),
    ("D36_6@9/ring", 0x6074427d5e12eafc),
    ("D36_6@14/tree", 0x795704b87418dc16),
    ("D36_6@14/ring", 0x57bb00eac5129dc8),
    ("D36_8@4/tree", 0x5f4fb7f5e9bb62f8),
    ("D36_8@4/ring", 0xf0b64ee6b9bba50a),
    ("D36_8@9/tree", 0xbb292368c6c2345d),
    ("D36_8@9/ring", 0x10c4bbcc8c72d7c5),
    ("D36_8@14/tree", 0xc7678ac5dfdd491d),
    ("D36_8@14/ring", 0x0668a99bfe5c54cb),
    ("D35_bott@4/tree", 0x9b07a149a64b3689),
    ("D35_bott@4/ring", 0xb19491840d2af1c8),
    ("D35_bott@9/tree", 0xf48fbb82575763d4),
    ("D35_bott@9/ring", 0xcb45e4374be09d09),
    ("D35_bott@14/tree", 0xd1fd327f27515aad),
    ("D35_bott@14/ring", 0x7a5b2b4b8d461d99),
    ("D38_tvopd@4/tree", 0x690493d0aca5a842),
    ("D38_tvopd@4/ring", 0x3f1cdb4ece79d4e5),
    ("D38_tvopd@9/tree", 0x6a24f913f5ab6b9c),
    ("D38_tvopd@9/ring", 0xb6b8130405cd5dac),
    ("D38_tvopd@14/tree", 0x51559e128ed57e6c),
    ("D38_tvopd@14/ring", 0x0f8f87f66323011f),
];

const GENERATOR_ROUTES: &[(&str, u64)] = &[
    ("unidirectional_ring/hops", 0xdc6eec7a70d99b0c),
    ("unidirectional_ring/inverse_bandwidth", 0xdc6eec7a70d99b0c),
    ("bidirectional_ring/hops", 0x92cd63a7d7e40e4a),
    ("bidirectional_ring/inverse_bandwidth", 0x92cd63a7d7e40e4a),
    ("chain/hops", 0xaa401843d29d3dc9),
    ("chain/inverse_bandwidth", 0xaa401843d29d3dc9),
    ("mesh2d/hops", 0xa949fe89e869a7b4),
    ("mesh2d/inverse_bandwidth", 0xa949fe89e869a7b4),
    ("torus2d/hops", 0x25893bb50d9b9b1d),
    ("torus2d/inverse_bandwidth", 0x25893bb50d9b9b1d),
    ("star/hops", 0x3bab791031690151),
    ("star/inverse_bandwidth", 0x3bab791031690151),
    ("fully_connected/hops", 0x066e968f04712c76),
    ("fully_connected/inverse_bandwidth", 0x066e968f04712c76),
    ("binary_tree/hops", 0xdc215e7e946b6fb1),
    ("binary_tree/inverse_bandwidth", 0xdc215e7e946b6fb1),
    ("mesh3d/hops", 0x3b31693fdc607d6e),
    ("mesh3d/inverse_bandwidth", 0x3b31693fdc607d6e),
    ("torus3d/hops", 0x65a0f9ec9db078a0),
    ("torus3d/inverse_bandwidth", 0x65a0f9ec9db078a0),
    ("fat_tree/hops", 0x1976ab689bc1e107),
    ("fat_tree/inverse_bandwidth", 0x1976ab689bc1e107),
    ("dragonfly/hops", 0xdc0ec605d0570e87),
    ("dragonfly/inverse_bandwidth", 0xdc0ec605d0570e87),
];

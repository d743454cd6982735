//! Synthetic SoC benchmark suite.
//!
//! The paper evaluates on six SoC benchmarks taken from ref. \[21\]
//! (D26_media, D36_4, D36_6, D36_8, D35_bott, D38_tvopd).  Those
//! communication specifications were never released publicly, so this module
//! provides **deterministic synthetic substitutes** that match the published
//! structure:
//!
//! * `D26_media` — 26 cores of a combined multimedia + wireless SoC: a few
//!   processors and DSPs, shared memories, a pipeline of media accelerators
//!   and a set of peripherals.  Traffic is master/slave oriented with a
//!   moderate flow count, which is why the paper observes that most
//!   synthesized topologies for it are already deadlock-free.
//! * `D36_4`, `D36_6`, `D36_8` — 36 processing cores where every core sends
//!   data to 4, 6 or 8 other cores respectively (the paper describes D36_8
//!   exactly this way); spreading traffic this widely creates many CDG
//!   cycles, which is why Figure 9 shows a large resource-ordering overhead.
//! * `D35_bott` — 35 cores with a bottleneck pattern: most cores talk to a
//!   small set of memory/IO targets.
//! * `D38_tvopd` — 38 cores arranged as a TV object-plane-decoder-like
//!   pipeline with neighbour-to-neighbour streaming plus a few global
//!   control flows.
//!
//! The exact bandwidth values are drawn from a seeded RNG so every run of the
//! suite sees the same numbers.  Only the *relative* comparison between the
//! deadlock-removal algorithm and resource ordering matters for reproducing
//! the paper's figures, and that comparison is driven by route shapes, not by
//! the absolute bandwidth values.

use crate::comm::CommGraph;
use crate::ids::CoreId;
use noc_rng::SmallRng;

/// Identifies one of the six SoC benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// 26-core multimedia + wireless SoC.
    D26Media,
    /// 36 cores, each communicating with 4 others.
    D36x4,
    /// 36 cores, each communicating with 6 others.
    D36x6,
    /// 36 cores, each communicating with 8 others.
    D36x8,
    /// 35 cores with a hot-spot/bottleneck traffic pattern.
    D35Bott,
    /// 38-core TV object-plane-decoder-like pipeline.
    D38Tvopd,
}

impl Benchmark {
    /// All six benchmarks in the order used by Figure 10 of the paper.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::D26Media,
        Benchmark::D36x4,
        Benchmark::D36x6,
        Benchmark::D36x8,
        Benchmark::D35Bott,
        Benchmark::D38Tvopd,
    ];

    /// The short name used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::D26Media => "D26_media",
            Benchmark::D36x4 => "D36_4",
            Benchmark::D36x6 => "D36_6",
            Benchmark::D36x8 => "D36_8",
            Benchmark::D35Bott => "D35_bott",
            Benchmark::D38Tvopd => "D38_tvopd",
        }
    }

    /// Number of cores in the benchmark.
    pub fn core_count(self) -> usize {
        match self {
            Benchmark::D26Media => 26,
            Benchmark::D36x4 | Benchmark::D36x6 | Benchmark::D36x8 => 36,
            Benchmark::D35Bott => 35,
            Benchmark::D38Tvopd => 38,
        }
    }

    /// Builds the benchmark's communication graph.
    pub fn comm_graph(self) -> CommGraph {
        match self {
            Benchmark::D26Media => d26_media(),
            Benchmark::D36x4 => d36(4),
            Benchmark::D36x6 => d36(6),
            Benchmark::D36x8 => d36(8),
            Benchmark::D35Bott => d35_bott(),
            Benchmark::D38Tvopd => d38_tvopd(),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn seeded_rng(tag: u64) -> SmallRng {
    // Fixed seed per benchmark so every run of the suite is identical.
    SmallRng::seed_from_u64(0x5eed_0000_0000_0000 ^ tag)
}

/// Bandwidth helper: media-class stream in MB/s.
fn stream_bw(rng: &mut SmallRng) -> f64 {
    rng.gen_range(100.0..800.0)
}

/// Bandwidth helper: control-class traffic in MB/s.
fn control_bw(rng: &mut SmallRng) -> f64 {
    rng.gen_range(5.0..50.0)
}

/// D26_media: 26-core multimedia + wireless SoC.
///
/// Structure: 3 processors, 2 DSPs, 4 shared memories, a 9-stage media
/// pipeline (camera → preproc → encode → … → display), 4 wireless blocks and
/// 4 peripherals.  Masters read/write memories; the pipeline streams
/// neighbour to neighbour; the wireless subsystem exchanges data with one
/// processor and one memory.
fn d26_media() -> CommGraph {
    let mut rng = seeded_rng(26);
    let mut g = CommGraph::new();
    let cpus: Vec<CoreId> = (0..3).map(|i| g.add_core(format!("cpu{i}"))).collect();
    let dsps: Vec<CoreId> = (0..2).map(|i| g.add_core(format!("dsp{i}"))).collect();
    let mems: Vec<CoreId> = (0..4).map(|i| g.add_core(format!("mem{i}"))).collect();
    let pipeline: Vec<CoreId> = (0..9).map(|i| g.add_core(format!("media{i}"))).collect();
    let wireless: Vec<CoreId> = (0..4).map(|i| g.add_core(format!("rf{i}"))).collect();
    let periph: Vec<CoreId> = (0..4).map(|i| g.add_core(format!("io{i}"))).collect();
    debug_assert_eq!(g.core_count(), 26);

    // Masters (cpus, dsps) to every memory, and read return traffic.
    for &m in cpus.iter().chain(dsps.iter()) {
        for &mem in &mems {
            g.add_flow(m, mem, stream_bw(&mut rng) * 0.5);
            g.add_flow(mem, m, stream_bw(&mut rng) * 0.5);
        }
    }
    // Media pipeline: neighbour-to-neighbour streaming plus DMA to memory at
    // the ends.
    for w in pipeline.windows(2) {
        g.add_flow(w[0], w[1], stream_bw(&mut rng));
    }
    g.add_flow(mems[0], pipeline[0], stream_bw(&mut rng));
    g.add_flow(*pipeline.last().unwrap(), mems[1], stream_bw(&mut rng));
    // Wireless chain anchored at cpu0 and mem2.
    for w in wireless.windows(2) {
        g.add_flow(w[0], w[1], stream_bw(&mut rng) * 0.3);
    }
    g.add_flow(cpus[0], wireless[0], control_bw(&mut rng));
    g.add_flow(
        *wireless.last().unwrap(),
        mems[2],
        stream_bw(&mut rng) * 0.3,
    );
    // Peripherals: control traffic with cpu1/cpu2.
    for (i, &p) in periph.iter().enumerate() {
        let cpu = cpus[1 + (i % 2)];
        g.add_flow(cpu, p, control_bw(&mut rng));
        g.add_flow(p, cpu, control_bw(&mut rng));
    }
    g
}

/// D36_k: 36 processing cores, each sending data to `fanout` other cores
/// chosen deterministically (a mix of near neighbours and far cores, like a
/// parallel workload with both local and global communication).
fn d36(fanout: usize) -> CommGraph {
    assert!(fanout > 0 && fanout < 36, "fanout must be in 1..36");
    let mut rng = seeded_rng(3600 + fanout as u64);
    let mut g = CommGraph::new();
    let cores: Vec<CoreId> = (0..36).map(|i| g.add_core(format!("pe{i}"))).collect();
    for (i, &src) in cores.iter().enumerate() {
        for k in 0..fanout {
            // Half the destinations are neighbours, half stride across the die.
            let offset = if k % 2 == 0 {
                k / 2 + 1
            } else {
                5 + 7 * (k / 2 + 1)
            };
            let dst = cores[(i + offset) % 36];
            if dst != src {
                g.add_flow(src, dst, stream_bw(&mut rng) * 0.4);
            }
        }
    }
    g
}

/// D35_bott: 35 cores, bottleneck pattern — 30 processing cores all talk to a
/// pool of 4 memories and one IO hub, plus sparse peer-to-peer flows.
fn d35_bott() -> CommGraph {
    let mut rng = seeded_rng(35);
    let mut g = CommGraph::new();
    let pes: Vec<CoreId> = (0..30).map(|i| g.add_core(format!("pe{i}"))).collect();
    let mems: Vec<CoreId> = (0..4).map(|i| g.add_core(format!("mem{i}"))).collect();
    let io = g.add_core("io_hub");
    debug_assert_eq!(g.core_count(), 35);
    for (i, &pe) in pes.iter().enumerate() {
        let mem = mems[i % mems.len()];
        g.add_flow(pe, mem, stream_bw(&mut rng) * 0.6);
        g.add_flow(mem, pe, stream_bw(&mut rng) * 0.6);
        if i % 5 == 0 {
            g.add_flow(pe, io, control_bw(&mut rng));
        }
        if i % 7 == 0 {
            g.add_flow(pe, pes[(i + 11) % pes.len()], control_bw(&mut rng));
        }
    }
    g
}

/// D38_tvopd: 38-core TV object-plane-decoder-like design — long streaming
/// pipelines with a few broadcast-style control flows.
fn d38_tvopd() -> CommGraph {
    let mut rng = seeded_rng(38);
    let mut g = CommGraph::new();
    let cores: Vec<CoreId> = (0..38).map(|i| g.add_core(format!("op{i}"))).collect();
    // Three parallel decode pipelines of 12 cores each.
    for p in 0..3 {
        let base = p * 12;
        for i in base..base + 11 {
            g.add_flow(cores[i], cores[i + 1], stream_bw(&mut rng));
        }
    }
    // Two controller cores broadcast configuration to pipeline heads and
    // collect status from the tails.
    let ctrl0 = cores[36];
    let ctrl1 = cores[37];
    for p in 0..3 {
        g.add_flow(ctrl0, cores[p * 12], control_bw(&mut rng));
        g.add_flow(cores[p * 12 + 11], ctrl1, control_bw(&mut rng));
    }
    // Cross links between pipelines (object plane composition).
    for p in 0..2 {
        g.add_flow(
            cores[p * 12 + 5],
            cores[(p + 1) * 12 + 5],
            stream_bw(&mut rng) * 0.5,
        );
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_match_the_paper() {
        for b in Benchmark::ALL {
            assert_eq!(b.comm_graph().core_count(), b.core_count(), "{b}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for b in Benchmark::ALL {
            let a = b.comm_graph();
            let c = b.comm_graph();
            assert_eq!(a, c, "{b} must be reproducible run-to-run");
        }
    }

    #[test]
    fn d36_fanout_controls_flow_count() {
        let f4 = Benchmark::D36x4.comm_graph().flow_count();
        let f6 = Benchmark::D36x6.comm_graph().flow_count();
        let f8 = Benchmark::D36x8.comm_graph().flow_count();
        assert!(f4 < f6 && f6 < f8);
        assert_eq!(f8, 36 * 8);
    }

    #[test]
    fn every_flow_references_valid_cores_with_positive_bandwidth() {
        for b in Benchmark::ALL {
            let g = b.comm_graph();
            for (_, f) in g.flows() {
                assert!(f.source.index() < g.core_count());
                assert!(f.destination.index() < g.core_count());
                assert_ne!(f.source, f.destination, "{b}: self flows make no sense");
                assert!(f.bandwidth > 0.0);
            }
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Benchmark::D26Media.name(), "D26_media");
        assert_eq!(Benchmark::D36x8.to_string(), "D36_8");
        assert_eq!(Benchmark::ALL.len(), 6);
    }

    #[test]
    fn bottleneck_benchmark_concentrates_traffic_on_memories() {
        let g = d35_bott();
        let flows_to = |i| {
            g.flows()
                .filter(|(_, f)| f.destination == CoreId::from_index(i))
                .count()
        };
        // Memories (cores 30..34) receive far more flows *each* than a PE does.
        let mem_in_avg = (30..34).map(flows_to).sum::<usize>() as f64 / 4.0;
        let pe_in_avg = (0..30).map(flows_to).sum::<usize>() as f64 / 30.0;
        assert!(mem_in_avg > 3.0 * pe_in_avg);
    }

    #[test]
    fn tvopd_has_three_pipelines() {
        let g = d38_tvopd();
        // Pipeline interior cores have exactly one outgoing stream flow.
        let c = CoreId::from_index(3);
        assert_eq!(g.flows().filter(|(_, f)| f.source == c).count(), 1);
        assert!(g.flow_count() >= 3 * 11);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn d36_rejects_bad_fanout() {
        d36(0);
    }
}

//! Traffic generation from a communication graph.

use crate::packet::{Packet, PacketId};
use noc_rng::SmallRng;
use noc_topology::CommGraph;

/// Traffic-generation parameters of [`generate_workload`]: how many
/// packets every flow injects, how long they are, how far apart they
/// arrive, and the seed of the arrival jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Number of packets injected per flow.
    pub packets_per_flow: usize,
    /// Packet length in flits.
    pub packet_length: usize,
    /// Mean inter-arrival gap (cycles) between consecutive packets of the
    /// same flow; the actual gap is scaled by the flow's bandwidth share so
    /// heavy flows inject more often.  A gap of 0 means all packets are
    /// ready at cycle 0 (maximum pressure — the configuration most likely to
    /// expose deadlocks).
    pub mean_gap_cycles: u64,
    /// RNG seed for the jitter on inter-arrival times.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            packets_per_flow: 8,
            packet_length: 4,
            mean_gap_cycles: 0,
            seed: 0xD1CE,
        }
    }
}

/// A generated packet workload: packets with creation times, sorted by
/// creation time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Workload {
    /// All packets, sorted by `created_at` then id.
    pub packets: Vec<Packet>,
}

impl Workload {
    /// Total packet count.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` when the workload has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Generates the packet workload for every flow of `comm`: each flow
/// injects [`TrafficConfig::packets_per_flow`] packets, and flows whose
/// bandwidth is higher relative to the maximum flow get proportionally
/// smaller inter-arrival gaps.
///
/// The workload is deterministic per [`TrafficConfig::seed`] (jitter comes
/// from `noc-rng`), so every scenario is reproducible run-to-run.
pub fn generate_workload(comm: &CommGraph, config: &TrafficConfig) -> Workload {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let max_bw = comm
        .flows()
        .map(|(_, f)| f.bandwidth)
        .fold(f64::MIN, f64::max)
        .max(1e-9);
    let mut packets = Vec::new();
    let mut next_id = 0usize;
    for (flow_id, flow) in comm.flows() {
        let relative = (flow.bandwidth / max_bw).clamp(0.05, 1.0);
        let mut time = 0u64;
        for _ in 0..config.packets_per_flow {
            packets.push(Packet {
                id: PacketId(next_id),
                flow: flow_id,
                length: config.packet_length.max(1),
                created_at: time,
            });
            next_id += 1;
            if config.mean_gap_cycles > 0 {
                let scaled = (config.mean_gap_cycles as f64 / relative).round() as u64;
                time += rng.gen_range(0..=scaled.max(1));
            }
        }
    }
    packets.sort_by_key(|p| (p.created_at, p.id.0));
    Workload { packets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::FlowId;

    fn comm() -> CommGraph {
        let mut g = CommGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_flow(a, b, 800.0);
        g.add_flow(b, c, 100.0);
        g
    }

    #[test]
    fn workload_has_packets_per_flow_for_every_flow() {
        let workload = generate_workload(&comm(), &TrafficConfig::default());
        assert_eq!(workload.len(), 16);
        assert!(!workload.is_empty());
        for flow in 0..2 {
            let flow = FlowId::from_index(flow);
            assert_eq!(
                workload.packets.iter().filter(|p| p.flow == flow).count(),
                8
            );
        }
    }

    #[test]
    fn zero_gap_injects_everything_at_cycle_zero() {
        let workload = generate_workload(&comm(), &TrafficConfig::default());
        assert!(workload.packets.iter().all(|p| p.created_at == 0));
    }

    #[test]
    fn nonzero_gap_spreads_heavy_flows_less() {
        let config = TrafficConfig {
            mean_gap_cycles: 20,
            packets_per_flow: 16,
            ..TrafficConfig::default()
        };
        let workload = generate_workload(&comm(), &config);
        let last_time = |flow: usize| {
            workload
                .packets
                .iter()
                .filter(|p| p.flow == FlowId::from_index(flow))
                .map(|p| p.created_at)
                .max()
                .unwrap()
        };
        // Flow 0 has 8x the bandwidth of flow 1, so its packets finish
        // injecting earlier.
        assert!(last_time(0) < last_time(1));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = TrafficConfig {
            mean_gap_cycles: 10,
            ..TrafficConfig::default()
        };
        assert_eq!(
            generate_workload(&comm(), &config),
            generate_workload(&comm(), &config)
        );
    }

    #[test]
    fn packet_ids_are_unique() {
        let workload = generate_workload(&comm(), &TrafficConfig::default());
        let mut ids: Vec<usize> = workload.packets.iter().map(|p| p.id.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), workload.len());
    }

    #[test]
    fn packet_length_is_at_least_one() {
        let config = TrafficConfig {
            packet_length: 0,
            ..TrafficConfig::default()
        };
        let workload = generate_workload(&comm(), &config);
        assert!(workload.packets.iter().all(|p| p.length == 1));
    }
}

//! Demonstrates an actual wormhole deadlock in simulation and shows that the
//! repaired design completes the same workload.
//!
//! Four flows chase each other around a unidirectional ring (the paper's
//! Figure 1 configuration).  With small buffers and multi-flit packets the
//! simulation stalls permanently; after the removal algorithm adds one VC
//! and re-routes one flow, the same workload finishes.
//!
//! Run with `cargo run --example ring_deadlock`.

use noc_suite::flow::{CycleBreaking, RoutedStage};
use noc_suite::sim::{AssignedVc, TrafficConfig, VcSimConfig};
use noc_suite::topology::{generators, CommGraph, CoreMap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = generators::unidirectional_ring(4, 1000.0);

    // Every core sends to the core two hops away, so every link is shared by
    // two flows and the channel dependency cycle closes.
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("core{i}"))).collect();
    for i in 0..4 {
        comm.add_flow(cores[i], cores[(i + 2) % 4], 400.0);
    }
    let mut core_map = CoreMap::new(comm.core_count());
    for (i, &core) in cores.iter().enumerate() {
        core_map.assign(core, generated.switches[i])?;
    }

    let routed = RoutedStage::with_design(comm, generated.topology, core_map)?;

    let sim_config = VcSimConfig {
        buffer_depth: 1,
        max_cycles: 100_000,
        ..VcSimConfig::default()
    };
    let traffic = TrafficConfig {
        packets_per_flow: 16,
        packet_length: 6,
        mean_gap_cycles: 0,
        seed: 42,
    };

    println!("--- original design (cyclic CDG) ---");
    let outcome = routed.simulate_vc(&AssignedVc, &sim_config, &traffic);
    println!(
        "deadlocked: {}, delivered {}/{} packets, {} stranded",
        outcome.deadlocked,
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets,
        outcome.stranded_packets
    );

    let fixed = routed.resolve_deadlocks(&CycleBreaking)?;
    println!(
        "--- after deadlock removal ({} VC added, {} cycle broken) ---",
        fixed.resolution().added_vcs(),
        fixed.resolution().cycles_broken()
    );
    let outcome = fixed.simulate_vc(&AssignedVc, &sim_config, &traffic);
    println!(
        "deadlocked: {}, delivered {}/{} packets, mean latency {:.1} cycles",
        outcome.deadlocked,
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets,
        outcome.stats.mean_latency()
    );
    Ok(())
}

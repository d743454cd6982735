//! Simulates a synthesized benchmark design before and after deadlock
//! removal and reports latency/throughput, showing that the repair costs
//! essentially nothing at runtime.
//!
//! Run with `cargo run --release --example wormhole_simulation`.

use noc_suite::flow::{CycleBreaking, RoutedStage};
use noc_suite::sim::{AssignedVc, TrafficConfig, VcSimConfig};
use noc_suite::synth::SynthesisConfig;
use noc_suite::topology::benchmarks::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = Benchmark::D36x8;
    let routed =
        RoutedStage::synthesize(benchmark.comm_graph(), &SynthesisConfig::with_switches(12))?;

    println!(
        "{benchmark}: {} cores, {} flows ({} active), 12-switch application-specific topology",
        routed.comm().core_count(),
        routed.comm().flow_count(),
        routed.active_flow_count()
    );
    match routed.deadlock_evidence() {
        None => println!("input routing is already deadlock-free"),
        Some(cycle) => println!("input routing can deadlock ({cycle})"),
    }

    let sim_config = VcSimConfig {
        buffer_depth: 2,
        max_cycles: 500_000,
        ..VcSimConfig::default()
    };
    let traffic = TrafficConfig {
        packets_per_flow: 4,
        packet_length: 5,
        mean_gap_cycles: 8,
        seed: 99,
    };

    let before = routed.simulate_vc(&AssignedVc, &sim_config, &traffic);
    println!(
        "before removal: deadlocked = {}, delivered {}/{}, mean latency {:.1}",
        before.deadlocked,
        before.stats.delivered_packets,
        before.stats.injected_packets,
        before.stats.mean_latency()
    );

    let fixed = routed.resolve_deadlocks(&CycleBreaking)?;
    let after = fixed.simulate_vc(&AssignedVc, &sim_config, &traffic);
    println!(
        "after removal ({} VCs added): deadlocked = {}, delivered {}/{}, mean latency {:.1}",
        fixed.resolution().added_vcs(),
        after.deadlocked,
        after.stats.delivered_packets,
        after.stats.injected_packets,
        after.stats.mean_latency()
    );
    Ok(())
}

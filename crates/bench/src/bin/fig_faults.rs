//! Fault-storm survivability per deadlock strategy (beyond the paper):
//! every repaired design — one per deadlock-handling scheme — is pushed
//! through the *same* seeded three-link-failure storm on the VC-fidelity
//! wormhole engine, with the cycle-safe live-reconfiguration protocol
//! rerouting the affected flows mid-flight, over the Figure 8 (D26_media)
//! and Figure 9 (D36_8) grids.
//!
//! The harness hard-asserts the protocol's guarantees while sweeping (see
//! [`noc_bench::fault_strategy_point`]): no reconfiguration epoch ever
//! commits a cyclic combined dependency graph, no run ends deadlocked, and
//! wherever the storm keeps the fabric connected every strategy keeps
//! delivering.  The printed table (and the JSON artifact) then shows what
//! the storm *cost* each strategy: delivered fraction, mean latency,
//! reroutes, and scoped-drain fallbacks.
//!
//! The artifact's `wall_ms` is the total measured task time of the sweep
//! (the sum over grid points, whichever way the tasks ran); CI bounds it.
//! Takes the shared figure flags (`--threads`, `--json`, `--out-dir`,
//! `--resume`, `--trace`; see `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, Fields};
use noc_flow::json::JsonValue;

fn print_table(data: &JsonValue) {
    println!("# Fault storms under cycle-safe live reconfiguration — Figure 8/9 grids");
    println!(
        "{:>12} {:>9} {:>7} {:>10} {:>10} {:>11} {:>9} {:>10} {:>12}",
        "benchmark",
        "switches",
        "faults",
        "connected",
        "delivered",
        "cb_latency",
        "reroutes",
        "fallbacks",
        "unreachable"
    );
    let points = data.items("points");
    for point in points {
        let runs = point.items("runs");
        let total = |key: &str| -> usize { runs.iter().map(|r| r.field("stats").count(key)).sum() };
        // The worst delivered fraction across the four strategies — the
        // figure's survivability headline for the point.
        let min_delivered = runs
            .iter()
            .map(|r| r.field("stats").num("delivered_fraction"))
            .fold(f64::INFINITY, f64::min);
        // Runs are in `FAULT_STRATEGIES` order: cycle breaking first.
        let removal = runs[0].field("stats");
        println!(
            "{:>12} {:>9} {:>7} {:>10} {:>9.1}% {:>11.1} {:>9} {:>10} {:>12}",
            point.text("benchmark"),
            point.count("switch_count"),
            point.count("faults_injected"),
            point.flag("connected"),
            min_delivered * 100.0,
            removal.num("mean_latency"),
            total("flows_rerouted"),
            total("drain_fallbacks"),
            total("unreachable_flows")
        );
    }
    println!(
        "# swept {} points in {:.0} ms",
        points.len(),
        data.num("wall_ms")
    );
}

fn main() {
    run_figure("fig_faults", print_table);
}

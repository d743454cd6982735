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
//! (the sum over grid points); CI bounds it.
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};

fn print_table(data: &Node) -> Result<(), FieldError> {
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
    let points = data.items("points")?;
    for point in &points {
        let stats = point
            .items("runs")?
            .iter()
            .map(|r| r.field("stats"))
            .collect::<Result<Vec<_>, _>>()?;
        let total = |key: &str| stats.iter().map(|s| s.count(key)).sum::<Result<usize, _>>();
        // The worst delivered fraction across the four strategies — the
        // figure's survivability headline for the point.
        let min_delivered = stats.iter().try_fold(f64::INFINITY, |min, s| {
            Ok::<_, FieldError>(min.min(s.num("delivered_fraction")?))
        })?;
        // Runs are in `STRATEGY_MATRIX_NAMES` order: cycle breaking first.
        let removal = &stats[0];
        println!(
            "{:>12} {:>9} {:>7} {:>10} {:>9.1}% {:>11.1} {:>9} {:>10} {:>12}",
            point.text("benchmark")?,
            point.count("switch_count")?,
            point.count("faults_injected")?,
            point.flag("connected")?,
            min_delivered * 100.0,
            removal.num("mean_latency")?,
            total("flows_rerouted")?,
            total("drain_fallbacks")?,
            total("unreachable_flows")?
        );
    }
    println!(
        "# swept {} points in {:.0} ms",
        points.len(),
        data.num("wall_ms")?
    );
    Ok(())
}

fn main() {
    run_figure("fig_faults", print_table);
}

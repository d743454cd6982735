//! The strategy matrix (beyond the paper): all four `DeadlockStrategy`
//! implementations — cycle breaking (removal), resource ordering
//! (prevention), escape channels (avoidance) and recovery reconfiguration
//! (recovery) — compared on the Figure 8 (D26_media) and Figure 9 (D36_8)
//! benchmark grids.
//!
//! Per grid point the table reports each scheme's VC overhead plus the two
//! scheme-specific costs the VC column cannot show: the cycles the removal
//! algorithm broke and the hop inflation of the recovery routes.
//!
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};

fn print_table(data: &Node) -> Result<(), FieldError> {
    println!("# Strategy matrix — extra VCs per deadlock strategy, Figure 8/9 grids");
    println!(
        "{:>12} {:>10} {:>16} {:>18} {:>16} {:>18} {:>8} {:>12}",
        "benchmark",
        "switches",
        "cycle_breaking",
        "resource_ordering",
        "escape_channel",
        "recovery_reconfig",
        "breaks",
        "extra_hops"
    );
    for point in data.items("points")? {
        // One outcome per strategy, in `STRATEGY_MATRIX_NAMES` order.
        let [removal, ordering, escape, recovery] = &point.items("outcomes")?[..] else {
            panic!("the matrix charges four strategies per point");
        };
        // Recovery's cost is hops, not VCs: report the total extra hops its
        // re-routed flows pay versus the shortest-path input routing.
        let extra_hops = (recovery.num("mean_hops")? - point.num("mean_hops")?)
            * point.count("active_flows")? as f64;
        println!(
            "{:>12} {:>10} {:>16} {:>18} {:>16} {:>18} {:>8} {:>12.0}",
            point.text("benchmark")?,
            point.count("switch_count")?,
            removal.count("added_vcs")?,
            ordering.count("added_vcs")?,
            escape.count("added_vcs")?,
            recovery.count("added_vcs")?,
            removal.count("cycles_broken")?,
            extra_hops.max(0.0)
        );
    }
    Ok(())
}

fn main() {
    run_figure("fig_strategy_matrix", print_table);
}

//! Reproduces Figure 9: extra VCs versus switch count for D36_8 (36 cores,
//! fan-out 8), resource ordering versus the deadlock-removal algorithm.
//!
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};

fn print_table(points: &Node) -> Result<(), FieldError> {
    println!("# Figure 9 — D36_8: extra VCs vs. switch count");
    println!(
        "{:>12} {:>22} {:>22} {:>14}",
        "switches", "resource_ordering_vc", "deadlock_removal_vc", "cycles_broken"
    );
    for point in points.elements()? {
        println!(
            "{:>12} {:>22} {:>22} {:>14}",
            point.count("switch_count")?,
            point.count("resource_ordering_vcs")?,
            point.count("deadlock_removal_vcs")?,
            point.count("cycles_broken")?
        );
    }
    Ok(())
}

fn main() {
    run_figure("fig9_d36_8", print_table);
}

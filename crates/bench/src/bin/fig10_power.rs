//! Reproduces Figure 10: normalised NoC power consumption of the
//! resource-ordering baseline relative to the deadlock-removal algorithm for
//! the six SoC benchmarks at 14 switches.
//!
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};
use noc_bench::sweeps;

fn print_table(comparisons: &Node) -> Result<(), FieldError> {
    println!(
        "# Figure 10 — normalised power (resource ordering / deadlock removal), {} switches",
        sweeps::FIG10_SWITCHES
    );
    println!(
        "{:>12} {:>18} {:>18} {:>12} {:>12}",
        "benchmark", "removal_norm", "ordering_norm", "removal_vc", "ordering_vc"
    );
    for c in comparisons.elements()? {
        println!(
            "{:>12} {:>18.3} {:>18.3} {:>12} {:>12}",
            c.text("benchmark")?,
            1.0,
            c.num("normalised_ordering_power")?,
            c.count("removal_vcs")?,
            c.count("ordering_vcs")?
        );
    }
    Ok(())
}

fn main() {
    run_figure("fig10_power", print_table);
}

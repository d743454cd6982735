//! The conservatism gap of the CDG check (beyond the paper): every Figure 8
//! (D26_media) and Figure 9 (D36_8) grid point plus a population of seeded
//! random designs, each run through the verifier triad —
//!
//! 1. the conservative check (is the CDG acyclic?),
//! 2. the certified verifier (is there an actual trappable long-worm
//!    configuration?), and
//! 3. the exact runtime wait-for-graph detector under the saturating
//!    long-worm workload the certified model assumes,
//!
//! then aggregated per benchmark: how many cyclic points are *certified*
//! deadlock-free (the false alarms), and how many VCs Algorithm 1 burns
//! repairing them.
//!
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};
use noc_bench::DEFAULT_RANDOM_DESIGNS;

fn print_table(data: &Node) -> Result<(), FieldError> {
    println!(
        "# Conservatism of the CDG check vs. the certified verifier \
         (Figure 8/9 grids + {DEFAULT_RANDOM_DESIGNS} random designs)"
    );
    println!(
        "{:>10} {:>7} {:>7} {:>13} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "benchmark",
        "points",
        "cyclic",
        "deadlockable",
        "free(gap)",
        "unknown",
        "gap_vcs",
        "replays",
        "realized"
    );
    for group in data.items("benchmarks")? {
        println!(
            "{:>10} {:>7} {:>7} {:>13} {:>10} {:>8} {:>8} {:>9} {:>9}",
            group.text("benchmark")?,
            group.items("points")?.len(),
            group.count("cyclic_points")?,
            group.count("certified_deadlockable")?,
            group.count("certified_free_cyclic")?,
            group.count("unknown")?,
            group.count("gap_vcs")?,
            group.count("witness_attempts")?,
            group.count("witness_realized")?
        );
    }
    Ok(())
}

fn main() {
    run_figure("fig_conservatism", print_table);
}

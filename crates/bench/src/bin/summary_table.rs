//! Reproduces the prose numbers of Section 5: average VC / area / power
//! savings of the deadlock-removal algorithm versus resource ordering and its
//! overhead versus the unmodified (deadlock-prone) designs.
//!
//! It runs the Figure 10 tasks and aggregates them.
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};
use noc_bench::{sweeps, PowerComparison};

fn print_table(data: &Node) -> Result<(), FieldError> {
    println!(
        "# Section 5 summary — per-benchmark comparison at {} switches",
        sweeps::FIG10_SWITCHES
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>14} {:>16} {:>16}",
        "benchmark",
        "removal_vc",
        "ordering_vc",
        "vc_saving",
        "area_saving",
        "power_saving",
        "power_overhead"
    );
    for c in data.items("comparisons")? {
        let c = PowerComparison::from_json(c.value).expect("the artifact holds power comparisons");
        println!(
            "{:>12} {:>12} {:>12} {:>13.1}% {:>13.1}% {:>15.2}% {:>15.2}%",
            c.benchmark,
            c.removal_vcs,
            c.ordering_vcs,
            c.vc_saving_vs_ordering() * 100.0,
            c.area_saving_vs_ordering() * 100.0,
            c.power_saving_vs_ordering() * 100.0,
            c.removal_power_overhead() * 100.0
        );
    }
    let s = data.field("summary")?;
    println!();
    println!("# Aggregate (paper reports: 88% VC, 66% area, 8.6% power savings; <5% overhead)");
    println!(
        "mean VC saving vs. resource ordering:    {:>6.1}%",
        s.num("mean_vc_saving")? * 100.0
    );
    println!(
        "mean area saving vs. resource ordering:  {:>6.1}%",
        s.num("mean_area_saving")? * 100.0
    );
    println!(
        "mean power saving vs. resource ordering: {:>6.2}%",
        s.num("mean_power_saving")? * 100.0
    );
    println!(
        "mean power overhead vs. no removal:      {:>6.2}%",
        s.num("mean_power_overhead")? * 100.0
    );
    println!(
        "mean area overhead vs. no removal:       {:>6.2}%",
        s.num("mean_area_overhead")? * 100.0
    );
    Ok(())
}

fn main() {
    run_figure("summary_table", print_table);
}

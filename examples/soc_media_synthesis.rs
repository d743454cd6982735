//! End-to-end application-specific flow on the D26_media SoC benchmark:
//! synthesize topologies across a range of switch counts, compare the VC
//! overhead of the deadlock-removal algorithm with resource ordering, and
//! estimate the resulting power — i.e. a miniature version of the paper's
//! Figures 8 and 10, driven by a single `FlowSweep`.
//!
//! `FlowSweep::run` maps the grid points across the machine's cores and
//! returns them in deterministic switch-count order, so the table (and the
//! optional JSON export) is the same however the workers interleave.
//!
//! Run with `cargo run --release --example soc_media_synthesis`, optionally
//! passing a path to also dump the raw sweep points as JSON:
//! `cargo run --release --example soc_media_synthesis -- points.json`.

use noc_suite::flow::json::ToJson;
use noc_suite::flow::{CycleBreaking, DeadlockStrategy, FlowSweep, ResourceOrdering};
use noc_suite::topology::benchmarks::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let removal = CycleBreaking;
    let ordering = ResourceOrdering;
    let points = FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .switch_counts((6..=22).step_by(4))
        .run(&[&removal, &ordering])?;

    println!(
        "{:>9} {:>12} {:>12} {:>16} {:>16}",
        "switches", "removal_vc", "ordering_vc", "removal_power", "ordering_power"
    );
    for point in &points {
        let removal = point.outcome(removal.name()).expect("strategy ran");
        let ordering = point.outcome(ordering.name()).expect("strategy ran");
        println!(
            "{:>9} {:>12} {:>12} {:>13.1} mW {:>13.1} mW",
            point.switch_count,
            removal.added_vcs,
            ordering.added_vcs,
            removal.power_mw.expect("power estimates are on by default"),
            ordering
                .power_mw
                .expect("power estimates are on by default")
        );
    }

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, points.to_json())?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

//! Dynamic validation (beyond the paper's analytical argument): simulate
//! each benchmark design before and after deadlock removal under a
//! high-pressure wormhole workload and report whether deadlocks occur.
//!
//! Both runs use the VC-fidelity engine (`noc_sim::vc_engine`) with the
//! `AssignedVc` policy, so the "after" run actually rides the VCs the
//! removal algorithm assigned, and deadlock is decided by the exact
//! wait-for-graph detector rather than a timeout guess.
//!
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};

fn print_table(validations: &Node) -> Result<(), FieldError> {
    println!("# Wormhole simulation: deadlock behaviour before/after removal (10-switch designs)");
    println!(
        "{:>12} {:>14} {:>20} {:>18} {:>16} {:>16} {:>12}",
        "benchmark",
        "cdg_cyclic",
        "original_deadlock",
        "fixed_deadlock",
        "fixed_delivered",
        "fixed_latency",
        "fixed_p95"
    );
    for v in validations.elements()? {
        println!(
            "{:>12} {:>14} {:>20} {:>18} {:>16} {:>16.1} {:>12}",
            v.text("benchmark")?,
            v.flag("original_cdg_cyclic")?,
            v.flag("original_deadlocked")?,
            v.flag("fixed_deadlocked")?,
            v.count("fixed_delivered")?,
            v.num("fixed_mean_latency")?,
            v.count("fixed_p95_latency")?
        );
    }
    Ok(())
}

fn main() {
    run_figure("sim_validation", print_table);
}

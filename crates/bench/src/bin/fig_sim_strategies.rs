//! The dynamic half of the strategy comparison (beyond the paper): every
//! deadlock-handling strategy simulated on the VC-fidelity wormhole engine
//! over the Figure 8 (D26_media) and Figure 9 (D36_8) grids, swept across
//! injection rates.
//!
//! Six policies run the *same* workload per (grid point × rate) — uniform
//! traffic plus a cycle-stress prefix that presses on the unrepaired
//! design's cyclic CDG SCCs:
//!
//! * `unsafe-single-vc` — the control group: the unrepaired design with
//!   every VC assignment discarded; must deadlock (caught by the exact
//!   wait-for-graph detector) wherever the dynamic trap is realisable;
//! * `cycle-breaking`, `resource-ordering`, `escape-channel` — repaired
//!   designs honouring their VC assignments;
//! * `escape-channel-adaptive` — the escape design under the
//!   Duato-adaptive policy (any VC, escape always reachable);
//! * `recovery-reconfig` — the unrepaired design with the DBR-style
//!   dynamic drain executing the recovery strategy at runtime.
//!
//! Takes the shared figure flags (`--threads`, `--json`, `--trace`; see
//! `noc_bench::artifact::FigureCli`).

use noc_bench::artifact::{run_figure, FieldError, Node};

fn print_table(data: &Node) -> Result<(), FieldError> {
    println!("# VC-aware wormhole simulation — per-strategy delivery/latency, Figure 8/9 grids");
    println!(
        "{:>12} {:>9} {:>7} {:>16} {:>10} {:>11} {:>11} {:>11} {:>9}",
        "benchmark",
        "switches",
        "cyclic",
        "unsafe_deadlock",
        "delivered",
        "p50_cycles",
        "p95_cycles",
        "p99_cycles",
        "drains"
    );
    for point in data.items("points")? {
        // One series of rates per policy, in `SIM_STRATEGY_POLICIES` order.
        let rates = point
            .items("series")?
            .iter()
            .map(|s| s.items("rates"))
            .collect::<Result<Vec<_>, _>>()?;
        // The gaps at which the unsafe baseline deadlocked, e.g. "0,8".
        let mut deadlock_gaps = Vec::new();
        for r in &rates[0] {
            if r.field("stats")?.flag("deadlocked")? {
                deadlock_gaps.push(r.count("mean_gap_cycles")?.to_string());
            }
        }
        let deadlock_gaps = if deadlock_gaps.is_empty() {
            "-".to_string()
        } else {
            format!("gap {}", deadlock_gaps.join(","))
        };
        // Saturation-point latency of the paper's strategy, and the total
        // drain events of the recovery policy across all rates.
        let removal = rates[1][0].field("stats")?;
        let drains = rates[5]
            .iter()
            .map(|r| r.count("recovery_events"))
            .sum::<Result<usize, _>>()?;
        // Everything but the unsafe baseline delivers every packet.
        let mut strategies_deliver = true;
        for r in rates.iter().skip(1).flatten() {
            let stats = r.field("stats")?;
            strategies_deliver &= !stats.flag("deadlocked")?
                && stats.count("delivered")? == stats.count("injected")?;
        }
        println!(
            "{:>12} {:>9} {:>7} {:>16} {:>10} {:>11} {:>11} {:>11} {:>9}",
            point.text("benchmark")?,
            point.count("switch_count")?,
            point.flag("baseline_cdg_cyclic")?,
            deadlock_gaps,
            if strategies_deliver { "100%" } else { "FAIL" },
            removal.count("p50_latency")?,
            removal.count("p95_latency")?,
            removal.count("p99_latency")?,
            drains
        );
    }
    Ok(())
}

fn main() {
    run_figure("fig_sim_strategies", print_table);
}

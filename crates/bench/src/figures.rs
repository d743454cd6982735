//! The job sources of the figures: each figure's only definition.
//!
//! A figure is a task list, a per-task computation that renders one JSON
//! fragment, and an `assemble` step that splices the fragments into the
//! artifact.  The figure binaries run these sources in memory; a run
//! through the job store (`noc_jobs::JobRunner`) assembles from the same
//! fragments, so it writes the same bytes, resumed or cached (pinned by
//! `tests/job_resume.rs`).
//!
//! Each figure's registry entry in [`FIGURES`] pairs its source with the
//! invariants its artifact must hold, which `noc_profile check` enforces
//! (see [`crate::check`]); [`job_source`](crate::jobs::job_source) and the
//! checker both find a figure by name there.

use crate::artifact::Node;
use crate::check::{rule, CheckError};
use crate::jobs::{fig89_grid, segment_grid, Params};
use crate::{
    conservatism_point_for, fault_strategy_point, matrix_strategies, matrix_sweep,
    power_comparison, random_routed_design, routed_benchmark, sim_strategy_point,
    simulate_before_after, summary, sweeps, vc_overhead_sweep, PowerComparison,
    DEFAULT_RANDOM_DESIGNS, SCALE_GRID, SCALE_PINNED, SIM_INJECTION_GAPS, SIM_STRATEGY_POLICIES,
    STRATEGY_MATRIX_NAMES,
};
use noc_flow::json::{Artifact, JsonValue, ObjectWriter, ParsedArtifact, RawJson, ToJson};
use noc_flow::{FlowSweep, PreparedPoint};
use noc_jobs::{AssembleContext, JobError, JobSource};
use noc_sim::DetectionKind;
use noc_topology::benchmarks::Benchmark;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// What a figure builder returns: the figure's task decomposition.
pub type SourceResult = Result<Box<dyn JobSource>, JobError>;

/// A figure's invariants over its artifact's `data`.
type Invariants = fn(&Node<'_>) -> Result<(), CheckError>;

/// One figure of the registry.
pub struct Figure {
    /// The figure name: binary, artifact envelope and job spec.
    pub name: &'static str,
    /// Builds the job source, its grid narrowed by the spec's params.
    /// `None` for `fig_scale`, whose timings must run serially rather
    /// than as independently recordable tasks sharing the executor.
    pub source: Option<fn(&Params) -> SourceResult>,
    invariants: Invariants,
    /// The keys (whitespace-separated), at any depth, that hold
    /// measurements rather than answers;
    /// [`same_as`](crate::check::same_as) ignores them.
    pub measured: &'static str,
}

impl Figure {
    /// Checks the figure's invariants on a parsed artifact.
    pub fn check(&self, artifact: &ParsedArtifact) -> Result<(), CheckError> {
        (self.invariants)(&Node::new(&artifact.data, "data"))
    }
}

const fn figure(
    name: &'static str,
    source: Option<fn(&Params) -> SourceResult>,
    invariants: Invariants,
    measured: &'static str,
) -> Figure {
    Figure {
        name,
        source,
        invariants,
        measured,
    }
}

/// Every figure, by name.
pub static FIGURES: [Figure; 10] = [
    figure(
        "fig8_d26_media",
        Some(fig8),
        |data| check_vc_sweep(data, "fig8"),
        "",
    ),
    figure(
        "fig9_d36_8",
        Some(fig9),
        |data| check_vc_sweep(data, "fig9"),
        "",
    ),
    figure("fig10_power", Some(power), check_power, ""),
    figure("summary_table", Some(summary_table), check_summary, ""),
    figure(
        "sim_validation",
        Some(sim_validation),
        check_sim_validation,
        "",
    ),
    figure(
        "fig_strategy_matrix",
        Some(strategy_matrix),
        check_strategy_matrix,
        "",
    ),
    figure(
        "fig_sim_strategies",
        Some(sim_strategies),
        check_sim_strategies,
        "",
    ),
    figure("fig_faults", Some(faults), check_faults, "wall_ms"),
    figure(
        "fig_conservatism",
        Some(conservatism),
        check_conservatism,
        "",
    ),
    figure(
        "fig_scale",
        None,
        check_scale,
        "total_removal_ms removal_ms removal_phases time_ms",
    ),
];

/// The registry entry of `name`.
pub(crate) fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|figure| figure.name == name)
}

/// `"{benchmark} @ {switch_count} switches"`: where a grid point's
/// failure is.
fn grid_where(point: &Node<'_>) -> Result<String, CheckError> {
    let (benchmark, switches) = (point.text("benchmark")?, point.num("switch_count")?);
    Ok(format!("{benchmark} @ {switches} switches"))
}

/// The last row whose `key` is `name` (rows read like a map keyed by it).
fn named<'n, 'a>(rows: &'n [Node<'a>], key: &str, name: &str) -> Result<&'n Node<'a>, CheckError> {
    let row = rows.iter().rev().find(|row| row.text(key) == Ok(name));
    row.ok_or_else(|| CheckError::Failed(format!("no row with {key} {name:?}")))
}

/// The distinct `key` values of `rows`.
fn names<'a>(rows: &[Node<'a>], key: &str) -> Result<BTreeSet<&'a str>, CheckError> {
    Ok(rows
        .iter()
        .map(|row| row.text(key))
        .collect::<Result<_, _>>()?)
}

/// Fails unless `data.key` is exactly the list `expected`.
fn check_list(data: &Node<'_>, key: &str, expected: &[&str], at: &str) -> Result<(), CheckError> {
    let got = data.field(key)?.value;
    let what = format!("must be {expected:?}, got {got}");
    rule(got.to_json() == expected.to_json(), at, &what)
}

/// The contracts of the four strategies on one design: escape channels
/// break no cycle, recovery adds no VC, and removal needs no more VCs than
/// resource ordering.
fn check_strategy_rows(rows: &[Node<'_>], at: &str) -> Result<(), CheckError> {
    let row = |name| named(rows, "strategy", name);
    let vcs = |name| Ok::<_, CheckError>(row(name)?.num("added_vcs")?);
    let must = |holds, what: &str| rule(holds, at, what);
    let escape = row("escape-channel")?.num("cycles_broken")?;
    let what = "escape-channel avoidance must break zero cycles";
    must(escape == 0.0, what)?;
    let recovery = vcs("recovery-reconfig")?;
    let what = "recovery reconfiguration must add zero VCs";
    must(recovery == 0.0, what)?;
    let removal_wins = vcs("cycle-breaking")? <= vcs("resource-ordering")?;
    let what = "removal must not need more VCs than resource ordering";
    must(removal_wins, what)
}

/// Fails unless `points` cover the Figure 8 and Figure 9 benchmarks.
fn check_fig89(points: &[Node<'_>], at: &str) -> Result<(), CheckError> {
    let got = names(points, "benchmark")?;
    let covered = [Benchmark::D26Media, Benchmark::D36x8].map(|b| got.contains(b.name()));
    let what = format!("must cover the Figure 8 and Figure 9 benchmarks, got {got:?}");
    rule(covered == [true; 2], at, &what)
}

/// One task per item: the shape of every figure but the strategy matrix,
/// which differ only in their items, their per-item computation and their
/// assembly.
struct PointSource<T> {
    figure: &'static str,
    items: Vec<T>,
    label: fn(&T) -> String,
    point: fn(&T) -> String,
    assemble: fn(&AssembleContext<'_>) -> Result<String, JobError>,
}

impl<T: Sync> JobSource for PointSource<T> {
    fn figure(&self) -> &str {
        self.figure
    }

    fn task_count(&self) -> usize {
        self.items.len()
    }

    fn task_label(&self, index: usize) -> String {
        (self.label)(&self.items[index])
    }

    fn run_task(&self, index: usize) -> Result<String, JobError> {
        Ok((self.point)(&self.items[index]))
    }

    fn assemble(&self, ctx: &AssembleContext<'_>) -> Result<String, JobError> {
        (self.assemble)(ctx)
    }
}

fn grid_label(&(benchmark, switch_count): &(Benchmark, usize)) -> String {
    format!("{benchmark} @ {switch_count} switches")
}

/// Renders a JSON array from raw task results, verbatim.
fn splice_array<S: AsRef<str>>(results: &[S]) -> String {
    let items: Vec<&str> = results.iter().map(AsRef::as_ref).collect();
    format!("[{}]", items.join(","))
}

/// The envelope around an already rendered payload.
fn envelope(figure: &str, payload: &str) -> String {
    Artifact::new(figure, &RawJson(payload)).render()
}

/// Plain array payload: `"data": [<point>, ...]`.
fn assemble_plain(ctx: &AssembleContext<'_>) -> Result<String, JobError> {
    Ok(envelope(ctx.figure, &splice_array(ctx.results)))
}

/// Figures 8 and 9: one task per feasible switch count of `benchmark`,
/// each the removal-versus-ordering VC counts of one synthesized design.
pub fn vc_sweep(figure: &'static str, benchmark: Benchmark, counts: Vec<usize>) -> SourceResult {
    Ok(Box::new(PointSource {
        figure,
        items: segment_grid(benchmark, &counts),
        label: grid_label,
        point: |&(benchmark, switch_count)| {
            vc_overhead_sweep(benchmark, [switch_count])
                .into_iter()
                .next()
                .unwrap_or_else(|| {
                    panic!("grid point {benchmark}/{switch_count} was pre-filtered feasible")
                })
                .to_json()
        },
        assemble: assemble_plain,
    }))
}

fn fig8(params: &Params) -> SourceResult {
    let counts = params.counts_or(sweeps::FIG8_SWITCH_COUNTS)?;
    vc_sweep("fig8_d26_media", Benchmark::D26Media, counts)
}

fn fig9(params: &Params) -> SourceResult {
    let counts = params.counts_or(sweeps::FIG9_SWITCH_COUNTS)?;
    vc_sweep("fig9_d36_8", Benchmark::D36x8, counts)
}

/// Figures 8 and 9: removal never needs more VCs than resource ordering.
fn check_vc_sweep(data: &Node<'_>, figure: &str) -> Result<(), CheckError> {
    for point in data.nonempty(&format!("{figure} data"))? {
        let keys = "switch_count resource_ordering_vcs deadlock_removal_vcs cycles_broken";
        point.require_keys(keys, &format!("{figure} point"))?;
        let removal = point.num("deadlock_removal_vcs")?;
        let ordering = point.num("resource_ordering_vcs")?;
        let at = format!("{figure} @ {} switches", point.num("switch_count")?);
        let message = format!("removal needs {removal} VCs > ordering's {ordering}");
        rule(removal <= ordering, &at, &message)?;
    }
    Ok(())
}

/// Every benchmark (or the requested ones) at one switch count (`default`
/// unless the params give one), infeasible points filtered like the sweep
/// does: the grid of Figure 10, the summary and the dynamic validation.
fn benchmark_grid(
    figure: &str,
    params: &Params,
    default: usize,
) -> Result<Vec<(Benchmark, usize)>, JobError> {
    if params.switch_counts.is_some() {
        return Err(JobError::Spec(format!(
            "{figure} takes a single \"switch_count\""
        )));
    }
    let benchmarks = params
        .benchmarks
        .clone()
        .unwrap_or_else(|| Benchmark::ALL.to_vec());
    Ok(FlowSweep::new()
        .benchmarks(benchmarks)
        .switch_counts([params.switch_count.unwrap_or(default)])
        .grid_points())
}

fn power_point(&(benchmark, switch_count): &(Benchmark, usize)) -> String {
    power_comparison(benchmark, switch_count).to_json()
}

/// One power comparison: ordering costs at least as much power as
/// removal, and needs at least as many VCs.
fn check_power_comparison(comparison: &Node<'_>, figure: &str) -> Result<(), CheckError> {
    let at = format!("{figure} {}", comparison.text("benchmark").unwrap_or("?"));
    let keys = "benchmark original_power_mw removal_power_mw ordering_power_mw original_area_um2 \
        removal_area_um2 ordering_area_um2 removal_vcs ordering_vcs normalised_ordering_power";
    comparison.require_keys(keys, &at)?;
    let normalised = comparison.num("normalised_ordering_power")?;
    let what =
        format!("resource ordering must cost at least as much power as removal (got {normalised})");
    rule(normalised >= 1.0, &at, &what)?;
    let removal = comparison.num("removal_vcs")?;
    rule(
        removal <= comparison.num("ordering_vcs")?,
        &at,
        "VC comparison inverted",
    )
}

fn check_power(data: &Node<'_>) -> Result<(), CheckError> {
    for comparison in data.nonempty("fig10 data")? {
        check_power_comparison(&comparison, "fig10")?;
    }
    Ok(())
}

/// Figure 10: one power/area comparison per benchmark.
pub fn power(params: &Params) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "fig10_power",
        items: benchmark_grid("fig10_power", params, sweeps::FIG10_SWITCHES)?,
        label: grid_label,
        point: power_point,
        assemble: assemble_plain,
    }))
}

/// The Section 5 summary: the Figure 10 tasks, assembled into the
/// per-benchmark comparisons plus their aggregate savings.
pub fn summary_table(params: &Params) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "summary_table",
        items: benchmark_grid("summary_table", params, sweeps::FIG10_SWITCHES)?,
        label: grid_label,
        point: power_point,
        assemble: |ctx| {
            // `f64` round-trips exactly through the writer and the parser,
            // so the rebuilt comparisons aggregate to the directly computed
            // summary.
            let comparisons = ctx
                .results
                .iter()
                .map(|result| {
                    PowerComparison::from_json(&JsonValue::parse(result)?).ok_or_else(|| {
                        JobError::Spec("summary task record is not a power comparison".into())
                    })
                })
                .collect::<Result<Vec<_>, JobError>>()?;
            let mut payload = String::new();
            ObjectWriter::new(&mut payload)
                .field("comparisons", &RawJson(&splice_array(ctx.results)))
                .field("summary", &summary(&comparisons))
                .finish();
            Ok(envelope(ctx.figure, &payload))
        },
    }))
}

/// The summary: every comparison holds, and the mean VC saving is a
/// fraction in (0, 1].
fn check_summary(data: &Node<'_>) -> Result<(), CheckError> {
    data.require_keys("comparisons summary", "summary_table data")?;
    for comparison in data
        .field("comparisons")?
        .nonempty("summary_table comparisons")?
    {
        check_power_comparison(&comparison, "summary")?;
    }
    let aggregates = data.field("summary")?;
    let keys = "mean_vc_saving mean_area_saving mean_power_saving mean_power_overhead \
        mean_area_overhead";
    aggregates.require_keys(keys, "summary aggregates")?;
    let saving = aggregates.num("mean_vc_saving")?;
    let what = "mean VC saving out of range";
    rule(0.0 < saving && saving <= 1.0, "summary", what)
}

/// The dynamic validation: every benchmark simulated before and after
/// removal.
pub fn sim_validation(params: &Params) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "sim_validation",
        items: benchmark_grid("sim_validation", params, sweeps::SIM_SWITCHES)?,
        label: grid_label,
        point: |&(benchmark, switch_count)| {
            simulate_before_after(benchmark, switch_count).to_json()
        },
        assemble: assemble_plain,
    }))
}

/// The repaired design never deadlocks, and delivers packets.
fn check_sim_validation(data: &Node<'_>) -> Result<(), CheckError> {
    for validation in data.nonempty("sim_validation data")? {
        let name = validation.text("benchmark").unwrap_or("?");
        let keys = "benchmark original_cdg_cyclic original_deadlocked fixed_deadlocked \
            fixed_delivered fixed_mean_latency fixed_p95_latency";
        validation.require_keys(keys, &format!("sim_validation {name}"))?;
        let must = |holds, what: &str| rule(holds, name, what);
        let deadlocked = validation.flag("fixed_deadlocked")?;
        must(!deadlocked, "the repaired design deadlocked in simulation")?;
        let delivered = validation.num("fixed_delivered")?;
        must(delivered > 0.0, "the repaired design delivered no packets")?;
    }
    Ok(())
}

/// The VC-aware simulation sweep: every policy × injection rate on each
/// Figure 8/9 grid point.
pub fn sim_strategies(params: &Params) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "fig_sim_strategies",
        items: fig89_grid(params)?,
        label: grid_label,
        point: |&(benchmark, switch_count)| sim_strategy_point(benchmark, switch_count).to_json(),
        assemble: |ctx| {
            let gaps: Vec<usize> = SIM_INJECTION_GAPS.iter().map(|&g| g as usize).collect();
            let policies = SIM_STRATEGY_POLICIES.map(str::to_string).to_vec();
            let mut payload = String::new();
            ObjectWriter::new(&mut payload)
                .field("injection_gaps", &gaps)
                .field("policies", &policies)
                .field("points", &RawJson(&splice_array(ctx.results)))
                .finish();
            Ok(envelope(ctx.figure, &payload))
        },
    }))
}

/// The simulation sweep: every deadlock-handling policy delivers every
/// packet at every rate; the unsafe baseline deadlocks only on a cyclic
/// CDG, only as the exact detector establishes it, wherever it does the
/// DBR-style drain fires (arXiv 1211.5747), and somewhere it does.
fn check_sim_strategies(data: &Node<'_>) -> Result<(), CheckError> {
    data.require_keys("injection_gaps policies points", "fig_sim_strategies data")?;
    check_list(data, "policies", &SIM_STRATEGY_POLICIES, "policy list")?;
    let gaps = data.field("injection_gaps")?.nonempty("injection_gaps")?;
    let gaps: Vec<&JsonValue> = gaps.iter().map(|gap| gap.value).collect();
    let points = data
        .field("points")?
        .nonempty("fig_sim_strategies points")?;
    check_fig89(&points, "the sweep")?;
    let mut baseline_deadlock_points = 0;
    for point in &points {
        let keys = "benchmark switch_count active_flows baseline_cdg_cyclic stress_flows series";
        point.require_keys(keys, "fig_sim_strategies point")?;
        let at = grid_where(point)?;
        let must = |holds, what: &str| rule(holds, &at, what);
        let series = point.items("series")?;
        let policies = names(&series, "policy")?;
        let expected = BTreeSet::from(SIM_STRATEGY_POLICIES);
        let what = format!("expected one series per policy, got {policies:?}");
        must(policies == expected, &what)?;
        for entry in &series {
            let policy = entry.text("policy")?;
            let rates = entry.items("rates")?;
            let swept = rates
                .iter()
                .map(|rate| Ok(rate.field("mean_gap_cycles")?.value));
            let swept = swept.collect::<Result<Vec<_>, CheckError>>()?;
            let what = format!("{policy}: rates must cover every swept gap");
            must(swept == gaps, &what)?;
            for rate in &rates {
                let keys = "mean_gap_cycles stats detected_by recovery_events packets_drained \
                    flows_reconfigured";
                rate.require_keys(keys, &format!("{at} {policy} rate"))?;
                let keys = "injected delivered deadlocked mean_latency p50_latency p95_latency \
                    p99_latency max_latency throughput cycles";
                let what = format!("{at} {policy} stats");
                rate.field("stats")?.require_keys(keys, &what)?;
            }
        }
        // The headline: every deadlock-handling policy delivers every
        // packet, deadlock-free, at every rate.
        for policy in policies.into_iter().filter(|&p| p != "unsafe-single-vc") {
            for rate in named(&series, "policy", policy)?.items("rates")? {
                let (stats, gap) = (rate.field("stats")?, rate.num("mean_gap_cycles")?);
                let deadlocked = stats.flag("deadlocked")?;
                must(!deadlocked, &format!("{policy} deadlocked at gap {gap}"))?;
                let (delivered, injected) = (stats.num("delivered")?, stats.num("injected")?);
                let what = format!("{policy} delivered {delivered}/{injected} at gap {gap}");
                must(delivered == injected, &what)?;
            }
        }
        // The control group.  Every series covers the same gaps, so the
        // zip pairs them all.
        let unsafe_rates = named(&series, "policy", "unsafe-single-vc")?.items("rates")?;
        let recovery_rates = named(&series, "policy", "recovery-reconfig")?.items("rates")?;
        let mut deadlocked = false;
        for (rate, recovery) in unsafe_rates.iter().zip(&recovery_rates) {
            if !rate.field("stats")?.flag("deadlocked")? {
                continue;
            }
            deadlocked = true;
            let what = "acyclic baseline CDG cannot deadlock, but the unsafe run did";
            must(point.flag("baseline_cdg_cyclic")?, what)?;
            let gap = rate.num("mean_gap_cycles")?;
            let detected_by = rate.field("detected_by")?.value;
            let exact = detected_by.as_str() == Some(DetectionKind::WaitForGraph.name());
            let what = format!(
                "unsafe deadlock at gap {gap} was established by {detected_by}, not the exact \
                 detector"
            );
            must(exact, &what)?;
            let drains = recovery.num("recovery_events")?;
            let what =
                format!("unsafe run deadlocked at gap {gap} but the dynamic drain never fired");
            must(drains >= 1.0, &what)?;
        }
        baseline_deadlock_points += usize::from(deadlocked);
    }
    let what = "no grid point shows the unsafe single-VC baseline deadlocking — the \
        experiment's control group is vacuous";
    rule(baseline_deadlock_points > 0, "fig_sim_strategies", what)
}

/// The fault-storm sweep: every strategy's repaired design through the
/// same seeded storm on each Figure 8/9 grid point.
pub fn faults(params: &Params) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "fig_faults",
        items: fig89_grid(params)?,
        label: grid_label,
        point: |&(benchmark, switch_count)| fault_strategy_point(benchmark, switch_count).to_json(),
        assemble: |ctx| {
            let strategies = STRATEGY_MATRIX_NAMES.map(str::to_string).to_vec();
            // Total measured task time: the same on both run paths, and it
            // survives resumption.
            let wall_ms = ctx.task_ms_total as f64;
            let mut payload = String::new();
            ObjectWriter::new(&mut payload)
                .field("strategies", &strategies)
                .field("wall_ms", &wall_ms)
                .field("points", &RawJson(&splice_array(ctx.results)))
                .finish();
            Ok(envelope(ctx.figure, &payload))
        },
    }))
}

/// Bound on fig_faults' recorded sweep time: the epoch protocol
/// degenerating (e.g. looping on its scoped-drain fallback) fails the check
/// even when every logical invariant holds.  The sweep takes about 7 s on
/// two cores; the bound leaves room for slow shared runners.
pub(crate) const MAX_FAULT_SWEEP_MS: f64 = 180_000.0;

/// The fault sweep: no epoch commits a cyclic dependency graph, no run
/// ends deadlocked, a connected storm loses nothing, some run takes the
/// scoped-drain fallback, and the sweep stays under
/// [`MAX_FAULT_SWEEP_MS`].
fn check_faults(data: &Node<'_>) -> Result<(), CheckError> {
    data.require_keys("strategies wall_ms points", "fig_faults data")?;
    check_list(data, "strategies", &STRATEGY_MATRIX_NAMES, "strategy list")?;
    let points = data.field("points")?.nonempty("fig_faults points")?;
    check_fig89(&points, "the sweep")?;
    let mut fallbacks = 0.0;
    for point in &points {
        let keys = "benchmark switch_count active_flows faults_injected connected runs";
        point.require_keys(keys, "fig_faults point")?;
        let at = grid_where(point)?;
        let (faults, connected) = (point.num("faults_injected")?, point.flag("connected")?);
        let vacuous = "the storm scheduled no failures — the point is vacuous";
        rule(faults >= 1.0, &at, vacuous)?;
        let runs = point.items("runs")?;
        let order = runs.iter().map(|run| run.text("strategy"));
        let order = order.collect::<Result<Vec<_>, _>>()?;
        let what = format!("expected one run per strategy in order, got {order:?}");
        rule(order == STRATEGY_MATRIX_NAMES, &at, &what)?;
        for (run, strategy) in runs.iter().zip(order) {
            run.require_keys("strategy added_vcs stats", &format!("{at} run"))?;
            let stats = run.field("stats")?;
            let keys = "faults_injected reconfig_events epochs_committed cyclic_commits \
                drain_fallbacks packets_drained flows_rerouted unreachable_flows unreachable_packets \
                injected delivered delivered_fraction mean_latency connected deadlocked";
            stats.require_keys(keys, &format!("{at} {strategy} stats"))?;
            let label = format!("{at}: {strategy}");
            let must = |holds, what: &str| rule(holds, &label, what);
            let stat = |key| stats.num(key);
            // The protocol's core guarantee: no epoch ever commits a cyclic
            // combined dependency graph, and no run ends deadlocked.
            let cyclic = stat("cyclic_commits")?;
            let what = format!("committed {cyclic} cyclic epoch(s)");
            must(cyclic == 0.0, &what)?;
            must(!stats.flag("deadlocked")?, "deadlocked through the storm")?;
            let same_faults = stat("faults_injected")? == faults;
            must(same_faults, "per-run fault count disagrees with the point")?;
            let same_connected = stats.flag("connected")? == connected;
            let what = "per-run connectivity disagrees with the point";
            must(same_connected, what)?;
            let (epochs, reconfigs) = (stat("epochs_committed")?, stat("reconfig_events")?);
            must(epochs >= 1.0, "the storm must commit at least one epoch")?;
            let what = "more epochs committed than reconfiguration events";
            must(epochs <= reconfigs, what)?;
            // Fallback accounting: scoped drains are counted per epoch.
            let drains = stat("drain_fallbacks")?;
            let what = "more drain fallbacks than committed epochs";
            must(drains <= epochs, what)?;
            fallbacks += drains;
            // Survivability: the delivered fraction is consistent, and a
            // storm that keeps the fabric connected loses nothing.
            let fraction = stat("delivered_fraction")?;
            let in_range = (0.0..=1.0).contains(&fraction);
            let what = format!("delivered fraction {fraction} out of range");
            must(in_range, &what)?;
            let (delivered, injected) = (stat("delivered")?, stat("injected")?);
            if injected > 0.0 {
                let recomputed = delivered / injected;
                let what =
                    format!("delivered fraction {fraction} != delivered/injected {recomputed}");
                must((fraction - recomputed).abs() < 1e-9, &what)?;
            }
            if connected {
                let what = "delivered nothing through a connected storm";
                must(delivered > 0.0, what)?;
                let unreachable = stat("unreachable_flows")?;
                let what = format!("connected storm left {unreachable} flow(s) unreachable");
                must(unreachable == 0.0, &what)?;
            }
        }
    }
    let what = "no run ever took the scoped-drain fallback — the protocol's hard path is \
        untested by this sweep";
    rule(fallbacks > 0.0, "fig_faults", what)?;
    let wall_ms = data.num("wall_ms")?;
    let what = format!(
        "timing regression: the fault sweep took {wall_ms:.0} ms (allowed {MAX_FAULT_SWEEP_MS:.0} ms)"
    );
    rule(wall_ms <= MAX_FAULT_SWEEP_MS, "fig_faults", &what)
}

/// One design of the conservatism population.
#[derive(Debug, Clone, Copy)]
enum Design {
    /// A Figure 8/9 grid point.
    Grid(Benchmark, usize),
    /// A seeded random design ([`random_routed_design`]).
    Random(u64),
}

/// The conservatism gap: every Figure 8/9 grid point plus
/// [`DEFAULT_RANDOM_DESIGNS`] seeded random designs, each through the
/// verifier triad, aggregated per benchmark (`random` for the population).
pub fn conservatism(params: &Params) -> SourceResult {
    let mut items: Vec<Design> = fig89_grid(params)?
        .into_iter()
        .map(|(benchmark, switch_count)| Design::Grid(benchmark, switch_count))
        .collect();
    items.extend((0..DEFAULT_RANDOM_DESIGNS as u64).map(Design::Random));
    Ok(Box::new(PointSource {
        figure: "fig_conservatism",
        items,
        label: |design| match *design {
            Design::Grid(benchmark, switch_count) => grid_label(&(benchmark, switch_count)),
            Design::Random(seed) => format!("random design {seed}"),
        },
        point: |design| match *design {
            Design::Grid(benchmark, switch_count) => {
                let routed = routed_benchmark(benchmark, switch_count);
                conservatism_point_for(&routed, benchmark.name(), switch_count).to_json()
            }
            Design::Random(seed) => {
                let routed = random_routed_design(seed);
                let switch_count = routed.topology().switch_count();
                conservatism_point_for(&routed, "random", switch_count).to_json()
            }
        },
        assemble: assemble_conservatism,
    }))
}

/// One benchmark group of the conservatism artifact: how often the CDG
/// check cries wolf (cyclic points certified free), and the VCs Algorithm 1
/// burns on the false alarms.
#[derive(Default)]
struct ConservatismGroup<'a> {
    benchmark: String,
    cyclic_points: usize,
    certified_deadlockable: usize,
    certified_free_cyclic: usize,
    unknown: usize,
    gap_vcs: usize,
    witness_attempts: usize,
    witness_realized: usize,
    points: Vec<&'a str>,
}

/// Groups the conservatism points by benchmark (first-appearance order),
/// aggregating the fields every point carries, and splices each group's
/// points verbatim.
fn assemble_conservatism(ctx: &AssembleContext<'_>) -> Result<String, JobError> {
    let mut groups: Vec<ConservatismGroup<'_>> = Vec::new();
    for result in ctx.results {
        let point = JsonValue::parse(result)?;
        let field = |key: &str| {
            point
                .get(key)
                .ok_or_else(|| JobError::Spec(format!("conservatism task record lacks {key:?}")))
        };
        let mistyped = |key: &str| JobError::Spec(format!("conservatism field {key:?} mistyped"));
        let flag = |key: &str| field(key)?.as_bool().ok_or(mistyped(key));
        let text = |key: &str| field(key)?.as_str().ok_or(mistyped(key));
        let benchmark = text("benchmark")?;
        let group = match groups.iter().position(|g| g.benchmark == benchmark) {
            Some(index) => &mut groups[index],
            None => {
                groups.push(ConservatismGroup {
                    benchmark: benchmark.to_string(),
                    ..ConservatismGroup::default()
                });
                groups.last_mut().expect("just pushed")
            }
        };
        group.points.push(result);
        group.witness_attempts += usize::from(flag("witness_attempted")?);
        group.witness_realized += usize::from(flag("witness_realized")?);
        if flag("cdg_cyclic")? {
            group.cyclic_points += 1;
            match text("verdict")? {
                "certified-deadlockable" => group.certified_deadlockable += 1,
                "certified-free" => {
                    group.certified_free_cyclic += 1;
                    let vcs = field("removal_vcs")?.as_number();
                    group.gap_vcs += vcs.ok_or(mistyped("removal_vcs"))? as usize;
                }
                "unknown" => group.unknown += 1,
                _ => {}
            }
        }
    }
    let rendered: Vec<String> = groups
        .iter()
        .map(|group| {
            let mut out = String::new();
            ObjectWriter::new(&mut out)
                .field("benchmark", &group.benchmark)
                .field("cyclic_points", &group.cyclic_points)
                .field("certified_deadlockable", &group.certified_deadlockable)
                .field("certified_free_cyclic", &group.certified_free_cyclic)
                .field("unknown", &group.unknown)
                .field("gap_vcs", &group.gap_vcs)
                .field("witness_attempts", &group.witness_attempts)
                .field("witness_realized", &group.witness_realized)
                .field("points", &RawJson(&splice_array(&group.points)))
                .finish();
            out
        })
        .collect();
    let mut payload = String::new();
    ObjectWriter::new(&mut payload)
        .field("benchmarks", &RawJson(&splice_array(&rendered)))
        .finish();
    Ok(envelope(ctx.figure, &payload))
}

/// The verdict names of the certified verifier.
const CERTIFY_VERDICTS: [&str; 3] = ["certified-free", "certified-deadlockable", "unknown"];

/// The conservatism sweep: the sound lattice "CDG acyclic ⇒ certified free
/// ⇒ the exact detector never fires" holds at every point, the group
/// counts tile the cyclic points, and the population reaches cyclic and
/// certified-deadlockable designs.
fn check_conservatism(data: &Node<'_>) -> Result<(), CheckError> {
    data.require_keys("benchmarks", "fig_conservatism data")?;
    let groups = data
        .field("benchmarks")?
        .nonempty("fig_conservatism benchmarks")?;
    let present: BTreeSet<&str> = groups
        .iter()
        .filter_map(|g| g.text("benchmark").ok())
        .collect();
    let required = [Benchmark::D26Media, Benchmark::D36x8].map(|b| b.name());
    let covered = required
        .iter()
        .chain(&["random"])
        .all(|name| present.contains(name));
    let what = format!("must cover both figure grids plus the random population, got {present:?}");
    rule(covered, "the sweep", &what)?;
    let (mut any_cyclic, mut any_deadlockable) = (false, false);
    for group in &groups {
        let keys = "benchmark cyclic_points certified_deadlockable certified_free_cyclic unknown \
            gap_vcs witness_attempts witness_realized points";
        group.require_keys(keys, "fig_conservatism group")?;
        let name = group.text("benchmark")?;
        let mut recount = 0;
        for point in group.field("points")?.nonempty(&format!("{name} points"))? {
            let keys = "benchmark switch_count active_flows cdg_cyclic verdict witness_worms \
                search_steps removal_vcs runtime_deadlocked wait_for_graph_fired witness_attempted \
                witness_realized";
            point.require_keys(keys, &format!("{name} point"))?;
            let at = format!("{name} @ {} switches", point.num("switch_count")?);
            let must = |holds, what: &str| rule(holds, &at, what);
            let (cyclic, verdict) = (point.flag("cdg_cyclic")?, point.text("verdict")?);
            let known = CERTIFY_VERDICTS.contains(&verdict);
            must(known, &format!("unknown verdict {verdict:?}"))?;
            recount += usize::from(cyclic);
            // The sound lattice: any inversion is a verifier bug.
            let free = verdict == "certified-free";
            let what = format!("acyclic CDG but verdict {verdict:?}");
            must(cyclic || free, &what)?;
            if free {
                let deadlocked = point.flag("runtime_deadlocked")?;
                must(!deadlocked, "certified-free design deadlocked at runtime")?;
                let fired = point.flag("wait_for_graph_fired")?;
                must(!fired, "certified-free design tripped the exact detector")?;
            }
            if verdict == "certified-deadlockable" {
                let worms = point.num("witness_worms")?;
                must(worms >= 1.0, "deadlockable verdict without witness worms")?;
                let attempted = point.flag("witness_attempted")?;
                must(attempted, "deadlockable verdict but no witness replay")?;
            }
        }
        // Conservatism-gap accounting: the counts tile the cyclic points.
        let must = |holds, what: &str| rule(holds, name, what);
        let count = |key| group.num(key);
        let (cyclic, gap) = (count("cyclic_points")?, count("certified_free_cyclic")?);
        let in_range = 0.0 <= gap && gap <= cyclic;
        must(in_range, &format!("gap count {gap} outside [0, {cyclic}]"))?;
        let recounted = cyclic == recount as f64;
        let what = format!("cyclic_points {cyclic} != recount {recount}");
        must(recounted, &what)?;
        let (deadlockable, unknown) = (count("certified_deadlockable")?, count("unknown")?);
        let tiled = deadlockable + gap + unknown == cyclic;
        must(tiled, "verdict counts do not tile the cyclic points")?;
        must(count("gap_vcs")? >= 0.0, "negative gap_vcs")?;
        let (attempts, realized) = (count("witness_attempts")?, count("witness_realized")?);
        let what = "more witnesses realized than replays attempted";
        must(realized <= attempts, what)?;
        any_cyclic |= cyclic > 0.0;
        any_deadlockable |= deadlockable > 0.0;
    }
    // Without cyclic and deadlockable designs the rules above are vacuous.
    let must = |holds, what: &str| rule(holds, "fig_conservatism", what);
    let what = "no group contains a cyclic design — the sweep is vacuous";
    must(any_cyclic, what)?;
    let what = "no group contains a certified-deadlockable design — the witness path is untested";
    must(any_deadlockable, what)
}

/// The marker separating a matrix task's point metadata from its strategy
/// outcome.  The metadata keys are fixed (`benchmark` ... `original_area_um2`)
/// and benchmark names contain no quotes, so the first occurrence is
/// always the real field.
const OUTCOME_MARKER: &str = ",\"outcome\":";

/// The strategy matrix: one task per (grid point × strategy), the finest
/// grain the sweep decomposes into.  The expensive per-point preparation
/// (synthesis, routing, estimation) is shared between the four strategy
/// tasks of a point through lazily filled once-slots.
pub fn strategy_matrix(params: &Params) -> SourceResult {
    let grid = fig89_grid(params)?;
    let prepared = grid.iter().map(|_| Mutex::new(None)).collect();
    Ok(Box::new(MatrixSource {
        sweep: matrix_sweep(),
        grid,
        prepared,
    }))
}

struct MatrixSource {
    sweep: FlowSweep,
    grid: Vec<(Benchmark, usize)>,
    prepared: Vec<Mutex<Option<Arc<PreparedPoint>>>>,
}

impl MatrixSource {
    fn prepared_point(&self, index: usize) -> Result<Arc<PreparedPoint>, JobError> {
        let mut slot = self.prepared[index]
            .lock()
            .expect("preparation does not panic");
        if let Some(prepared) = slot.as_ref() {
            return Ok(Arc::clone(prepared));
        }
        let (benchmark, switch_count) = self.grid[index];
        let prepared = Arc::new(self.sweep.prepare(benchmark, switch_count)?);
        *slot = Some(Arc::clone(&prepared));
        Ok(prepared)
    }
}

impl JobSource for MatrixSource {
    fn figure(&self) -> &str {
        "fig_strategy_matrix"
    }

    fn task_count(&self) -> usize {
        self.grid.len() * STRATEGY_MATRIX_NAMES.len()
    }

    fn task_label(&self, index: usize) -> String {
        let point = grid_label(&self.grid[index / STRATEGY_MATRIX_NAMES.len()]);
        let strategy = STRATEGY_MATRIX_NAMES[index % STRATEGY_MATRIX_NAMES.len()];
        format!("{point} × {strategy}")
    }

    fn run_task(&self, index: usize) -> Result<String, JobError> {
        let prepared = self.prepared_point(index / STRATEGY_MATRIX_NAMES.len())?;
        let strategy = matrix_strategies()[index % STRATEGY_MATRIX_NAMES.len()];
        let outcome = self.sweep.charge(&prepared, strategy)?;
        // Point metadata + this strategy's outcome, rendered with the same
        // writers as a `SweepPoint`, so `assemble` can splice the recorded
        // fragments back into byte-identical points.
        let mut out = prepared.assemble(Vec::new()).to_json();
        let trimmed = out.len() - ",\"outcomes\":[]}".len();
        debug_assert!(out.ends_with(",\"outcomes\":[]}"));
        out.truncate(trimmed);
        out.push_str(OUTCOME_MARKER);
        outcome.write_json(&mut out);
        out.push('}');
        Ok(out)
    }

    fn assemble(&self, ctx: &AssembleContext<'_>) -> Result<String, JobError> {
        let columns = STRATEGY_MATRIX_NAMES.len();
        let mut points = String::new();
        for (i, row) in ctx.results.chunks(columns).enumerate() {
            let cut = |result: &'_ String| {
                result.find(OUTCOME_MARKER).ok_or_else(|| {
                    JobError::Spec(format!("matrix task record {i} has no outcome field"))
                })
            };
            if i > 0 {
                points.push(',');
            }
            points.push_str(&row[0][..cut(&row[0])?]);
            points.push_str(",\"outcomes\":[");
            for (column, result) in row.iter().enumerate() {
                if column > 0 {
                    points.push(',');
                }
                let outcome = &result[cut(result)? + OUTCOME_MARKER.len()..result.len() - 1];
                points.push_str(outcome);
            }
            points.push_str("]}");
        }
        let strategies = STRATEGY_MATRIX_NAMES.map(str::to_string).to_vec();
        let mut payload = String::new();
        ObjectWriter::new(&mut payload)
            .field("strategies", &strategies)
            .field("points", &RawJson(&format!("[{points}]")))
            .finish();
        Ok(envelope(ctx.figure, &payload))
    }
}

/// The strategy matrix: every strategy's certify block is the acyclic fast
/// path's (certified free), the strategies keep their contracts
/// ([`check_strategy_rows`]), and recovery's routes are no shorter than
/// the shortest-path input.
fn check_strategy_matrix(data: &Node<'_>) -> Result<(), CheckError> {
    data.require_keys("strategies points", "fig_strategy_matrix data")?;
    check_list(data, "strategies", &STRATEGY_MATRIX_NAMES, "strategy list")?;
    let points = data
        .field("points")?
        .nonempty("fig_strategy_matrix points")?;
    check_fig89(&points, "the matrix")?;
    for point in &points {
        let keys = "benchmark switch_count active_flows mean_hops outcomes";
        point.require_keys(keys, "fig_strategy_matrix point")?;
        let at = grid_where(point)?;
        let must = |holds, what: &str| rule(holds, &at, what);
        let outcomes = point.items("outcomes")?;
        let strategies = names(&outcomes, "strategy")?;
        let what = format!("expected one outcome per strategy, got {strategies:?}");
        must(strategies == BTreeSet::from(STRATEGY_MATRIX_NAMES), &what)?;
        for outcome in &outcomes {
            let keys = "strategy kind added_vcs cycles_broken mean_hops power_mw area_um2 certify";
            outcome.require_keys(keys, &format!("{at} outcome"))?;
            let members = match outcome.value {
                JsonValue::Object(members) => members.as_slice(),
                _ => &[],
            };
            let known = |key: &str| keys.split(' ').any(|k| k == key);
            let extra = members
                .iter()
                .map(|(k, _)| k.as_str())
                .filter(|k| !known(k));
            let extra: Vec<&str> = extra.collect();
            let what = format!("outcome has unknown keys: {extra:?}");
            must(extra.is_empty(), &what)?;
            let (strategy, certify) = (outcome.text("strategy")?, outcome.field("certify")?);
            let keys = "verdict cdg_cyclic witness_worms search_steps";
            certify.require_keys(keys, &format!("{at} {strategy} certify block"))?;
            let block = (
                certify.text("verdict")?,
                certify.flag("cdg_cyclic")?,
                certify.num("witness_worms")?,
                certify.num("search_steps")?,
            );
            let fast_path = ("certified-free", false, 0.0, 0.0);
            let what = format!(
                "{strategy} produced a repaired design the certified verifier rates {block:?}, \
                 not the acyclic fast path's {fast_path:?}"
            );
            must(block == fast_path, &what)?;
        }
        check_strategy_rows(&outcomes, &at)?;
        let recovery_hops = named(&outcomes, "strategy", "recovery-reconfig")?.num("mean_hops")?;
        let not_shorter = recovery_hops >= point.num("mean_hops")? - 1e-9;
        let what = "recovery routes cannot be shorter than the shortest-path input";
        must(not_shorter, what)?;
    }
    Ok(())
}

/// One removal run's telemetry-attributed timing: non-negative phases that
/// sum back to at most the wall time, which matches the point's lump field.
fn check_phases(phases: &Node<'_>, wall_ms: f64, at: &str) -> Result<(), CheckError> {
    phases.require_keys("wall_ms build_ms search_ms scc_ms other_ms", at)?;
    if let JsonValue::Object(members) = phases.value {
        for (key, value) in members {
            let valid = value.as_number().is_some_and(|v| v >= 0.0);
            let what = format!("{key} must be a non-negative number, got {value}");
            rule(valid, at, &what)?;
        }
    }
    let phase = |key| phases.num(key);
    let wall = phase("wall_ms")?;
    let what = format!("phase wall_ms {wall} disagrees with the point's {wall_ms}");
    rule((wall - wall_ms).abs() < 1e-9, at, &what)?;
    let covered = phase("build_ms")? + phase("search_ms")? + phase("scc_ms")? + phase("other_ms")?;
    let what = format!("phases sum to {covered:.3} ms > wall {wall:.3} ms");
    rule(covered <= wall * 1.001 + 1e-6, at, &what)
}

/// The scaling sweep: exactly the [`SCALE_GRID`] points, each with its
/// [`SCALE_PINNED`] answers, growing within each family up to the
/// 10k-switch point, with consistent phase timings and strategy rows.
fn check_scale(data: &Node<'_>) -> Result<(), CheckError> {
    let keys = "runs_per_point strategy_switch_cap total_removal_ms points";
    data.require_keys(keys, "fig_scale data")?;
    let points = data.field("points")?.nonempty("fig_scale points")?;
    let cap = data.num("strategy_switch_cap")?;
    let families: Vec<&str> = SCALE_GRID.iter().map(|spec| spec.family()).collect();
    let mut by_family: BTreeMap<&str, Vec<[f64; 3]>> = BTreeMap::new();
    let (mut grid, mut total, mut cyclic, mut headline) = (Vec::new(), 0.0, false, false);
    for point in &points {
        let keys = "family switches links channels flows cycles_broken added_vcs removal_ms \
            removal_phases strategies";
        point.require_keys(keys, "fig_scale point")?;
        let (family, switches) = (point.text("family")?, point.num("switches")?);
        let at = format!("fig_scale {family} @ {switches} switches");
        let must = |holds, what: &str| rule(holds, &at, what);
        let removal_ms = point.num("removal_ms")?;
        check_phases(&point.field("removal_phases")?, removal_ms, &at)?;
        let known = families.contains(&family);
        must(known, &format!("unknown family; known: {families:?}"))?;
        must(point.num("flows")? > 0.0, "workload has no flows")?;
        let (links, channels) = (point.num("links")?, point.num("channels")?);
        let what = "fewer channels than links (every link carries at least one VC)";
        must(channels >= links, what)?;
        let (breaks, vcs) = (point.num("cycles_broken")?, point.num("added_vcs")?);
        let rows = point.items("strategies")?;
        if switches <= cap {
            let got = rows.iter().map(|row| row.text("strategy"));
            let mut got = got.collect::<Result<Vec<_>, _>>()?;
            let mut expected = STRATEGY_MATRIX_NAMES;
            got.sort_unstable();
            expected.sort_unstable();
            let what = format!("expected one strategy row per strategy, got {got:?}");
            must(got == expected, &what)?;
            check_strategy_rows(&rows, &at)?;
            let removal = named(&rows, "strategy", "cycle-breaking")?;
            let agrees =
                removal.num("added_vcs")? == vcs && removal.num("cycles_broken")? == breaks;
            let what = "cycle-breaking strategy row disagrees with the timed point";
            must(agrees, what)?;
        } else {
            let what = format!("strategy rows above the {cap}-switch cap");
            must(rows.is_empty(), &what)?;
        }
        let pinned = SCALE_GRID
            .iter()
            .zip(&SCALE_PINNED)
            .find(|(spec, _)| spec.family() == family && spec.switch_count() as f64 == switches);
        let Some((_, &((pinned_breaks, pinned_vcs), pinned_rows))) = pinned else {
            return rule(false, &at, "not a pinned grid point");
        };
        let same = (breaks, vcs) == (pinned_breaks as f64, pinned_vcs as f64);
        let what = format!("{breaks}/{vcs} != pinned {pinned_breaks}/{pinned_vcs}");
        must(same, &format!("cycles_broken/added_vcs {what}"))?;
        // The rows read as a map from strategy name to its answers.
        let expected = STRATEGY_MATRIX_NAMES
            .iter()
            .zip(pinned_rows.iter().flatten());
        let expected: Vec<_> = expected.collect();
        let same = rows.len() == expected.len()
            && expected.iter().all(|&(name, &(vcs, breaks))| {
                named(&rows, "strategy", name).is_ok_and(|row| {
                    row.num("added_vcs") == Ok(vcs as f64)
                        && row.num("cycles_broken") == Ok(breaks as f64)
                })
            });
        let what = format!("strategy (added_vcs, cycles_broken) != pinned {expected:?}");
        must(same, &what)?;
        by_family
            .entry(family)
            .or_default()
            .push([switches, links, channels]);
        grid.push(format!("{family} @ {switches}"));
        total += removal_ms;
        cyclic |= breaks > 0.0;
        headline |= switches >= 10_000.0;
    }
    let expected = SCALE_GRID
        .iter()
        .map(|spec| format!("{} @ {}", spec.family(), spec.switch_count()));
    let mut expected: Vec<String> = expected.collect();
    grid.sort_unstable();
    expected.sort_unstable();
    let must = |holds, what: &str| rule(holds, "fig_scale", what);
    must(grid == expected, "grid differs from the pinned grid")?;
    // Each family is generated in ascending size order.
    for (family, rows) in &by_family {
        let sizes: Vec<f64> = rows.iter().map(|row| row[0]).collect();
        let increasing = sizes.windows(2).all(|pair| pair[0] < pair[1]);
        let what = format!("{family}: switch counts must strictly increase, got {sizes:?}");
        must(increasing, &what)?;
        let grows = rows
            .windows(2)
            .all(|p| p[1][1] > p[0][1] && p[1][2] > p[0][2]);
        let what = format!("{family}: links/channels must grow with switch count");
        must(grows, &what)?;
    }
    must(headline, "grid never reaches the 10k-switch headline point")?;
    let what = "grid has no cycle-heavy points — the timing would be vacuous";
    must(cyclic, what)?;
    let recorded = data.num("total_removal_ms")?;
    let what = format!("total_removal_ms {recorded} != sum of points {total}");
    must((recorded - total).abs() <= 1e-6 * total.max(1.0), &what)
}

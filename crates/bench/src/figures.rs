//! The job sources of the figures: each figure's only definition.
//!
//! A figure is a task list, a per-task computation that renders one JSON
//! fragment, and an `assemble` step that splices the fragments into the
//! artifact.  The figure binaries run these sources in memory, or through
//! the job store under `--resume`, and `noc_serve` runs them as jobs; every
//! path assembles from the same fragments, so every path writes the same
//! bytes — resumed or not, cached or not (pinned by `tests/job_resume.rs`).
//! [`job_source`](crate::jobs::job_source) picks the builder by figure name.

use crate::jobs::{bump, fig89_grid, segment_grid, Params, TaskCounter};
use crate::{
    conservatism_point_for, fault_strategy_point, matrix_strategies, matrix_sweep,
    power_comparison, random_routed_design, routed_benchmark, sim_strategy_point,
    simulate_before_after, summary, sweeps, vc_overhead_sweep, PowerComparison,
    DEFAULT_RANDOM_DESIGNS, FAULT_STRATEGIES, SIM_INJECTION_GAPS, SIM_STRATEGY_POLICIES,
    STRATEGY_MATRIX_NAMES,
};
use noc_flow::json::{Artifact, JsonValue, ObjectWriter, RawJson, ToJson};
use noc_flow::{DeadlockStrategy, FlowSweep, PreparedPoint};
use noc_jobs::{AssembleContext, JobError, JobSource};
use noc_topology::benchmarks::Benchmark;
use std::sync::{Arc, Mutex};

/// What a figure builder returns: the figure's task decomposition.
pub type SourceResult = Result<Box<dyn JobSource>, JobError>;

/// One task per item: the shape of every figure but the strategy matrix,
/// which differ only in their items, their per-item computation and their
/// assembly.
struct PointSource<T> {
    figure: &'static str,
    items: Vec<T>,
    label: fn(&T) -> String,
    point: fn(&T) -> String,
    assemble: fn(&AssembleContext<'_>) -> Result<String, JobError>,
    counter: TaskCounter,
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
        bump(&self.counter);
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
pub fn vc_sweep(
    figure: &'static str,
    benchmark: Benchmark,
    counts: Vec<usize>,
    counter: TaskCounter,
) -> SourceResult {
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
        counter,
    }))
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

/// Figure 10: one power/area comparison per benchmark.
pub fn power(params: &Params, counter: TaskCounter) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "fig10_power",
        items: benchmark_grid("fig10_power", params, sweeps::FIG10_SWITCHES)?,
        label: grid_label,
        point: power_point,
        assemble: assemble_plain,
        counter,
    }))
}

/// The Section 5 summary: the Figure 10 tasks, assembled into the
/// per-benchmark comparisons plus their aggregate savings.
pub fn summary_table(params: &Params, counter: TaskCounter) -> SourceResult {
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
        counter,
    }))
}

/// The dynamic validation: every benchmark simulated before and after
/// removal.
pub fn sim_validation(params: &Params, counter: TaskCounter) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "sim_validation",
        items: benchmark_grid("sim_validation", params, sweeps::SIM_SWITCHES)?,
        label: grid_label,
        point: |&(benchmark, switch_count)| {
            simulate_before_after(benchmark, switch_count).to_json()
        },
        assemble: assemble_plain,
        counter,
    }))
}

/// The VC-aware simulation sweep: every policy × injection rate on each
/// Figure 8/9 grid point.
pub fn sim_strategies(params: &Params, counter: TaskCounter) -> SourceResult {
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
        counter,
    }))
}

/// The fault-storm sweep: every strategy's repaired design through the
/// same seeded storm on each Figure 8/9 grid point.
pub fn faults(params: &Params, counter: TaskCounter) -> SourceResult {
    Ok(Box::new(PointSource {
        figure: "fig_faults",
        items: fig89_grid(params)?,
        label: grid_label,
        point: |&(benchmark, switch_count)| fault_strategy_point(benchmark, switch_count).to_json(),
        assemble: |ctx| {
            let strategies = FAULT_STRATEGIES.map(str::to_string).to_vec();
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
        counter,
    }))
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
pub fn conservatism(params: &Params, counter: TaskCounter) -> SourceResult {
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
        counter,
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

/// The marker separating a matrix task's point metadata from its strategy
/// outcome.  The metadata keys are fixed (`benchmark` ... `original_area_um2`)
/// and benchmark names contain no quotes, so the first occurrence is
/// always the real field.
const OUTCOME_MARKER: &str = ",\"outcome\":";

/// The strategy matrix: one task per (grid point × strategy), the finest
/// grain the sweep decomposes into.  The expensive per-point preparation
/// (synthesis, routing, estimation) is shared between the four strategy
/// tasks of a point through lazily filled once-slots.
pub fn strategy_matrix(params: &Params, counter: TaskCounter) -> SourceResult {
    let grid = fig89_grid(params)?;
    let prepared = grid.iter().map(|_| Mutex::new(None)).collect();
    Ok(Box::new(MatrixSource {
        sweep: matrix_sweep(),
        strategies: matrix_strategies(),
        grid,
        prepared,
        counter,
    }))
}

struct MatrixSource {
    sweep: FlowSweep,
    /// One strategy per column, in `STRATEGY_MATRIX_NAMES` order.
    strategies: [Box<dyn DeadlockStrategy>; 4],
    grid: Vec<(Benchmark, usize)>,
    prepared: Vec<Mutex<Option<Arc<PreparedPoint>>>>,
    counter: TaskCounter,
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
        bump(&self.counter);
        let prepared = self.prepared_point(index / STRATEGY_MATRIX_NAMES.len())?;
        let strategy = &self.strategies[index % STRATEGY_MATRIX_NAMES.len()];
        let outcome = self.sweep.charge(&prepared, strategy.as_ref())?;
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

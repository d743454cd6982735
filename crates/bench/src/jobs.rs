//! Job-source decompositions of the figure sweeps.
//!
//! Each supported figure is decomposed into the finest-grained tasks whose
//! results the `noc-jobs` store can record independently — one grid point
//! for the per-point sweeps, one (grid point × strategy) charge for the
//! strategy matrix.  Task results are the exact JSON fragments the direct
//! figure binaries serialize, and `assemble` splices the recorded fragments
//! verbatim, so an artifact produced through the job store is
//! byte-identical to one produced by an uninterrupted direct run — resumed
//! or not, cached or not (pinned by `tests/job_resume.rs`).
//!
//! [`run_resumed`] is the `--resume <dir>` mode every figure binary gains
//! from the shared [`FigureCli`]: the sweep
//! routes through a [`JobStore`] in the given directory, so a killed binary
//! restarted with the same flags finishes only the missing tasks.

use crate::{
    artifact::FigureCli, fault_strategy_point, power_comparison, sim_strategy_point,
    simulate_before_after, sweeps, vc_overhead_sweep, FAULT_STRATEGIES, SIM_INJECTION_GAPS,
    SIM_STRATEGY_POLICIES, STRATEGY_MATRIX_NAMES,
};
use noc_flow::json::{write_atomic, Artifact, JsonValue, ObjectWriter, RawJson, ToJson};
use noc_flow::{
    CycleBreaking, DeadlockStrategy, EscapeChannel, FlowSweep, PreparedPoint, RecoveryReconfig,
    ResourceOrdering,
};
use noc_jobs::{AssembleContext, JobError, JobRequest, JobRunner, JobSource, JobStore};
use noc_topology::benchmarks::Benchmark;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Optional shared task-call counter, bumped at the top of every
/// `run_task` — what lets the cache tests assert *zero recomputation*
/// rather than merely "the stats said so".
pub type TaskCounter = Option<Arc<AtomicUsize>>;

fn bump(counter: &TaskCounter) {
    if let Some(counter) = counter {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Builds the job source for `spec` — the figure name picks the
/// decomposition, `spec.params` narrows the grid (for tests and partial
/// sweeps; empty params mean the figure's full published grid).
///
/// The timing and aggregate-only figures (`summary_table`,
/// `fig_conservatism`, `fig_scale`) return
/// [`JobError::Unsupported`]: their results are wall-clock measurements or
/// whole-population aggregates, not independently recordable tasks.
pub fn job_source(spec: &JobRequest) -> Result<Box<dyn JobSource>, JobError> {
    job_source_counted(spec, None)
}

/// [`job_source`] with a shared call counter wired into every task.
pub fn job_source_counted(
    spec: &JobRequest,
    counter: TaskCounter,
) -> Result<Box<dyn JobSource>, JobError> {
    let params = Params::parse(&spec.params)?;
    match spec.figure.as_str() {
        "fig8_d26_media" => Ok(Box::new(VcSweepSource::build(
            "fig8_d26_media",
            Benchmark::D26Media,
            params.counts_or(sweeps::FIG8_SWITCH_COUNTS)?,
            counter,
        ))),
        "fig9_d36_8" => Ok(Box::new(VcSweepSource::build(
            "fig9_d36_8",
            Benchmark::D36x8,
            params.counts_or(sweeps::FIG9_SWITCH_COUNTS)?,
            counter,
        ))),
        "fig10_power" => Ok(Box::new(PowerSource::build(&params, counter)?)),
        "sim_validation" => Ok(Box::new(SimValidationSource::build(&params, counter)?)),
        "fig_strategy_matrix" => Ok(Box::new(MatrixSource::new(&params, counter)?)),
        "fig_sim_strategies" => Ok(Box::new(SimStrategiesSource::build(&params, counter)?)),
        "fig_faults" => Ok(Box::new(FaultsSource::build(&params, counter)?)),
        figure @ ("summary_table" | "fig_conservatism" | "fig_scale") => {
            Err(JobError::Unsupported(figure.to_string()))
        }
        other => Err(JobError::UnknownFigure(other.to_string())),
    }
}

/// The recognised job parameters, all optional: `benchmarks` (array of
/// paper names like `"D26_media"`) and `switch_counts` / `switch_count`
/// narrow the grid of any figure to a sub-sweep.
struct Params {
    benchmarks: Option<Vec<Benchmark>>,
    switch_counts: Option<Vec<usize>>,
    switch_count: Option<usize>,
}

impl Params {
    fn parse(params: &JsonValue) -> Result<Params, JobError> {
        let JsonValue::Object(fields) = params else {
            return Err(JobError::Spec("\"params\" must be an object".into()));
        };
        let mut parsed = Params {
            benchmarks: None,
            switch_counts: None,
            switch_count: None,
        };
        for (key, value) in fields {
            match key.as_str() {
                "benchmarks" => parsed.benchmarks = Some(parse_benchmarks(value)?),
                "switch_counts" => parsed.switch_counts = Some(parse_counts(value)?),
                "switch_count" => parsed.switch_count = Some(parse_count(value)?),
                other => {
                    return Err(JobError::Spec(format!("unknown parameter {other:?}")));
                }
            }
        }
        Ok(parsed)
    }

    fn counts_or(&self, default: impl IntoIterator<Item = usize>) -> Result<Vec<usize>, JobError> {
        if self.benchmarks.is_some() || self.switch_count.is_some() {
            return Err(JobError::Spec(
                "this figure only accepts \"switch_counts\"".into(),
            ));
        }
        Ok(self
            .switch_counts
            .clone()
            .unwrap_or_else(|| default.into_iter().collect()))
    }
}

fn parse_benchmarks(value: &JsonValue) -> Result<Vec<Benchmark>, JobError> {
    let items = value
        .as_array()
        .ok_or_else(|| JobError::Spec("\"benchmarks\" must be an array of names".into()))?;
    items
        .iter()
        .map(|item| {
            let name = item
                .as_str()
                .ok_or_else(|| JobError::Spec("benchmark names must be strings".into()))?;
            Benchmark::ALL
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| JobError::Spec(format!("unknown benchmark {name:?}")))
        })
        .collect()
}

fn parse_count(value: &JsonValue) -> Result<usize, JobError> {
    match value {
        JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
        _ => Err(JobError::Spec(
            "switch counts must be non-negative integers".into(),
        )),
    }
}

fn parse_counts(value: &JsonValue) -> Result<Vec<usize>, JobError> {
    let items = value
        .as_array()
        .ok_or_else(|| JobError::Spec("\"switch_counts\" must be an array".into()))?;
    items.iter().map(parse_count).collect()
}

/// The feasible (benchmark × switch count) grid of one sweep segment, in
/// sweep order, via the same filter [`FlowSweep`] itself applies.
fn segment_grid(benchmark: Benchmark, counts: &[usize]) -> Vec<(Benchmark, usize)> {
    FlowSweep::new()
        .benchmark(benchmark)
        .switch_counts(counts.iter().copied())
        .grid_points()
}

/// The Figure 8 (D26_media) followed by Figure 9 (D36_8) grid the matrix,
/// simulation, and fault sweeps all run — or, with params, the requested
/// benchmarks each over the requested counts.
fn fig89_grid(params: &Params) -> Result<Vec<(Benchmark, usize)>, JobError> {
    if params.switch_count.is_some() {
        return Err(JobError::Spec(
            "this figure only accepts \"benchmarks\" and \"switch_counts\"".into(),
        ));
    }
    match (&params.benchmarks, &params.switch_counts) {
        (None, None) => {
            let mut grid = segment_grid(
                Benchmark::D26Media,
                &sweeps::FIG8_SWITCH_COUNTS.collect::<Vec<_>>(),
            );
            grid.extend(segment_grid(
                Benchmark::D36x8,
                &sweeps::FIG9_SWITCH_COUNTS.collect::<Vec<_>>(),
            ));
            Ok(grid)
        }
        (Some(benchmarks), Some(counts)) => Ok(benchmarks
            .iter()
            .flat_map(|&b| segment_grid(b, counts))
            .collect()),
        _ => Err(JobError::Spec(
            "\"benchmarks\" and \"switch_counts\" must be given together".into(),
        )),
    }
}

/// Renders a JSON array from raw single-task results, verbatim.
fn splice_array(results: &[String]) -> String {
    format!("[{}]", results.join(","))
}

/// One grid-point-per-task source over a closure — shared shape of the
/// fig8/fig9, power, validation, simulation, and fault sweeps, which all
/// differ only in their grid and their per-point computation.
struct PointSource<F: Fn(Benchmark, usize) -> String + Sync> {
    figure: &'static str,
    grid: Vec<(Benchmark, usize)>,
    point: F,
    counter: TaskCounter,
    assemble: fn(&AssembleContext<'_>) -> String,
}

impl<F: Fn(Benchmark, usize) -> String + Sync> JobSource for PointSource<F> {
    fn figure(&self) -> &str {
        self.figure
    }

    fn task_count(&self) -> usize {
        self.grid.len()
    }

    fn task_label(&self, index: usize) -> String {
        let (benchmark, switch_count) = self.grid[index];
        format!("{benchmark} @ {switch_count} switches")
    }

    fn run_task(&self, index: usize) -> Result<String, JobError> {
        bump(&self.counter);
        let (benchmark, switch_count) = self.grid[index];
        Ok((self.point)(benchmark, switch_count))
    }

    fn assemble(&self, ctx: &AssembleContext<'_>) -> Result<String, JobError> {
        Ok((self.assemble)(ctx))
    }
}

/// Plain array payload: `"data": [<point>, ...]`.
fn assemble_plain(ctx: &AssembleContext<'_>) -> String {
    Artifact::new(ctx.figure, &RawJson(&splice_array(ctx.results))).render()
}

struct VcSweepSource;

impl VcSweepSource {
    fn build(
        figure: &'static str,
        benchmark: Benchmark,
        counts: Vec<usize>,
        counter: TaskCounter,
    ) -> impl JobSource {
        PointSource {
            figure,
            grid: segment_grid(benchmark, &counts),
            point: |benchmark, switch_count| {
                let point = vc_overhead_sweep(benchmark, [switch_count])
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| {
                        panic!("grid point {benchmark}/{switch_count} was pre-filtered feasible")
                    });
                point.to_json()
            },
            counter,
            assemble: assemble_plain,
        }
    }
}

struct PowerSource;

impl PowerSource {
    fn build(params: &Params, counter: TaskCounter) -> Result<impl JobSource, JobError> {
        if params.switch_counts.is_some() {
            return Err(JobError::Spec(
                "fig10_power takes a single \"switch_count\"".into(),
            ));
        }
        let switch_count = params.switch_count.unwrap_or(sweeps::FIG10_SWITCHES);
        let benchmarks = params
            .benchmarks
            .clone()
            .unwrap_or_else(|| Benchmark::ALL.to_vec());
        let grid = FlowSweep::new()
            .benchmarks(benchmarks)
            .switch_counts([switch_count])
            .grid_points();
        Ok(PointSource {
            figure: "fig10_power",
            grid,
            point: |benchmark, switch_count| power_comparison(benchmark, switch_count).to_json(),
            counter,
            assemble: assemble_plain,
        })
    }
}

struct SimValidationSource;

impl SimValidationSource {
    fn build(params: &Params, counter: TaskCounter) -> Result<impl JobSource, JobError> {
        if params.switch_counts.is_some() {
            return Err(JobError::Spec(
                "sim_validation takes a single \"switch_count\"".into(),
            ));
        }
        let switch_count = params.switch_count.unwrap_or(sweeps::SIM_SWITCHES);
        let benchmarks = params
            .benchmarks
            .clone()
            .unwrap_or_else(|| Benchmark::ALL.to_vec());
        // Deliberately unfiltered, like `simulate_before_after_all`: the
        // validation sweep runs every benchmark, feasible or not (all six
        // are, at the published switch count).
        let grid = benchmarks.into_iter().map(|b| (b, switch_count)).collect();
        Ok(PointSource {
            figure: "sim_validation",
            grid,
            point: |benchmark, switch_count| {
                simulate_before_after(benchmark, switch_count).to_json()
            },
            counter,
            assemble: assemble_plain,
        })
    }
}

struct SimStrategiesSource;

impl SimStrategiesSource {
    fn build(params: &Params, counter: TaskCounter) -> Result<impl JobSource, JobError> {
        Ok(PointSource {
            figure: "fig_sim_strategies",
            grid: fig89_grid(params)?,
            point: |benchmark, switch_count| sim_strategy_point(benchmark, switch_count).to_json(),
            counter,
            assemble: |ctx| {
                let gaps: Vec<usize> = SIM_INJECTION_GAPS.iter().map(|&g| g as usize).collect();
                let policies = SIM_STRATEGY_POLICIES.map(str::to_string).to_vec();
                let mut payload = String::new();
                ObjectWriter::new(&mut payload)
                    .field("injection_gaps", &gaps)
                    .field("policies", &policies)
                    .field("points", &RawJson(&splice_array(ctx.results)))
                    .finish();
                Artifact::new(ctx.figure, &RawJson(&payload)).render()
            },
        })
    }
}

struct FaultsSource;

impl FaultsSource {
    fn build(params: &Params, counter: TaskCounter) -> Result<impl JobSource, JobError> {
        Ok(PointSource {
            figure: "fig_faults",
            grid: fig89_grid(params)?,
            point: |benchmark, switch_count| {
                fault_strategy_point(benchmark, switch_count).to_json()
            },
            counter,
            assemble: |ctx| {
                let strategies = FAULT_STRATEGIES.map(str::to_string).to_vec();
                // The direct binary reports sweep wall time; through the
                // store, total recorded task time is the honest equivalent
                // (and survives resumption).
                let wall_ms = ctx.task_ms_total as f64;
                let mut payload = String::new();
                ObjectWriter::new(&mut payload)
                    .field("strategies", &strategies)
                    .field("wall_ms", &wall_ms)
                    .field("points", &RawJson(&splice_array(ctx.results)))
                    .finish();
                Artifact::new(ctx.figure, &RawJson(&payload)).render()
            },
        })
    }
}

/// The marker separating a matrix task's point metadata from its strategy
/// outcome.  The metadata keys are fixed (`benchmark` ... `original_area_um2`)
/// and benchmark names contain no quotes, so the first occurrence is
/// always the real field.
const OUTCOME_MARKER: &str = ",\"outcome\":";

/// The strategy-matrix source: one task per (grid point × strategy), the
/// finest grain the sweep decomposes into.  The expensive per-point
/// preparation (synthesis, routing, estimation) is shared between the four
/// strategy tasks of a point through lazily filled once-slots.
struct MatrixSource {
    sweep: FlowSweep,
    grid: Vec<(Benchmark, usize)>,
    prepared: Vec<Mutex<Option<Arc<PreparedPoint>>>>,
    counter: TaskCounter,
}

/// The four matrix strategies, by column index, freshly built per task
/// (construction is trivially cheap; sharing them would force `Sync`
/// bounds the trait objects do not carry).
fn matrix_strategy(column: usize) -> Box<dyn DeadlockStrategy> {
    match column {
        0 => Box::new(CycleBreaking::default()),
        1 => Box::new(ResourceOrdering),
        2 => Box::new(EscapeChannel::default()),
        _ => Box::new(RecoveryReconfig::default()),
    }
}

impl MatrixSource {
    fn new(params: &Params, counter: TaskCounter) -> Result<MatrixSource, JobError> {
        let grid = fig89_grid(params)?;
        let prepared = grid.iter().map(|_| Mutex::new(None)).collect();
        Ok(MatrixSource {
            // The exact configuration of `strategy_matrix_sweep` — what
            // makes job-path points byte-identical to the direct binary's.
            sweep: FlowSweep::new().power_estimates(false).certify(true),
            grid,
            prepared,
            counter,
        })
    }

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
        let (benchmark, switch_count) = self.grid[index / STRATEGY_MATRIX_NAMES.len()];
        let strategy = STRATEGY_MATRIX_NAMES[index % STRATEGY_MATRIX_NAMES.len()];
        format!("{benchmark} @ {switch_count} switches × {strategy}")
    }

    fn run_task(&self, index: usize) -> Result<String, JobError> {
        bump(&self.counter);
        let prepared = self.prepared_point(index / STRATEGY_MATRIX_NAMES.len())?;
        let strategy = matrix_strategy(index % STRATEGY_MATRIX_NAMES.len());
        let outcome = self.sweep.charge(&prepared, strategy.as_ref())?;
        // Point metadata + this strategy's outcome, rendered with the same
        // writers as a direct `SweepPoint`, so `assemble` can splice the
        // recorded fragments back into byte-identical points.
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
        Ok(Artifact::new(ctx.figure, &RawJson(&payload)).render())
    }
}

/// The `--resume <dir>` mode of the figure binaries: routes the sweep
/// through a [`JobStore`] in `dir` so a killed run restarted with the same
/// flags finishes only the missing tasks.  Returns `false` when the CLI
/// did not ask for resumption (the binary runs its direct path); on any
/// job error the process exits non-zero with the typed message.
pub fn run_resumed(cli: &FigureCli) -> bool {
    let Some(dir) = cli.resume.clone() else {
        return false;
    };
    let mut spec = JobRequest::new(cli.figure.clone());
    spec.id = cli.figure.clone();
    spec.threads = cli.threads;
    if let Err(error) = run_resume_inner(cli, &dir, spec) {
        eprintln!("{}: {error}", cli.figure);
        std::process::exit(1);
    }
    true
}

fn run_resume_inner(
    cli: &FigureCli,
    dir: &std::path::Path,
    spec: JobRequest,
) -> Result<(), JobError> {
    let source = job_source(&spec)?;
    let mut runner = JobRunner::new(JobStore::open(dir, spec)?);
    let report = runner.run(source.as_ref())?;
    let stats = &report.stats;
    eprintln!(
        "job {}: {} tasks — {} computed, {} resumed, {} cache hits",
        cli.figure, stats.total, stats.computed, stats.resumed, stats.cache_hits
    );
    let artifact = report.artifact.expect("unbounded runs always assemble");
    if let Some(path) = cli.artifact_path() {
        write_atomic(&path, artifact.text.as_bytes()).map_err(|e| JobError::io(&path, e))?;
        eprintln!("wrote {}", path.display());
    } else {
        eprintln!("artifact committed at {}", artifact.path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(figure: &str, params: &str) -> JobRequest {
        JobRequest::from_json(&format!("{{\"figure\":\"{figure}\",\"params\":{params}}}"))
            .expect("valid spec")
    }

    #[test]
    fn registry_covers_every_figure() {
        for figure in [
            "fig8_d26_media",
            "fig9_d36_8",
            "fig10_power",
            "sim_validation",
            "fig_strategy_matrix",
            "fig_sim_strategies",
            "fig_faults",
        ] {
            let source = job_source(&JobRequest::new(figure)).expect("supported figure");
            assert_eq!(source.figure(), figure);
            assert!(source.task_count() > 0, "{figure} decomposes into tasks");
        }
        for figure in ["summary_table", "fig_conservatism", "fig_scale"] {
            assert!(matches!(
                job_source(&JobRequest::new(figure)),
                Err(JobError::Unsupported(_))
            ));
        }
        assert!(matches!(
            job_source(&JobRequest::new("fig42")),
            Err(JobError::UnknownFigure(_))
        ));
    }

    #[test]
    fn params_narrow_the_grid() {
        let spec = spec_with("fig8_d26_media", "{\"switch_counts\":[6,8]}");
        assert_eq!(job_source(&spec).unwrap().task_count(), 2);

        let spec = spec_with(
            "fig_strategy_matrix",
            "{\"benchmarks\":[\"D26_media\"],\"switch_counts\":[6]}",
        );
        assert_eq!(job_source(&spec).unwrap().task_count(), 4);

        let spec = spec_with("sim_validation", "{\"benchmarks\":[\"D36_8\"]}");
        assert_eq!(job_source(&spec).unwrap().task_count(), 1);
    }

    #[test]
    fn bad_params_are_typed_spec_errors() {
        for (figure, params) in [
            ("fig8_d26_media", "{\"benchmarks\":[\"D26_media\"]}"),
            ("fig_strategy_matrix", "{\"switch_counts\":[6]}"),
            ("fig10_power", "{\"switch_counts\":[6]}"),
            ("fig8_d26_media", "{\"frobnicate\":1}"),
            (
                "fig_faults",
                "{\"benchmarks\":[\"D27_nope\"],\"switch_counts\":[6]}",
            ),
        ] {
            assert!(
                matches!(
                    job_source(&spec_with(figure, params)),
                    Err(JobError::Spec(_))
                ),
                "{figure} with {params} must be rejected"
            );
        }
    }

    #[test]
    fn infeasible_grid_points_are_filtered_like_the_sweep() {
        // D26_media has 26 cores: 30 switches is infeasible, 0 likewise.
        let spec = spec_with("fig8_d26_media", "{\"switch_counts\":[0,6,30]}");
        assert_eq!(job_source(&spec).unwrap().task_count(), 1);
    }
}

//! The figure registry and the job parameters.
//!
//! [`job_source`] looks a figure up by name in
//! [`FIGURES`](crate::figures::FIGURES) — the figure's only definition: its
//! job source and the invariants its artifact must hold — and narrows its
//! grid by the spec's params.  The figure binaries and the job runner's
//! store path reach a figure through it.

use crate::sweeps;
use noc_flow::json::JsonValue;
use noc_flow::FlowSweep;
use noc_jobs::{JobError, JobRequest, JobSource};
use noc_topology::benchmarks::Benchmark;

/// Builds the job source for `spec` — the figure name picks the
/// decomposition, `spec.params` narrows the grid (for tests and partial
/// sweeps; empty params mean the figure's full published grid).
///
/// `fig_scale` returns [`JobError::Unsupported`]: its results are
/// wall-clock timings that must run serially, not independently
/// recordable tasks sharing the executor.
pub fn job_source(spec: &JobRequest) -> Result<Box<dyn JobSource>, JobError> {
    let _span = noc_telemetry::span("jobs", "build_source");
    let params = Params::parse(&spec.params)?;
    let figure = crate::figures::find(&spec.figure)
        .ok_or_else(|| JobError::UnknownFigure(spec.figure.clone()))?;
    let source = figure
        .source
        .ok_or_else(|| JobError::Unsupported(spec.figure.clone()))?;
    source(&params)
}

/// The recognised job parameters, all optional: `benchmarks` (array of
/// paper names like `"D26_media"`) and `switch_counts` / `switch_count`
/// narrow the grid of any figure to a sub-sweep.  The default (no
/// parameters) is every figure's full published grid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params {
    pub(crate) benchmarks: Option<Vec<Benchmark>>,
    pub(crate) switch_counts: Option<Vec<usize>>,
    pub(crate) switch_count: Option<usize>,
}

impl Params {
    fn parse(params: &JsonValue) -> Result<Params, JobError> {
        let JsonValue::Object(fields) = params else {
            return Err(JobError::Spec("\"params\" must be an object".into()));
        };
        let mut parsed = Params::default();
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

    pub(crate) fn counts_or(
        &self,
        default: impl IntoIterator<Item = usize>,
    ) -> Result<Vec<usize>, JobError> {
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
pub(crate) fn segment_grid(benchmark: Benchmark, counts: &[usize]) -> Vec<(Benchmark, usize)> {
    FlowSweep::new()
        .benchmark(benchmark)
        .switch_counts(counts.iter().copied())
        .grid_points()
}

/// The Figure 8 (D26_media) followed by Figure 9 (D36_8) grid the matrix,
/// simulation, fault and conservatism figures all run — or, with params,
/// the requested benchmarks each over the requested counts.  Infeasible
/// points are filtered like [`FlowSweep`] filters them.
///
/// # Errors
///
/// [`JobError::Spec`] unless `benchmarks` and `switch_counts` come
/// together (or not at all) and `switch_count` is absent.
pub fn fig89_grid(params: &Params) -> Result<Vec<(Benchmark, usize)>, JobError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(figure: &str, params: &str) -> JobRequest {
        let mut spec = JobRequest::new(figure);
        spec.params = JsonValue::parse(params).expect("valid params");
        spec
    }

    #[test]
    fn registry_covers_every_figure() {
        for figure in [
            "fig8_d26_media",
            "fig9_d36_8",
            "fig10_power",
            "summary_table",
            "sim_validation",
            "fig_strategy_matrix",
            "fig_sim_strategies",
            "fig_faults",
            "fig_conservatism",
        ] {
            let source = job_source(&JobRequest::new(figure)).expect("supported figure");
            assert_eq!(source.figure(), figure);
            assert!(source.task_count() > 0, "{figure} decomposes into tasks");
        }
        assert!(matches!(
            job_source(&JobRequest::new("fig_scale")),
            Err(JobError::Unsupported(_))
        ));
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

    #[test]
    fn a_huge_count_list_builds_its_grid_in_linear_time() {
        // 160 000 distinct counts (a 1 MB spec): deduplicating them with a
        // quadratic scan took seconds before the infeasible ones were
        // dropped.
        let counts: Vec<String> = (0..160_000).map(|k| k.to_string()).collect();
        let spec = spec_with(
            "fig8_d26_media",
            &format!("{{\"switch_counts\":[{}]}}", counts.join(",")),
        );
        let start = std::time::Instant::now();
        let source = job_source(&spec).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "job source took {elapsed:?}"
        );
        let labels: Vec<String> = (0..source.task_count())
            .map(|index| source.task_label(index))
            .collect();
        let expected: Vec<String> = (1..=26)
            .map(|k| format!("{} @ {k} switches", Benchmark::D26Media))
            .collect();
        assert_eq!(labels, expected, "the 26 feasible points, ascending");
    }
}

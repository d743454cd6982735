//! The job-store properties of the figure sources, on grids narrowed so
//! the suite stays fast:
//!
//! 1. a `fig_strategy_matrix` artifact produced through the job store is
//!    **byte-identical** to one rendered from a direct `FlowSweep` run, and
//!    a `summary_table` artifact to one rendered from the direct point
//!    functions,
//! 2. a run killed mid-way and resumed from the store reproduces those
//!    same bytes while recomputing only the missing tasks (the matrix,
//!    `summary_table` and `fig_conservatism`),
//! 3. a re-submitted identical job with the content-hash cache completes
//!    with 100 % cache hits and **zero** `run_task` calls, and
//! 4. every figure's in-memory run (what a figure binary does) writes the
//!    same bytes as its store run.

use noc_bench::artifact::Node;
use noc_bench::check::same_as;
use noc_bench::jobs::job_source;
use noc_bench::{power_comparison, summary, STRATEGY_MATRIX_NAMES};
use noc_flow::json::{Artifact, JsonValue, ObjectWriter, RawJson, ToJson};
use noc_flow::{
    CycleBreaking, DeadlockStrategy, EscapeChannel, FlowSweep, RecoveryReconfig, ResourceOrdering,
};
use noc_jobs::{
    run_in_memory, ArtifactCache, AssembleContext, JobError, JobRequest, JobRunner, JobSource,
    JobStore,
};
use noc_topology::benchmarks::Benchmark;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The narrowed matrix grid: D26_media at 6 and 8 switches — 2 points × 4
/// strategies = 8 tasks.
const PARAMS: &str = "{\"benchmarks\":[\"D26_media\"],\"switch_counts\":[6,8]}";
const TASKS: usize = 8;

fn spec() -> JobRequest {
    spec_with("fig_strategy_matrix", PARAMS)
}

fn spec_with(figure: &str, params: &str) -> JobRequest {
    let mut spec = JobRequest::new(figure);
    spec.params = JsonValue::parse(params).expect("valid params");
    spec
}

/// `spec`'s job source, counting its `run_task` calls so the tests can
/// assert exactly which tasks were recomputed.
struct Counted {
    inner: Box<dyn JobSource>,
    calls: AtomicUsize,
}

impl Counted {
    fn new(spec: &JobRequest) -> Counted {
        Counted {
            inner: job_source(spec).unwrap(),
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl JobSource for Counted {
    fn figure(&self) -> &str {
        self.inner.figure()
    }

    fn task_count(&self) -> usize {
        self.inner.task_count()
    }

    fn task_label(&self, index: usize) -> String {
        self.inner.task_label(index)
    }

    fn run_task(&self, index: usize) -> Result<String, JobError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.run_task(index)
    }

    fn assemble(&self, ctx: &AssembleContext<'_>) -> Result<String, JobError> {
        self.inner.assemble(ctx)
    }
}

/// What a run of `spec` killed after its first `done` tasks leaves
/// behind: their records in the store at `dir`, and no artifact.
fn killed_after(spec: &JobRequest, dir: &Path, source: &dyn JobSource, done: usize) {
    let mut store = JobStore::open(dir, spec.clone()).unwrap();
    for index in 0..done {
        let result = source.run_task(index).unwrap();
        store.record(index, 0, result).unwrap();
    }
}

/// Runs `spec` through a fresh store in `dir` and returns the artifact.
fn store_run(spec: &JobRequest, dir: &Path) -> String {
    let source = job_source(spec).unwrap();
    let report = JobRunner::new(JobStore::open(dir, spec.clone()).unwrap())
        .run(source.as_ref())
        .unwrap();
    report.artifact.expect("unbounded runs assemble").text
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "noc-bench-jobs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference bytes: the same narrowed sweep run directly through
/// `FlowSweep` (exactly how `strategy_matrix_sweep` runs the full grids)
/// and rendered exactly how the `fig_strategy_matrix` binary renders its
/// artifact.
fn direct_artifact() -> String {
    let cycle_breaking = CycleBreaking;
    let ordering = ResourceOrdering;
    let escape = EscapeChannel;
    let recovery = RecoveryReconfig;
    let strategies: [&dyn DeadlockStrategy; 4] = [&cycle_breaking, &ordering, &escape, &recovery];
    let points = FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .switch_counts([6, 8])
        .power_estimates(false)
        .run(&strategies)
        .expect("direct sweep succeeds");
    let names = STRATEGY_MATRIX_NAMES.map(str::to_string).to_vec();
    let mut payload = String::new();
    ObjectWriter::new(&mut payload)
        .field("strategies", &names)
        .field("points", &points)
        .finish();
    Artifact::new("fig_strategy_matrix", &RawJson(&payload)).render()
}

#[test]
fn matrix_job_is_byte_identical_to_direct_sweep_across_kill_points() {
    let reference = direct_artifact();

    // Uninterrupted job run: byte-identical to the direct path.
    let dir = temp_dir("matrix-full");
    let source = Counted::new(&spec());
    let report = JobRunner::new(JobStore::open(&dir, spec()).unwrap())
        .run(&source)
        .unwrap();
    assert_eq!(report.stats.total, TASKS);
    assert_eq!(source.calls(), TASKS);
    assert_eq!(
        report.artifact.unwrap().text,
        reference,
        "job-store artifact must match the direct FlowSweep render byte for byte"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Killed mid-run (after 3 of 8 tasks), then resumed: same bytes, and
    // only the missing tasks recomputed.
    let dir = temp_dir("matrix-kill");
    let kill_after = 3;
    let source = Counted::new(&spec());
    killed_after(&spec(), &dir, &source, kill_after);
    assert_eq!(source.calls(), kill_after);

    let resumed = JobRunner::new(JobStore::open(&dir, spec()).unwrap())
        .run(&source)
        .unwrap();
    assert_eq!(resumed.stats.resumed, kill_after);
    assert_eq!(resumed.stats.computed, TASKS - kill_after);
    assert_eq!(
        source.calls(),
        TASKS,
        "resume recomputes only the tasks the kill lost"
    );
    assert_eq!(
        resumed.artifact.unwrap().text,
        reference,
        "resumed artifact must be byte-identical to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resubmitted_matrix_job_recomputes_nothing_with_the_cache() {
    let cache_dir = temp_dir("matrix-cache");
    let cache = ArtifactCache::new(&cache_dir);

    let first_dir = temp_dir("matrix-first");
    let source = job_source(&spec()).unwrap();
    let first = JobRunner::new(JobStore::open(&first_dir, spec()).unwrap())
        .with_cache(&cache)
        .run(source.as_ref())
        .unwrap();
    assert_eq!(first.stats.computed, TASKS);
    let reference = first.artifact.unwrap().text;

    // Identical spec, fresh store: every task comes from the cache and the
    // sweep code never runs.
    let second_dir = temp_dir("matrix-second");
    let source = Counted::new(&spec());
    let second = JobRunner::new(JobStore::open(&second_dir, spec()).unwrap())
        .with_cache(&cache)
        .run(&source)
        .unwrap();
    assert_eq!(second.stats.cache_hits, TASKS, "100% cache hits");
    assert_eq!(second.stats.computed, 0);
    assert_eq!(
        source.calls(),
        0,
        "a re-submitted identical job performs zero recomputation"
    );
    assert_eq!(second.artifact.unwrap().text, reference);

    for dir in [&cache_dir, &first_dir, &second_dir] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Kills `spec`'s job after `kill_after` tasks, resumes it in a second
/// runner, and returns the resumed artifact — asserting that only the
/// missing tasks were recomputed.
fn killed_and_resumed(spec: &JobRequest, tag: &str, kill_after: usize) -> String {
    let dir = temp_dir(tag);
    let source = Counted::new(spec);
    let total = source.task_count();
    killed_after(spec, &dir, &source, kill_after);
    let resumed = JobRunner::new(JobStore::open(&dir, spec.clone()).unwrap())
        .run(&source)
        .unwrap();
    assert_eq!(resumed.stats.resumed, kill_after, "{tag}");
    assert_eq!(resumed.stats.computed, total - kill_after, "{tag}");
    assert_eq!(
        source.calls(),
        total,
        "{tag}: resume recomputes only the tasks the kill lost"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    resumed.artifact.unwrap().text
}

#[test]
fn summary_table_resumes_byte_identically_to_the_direct_render() {
    let spec = spec_with(
        "summary_table",
        "{\"benchmarks\":[\"D26_media\",\"D36_8\",\"D38_tvopd\"]}",
    );
    // The reference: the comparisons and their summary computed directly
    // and rendered the way the binary used to render them.
    let comparisons: Vec<_> = [Benchmark::D26Media, Benchmark::D36x8, Benchmark::D38Tvopd]
        .into_iter()
        .map(|benchmark| power_comparison(benchmark, 14))
        .collect();
    let mut payload = String::new();
    ObjectWriter::new(&mut payload)
        .field("comparisons", &comparisons)
        .field("summary", &summary(&comparisons))
        .finish();
    let reference = Artifact::new("summary_table", &RawJson(&payload)).render();

    let source = job_source(&spec).unwrap();
    assert_eq!(run_in_memory(source.as_ref(), 2).unwrap(), reference);
    assert_eq!(killed_and_resumed(&spec, "summary-kill", 1), reference);
}

#[test]
fn conservatism_resumes_byte_identically_across_kill_points() {
    let spec = spec_with(
        "fig_conservatism",
        "{\"benchmarks\":[\"D36_8\"],\"switch_counts\":[18,24]}",
    );
    let source = job_source(&spec).unwrap();
    assert_eq!(source.task_count(), 2 + noc_bench::DEFAULT_RANDOM_DESIGNS);
    let reference = run_in_memory(source.as_ref(), 2).unwrap();
    for kill_after in [1, 150] {
        assert_eq!(
            killed_and_resumed(
                &spec,
                &format!("conservatism-kill-{kill_after}"),
                kill_after
            ),
            reference,
            "killed after {kill_after} tasks"
        );
    }
    // The grid points are spliced verbatim from the shared point function.
    let routed = noc_bench::routed_benchmark(Benchmark::D36x8, 18);
    let point = noc_bench::conservatism_point_for(&routed, "D36_8", 18).to_json();
    assert!(reference.contains(&point));
    // Two groups in first-appearance order: the grid, then the population.
    let parsed = noc_flow::json::ParsedArtifact::parse(&reference).unwrap();
    let groups = Node::new(&parsed.data, "data").items("benchmarks").unwrap();
    let names: Vec<_> = groups
        .iter()
        .map(|g| g.text("benchmark").unwrap())
        .collect();
    assert_eq!(names, ["D36_8", "random"]);
}

#[test]
fn every_figure_runs_in_memory_and_through_the_store_alike() {
    // Every figure the registry serves, narrowed to a point or two.
    const D26_AT_6: &str = "{\"benchmarks\":[\"D26_media\"],\"switch_counts\":[6]}";
    for (figure, params) in [
        ("fig8_d26_media", "{\"switch_counts\":[6]}"),
        ("fig9_d36_8", "{\"switch_counts\":[10]}"),
        ("fig10_power", "{\"benchmarks\":[\"D36_8\"]}"),
        ("summary_table", "{\"benchmarks\":[\"D36_8\"]}"),
        ("sim_validation", "{\"benchmarks\":[\"D38_tvopd\"]}"),
        ("fig_strategy_matrix", D26_AT_6),
        ("fig_sim_strategies", D26_AT_6),
        ("fig_faults", D26_AT_6),
        ("fig_conservatism", D26_AT_6),
    ] {
        let spec = spec_with(figure, params);
        let source = job_source(&spec).unwrap();
        let in_memory = run_in_memory(source.as_ref(), 2).unwrap();
        let dir = temp_dir(&format!("alike-{figure}"));
        let stored = store_run(&spec, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        // Equal but for the figure's measured fields (fig_faults' total
        // task time, `wall_ms`), as `noc_profile check --same-as` compares.
        if let Err(error) = same_as(&in_memory, &stored) {
            panic!("{figure}: in-memory and store runs differ: {error}");
        }
    }
}

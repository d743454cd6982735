//! End-to-end properties of the job system on a synthetic source:
//! kill-and-resume byte identity, torn-log recovery, 100 % cache hits on
//! re-submission, and store-less runs that match store runs.

use noc_flow::json::JsonValue;
use noc_jobs::{
    run_in_memory, task_digest, ArtifactCache, AssembleContext, JobError, JobRequest, JobRunner,
    JobSource, JobStore,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A deterministic toy sweep: task i computes `{"i": i, "sq": i*i}`, and
/// the artifact is the array of all task results.  Every `run_task` call
/// bumps a counter so tests can assert *zero recomputation*; the tasks in
/// `failing` return an error instead.
struct CountingSource {
    tasks: usize,
    calls: Arc<AtomicUsize>,
    failing: Vec<usize>,
}

impl CountingSource {
    fn new(tasks: usize) -> Self {
        CountingSource {
            tasks,
            calls: Arc::new(AtomicUsize::new(0)),
            failing: Vec::new(),
        }
    }
}

impl JobSource for CountingSource {
    fn figure(&self) -> &str {
        "counting"
    }

    fn task_count(&self) -> usize {
        self.tasks
    }

    fn run_task(&self, index: usize) -> Result<String, JobError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.failing.contains(&index) {
            return Err(JobError::Spec(format!("task {index} fails")));
        }
        Ok(format!("{{\"i\":{index},\"sq\":{}}}", index * index))
    }

    fn assemble(&self, ctx: &AssembleContext<'_>) -> Result<String, JobError> {
        let payload = format!("[{}]", ctx.results.join(","));
        Ok(noc_flow::json::Artifact::new(ctx.figure, &noc_flow::json::RawJson(&payload)).render())
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "noc-jobs-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> JobRequest {
    JobRequest::new("counting")
}

/// What a run killed after its first `done` tasks leaves behind: their
/// records in the store at `dir`, and no artifact.
fn killed_after(dir: &Path, source: &CountingSource, done: usize) {
    let mut store = JobStore::open(dir, spec()).unwrap();
    for index in 0..done {
        store
            .record(index, 0, source.run_task(index).unwrap())
            .unwrap();
    }
}

#[test]
fn uninterrupted_run_completes_and_commits() {
    let dir = temp_dir("complete");
    let source = CountingSource::new(7);
    let mut runner = JobRunner::new(JobStore::open(&dir, spec()).unwrap());
    let report = runner.run(&source).unwrap();
    assert_eq!(report.stats.total, 7);
    assert_eq!(report.stats.computed, 7);
    assert_eq!(report.stats.resumed, 0);
    let artifact = report.artifact.expect("unbounded run finishes");
    assert!(artifact.text.contains("\"sq\":36"));
    assert_eq!(
        std::fs::read_to_string(&artifact.path).unwrap(),
        artifact.text
    );
    assert_eq!(source.calls.load(Ordering::Relaxed), 7);
    // The store-less run assembles the same bytes.
    assert_eq!(run_in_memory(&source, 3).unwrap(), artifact.text);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_earliest_failing_task_wins_on_both_run_paths() {
    let dir = temp_dir("failing");
    let source = CountingSource {
        failing: vec![5, 3],
        ..CountingSource::new(8)
    };
    let stored = JobRunner::new(JobStore::open(&dir, spec()).unwrap()).run(&source);
    for result in [stored.map(|_| ()), run_in_memory(&source, 3).map(|_| ())] {
        assert!(matches!(result, Err(JobError::Task { index: 3, .. })));
    }
    // Every success was recorded before the failure surfaced.
    let reopened = JobStore::open(&dir, spec()).unwrap();
    assert_eq!(reopened.records().len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_run_resumes_byte_identically_for_every_kill_point() {
    // The reference: one uninterrupted run.
    let reference_dir = temp_dir("ref");
    let source = CountingSource::new(6);
    let reference = JobRunner::new(JobStore::open(&reference_dir, spec()).unwrap())
        .run(&source)
        .unwrap()
        .artifact
        .unwrap()
        .text;
    std::fs::remove_dir_all(&reference_dir).unwrap();

    // "Kill" the job after K completed tasks (their records written, the
    // store dropped), then reopen the directory and finish.  Every kill
    // point must reproduce the reference bytes exactly.
    for kill_after in 0..6 {
        let dir = temp_dir(&format!("kill{kill_after}"));
        let source = CountingSource::new(6);
        killed_after(&dir, &source, kill_after);
        assert_eq!(source.calls.load(Ordering::Relaxed), kill_after);

        let source = CountingSource::new(6);
        let mut resumed = JobRunner::new(JobStore::open(&dir, spec()).unwrap());
        let report = resumed.run(&source).unwrap();
        assert_eq!(report.stats.resumed, kill_after);
        assert_eq!(report.stats.computed, 6 - kill_after);
        assert_eq!(
            report.artifact.unwrap().text,
            reference,
            "kill point {kill_after}: resumed artifact must be byte-identical"
        );
        assert_eq!(
            source.calls.load(Ordering::Relaxed),
            6 - kill_after,
            "resume recomputes only the missing tasks"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_survives_a_torn_log_tail() {
    let dir = temp_dir("torn");
    killed_after(&dir, &CountingSource::new(4), 3);
    // Crash mid-append: garbage with no newline at the log tail.
    use std::io::Write as _;
    let log = dir.join("tasks.ndjson");
    let mut file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
    file.write_all(b"{\"index\":3,\"dig").unwrap();
    drop(file);

    let source = CountingSource::new(4);
    let report = JobRunner::new(JobStore::open(&dir, spec()).unwrap())
        .run(&source)
        .unwrap();
    assert_eq!(report.stats.resumed, 3);
    assert_eq!(report.stats.computed, 1);
    assert!(report.artifact.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resubmitted_job_is_all_cache_hits() {
    let cache_dir = temp_dir("cache");
    let cache = ArtifactCache::new(&cache_dir);

    let first_dir = temp_dir("first");
    let source = CountingSource::new(5);
    let first = JobRunner::new(JobStore::open(&first_dir, spec()).unwrap())
        .with_cache(&cache)
        .run(&source)
        .unwrap();
    assert_eq!(first.stats.computed, 5);
    assert_eq!(first.stats.cache_hits, 0);
    let reference = first.artifact.unwrap().text;

    // Same spec, fresh directory: every task must come from the cache,
    // with zero run_task calls.
    let second_dir = temp_dir("second");
    let source = CountingSource::new(5);
    let second = JobRunner::new(JobStore::open(&second_dir, spec()).unwrap())
        .with_cache(&cache)
        .run(&source)
        .unwrap();
    assert_eq!(second.stats.cache_hits, 5, "100% cache hits");
    assert_eq!(second.stats.computed, 0);
    assert_eq!(
        source.calls.load(Ordering::Relaxed),
        0,
        "re-submitted identical job performs zero recomputation"
    );
    assert_eq!(second.artifact.unwrap().text, reference);

    // A different spec must not hit the same entries.
    let mut other = spec();
    other.params = JsonValue::parse("{\"n\":1}").unwrap();
    assert_ne!(task_digest(&spec(), 0), task_digest(&other, 0));

    std::fs::remove_dir_all(&cache_dir).unwrap();
    std::fs::remove_dir_all(&first_dir).unwrap();
    std::fs::remove_dir_all(&second_dir).unwrap();
}

#[test]
fn completed_job_short_circuits_on_rerun() {
    let dir = temp_dir("rerun");
    let source = CountingSource::new(3);
    JobRunner::new(JobStore::open(&dir, spec()).unwrap())
        .run(&source)
        .unwrap();
    let calls_after_first = source.calls.load(Ordering::Relaxed);

    let report = JobRunner::new(JobStore::open(&dir, spec()).unwrap())
        .run(&source)
        .unwrap();
    assert_eq!(report.stats.resumed, 3);
    assert_eq!(report.stats.computed, 0);
    assert!(report.artifact.is_some());
    assert_eq!(source.calls.load(Ordering::Relaxed), calls_after_first);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn figure_mismatch_is_a_typed_error() {
    let dir = temp_dir("figmismatch");
    let source = CountingSource::new(2);
    let wrong = JobRequest::new("some_other_figure");
    let mut runner = JobRunner::new(JobStore::open(&dir, wrong).unwrap());
    assert!(matches!(runner.run(&source), Err(JobError::Spec(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}

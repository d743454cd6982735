//! The worker-pool job runner: resumes from the store, consults the
//! cache, computes what is missing, and commits the assembled artifact.

use crate::cache::ArtifactCache;
use crate::digest::sha256_hex;
use crate::error::JobError;
use crate::source::{AssembleContext, JobSource};
use crate::spec::JobRequest;
use crate::store::JobStore;
use noc_flow::executor::parallel_map_streaming;
use noc_flow::json::ParsedArtifact;
use std::path::PathBuf;

/// The content-hash key of one task: the digest of
/// `{"job": <canonical spec>, "task": <index>}` — see [`task_key`] for the
/// pre-image.  This is the cache key a re-submitted identical job hits.
pub fn task_digest(spec: &JobRequest, index: usize) -> String {
    sha256_hex(task_key(spec, index).as_bytes())
}

/// The pre-image of [`task_digest`], kept in cache entries for audit.
pub fn task_key(spec: &JobRequest, index: usize) -> String {
    format!("{{\"job\":{},\"task\":{index}}}", spec.canonical())
}

/// How a finished job's tasks were satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total tasks in the job.
    pub total: usize,
    /// Tasks computed in this run.
    pub computed: usize,
    /// Tasks replayed from the job store's completion log.
    pub resumed: usize,
    /// Tasks satisfied from the content-hash cache.
    pub cache_hits: usize,
    /// Total recorded task wall time, in milliseconds.
    pub task_ms_total: u64,
}

/// The outcome of a [`JobRunner::run`] call.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// How the tasks were satisfied.
    pub stats: RunStats,
    /// The committed artifact (path + full text).  Always `Some`: a run
    /// that returns `Ok` has committed its artifact.  It stays an `Option`
    /// because the `job_service` benchmark workload reads it as one.
    pub artifact: Option<JobArtifact>,
}

/// A committed artifact.
#[derive(Debug, Clone)]
pub struct JobArtifact {
    /// Where the store committed it (`<job dir>/artifact.json`).
    pub path: PathBuf,
    /// The full document text.
    pub text: String,
}

/// Drives one job to completion against an open [`JobStore`], optionally
/// consulting an [`ArtifactCache`].
#[derive(Debug)]
pub struct JobRunner<'a> {
    store: JobStore,
    cache: Option<&'a ArtifactCache>,
}

impl<'a> JobRunner<'a> {
    /// Wraps an open store.
    pub fn new(store: JobStore) -> Self {
        JobRunner { store, cache: None }
    }

    /// Consult (and populate) `cache` for task results.
    pub fn with_cache(mut self, cache: &'a ArtifactCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the job to completion and commits the artifact.  Every
    /// computed task is durably recorded the moment it lands, so a run
    /// killed part-way is picked up where it stopped by the next `run` on
    /// the same store.
    pub fn run(&mut self, source: &dyn JobSource) -> Result<JobReport, JobError> {
        let spec = self.store.spec().clone();
        let mut job_span = noc_telemetry::span("jobs", "run_job");
        job_span
            .arg("figure", spec.figure.as_str())
            .arg("id", spec.id.as_str());
        if spec.figure != source.figure() {
            return Err(JobError::Spec(format!(
                "source evaluates {:?} but the job requests {:?}",
                source.figure(),
                spec.figure
            )));
        }
        let total = source.task_count();
        self.store.forget_beyond(total);

        // A previously committed artifact ends the job immediately: the
        // tasks all have records, the text is already assembled.
        if let Some(text) = self.store.committed_artifact() {
            if ParsedArtifact::parse(&text).is_ok() && self.store.records().len() == total {
                return Ok(JobReport {
                    stats: RunStats {
                        total,
                        resumed: total,
                        task_ms_total: self.task_ms(),
                        ..RunStats::default()
                    },
                    artifact: Some(JobArtifact {
                        path: self.store.artifact_path(),
                        text,
                    }),
                });
            }
        }

        let resumed = self.store.records().len();
        let mut cache_hits = 0usize;

        // Satisfy missing tasks from the cache first — a hit becomes a
        // durable record like any computed result, so later resumes no
        // longer depend on the cache.
        let mut missing: Vec<usize> = Vec::new();
        for index in 0..total {
            if self.store.records().contains_key(&index) {
                continue;
            }
            let digest = task_digest(&spec, index);
            match self.cache.and_then(|cache| cache.lookup(&digest)) {
                Some(result) => {
                    self.store.record(index, 0, result)?;
                    cache_hits += 1;
                    noc_telemetry::counter("jobs.cache_hits", 1);
                }
                None => {
                    if self.cache.is_some() {
                        noc_telemetry::counter("jobs.cache_misses", 1);
                    }
                    missing.push(index);
                }
            }
        }

        // Compute what remains, recording each result the moment it lands.
        let computed = missing.len();
        let cache = self.cache;
        let store = &mut self.store;
        execute(
            source,
            &missing,
            spec.threads,
            |index, elapsed_ms, result| {
                store.record(index, elapsed_ms, result.to_string())?;
                if let Some(cache) = cache {
                    cache.store(&task_digest(&spec, index), &task_key(&spec, index), result);
                }
                Ok(())
            },
        )?;

        noc_telemetry::counter("jobs.tasks_computed", computed as u64);
        noc_telemetry::counter("jobs.tasks_resumed", resumed as u64);
        let stats = RunStats {
            total,
            computed,
            resumed,
            cache_hits,
            task_ms_total: self.task_ms(),
        };
        let ordered: Vec<String> = self
            .store
            .records()
            .values()
            .map(|record| record.result.clone())
            .collect();
        debug_assert_eq!(ordered.len(), total);
        let text = assemble_checked(source, &ordered, stats.task_ms_total)?;
        self.store.commit_artifact(&text)?;
        Ok(JobReport {
            stats,
            artifact: Some(JobArtifact {
                path: self.store.artifact_path(),
                text,
            }),
        })
    }

    fn task_ms(&self) -> u64 {
        self.store
            .records()
            .values()
            .map(|record| record.elapsed_ms)
            .sum()
    }
}

/// Runs every task of `source` on `threads` workers (`0` auto-sizes) with
/// no store and no cache, and returns the assembled artifact text.  It
/// shares [`JobRunner::run`]'s task execution, timing, assembly and
/// self-validating parse, so both produce the same bytes for the same
/// source.
///
/// # Errors
///
/// The earliest-index task failure (as [`JobError::Task`]), or an
/// assembly / validation failure.
pub fn run_in_memory(source: &dyn JobSource, threads: usize) -> Result<String, JobError> {
    let mut job_span = noc_telemetry::span("jobs", "run_job");
    job_span.arg("figure", source.figure());
    let indices: Vec<usize> = (0..source.task_count()).collect();
    let timed = execute(source, &indices, threads, |_, _, _| Ok(()))?;
    let task_ms_total = timed.iter().map(|(elapsed_ms, _)| elapsed_ms).sum();
    let results: Vec<String> = timed.into_iter().map(|(_, result)| result).collect();
    assemble_checked(source, &results, task_ms_total)
}

/// Computes the tasks `indices` (ascending) of `source` on `threads`
/// workers, timing each, and returns `(wall ms, result)` per task in
/// `indices` order.  `on_success` sees each success as it lands; progress
/// goes to stderr as `[k/n] <task label> done`.  Its first error stops the
/// callbacks and wins; otherwise the earliest failing task wins, wrapped
/// with its index, once every in-flight success has been handed over.
fn execute(
    source: &dyn JobSource,
    indices: &[usize],
    threads: usize,
    mut on_success: impl FnMut(usize, u64, &str) -> Result<(), JobError>,
) -> Result<Vec<(u64, String)>, JobError> {
    let figure = source.figure();
    let mut done = 0usize;
    let mut callback_error: Option<JobError> = None;
    let results = parallel_map_streaming(
        indices,
        threads,
        |_, &index| {
            let mut task_span = noc_telemetry::span("jobs", "task");
            task_span.arg("figure", figure).arg("index", index);
            let started = std::time::Instant::now();
            let result = source.run_task(index);
            let elapsed_ms = started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            (elapsed_ms, result)
        },
        |position, (elapsed_ms, result)| {
            let index = indices[position];
            done += 1;
            eprintln!(
                "[{done}/{}] {} done",
                indices.len(),
                source.task_label(index)
            );
            if callback_error.is_some() {
                return;
            }
            if let Ok(result) = result {
                if let Err(e) = on_success(index, *elapsed_ms, result) {
                    callback_error = Some(e);
                }
            }
        },
    );
    if let Some(e) = callback_error {
        return Err(e);
    }
    indices
        .iter()
        .zip(results)
        .map(|(&index, (elapsed_ms, result))| match result {
            Ok(text) => Ok((elapsed_ms, text)),
            Err(e) => Err(JobError::Task {
                index,
                source: Box::new(e),
            }),
        })
        .collect()
}

/// Assembles the artifact from one result per task (task-index order) and
/// re-parses it before anyone may commit it — a splice bug must fail the
/// run, never publish an unreadable artifact.
fn assemble_checked(
    source: &dyn JobSource,
    results: &[String],
    task_ms_total: u64,
) -> Result<String, JobError> {
    let text = source.assemble(&AssembleContext {
        figure: source.figure(),
        results,
        task_ms_total,
    })?;
    ParsedArtifact::parse(&text)?;
    Ok(text)
}

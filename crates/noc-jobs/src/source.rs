//! The seam between the generic runner/store machinery and the
//! figure-specific sweep code.

use crate::error::JobError;

/// What the runner hands a source when every task has a recorded result
/// and the final artifact can be assembled.
#[derive(Debug)]
pub struct AssembleContext<'a> {
    /// The figure name (for the artifact envelope).
    pub figure: &'a str,
    /// One recorded result per task, as raw JSON text, in task-index
    /// order.  Splicing these verbatim (rather than re-rendering parsed
    /// values) is what makes a resumed run's artifact byte-identical to an
    /// uninterrupted one.
    pub results: &'a [String],
    /// Total task wall time in milliseconds, summed from the per-task
    /// times the runner measured: on the store path, resumed tasks keep
    /// their recorded time and cache hits count zero.
    pub task_ms_total: u64,
}

/// A figure (or any sweep) decomposed into independently computable,
/// independently recordable tasks.
///
/// Implementations must satisfy two contracts the store relies on:
///
/// * **Determinism** — `run_task(i)` returns the same result text for the
///   same spec every time it runs; the task list (count and meaning of
///   each index) is a pure function of the spec.  This is what makes
///   replayed records, cache hits, and fresh computation interchangeable.
/// * **Single-line results** — the returned JSON contains no newlines
///   (the store's completion log is newline-delimited).  The JSON writers
///   in `noc_flow::json` never emit newlines, so any result built with
///   them qualifies.
///
/// Tasks may share expensive preparation (e.g. one synthesized design
/// charged by several strategies) through interior mutability —
/// `run_task` takes `&self` and is called from the worker pool, so shared
/// state must be `Sync`.
pub trait JobSource: Sync {
    /// The figure this source evaluates (must match the job spec).
    fn figure(&self) -> &str;

    /// Number of tasks the job decomposes into.
    fn task_count(&self) -> usize;

    /// A short human label for task `index` (progress lines, logs).
    fn task_label(&self, index: usize) -> String {
        format!("task {index}")
    }

    /// Computes task `index`, returning its result as single-line JSON.
    fn run_task(&self, index: usize) -> Result<String, JobError>;

    /// Assembles the final artifact *document* (envelope included, ready
    /// to commit) from the recorded per-task results.
    fn assemble(&self, ctx: &AssembleContext<'_>) -> Result<String, JobError>;
}

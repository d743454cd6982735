#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Evaluation jobs for the design-space sweeps.
//!
//! Every figure of the reproduction is a grid of independent tasks —
//! (grid point × strategy × policy) units — described by a
//! [`source::JobSource`] (the figure-specific sources live in `noc-bench`,
//! next to the sweep harness).  [`runner::run_in_memory`] runs a source's
//! tasks on the executor and assembles the artifact; it is what every
//! figure binary does.
//!
//! The crate also keeps a durable path.  A [`spec::JobRequest`] names a
//! job, identified by the SHA-256 digest of its canonical form.  A
//! [`runner::JobRunner`] executes it task by task and appends one durable
//! completion record per finished task to an on-disk [`store::JobStore`].
//! Reopening the store replays the recorded results and computes only the
//! missing tasks, and both paths assemble from the same result text, so
//! the artifact is byte-identical to an in-memory run.  An optional
//! [`cache::ArtifactCache`] shares task results across job directories.
//! Only the `job_service` benchmark workload drives this path (it times
//! the store appends, cache reads and sha256); the path goes when that
//! workload does.
//!
//! Everything here builds on `noc_flow::json` and the standard library
//! only — no network, no external dependencies.

pub mod cache;
pub mod digest;
pub mod error;
pub mod runner;
pub mod source;
pub mod spec;
pub mod store;

pub use cache::ArtifactCache;
pub use error::JobError;
pub use runner::{
    run_in_memory, task_digest, task_key, JobArtifact, JobReport, JobRunner, RunStats,
};
pub use source::{AssembleContext, JobSource};
pub use spec::JobRequest;
pub use store::{JobStore, TaskRecord};

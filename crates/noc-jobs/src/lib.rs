#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Persistent, resumable evaluation jobs for the design-space sweeps.
//!
//! Every figure of the reproduction is a grid of independent tasks —
//! (grid point × strategy × policy) units.  This crate turns such a grid
//! into a **job**: a JSON spec ([`spec::JobRequest`]) identified by the
//! SHA-256 digest of its canonical form, executed task-by-task through a
//! [`runner::JobRunner`] that appends one durable completion record per
//! finished task to an on-disk [`store::JobStore`].  Kill the process at
//! any point and a rerun replays the recorded results and computes only
//! the missing tasks — the committed artifact is byte-identical to an
//! uninterrupted run, because both assemble from the same recorded result
//! text.  An optional [`cache::ArtifactCache`] shares task results
//! *across* job directories, so re-submitting an identical design performs
//! zero recomputation.
//!
//! The crate is deliberately figure-agnostic: what a task *is* comes from
//! a [`source::JobSource`] implementation (the figure-specific sources
//! live in `noc-bench`, next to the sweep harness; the `noc_serve` binary
//! there speaks newline-delimited JSON jobs over stdin/stdout and a spool
//! directory).  Everything here builds on `noc_flow::json` and the
//! standard library only — no network, no external dependencies.

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

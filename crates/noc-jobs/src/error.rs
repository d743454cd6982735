//! The typed error surface of the job system.

use noc_flow::json::{ArtifactError, JsonParseError};
use noc_flow::FlowError;
use std::fmt;
use std::path::PathBuf;

/// Why a job could not be parsed, stored, resumed, or run.
#[derive(Debug)]
pub enum JobError {
    /// A job spec, task record, or artifact is not valid JSON.
    Json(JsonParseError),
    /// An artifact failed to render, validate, or commit.
    Artifact(ArtifactError),
    /// A job's params are malformed (unknown keys, wrong types), or a
    /// source is run against another figure's job.
    Spec(String),
    /// A store directory belongs to a different job than the one being
    /// opened — its spec digest does not match.
    SpecMismatch {
        /// The store directory.
        dir: PathBuf,
        /// Digest of the spec being opened.
        expected: String,
        /// Digest recorded in the directory's `job.json`.
        found: String,
    },
    /// The requested figure has no job source.
    UnknownFigure(String),
    /// The figure exists but has no job source (`fig_scale`, whose serial
    /// wall-clock timings are not independent tasks).
    Unsupported(String),
    /// A task-record line that is not the torn tail of a crashed append is
    /// unreadable — the store is corrupt and needs manual attention.
    Corrupt {
        /// The record log path.
        path: PathBuf,
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A task's flow computation failed.
    Flow(FlowError),
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A specific task of a job failed: the runner wraps the task's own
    /// error with its index, so the message says which unit of work to
    /// look at.
    Task {
        /// Zero-based index of the failing task.
        index: usize,
        /// The task's underlying error.
        source: Box<JobError>,
    },
}

impl JobError {
    /// Convenience constructor tagging an I/O error with its path.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        JobError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Json(e) => write!(f, "invalid JSON: {e}"),
            JobError::Artifact(e) => write!(f, "artifact error: {e}"),
            JobError::Spec(message) => write!(f, "malformed job spec: {message}"),
            JobError::SpecMismatch {
                dir,
                expected,
                found,
            } => write!(
                f,
                "job store {} belongs to a different job (spec digest {found}, \
                 submitted {expected})",
                dir.display()
            ),
            JobError::UnknownFigure(figure) => write!(f, "unknown figure {figure:?}"),
            JobError::Unsupported(figure) => {
                write!(f, "figure {figure:?} has no job source (serial timings)")
            }
            JobError::Corrupt {
                path,
                line,
                message,
            } => write!(
                f,
                "corrupt task record at {}:{line}: {message}",
                path.display()
            ),
            JobError::Flow(e) => write!(f, "flow error: {e}"),
            JobError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            JobError::Task { index, source } => write!(f, "task {index}: {source}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Json(e) => Some(e),
            JobError::Artifact(e) => Some(e),
            JobError::Flow(e) => Some(e),
            JobError::Io { source, .. } => Some(source),
            JobError::Task { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<JsonParseError> for JobError {
    fn from(error: JsonParseError) -> Self {
        JobError::Json(error)
    }
}

impl From<ArtifactError> for JobError {
    fn from(error: ArtifactError) -> Self {
        JobError::Artifact(error)
    }
}

impl From<FlowError> for JobError {
    fn from(error: FlowError) -> Self {
        JobError::Flow(error)
    }
}

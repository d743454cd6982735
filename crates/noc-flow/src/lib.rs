//! Unified staged pipeline API for the deadlock-removal suite.
//!
//! The DATE 2010 paper's whole evaluation is one pipeline — benchmark →
//! topology synthesis → routing → deadlock removal → power/simulation — and
//! before this crate every test, example and experiment binary re-implemented
//! it longhand with its own clone/verify boilerplate.  `noc-flow` makes the
//! pipeline a first-class object:
//!
//! * [`RoutedStage`] is the pipeline's one entry point: a design routed by
//!   deadlock-oblivious shortest paths, the paper's input, built by
//!   [`synthesize`](RoutedStage::synthesize) or imported with
//!   [`with_design`](RoutedStage::with_design).  It and the
//!   [`DeadlockFreeStage`] it repairs into are one type,
//!   [`Stage`](stage::Stage), in two states: each owns its topology/routes
//!   and auto-runs the matching `validate_*`/`verify` check on entry, and
//!   both read and simulate (`simulate_vc`) the same way,
//! * [`DeadlockStrategy`] is the pluggable deadlock-handling seam, with one
//!   implementation per point of the deadlock design space:
//!   [`CycleBreaking`] (the paper's Algorithm 1 — removal),
//!   [`ResourceOrdering`] (its baseline — prevention), [`EscapeChannel`]
//!   (up*/down* escape-VC layers — avoidance) and [`RecoveryReconfig`]
//!   (DBR-style drain-and-reconfigure — recovery); swapping schemes is a
//!   one-line change.  Each returns one [`ResolutionDetail`], from which
//!   [`DeadlockResolution`] derives the kind and counts,
//! * [`FlowSweep`] drives (benchmark × switch-count × strategy) grids, the
//!   shape of the paper's Figures 8–10: [`run`](FlowSweep::run) maps the
//!   grid points across scoped worker threads ([`executor`]) and returns
//!   them in deterministic grid order, identical for every worker count,
//! * [`json`] is a dependency-free JSON writer/parser ([`ToJson`],
//!   [`JsonValue`]) so sweep results can be exported and plotted outside
//!   Rust.
//!
//! # Quick start
//!
//! ```
//! use noc_flow::{CycleBreaking, ResourceOrdering, RoutedStage};
//! use noc_synth::SynthesisConfig;
//! use noc_topology::benchmarks::Benchmark;
//!
//! let comm = Benchmark::D36x8.comm_graph();
//! let routed = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(10))?;
//!
//! // The same routed design under both schemes — no hand-cloning.
//! let removal = routed.resolve_deadlocks(&CycleBreaking)?;
//! let ordering = routed.resolve_deadlocks(&ResourceOrdering)?;
//! assert!(removal.resolution().added_vcs() <= ordering.resolution().added_vcs());
//! # Ok::<(), noc_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod executor;
pub mod json;
pub mod stage;
pub mod strategy;
pub mod sweep;
pub mod trace;

pub use error::FlowError;
pub use json::{
    Artifact, ArtifactError, JsonParseError, JsonValue, ParsedArtifact, RawJson, ToJson,
    SCHEMA_VERSION,
};
pub use noc_deadlock::report::StrategyKind;
pub use stage::{DeadlockFreeStage, RoutedStage};
pub use strategy::{
    CycleBreaking, DeadlockResolution, DeadlockStrategy, EscapeChannel, RecoveryReconfig,
    ResolutionDetail, ResourceOrdering,
};
pub use sweep::{
    CertifyOutcome, FaultRunStats, FlowSweep, PreparedPoint, StrategyOutcome, StrategySimStats,
    SweepPoint,
};
pub use trace::{PhaseRow, TraceArtifact, TraceSummary, TRACE_FIGURE};

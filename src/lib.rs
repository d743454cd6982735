//! Umbrella crate for the DATE 2010 deadlock-removal reproduction suite.
//!
//! Re-exports every member crate under a single dependency so the
//! repository-level examples and integration tests can exercise the whole
//! stack.  Downstream users normally depend on the individual crates
//! (`noc-deadlock`, `noc-sim`, ...) directly — or on [`flow`], the staged
//! pipeline API that drives the full benchmark → synthesis → routing →
//! deadlock-removal → power/simulation chain from one
//! [`RoutedStage`](flow::RoutedStage) with pluggable
//! [`DeadlockStrategy`](flow::DeadlockStrategy) implementations.

#![forbid(unsafe_code)]

pub use noc_deadlock as deadlock;
pub use noc_flow as flow;
pub use noc_graph as graph;
pub use noc_jobs as jobs;
pub use noc_power as power;
pub use noc_routing as routing;
pub use noc_sim as sim;
pub use noc_synth as synth;
pub use noc_telemetry as telemetry;
pub use noc_topology as topology;

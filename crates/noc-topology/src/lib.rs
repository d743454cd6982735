//! NoC topology and communication-graph model for the deadlock-removal suite.
//!
//! This crate implements Definitions 1–3 of the paper:
//!
//! * the **topology graph** `TG(S, L)` — switches connected by directed
//!   physical links, each carrying one or more virtual channels
//!   ([`Topology`], [`Link`], [`Channel`]),
//! * the **communication graph** `G(V, E)` — cores and the flows between
//!   them ([`CommGraph`], [`Flow`]),
//! * the **core attachment** mapping cores onto switches ([`CoreMap`]),
//!
//! plus the per-source path search that validation and routing share
//! ([`search`]), generators for regular topologies ([`generators`]) and the
//! synthetic SoC benchmark suite used by the paper's evaluation ([`benchmarks`]).
//!
//! # Example
//!
//! ```
//! use noc_topology::{Topology, CommGraph};
//!
//! // The 4-switch ring from Figure 1 of the paper.
//! let mut topo = Topology::new();
//! let sw: Vec<_> = (1..=4).map(|i| topo.add_switch(format!("SW{i}"))).collect();
//! for i in 0..4 {
//!     topo.add_link(sw[i], sw[(i + 1) % 4], 1.0);
//! }
//! assert_eq!(topo.switch_count(), 4);
//! assert_eq!(topo.link_count(), 4);
//!
//! let mut comm = CommGraph::new();
//! let c0 = comm.add_core("cpu");
//! let c1 = comm.add_core("mem");
//! comm.add_flow(c0, c1, 100.0);
//! assert_eq!(comm.flow_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod comm;
pub mod error;
pub mod fault;
pub mod generators;
pub mod ids;
pub mod search;
pub mod topology;
pub mod validate;

pub use comm::{CommGraph, Core, CoreMap, Flow};
pub use error::TopologyError;
pub use fault::{Connectivity, FaultSet};
pub use ids::{Channel, CoreId, FlowId, LinkId, SwitchId};
pub use topology::{Link, Switch, Topology};

//! ORION-style analytical area and power models for NoC switches and links.
//!
//! The paper estimates switch power and area with ORION 2.0 (its ref. \[20\]).
//! ORION itself is a C++ tool that is not vendored here, so this crate
//! provides an analytical substitute with the same structure: per-component
//! (input buffers, crossbar, arbiter, output links) area and energy terms,
//! driven by port count, VC count and traffic load at one fixed
//! technology point (the constants in [`params`]: buffer depth, flit
//! width, frequency, per-bit areas and energies).  Absolute numbers are
//! calibrated to a 65 nm-like operating point; the paper's Figure 10 only
//! uses *normalised* power, for which the dominant effect — extra VCs mean
//! extra input buffers, which mean extra area, leakage and buffering
//! energy — is captured faithfully.
//!
//! # Example
//!
//! ```
//! use noc_topology::{Topology, CommGraph, CoreMap};
//! use noc_routing::shortest::route_all_shortest;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_switch("a");
//! let b = topo.add_switch("b");
//! topo.add_bidirectional_link(a, b, 1000.0);
//! let mut comm = CommGraph::new();
//! let c0 = comm.add_core("c0");
//! let c1 = comm.add_core("c1");
//! comm.add_flow(c0, c1, 200.0);
//! let mut map = CoreMap::new(2);
//! map.assign(c0, a)?;
//! map.assign(c1, b)?;
//! let routes = route_all_shortest(&topo, &comm, &map)?;
//!
//! let estimate = noc_power::estimate(&topo, &comm, &routes);
//! assert!(estimate.total_power_mw > 0.0);
//! assert!(estimate.total_area_um2 > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod params;
pub mod switch;

pub use estimate::{estimate, NetworkEstimate};
pub use switch::{SwitchEstimate, SwitchGeometry};

//! Static routing for NoC topologies.
//!
//! Definition 3 of the paper describes a route as the ordered set of
//! channels (physical link + VC) a flow traverses from its source switch to
//! its destination switch.  This crate provides:
//!
//! * the [`Route`] / [`RouteSet`] data model (one flat channel array per
//!   set, read through [`RouteView`]) shared with the deadlock-removal
//!   algorithm (which re-routes flows onto newly added VCs),
//! * deadlock-oblivious minimum-cost routing ([`shortest`]), the default way
//!   the paper's input routes are produced,
//! * dimension-order XY routing for meshes ([`xy`]),
//! * up*/down* routing for arbitrary topologies ([`updown`]), a classic
//!   deadlock-free baseline,
//! * route validation ([`validate`]).
//!
//! # Example
//!
//! ```
//! use noc_topology::{generators, CommGraph, CoreMap};
//! use noc_routing::shortest::route_all_shortest;
//!
//! let gen = generators::bidirectional_ring(4, 1.0);
//! let mut comm = CommGraph::new();
//! let a = comm.add_core("a");
//! let b = comm.add_core("b");
//! let f = comm.add_flow(a, b, 10.0);
//! let mut map = CoreMap::new(2);
//! map.assign(a, gen.switches[0]).unwrap();
//! map.assign(b, gen.switches[2]).unwrap();
//!
//! let routes = route_all_shortest(&gen.topology, &comm, &map).unwrap();
//! assert_eq!(routes.route(f).unwrap().hop_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod route;
pub mod shortest;
pub mod updown;
pub mod validate;
pub mod xy;

pub use route::{Route, RouteSet, RouteView};
pub use validate::RouteError;

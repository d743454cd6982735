//! Directed-graph substrate for the NoC deadlock-removal suite.
//!
//! The paper ("A Method to Remove Deadlocks in Networks-on-Chips with
//! Wormhole Flow Control", DATE 2010) manipulates three directed graphs:
//! the topology graph `TG(S, L)`, the communication graph `G(V, E)` and the
//! channel dependency graph `CDG(C, D)`.  This crate provides the common
//! graph machinery all of them are built on:
//!
//! * [`DiGraph`] — a compact adjacency-list directed multigraph with stable
//!   node and edge identifiers,
//! * [`CsrGraph`] — a frozen compressed-sparse-row view of a [`DiGraph`] for
//!   cache-friendly read-only passes, abstracted over by [`GraphView`],
//! * breadth-first and depth-first [`traversal`],
//! * Tarjan strongly-connected components ([`scc`]),
//! * cycle search ([`cycles`]) including the per-vertex BFS "smallest cycle"
//!   search used by the paper's `GetSmallestCycle`,
//! * Dijkstra shortest paths ([`shortest_path`]),
//! * topological ordering / acyclicity checks ([`topo`]),
//! * Graphviz export ([`dot`]).
//!
//! # Example
//!
//! ```
//! use noc_graph::{DiGraph, cycles};
//!
//! let mut g: DiGraph<&str, ()> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, ());
//! g.add_edge(b, c, ());
//! g.add_edge(c, a, ());
//!
//! let cycle = cycles::smallest_cycle(&g).expect("the triangle is a cycle");
//! assert_eq!(cycle.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod cycles;
pub mod digraph;
pub mod dot;
pub mod knots;
pub mod scc;
pub mod shortest_path;
pub mod topo;
pub mod traversal;

pub use csr::{CsrGraph, GraphView};
pub use digraph::{DiGraph, EdgeId, EdgeRef, NodeId};

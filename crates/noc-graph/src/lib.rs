//! Directed-graph substrate for the NoC deadlock-removal suite.
//!
//! The paper ("A Method to Remove Deadlocks in Networks-on-Chips with
//! Wormhole Flow Control", DATE 2010) decides deadlock freedom on the
//! channel dependency graph `CDG(C, D)`: Algorithm 1 builds it and breaks
//! its smallest cycle (`GetSmallestCycle`) until it is acyclic.  The
//! certified verifier and the recovery strategies add wait-for graphs,
//! their strongly connected components and their knots.  This crate is
//! exactly that machinery:
//!
//! * [`DiGraph`] — a compact adjacency-list directed multigraph with stable
//!   node and edge identifiers and logical edge removal, the one graph
//!   representation the CDG and the wait-for graphs are built on,
//! * Tarjan strongly-connected components ([`scc`]), which double as the
//!   acyclicity check,
//! * cycle search ([`cycles`]): the per-vertex BFS smallest-cycle search
//!   behind `GetSmallestCycle`, run over a compressed adjacency snapshot
//!   that a finder patches from each query's edits,
//! * knot detection ([`knots`]) for the certified verifier.
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

pub mod cycles;
pub mod digraph;
pub mod knots;
pub mod scc;

pub use digraph::{DiGraph, EdgeId, EdgeRef, NodeId};

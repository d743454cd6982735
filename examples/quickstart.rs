//! Quickstart: build the paper's Figure 1 ring design, detect the deadlock
//! condition, remove it with the paper's algorithm and compare against the
//! resource-ordering baseline — all through the `noc-flow` pipeline API.
//!
//! Run with `cargo run --example quickstart`.

use noc_suite::flow::{CycleBreaking, ResolutionDetail, ResourceOrdering, RoutedStage};
use noc_suite::topology::{CommGraph, CoreMap, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The topology of Figure 1: four switches in a unidirectional ring.
    let mut topology = Topology::new();
    let switches: Vec<_> = (1..=4)
        .map(|i| topology.add_switch(format!("SW{i}")))
        .collect();
    for i in 0..4 {
        topology.add_link(switches[i], switches[(i + 1) % 4], 1000.0);
    }

    // --- 2. Four cores, one per switch, with the four flows of the example.
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("core{i}"))).collect();
    comm.add_flow(cores[0], cores[3], 200.0); // F1: three hops
    comm.add_flow(cores[2], cores[0], 200.0); // F2
    comm.add_flow(cores[3], cores[1], 200.0); // F3
    comm.add_flow(cores[0], cores[2], 200.0); // F4
    let mut core_map = CoreMap::new(comm.core_count());
    for (i, &core) in cores.iter().enumerate() {
        core_map.assign(core, switches[i])?;
    }

    // --- 3. Import the hand-built design and route it with
    // deadlock-oblivious shortest paths (the paper's input routing).  The
    // stage validates the design and the routes automatically.
    let routed = RoutedStage::with_design(comm, topology, core_map)?;

    // --- 4. The CDG has a cycle: the design can deadlock.
    match routed.deadlock_evidence() {
        None => println!("input design is already deadlock-free"),
        Some(cycle) => println!("input design CAN deadlock: {cycle}"),
    }

    // --- 5. Baseline for comparison: resource ordering.  Branching off the
    // routed stage needs no cloning — the flow owns its artifacts.
    let ordered = routed.resolve_deadlocks(&ResourceOrdering)?;
    let ResolutionDetail::Ordering(ro) = &ordered.resolution().detail else {
        unreachable!("resource ordering reports an ordering result");
    };
    println!(
        "resource ordering:   {} extra VCs ({} channel classes)",
        ro.added_vcs, ro.classes
    );

    // --- 6. The paper's algorithm (swapping strategies is a one-line change).
    let fixed = routed.resolve_deadlocks(&CycleBreaking)?;
    println!(
        "deadlock removal:    {} extra VC(s), {} cycle(s) broken",
        fixed.resolution().added_vcs(),
        fixed.resolution().cycles_broken()
    );
    println!("after removal the CDG is acyclic: the design cannot deadlock");
    Ok(())
}

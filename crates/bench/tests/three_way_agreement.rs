//! The three-way agreement harness: the verifier triad must form a sound
//! lattice on every design it is pointed at —
//!
//! ```text
//! CDG acyclic  ⇒  certified deadlock-free  ⇒  the exact runtime
//!                                             wait-for-graph detector
//!                                             never fires
//! ```
//!
//! equivalently (contrapositive): a runtime deadlock implies the certified
//! verdict was *not* `certified-free`, and any certified verdict other than
//! `certified-free` implies the CDG was cyclic.  The harness drives every
//! feasible Figure 8 (D26_media) and Figure 9 (D36_8) grid point plus 200
//! seeded random ring / chorded-ring / mesh designs through
//! [`noc_bench::conservatism_point_for`] — the same code path the
//! `fig_conservatism` artifact uses — and hard-fails on any sound-direction
//! disagreement.  A certified-free design that deadlocks in simulation is a
//! verifier bug, full stop.
//!
//! The unsound direction (a `certified-deadlockable` witness *realizing*
//! its deadlock under FIFO scheduling) is best-effort: the witness is
//! re-verified statically inside `certify`, and the replay is asserted only
//! on the deterministic Figure 1 ring where the trap provably closes.

use noc_bench::jobs::{fig89_grid, Params};
use noc_bench::{conservatism_point_for, random_routed_design, ConservatismPoint};
use noc_flow::RoutedStage;
use noc_topology::{generators, CommGraph, CoreMap};

/// Number of seeded random designs the property sweep checks.  Matches the
/// `fig_conservatism` artifact population (`DEFAULT_RANDOM_DESIGNS`).
const RANDOM_DESIGNS: u64 = 200;

/// Asserts the sound lattice on one point; the panic message names the
/// design so a seed that finds a disagreement is immediately reproducible.
fn assert_lattice(point: &ConservatismPoint, label: &str) {
    // CDG acyclic ⇒ certified free (the certifier's fast path must agree
    // with the conservative check on acyclic designs).
    if !point.cdg_cyclic {
        assert_eq!(
            point.verdict, "certified-free",
            "{label}: CDG is acyclic but certify returned {}",
            point.verdict
        );
    }
    // Certified free ⇒ the exact detector never fires, and the long-worm
    // run drains (the certificate is a guarantee, not a heuristic).
    if point.verdict == "certified-free" {
        assert!(
            !point.wait_for_graph_fired,
            "{label}: certified-free design tripped the wait-for-graph detector"
        );
        assert!(
            !point.runtime_deadlocked,
            "{label}: certified-free design deadlocked in simulation"
        );
    }
    // Contrapositive sanity: a deadlockable verdict (which carries a
    // statically re-verified witness) can only arise on a cyclic CDG.
    if point.verdict == "certified-deadlockable" {
        assert!(
            point.cdg_cyclic,
            "{label}: deadlockable verdict on an acyclic CDG"
        );
        assert!(
            point.witness_worms >= 1,
            "{label}: deadlockable verdict without witness worms"
        );
        assert!(
            point.witness_attempted,
            "{label}: deadlockable verdict but no replay was attempted"
        );
    }
}

#[test]
fn benchmark_grids_respect_the_lattice() {
    let grid = fig89_grid(&Params::default()).expect("the published grid");
    let points = noc_flow::executor::parallel_map_ordered(&grid, 0, |&(benchmark, count)| {
        let routed = noc_bench::routed_benchmark(benchmark, count);
        conservatism_point_for(&routed, benchmark.name(), count)
    });
    for (&(benchmark, count), point) in grid.iter().zip(&points) {
        assert_lattice(point, &format!("{benchmark}/{count}"));
    }
}

#[test]
fn random_designs_respect_the_lattice() {
    let seeds: Vec<u64> = (0..RANDOM_DESIGNS).collect();
    let points = noc_flow::executor::parallel_map_ordered(&seeds, 0, |&seed| {
        let routed = random_routed_design(seed);
        let count = routed.topology().switch_count();
        conservatism_point_for(&routed, "random", count)
    });
    let mut cyclic = 0;
    let mut deadlockable = 0;
    for (&seed, point) in seeds.iter().zip(&points) {
        assert_lattice(point, &format!("random-{seed}"));
        cyclic += point.cdg_cyclic as usize;
        deadlockable += (point.verdict == "certified-deadlockable") as usize;
    }
    // The population must actually exercise the interesting region of the
    // lattice — all-acyclic designs would make the harness vacuous.
    assert!(
        cyclic >= 20,
        "random population too tame: only {cyclic} cyclic designs"
    );
    assert!(
        deadlockable >= 5,
        "random population too tame: only {deadlockable} deadlockable designs"
    );
}

/// Figure 1 of the paper — four flows chasing each other around a
/// unidirectional ring — is the canonical genuine trap: the certified
/// verifier must find a witness AND the witness-derived replay must
/// deterministically realize the deadlock on the exact detector.
#[test]
fn figure_one_ring_witness_realizes_its_deadlock() {
    let generated = generators::unidirectional_ring(4, 1.0);
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("core{i}"))).collect();
    for i in 0..4 {
        // Each flow travels two hops clockwise: 0→2, 1→3, 2→0, 3→1.
        comm.add_flow(cores[i], cores[(i + 2) % 4], 0.05);
    }
    let mut core_map = CoreMap::new(4);
    for (i, &core) in cores.iter().enumerate() {
        core_map.assign(core, generated.switches[i]).unwrap();
    }
    let routed = RoutedStage::with_design(comm, generated.topology, core_map)
        .expect("figure 1 design is valid and routable");

    let point = conservatism_point_for(&routed, "figure-1", 4);
    assert!(point.cdg_cyclic, "figure 1 ring must have a cyclic CDG");
    assert_eq!(
        point.verdict, "certified-deadlockable",
        "figure 1 ring must be certified deadlockable"
    );
    assert!(point.witness_worms >= 2, "ring trap needs at least 2 worms");
    assert!(point.witness_attempted);
    assert!(
        point.witness_realized,
        "the figure 1 witness replay must realize the deadlock on the exact detector"
    );
    assert!(point.runtime_deadlocked);
    assert_lattice(&point, "figure-1-ring");
}

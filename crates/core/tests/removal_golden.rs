//! Golden removal reports.
//!
//! Pins the complete [`RemovalReport`] of Algorithm 1 on two of fig_scale's
//! cyclic designs — torus2d 16×16 and torus3d 8×8×8, one uniform-random
//! flow per core from fig_scale's seed, shortest-path routed: every
//! [`BreakStep`](noc_deadlock::report::BreakStep) (cycle length, direction,
//! VCs added, flows re-routed) and every
//! [`CdgDeltaStats`](noc_deadlock::CdgDeltaStats) of the incremental CDG
//! update.  Optimisations of the removal loop, the cost tables or the cycle
//! search must keep every line byte-identical; a mismatch prints the whole
//! actual table, which is only restated for an intended semantic change.

use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::RemovalReport;
use noc_routing::shortest::route_all_shortest;
use noc_topology::generators::{self, Generated};
use std::fmt::Write as _;

/// fig_scale's workload seed.
const SCALE_SEED: u64 = 0xD47E_2010;

/// Runs Algorithm 1 on `generated` under fig_scale's workload.
fn removal_report(generated: Generated) -> RemovalReport {
    let workload = generators::uniform_traffic(&generated, 1, SCALE_SEED, 1.0);
    let mut routes = route_all_shortest(&generated.topology, &workload.comm, &workload.map)
        .expect("a torus is strongly connected");
    let mut topology = generated.topology;
    remove_deadlocks(&mut topology, &mut routes, &RemovalConfig::default())
        .expect("removal succeeds")
}

/// One header line, then one line per break: `cycle_len direction
/// vcs_added flows_rerouted | deps_removed deps_added channels_added
/// dirty_nodes`.
fn render(report: &RemovalReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "breaks {} vcs {} already_free {} builds {}",
        report.cycles_broken,
        report.added_vcs,
        report.already_deadlock_free,
        report.cdg.full_builds
    )
    .unwrap();
    assert_eq!(report.steps.len(), report.cdg.step_deltas.len());
    for (step, delta) in report.steps.iter().zip(&report.cdg.step_deltas) {
        writeln!(
            out,
            "{} {} {} {} | {} {} {} {}",
            step.cycle_len,
            step.direction,
            step.vcs_added,
            step.flows_rerouted,
            delta.deps_removed,
            delta.deps_added,
            delta.channels_added,
            delta.dirty_nodes
        )
        .unwrap();
    }
    out
}

fn assert_golden(label: &str, report: &RemovalReport, expected: &str) {
    let actual = render(report);
    assert!(
        actual == expected,
        "{label}: removal report changed; actual table:\n{actual}"
    );
}

#[test]
fn torus2d_16x16_report_is_pinned() {
    let report = removal_report(generators::torus2d(16, 16, 1.0));
    assert_golden("torus2d 16x16", &report, TORUS2D_16X16);
}

#[test]
fn torus3d_8x8x8_report_is_pinned() {
    let report = removal_report(generators::torus3d(8, 8, 8, 1.0));
    assert_golden("torus3d 8x8x8", &report, TORUS3D_8X8X8);
}

const TORUS2D_16X16: &str = "\
breaks 15 vcs 25 already_free false builds 1
16 forward 3 2 | 5 7 3 10
16 forward 3 7 | 7 10 3 15
16 forward 2 2 | 3 4 2 7
16 forward 1 1 | 3 3 1 6
16 forward 2 2 | 2 3 2 6
16 forward 2 1 | 2 3 2 6
16 forward 2 2 | 9 10 2 15
16 forward 1 1 | 6 6 1 8
16 forward 1 2 | 4 4 1 8
18 forward 1 3 | 10 10 1 16
18 forward 1 1 | 3 3 1 5
22 forward 1 2 | 11 11 1 14
26 forward 1 1 | 2 2 1 4
32 forward 2 1 | 2 3 2 6
32 forward 2 3 | 7 8 2 14
";

const TORUS3D_8X8X8: &str = "\
breaks 16 vcs 16 already_free false builds 1
8 forward 1 5 | 17 17 1 23
8 forward 1 2 | 5 6 1 10
8 forward 1 6 | 19 20 1 28
8 forward 1 1 | 4 5 1 9
8 forward 1 1 | 5 5 1 8
8 forward 1 2 | 2 2 1 4
8 forward 1 1 | 4 4 1 6
8 forward 1 1 | 2 2 1 4
8 forward 1 2 | 9 10 1 13
14 forward 1 1 | 4 4 1 6
16 forward 1 2 | 11 11 1 13
16 forward 1 1 | 4 4 1 6
16 forward 1 1 | 4 4 1 6
30 forward 1 1 | 6 6 1 8
30 forward 1 1 | 4 4 1 7
30 forward 1 1 | 7 7 1 10
";

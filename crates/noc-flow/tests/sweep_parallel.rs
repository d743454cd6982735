//! Contract tests for [`FlowSweep::run`] across worker counts: the points,
//! and the error of a failing sweep, must not depend on
//! [`worker_threads`](FlowSweep::worker_threads).

use noc_deadlock::report::RemovalReport;
use noc_flow::{
    CycleBreaking, DeadlockStrategy, FlowError, FlowSweep, ResolutionDetail, ResourceOrdering,
    SweepPoint, ToJson,
};
use noc_routing::RouteSet;
use noc_topology::benchmarks::Benchmark;
use noc_topology::{Topology, TopologyError};
use std::sync::{Condvar, Mutex};

fn two_benchmark_sweep() -> FlowSweep {
    FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .benchmark(Benchmark::D36x8)
        .switch_counts([6, 10, 14])
        .power_estimates(false)
}

/// The worker counts every determinism test runs, one serial.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 16];

/// Runs `sweep` at every count of [`WORKER_COUNTS`], asserts the points are
/// identical, and returns them.
fn run_at_every_worker_count(
    sweep: &FlowSweep,
    strategies: &[&dyn DeadlockStrategy],
) -> Vec<SweepPoint> {
    let serial = sweep.clone().worker_threads(1).run(strategies).unwrap();
    for threads in &WORKER_COUNTS[1..] {
        let parallel = sweep
            .clone()
            .worker_threads(*threads)
            .run(strategies)
            .unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
    serial
}

#[test]
fn parallel_results_equal_serial_results() {
    let removal = CycleBreaking;
    let ordering = ResourceOrdering;
    let points = run_at_every_worker_count(&two_benchmark_sweep(), &[&removal, &ordering]);
    assert_eq!(points.len(), 6);
}

#[test]
fn duplicate_benchmarks_and_switch_counts_are_deduplicated() {
    let removal = CycleBreaking;
    let strategies: &[&dyn DeadlockStrategy] = &[&removal];
    let duplicated = FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .benchmark(Benchmark::D26Media)
        .benchmarks([Benchmark::D36x8, Benchmark::D26Media])
        .switch_counts([10, 6, 10])
        .switch_counts([6])
        .power_estimates(false);
    // Every worker count shares the same grid.
    let deduped = run_at_every_worker_count(&duplicated, strategies);
    let clean = FlowSweep::new()
        .benchmarks([Benchmark::D26Media, Benchmark::D36x8])
        .switch_counts([10, 6])
        .power_estimates(false)
        .run(strategies)
        .unwrap();
    assert_eq!(deduped, clean, "duplicates add no grid points");
    // First-seen order: D26_media before D36_8, 10 before 6.
    let order: Vec<(Benchmark, usize)> = deduped
        .iter()
        .map(|p| (p.benchmark, p.switch_count))
        .collect();
    assert_eq!(
        order,
        vec![
            (Benchmark::D26Media, 10),
            (Benchmark::D26Media, 6),
            (Benchmark::D36x8, 10),
            (Benchmark::D36x8, 6),
        ]
    );
}

/// A strategy that always fails, for exercising the sweep's error path.
struct AlwaysFails;

fn always_fails_error() -> FlowError {
    FlowError::Topology(TopologyError::InvalidParameter("always fails".into()))
}

impl DeadlockStrategy for AlwaysFails {
    fn name(&self) -> &str {
        "always-fails"
    }

    fn resolve(
        &self,
        _topology: &mut Topology,
        _routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError> {
        Err(always_fails_error())
    }
}

#[test]
fn a_failing_point_aborts_the_parallel_sweep_with_its_error() {
    let failing = AlwaysFails;
    let strategies: &[&dyn DeadlockStrategy] = &[&failing];
    let error = two_benchmark_sweep()
        .worker_threads(2)
        .run(strategies)
        .unwrap_err();
    assert_eq!(error, always_fails_error());
}

/// A strategy that fails only at the chosen switch counts, with an error
/// naming the count, so the point an error came from is visible.
///
/// With `hold_earliest`, the earliest count does not fail before every
/// other count has: under parallelism the earliest failing grid point is
/// then forced to be the last to fail.  (It would wait forever on one
/// worker, which reaches the earliest point first.)
struct FailsAt {
    /// The failing counts, earliest in grid order first.
    counts: &'static [usize],
    hold_earliest: bool,
    later_failures: Mutex<usize>,
    later_failed: Condvar,
}

impl FailsAt {
    fn new(counts: &'static [usize], hold_earliest: bool) -> Self {
        FailsAt {
            counts,
            hold_earliest,
            later_failures: Mutex::new(0),
            later_failed: Condvar::new(),
        }
    }
}

impl DeadlockStrategy for FailsAt {
    fn name(&self) -> &str {
        "fails-at"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        _routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError> {
        let switches = topology.switch_count();
        let Some(position) = self.counts.iter().position(|&c| c == switches) else {
            return Ok(ResolutionDetail::Removal(RemovalReport::default()));
        };
        let mut later_failures = self.later_failures.lock().unwrap();
        if position > 0 {
            *later_failures += 1;
            self.later_failed.notify_all();
        } else if self.hold_earliest {
            let later = self.counts.len() - 1;
            while *later_failures < later {
                later_failures = self.later_failed.wait(later_failures).unwrap();
            }
        }
        let message = format!("fails at {switches}");
        Err(FlowError::Topology(TopologyError::InvalidParameter(
            message,
        )))
    }
}

#[test]
fn the_earliest_failing_grid_point_wins_under_parallelism() {
    // Grid order is 6, 8, ..., 20; the points at 8, 14 and 20 fail, and on
    // more than one worker the one at 8 fails last.  The error must still
    // be the earliest point's.
    let sweep = FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .switch_counts((6..=20).step_by(2))
        .power_estimates(false);
    let removal = CycleBreaking;
    for threads in [1, 2, 4] {
        for after_removal in [false, true] {
            let failing = FailsAt::new(&[8, 14, 20], threads > 1);
            let strategies: &[&dyn DeadlockStrategy] = if after_removal {
                &[&removal, &failing]
            } else {
                &[&failing]
            };
            let error = sweep
                .clone()
                .worker_threads(threads)
                .run(strategies)
                .unwrap_err();
            assert_eq!(
                error,
                FlowError::Topology(TopologyError::InvalidParameter("fails at 8".into())),
                "threads = {threads}, after removal = {after_removal}"
            );
        }
    }
}

#[test]
fn sweep_points_serialize_to_parseable_json() {
    let removal = CycleBreaking;
    let strategies: &[&dyn DeadlockStrategy] = &[&removal];
    let points = FlowSweep::new()
        .benchmark(Benchmark::D26Media)
        .switch_counts([10])
        .run(strategies)
        .unwrap();
    let json = points.to_json();
    let value = noc_flow::JsonValue::parse(&json).expect("artifact is valid JSON");
    let array = value.as_array().unwrap();
    assert_eq!(array.len(), 1);
    assert_eq!(
        array[0].get("benchmark").unwrap().as_str(),
        Some("D26_media")
    );
    assert_eq!(
        array[0].get("switch_count").unwrap().as_number(),
        Some(10.0)
    );
    let outcomes = array[0].get("outcomes").unwrap().as_array().unwrap();
    assert_eq!(
        outcomes[0].get("strategy").unwrap().as_str(),
        Some("cycle-breaking")
    );
    assert!(outcomes[0].get("power_mw").unwrap().as_number().is_some());

    // The exact schema-9 layout: no key missing, none extra, in order.
    assert_eq!(
        keys(&array[0]),
        "benchmark,switch_count,active_flows,mean_hops,original_power_mw,original_area_um2,outcomes"
    );
    assert_eq!(
        keys(&outcomes[0]),
        "strategy,kind,added_vcs,cycles_broken,mean_hops,power_mw,area_um2,certify"
    );
}

/// The member names of a JSON object, comma-joined in document order.
fn keys(value: &noc_flow::JsonValue) -> String {
    let noc_flow::JsonValue::Object(members) = value else {
        panic!("expected an object, got {value:?}");
    };
    let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    names.join(",")
}

//! Batch driver for (benchmark × switch-count × strategy) grids.
//!
//! Replaces the old `noc_synth::sweep_switch_counts` helper and the
//! hand-rolled loops behind Figures 8, 9 and 10: one sweep description, any
//! number of deadlock strategies, one pass that synthesizes each design once
//! and charges every strategy against the same routed input.
//!
//! Grid points are independent, so [`FlowSweep::run`] maps them across
//! [`worker_threads`](FlowSweep::worker_threads) scoped workers
//! ([`executor::parallel_map_ordered`]): each point is
//! [`prepare`](FlowSweep::prepare)d once and [`charge`](FlowSweep::charge)d
//! with every strategy in order, and the points come back in deterministic
//! grid order, identical for every worker count.  External schedulers (the
//! `noc-jobs` runner) drive the same three steps one task at a time.

use crate::error::FlowError;
use crate::executor;
use crate::stage::RoutedStage;
use crate::strategy::DeadlockStrategy;
use noc_deadlock::certify::CertifyReport;
use noc_deadlock::report::StrategyKind;
use noc_sim::VcSimOutcome;
use noc_synth::SynthesisConfig;
use noc_topology::benchmarks::Benchmark;
use noc_topology::CommGraph;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

/// Per-strategy VC-fidelity simulation summary of one run, as the
/// simulation figures report it.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySimStats {
    /// Packets handed to source queues.
    pub injected: usize,
    /// Packets fully delivered.
    pub delivered: usize,
    /// `true` if the run ended in an unrecovered deadlock (must stay
    /// `false` for correctly repaired designs).
    pub deadlocked: bool,
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// Median packet latency (nearest-rank p50).
    pub p50_latency: u64,
    /// 95th-percentile packet latency.
    pub p95_latency: u64,
    /// 99th-percentile packet latency.
    pub p99_latency: u64,
    /// Worst packet latency.
    pub max_latency: u64,
    /// Delivered flits per simulated cycle.
    pub throughput: f64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl StrategySimStats {
    /// Summarises a VC-engine outcome.
    pub fn from_outcome(outcome: &VcSimOutcome) -> Self {
        let stats = &outcome.stats;
        let percentiles = stats.latency_percentiles(&[50.0, 95.0, 99.0]);
        StrategySimStats {
            injected: stats.injected_packets,
            delivered: stats.delivered_packets,
            deadlocked: outcome.deadlocked,
            mean_latency: stats.mean_latency(),
            p50_latency: percentiles[0],
            p95_latency: percentiles[1],
            p99_latency: percentiles[2],
            max_latency: stats.max_latency_cycles,
            throughput: stats.throughput_flits_per_cycle(),
            cycles: stats.cycles,
        }
    }
}

/// Per-strategy fault-storm summary: how a strategy's repaired design
/// survived a seeded link-failure storm under cycle-safe live
/// reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunStats {
    /// Failure events the plan scheduled (repairs not counted).
    pub faults_injected: usize,
    /// Reconfiguration epochs the run processed.
    pub reconfig_events: usize,
    /// Epochs committed (every one with an acyclic combined graph).
    pub epochs_committed: usize,
    /// Epochs whose combined graph was still cyclic at commit — the
    /// protocol's core invariant is that this stays zero.
    pub cyclic_commits: usize,
    /// Epochs that needed the scoped-drain / forced-reroute fallback.
    pub drain_fallbacks: usize,
    /// Packets pulled back to their sources by fault epochs.
    pub packets_drained: usize,
    /// Flow reroutes onto the surviving up*/down* function.
    pub flows_rerouted: usize,
    /// Flows left unreachable at the end of the run.
    pub unreachable_flows: usize,
    /// Packets charged to unreachable flows instead of delivery.
    pub unreachable_packets: usize,
    /// Packets handed to source queues.
    pub injected: usize,
    /// Packets fully delivered through the storm.
    pub delivered: usize,
    /// `delivered / injected` (1.0 for an idle workload).
    pub delivered_fraction: f64,
    /// Mean delivered-packet latency in cycles.
    pub mean_latency: f64,
    /// `true` when the plan's final failure state leaves every flow's
    /// endpoints connected (predicted by replaying the plan, not observed).
    pub connected: bool,
    /// `true` if the run ended in an unrecovered deadlock.
    pub deadlocked: bool,
}

impl FaultRunStats {
    /// Summarises a fault-armed VC-engine outcome.
    pub fn from_outcome(outcome: &VcSimOutcome, faults_injected: usize, connected: bool) -> Self {
        let stats = &outcome.stats;
        let reconfig = &outcome.reconfig;
        let injected = stats.injected_packets;
        let delivered = stats.delivered_packets;
        FaultRunStats {
            faults_injected,
            reconfig_events: reconfig.events.len(),
            epochs_committed: reconfig.epochs_committed,
            cyclic_commits: reconfig.cyclic_commits,
            drain_fallbacks: reconfig.drain_fallbacks,
            packets_drained: reconfig.packets_drained,
            flows_rerouted: reconfig.flows_rerouted,
            unreachable_flows: outcome.unreachable_flows.len(),
            unreachable_packets: outcome.unreachable_packets,
            injected,
            delivered,
            delivered_fraction: if injected == 0 {
                1.0
            } else {
                delivered as f64 / injected as f64
            },
            mean_latency: stats.mean_latency(),
            connected,
            deadlocked: outcome.deadlocked,
        }
    }
}

/// Summary of the certified static verifier's verdict on a repaired design:
/// the acyclic fast-path report ([`CertifyReport::acyclic`]), since its
/// [`DeadlockFreeStage`](crate::DeadlockFreeStage) was verified acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyOutcome {
    /// The stable verdict name: `certified-free`, `certified-deadlockable`
    /// or `unknown` ([`noc_deadlock::certify::CertifyVerdict::name`]).
    pub verdict: String,
    /// Whether the repaired design's CDG was cyclic at all.
    pub cdg_cyclic: bool,
    /// Worms of the trap witness (0 unless certified deadlockable).
    pub witness_worms: usize,
    /// Worm placements the trap search tried.
    pub search_steps: usize,
}

impl CertifyOutcome {
    /// Summarises a certification report.
    fn from_report(report: &CertifyReport) -> Self {
        CertifyOutcome {
            verdict: report.verdict.name().to_string(),
            cdg_cyclic: report.cyclic_cdg,
            witness_worms: report.witness().map(|w| w.worms.len()).unwrap_or(0),
            search_steps: report.search_steps,
        }
    }
}

/// What one strategy did to one design of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// Strategy name ([`DeadlockStrategy::name`]).
    pub strategy: String,
    /// Which point of the deadlock design space the strategy occupies.
    pub kind: StrategyKind,
    /// VCs the strategy added.
    pub added_vcs: usize,
    /// CDG cycles it broke.
    pub cycles_broken: usize,
    /// Mean hop count of the repaired design's active flows.  Differs from
    /// the point's input [`mean_hops`](SweepPoint::mean_hops) only for
    /// strategies that change physical routes (recovery reconfiguration);
    /// the difference is that strategy's hop-inflation cost.
    pub mean_hops: f64,
    /// Total power of the repaired design in mW
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub power_mw: Option<f64>,
    /// Total switch area of the repaired design in µm²
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub area_um2: Option<f64>,
    /// Certified static verdict on the repaired design; always `Some` for
    /// outcomes built from a stage ([`FlowSweep::charge`]).
    pub certify: Option<CertifyOutcome>,
}

/// One grid point of a [`FlowSweep`]: a synthesized design plus the outcome
/// of every strategy on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The benchmark the design was synthesized for.
    pub benchmark: Benchmark,
    /// Switch count of the synthesized topology.
    pub switch_count: usize,
    /// Flows that actually enter the switch network.
    pub active_flows: usize,
    /// Mean hop count over those active flows.
    pub mean_hops: f64,
    /// Power of the unmodified (possibly deadlock-prone) design in mW
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub original_power_mw: Option<f64>,
    /// Area of the unmodified design in µm²
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub original_area_um2: Option<f64>,
    /// Per-strategy outcomes, in the order the strategies were passed.
    pub outcomes: Vec<StrategyOutcome>,
}

impl SweepPoint {
    /// The outcome of the strategy with the given name, if it was part of
    /// the sweep.
    pub fn outcome(&self, strategy: &str) -> Option<&StrategyOutcome> {
        self.outcomes.iter().find(|o| o.strategy == strategy)
    }
}

/// A declarative sweep over (benchmark × switch-count) with any set of
/// deadlock strategies — the driver behind the Figure 8/9 VC-overhead
/// series and the Figure 10 power bars.
///
/// Switch counts that are infeasible for a benchmark (zero, or more
/// switches than cores) are skipped, exactly like the paper's sweeps only
/// plot feasible topologies.
///
/// Every [`StrategyOutcome`] carries a [`CertifyOutcome`], at no cost: a
/// repaired design is verified acyclic, the certified verifier's fast path.
///
/// # Example
///
/// ```
/// use noc_flow::{CycleBreaking, FlowSweep, ResourceOrdering};
/// use noc_topology::benchmarks::Benchmark;
///
/// let points = FlowSweep::new()
///     .benchmark(Benchmark::D26Media)
///     .switch_counts([6, 10, 14])
///     .run(&[&CycleBreaking, &ResourceOrdering])?;
/// assert_eq!(points.len(), 3);
/// for p in &points {
///     let removal = p.outcome("cycle-breaking").unwrap();
///     let ordering = p.outcome("resource-ordering").unwrap();
///     assert!(removal.added_vcs <= ordering.added_vcs);
/// }
/// # Ok::<(), noc_flow::FlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowSweep {
    benchmarks: Vec<Benchmark>,
    switch_counts: Vec<usize>,
    estimate_power: bool,
    threads: usize,
}

impl Default for FlowSweep {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowSweep {
    /// An empty sweep: default synthesis configuration, power estimates on.
    pub fn new() -> Self {
        FlowSweep {
            benchmarks: Vec::new(),
            switch_counts: Vec::new(),
            estimate_power: true,
            threads: 0,
        }
    }

    /// Adds one benchmark to the grid.
    ///
    /// Adding the same benchmark twice is harmless: the grid is deduplicated
    /// (preserving first-seen order), so each (benchmark, switch-count) pair
    /// produces exactly one [`SweepPoint`].
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.benchmarks.push(benchmark);
        self
    }

    /// Adds several benchmarks to the grid.
    ///
    /// Duplicates (within this call or across calls) are deduplicated,
    /// preserving first-seen order.
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.benchmarks.extend(benchmarks);
        self
    }

    /// Sets the switch counts to sweep.
    ///
    /// Duplicates (within this call or across calls) are deduplicated,
    /// preserving first-seen order.
    pub fn switch_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.switch_counts.extend(counts);
        self
    }

    /// Sets the number of worker threads [`run`](Self::run) maps the grid
    /// points across.
    ///
    /// `0` (the default) auto-sizes to the machine's available parallelism.
    /// The points, and any error, are the same for every setting.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables per-point power/area estimation (on by default).
    /// VC-only sweeps like Figures 8 and 9 turn it off to skip three
    /// whole-network power-model passes per grid point.
    pub fn power_estimates(mut self, enabled: bool) -> Self {
        self.estimate_power = enabled;
        self
    }

    /// Runs the grid: synthesizes each feasible (benchmark, switch-count)
    /// design once — keeping the routes the synthesizer computed, the
    /// paper's input routing — then charges every strategy against that
    /// same routed design.
    ///
    /// The grid points are mapped across
    /// [`worker_threads`](Self::worker_threads) scoped workers; each point
    /// is prepared and charged on one worker, and the points come back in
    /// grid order, identical for every worker count.
    ///
    /// # Errors
    ///
    /// [`FlowError::EmptyStrategySet`] if `strategies` is empty (a sweep
    /// with no strategies would silently yield points with no outcomes);
    /// otherwise the error of the earliest failing grid point, and within
    /// it of its preparation or its first failing strategy.
    ///
    /// # Example
    ///
    /// ```
    /// use noc_flow::{CycleBreaking, FlowSweep};
    /// use noc_topology::benchmarks::Benchmark;
    ///
    /// let sweep = FlowSweep::new()
    ///     .benchmark(Benchmark::D26Media)
    ///     .switch_counts([6, 10, 14])
    ///     .power_estimates(false);
    /// let serial = sweep.clone().worker_threads(1).run(&[&CycleBreaking])?;
    /// let parallel = sweep.worker_threads(2).run(&[&CycleBreaking])?;
    /// assert_eq!(serial, parallel);
    /// # Ok::<(), noc_flow::FlowError>(())
    /// ```
    pub fn run(&self, strategies: &[&dyn DeadlockStrategy]) -> Result<Vec<SweepPoint>, FlowError> {
        if strategies.is_empty() {
            return Err(FlowError::EmptyStrategySet);
        }
        let grid = self.grid_points();
        // Umbrella span on the calling thread: the per-point spans live on
        // the workers, so without it the pool's start-up and join would be
        // unattributed wall time in a trace.
        let mut span = noc_telemetry::span("sweep", "run");
        span.arg("points", grid.len());
        // Every point of a benchmark routes the same communication graph.
        let mut comms = HashMap::new();
        for &(benchmark, _) in &grid {
            comms
                .entry(benchmark)
                .or_insert_with(|| Arc::new(benchmark.comm_graph()));
        }
        executor::parallel_map_ordered(&grid, self.threads, |&(benchmark, switch_count)| {
            let point = {
                let mut span = noc_telemetry::span("sweep", "prepare_point");
                span.arg("benchmark", benchmark.name())
                    .arg("switches", switch_count);
                self.prepare_shared(benchmark, Arc::clone(&comms[&benchmark]), switch_count)?
            };
            let outcomes = strategies
                .iter()
                .map(|&strategy| {
                    let mut span = noc_telemetry::span("sweep", "strategy_outcome");
                    span.arg("benchmark", benchmark.name())
                        .arg("switches", switch_count)
                        .arg("strategy", strategy.name());
                    self.charge(&point, strategy)
                })
                .collect::<Result<_, _>>()?;
            Ok(point.assemble(outcomes))
        })
        .into_iter()
        .collect()
    }

    /// The feasible, deduplicated (benchmark, switch-count) grid in
    /// deterministic sweep order: benchmarks in first-seen order, switch
    /// counts in first-seen order within each benchmark.
    ///
    /// Infeasible combinations (zero switches, or more switches than cores)
    /// are skipped; duplicate benchmarks or switch counts contribute a
    /// single grid point each.
    pub fn grid_points(&self) -> Vec<(Benchmark, usize)> {
        let benchmarks = dedup_preserving_order(&self.benchmarks);
        let counts = dedup_preserving_order(&self.switch_counts);
        let mut grid = Vec::with_capacity(benchmarks.len() * counts.len());
        for &benchmark in &benchmarks {
            for &switch_count in &counts {
                if switch_count == 0 || switch_count > benchmark.core_count() {
                    continue;
                }
                grid.push((benchmark, switch_count));
            }
        }
        grid
    }

    /// Prepares one grid point — synthesize, route, estimate the original
    /// design — returning the routed design every strategy of the point is
    /// charged against.  Together with [`charge`](Self::charge) and
    /// [`PreparedPoint::assemble`] this is all [`run`](Self::run) does per
    /// point, so external schedulers (the `noc-jobs` runner) can drive a
    /// sweep one (point × strategy) task at a time and produce identical
    /// points.
    pub fn prepare(
        &self,
        benchmark: Benchmark,
        switch_count: usize,
    ) -> Result<PreparedPoint, FlowError> {
        self.prepare_shared(benchmark, Arc::new(benchmark.comm_graph()), switch_count)
    }

    /// [`prepare`](Self::prepare) on `benchmark`'s communication graph,
    /// built by the caller and shared with its other points.
    fn prepare_shared(
        &self,
        benchmark: Benchmark,
        comm: Arc<CommGraph>,
        switch_count: usize,
    ) -> Result<PreparedPoint, FlowError> {
        let routed = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(switch_count))?;
        let original = self.estimate_power.then(|| routed.power());
        Ok(PreparedPoint {
            benchmark,
            switch_count,
            original_power_mw: original.as_ref().map(|e| e.total_power_mw),
            original_area_um2: original.as_ref().map(|e| e.total_area_um2),
            routed,
        })
    }

    /// Charges one strategy against a prepared point (on a clone of the
    /// routed design, so outcomes are independent of execution order).
    /// The certify block is the acyclic fast-path report, without a CDG.
    pub fn charge(
        &self,
        point: &PreparedPoint,
        strategy: &dyn DeadlockStrategy,
    ) -> Result<StrategyOutcome, FlowError> {
        let fixed = point.routed.resolve_deadlocks(strategy)?;
        let estimate = self.estimate_power.then(|| fixed.power());
        let resolution = fixed.resolution();
        Ok(StrategyOutcome {
            strategy: resolution.strategy.clone(),
            kind: resolution.kind(),
            added_vcs: resolution.added_vcs(),
            cycles_broken: resolution.cycles_broken(),
            mean_hops: fixed.routes().mean_hops(),
            power_mw: estimate.as_ref().map(|e| e.total_power_mw),
            area_um2: estimate.as_ref().map(|e| e.total_area_um2),
            certify: Some(CertifyOutcome::from_report(&CertifyReport::acyclic())),
        })
    }
}

/// A grid point prepared through [`FlowSweep::prepare`]: the routed design
/// that [`FlowSweep::charge`] charges strategies against, plus the
/// point-level metadata that [`PreparedPoint::assemble`] puts into the
/// final [`SweepPoint`].
pub struct PreparedPoint {
    benchmark: Benchmark,
    switch_count: usize,
    original_power_mw: Option<f64>,
    original_area_um2: Option<f64>,
    routed: RoutedStage,
}

impl PreparedPoint {
    /// Assembles the final point from the per-strategy outcomes (in
    /// strategy declaration order) — identical to what [`FlowSweep::run`]
    /// produces for this point.
    pub fn assemble(&self, outcomes: Vec<StrategyOutcome>) -> SweepPoint {
        SweepPoint {
            benchmark: self.benchmark,
            switch_count: self.switch_count,
            active_flows: self.routed.active_flow_count(),
            mean_hops: self.routed.routes().mean_hops(),
            original_power_mw: self.original_power_mw,
            original_area_um2: self.original_area_um2,
            outcomes,
        }
    }
}

/// First-seen-order deduplication for the grid axes, linear in the axis
/// length (an axis comes from a job spec, which may be hostile).
fn dedup_preserving_order<T: Copy + Eq + Hash>(items: &[T]) -> Vec<T> {
    let mut seen = HashSet::with_capacity(items.len());
    items
        .iter()
        .copied()
        .filter(|&item| seen.insert(item))
        .collect()
}

//! Summary of what a deadlock-removal run did, and the taxonomy of
//! deadlock-handling strategies ([`StrategyKind`]) the comparison harness
//! sweeps over.

use crate::cost::Direction;
use std::fmt;

/// The deadlock-handling schemes this suite implements, one per
/// `DeadlockStrategy` implementation of the pipeline crate.
///
/// The four kinds span the design space the strategy-comparison sweeps
/// explore: *removal* (the paper's cycle breaking), *prevention by
/// construction* (resource ordering), *avoidance* (escape channels) and
/// *recovery* (drain-and-reconfigure).  A strategy's kind is the variant
/// of the detail its `resolve` returns: a custom strategy reports the
/// detail whose cost model matches its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// The paper's Algorithm 1: break CDG cycles with minimal extra VCs.
    CycleBreaking,
    /// Dally & Towles ascending channel classes along every route.
    ResourceOrdering,
    /// Escape-VC layers restricted to the up*/down* subgraph
    /// ([`crate::escape`]): the CDG is acyclic by construction, zero cycles
    /// are ever broken.
    EscapeChannel,
    /// DBR-style recovery ([`crate::recovery`]): detect cyclic SCCs, drain
    /// their flows onto up*/down* routes; costs reconfiguration events and
    /// hop inflation instead of VCs.
    RecoveryReconfig,
}

impl StrategyKind {
    /// All four kinds, in the canonical comparison order of the
    /// `fig_strategy_matrix` sweep.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::CycleBreaking,
        StrategyKind::ResourceOrdering,
        StrategyKind::EscapeChannel,
        StrategyKind::RecoveryReconfig,
    ];

    /// Stable kebab-case name used in sweep output and JSON artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            StrategyKind::CycleBreaking => "cycle-breaking",
            StrategyKind::ResourceOrdering => "resource-ordering",
            StrategyKind::EscapeChannel => "escape-channel",
            StrategyKind::RecoveryReconfig => "recovery-reconfig",
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cycle-breaking step of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakStep {
    /// Length (in channels) of the cycle that was broken.
    pub cycle_len: usize,
    /// Direction chosen by the cost comparison.
    pub direction: Direction,
    /// Number of VCs added by this step (the cost of the chosen plan).
    pub vcs_added: usize,
    /// Number of flows that were re-routed onto the new VCs.
    pub flows_rerouted: usize,
}

/// The CDG delta one incremental update (one cycle break) applied — the
/// per-iteration stats of the incremental maintenance engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CdgDeltaStats {
    /// Dependency edges removed because their last flow was re-routed away.
    pub deps_removed: usize,
    /// Dependency edges created by the re-routed flows (new channel pairs).
    pub deps_added: usize,
    /// Channel vertices created (the VCs this break added).
    pub channels_added: usize,
    /// Vertices incident to changed edges — the dirty region of this
    /// break.
    pub dirty_nodes: usize,
}

/// How the CDG was maintained across the removal loop.
///
/// In incremental mode the CDG is built once and patched per iteration
/// ([`step_deltas`](Self::step_deltas) has one entry per break); in
/// full-rebuild mode it is rebuilt from scratch every iteration and
/// `step_deltas` stays empty.  These stats are diagnostics: two runs that
/// agree on every outcome field may legitimately differ here, which is why
/// [`RemovalReport::same_outcome`] ignores them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CdgMaintenanceStats {
    /// Number of from-scratch `Cdg::build` calls (1 in incremental mode,
    /// iterations + 1 in full-rebuild mode).
    pub full_builds: usize,
    /// Per-break deltas, in break order; empty in full-rebuild mode.
    pub step_deltas: Vec<CdgDeltaStats>,
}

impl CdgMaintenanceStats {
    /// Total dependency edges removed across all incremental updates.
    pub fn deps_removed(&self) -> usize {
        self.step_deltas.iter().map(|d| d.deps_removed).sum()
    }

    /// Total dependency edges added across all incremental updates.
    pub fn deps_added(&self) -> usize {
        self.step_deltas.iter().map(|d| d.deps_added).sum()
    }

    /// Total channel vertices created across all incremental updates.
    pub fn channels_added(&self) -> usize {
        self.step_deltas.iter().map(|d| d.channels_added).sum()
    }

    /// `true` when the run maintained the CDG incrementally.
    pub fn incremental(&self) -> bool {
        !self.step_deltas.is_empty()
    }
}

/// Aggregate report returned by [`remove_deadlocks`](crate::removal::remove_deadlocks).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RemovalReport {
    /// Total number of virtual channels added to the topology.
    pub added_vcs: usize,
    /// Number of cycles broken (iterations of the main loop).
    pub cycles_broken: usize,
    /// Per-step details, in the order the cycles were broken.
    pub steps: Vec<BreakStep>,
    /// `true` when the input CDG was already acyclic and nothing was done —
    /// the common case the paper highlights for D26_media.
    pub already_deadlock_free: bool,
    /// CDG maintenance diagnostics (builds, per-iteration deltas).
    pub cdg: CdgMaintenanceStats,
}

impl RemovalReport {
    /// `true` when `other` describes the same algorithmic outcome: same VCs,
    /// same breaks (length, direction, cost, re-routes, in the same order)
    /// and the same deadlock-freedom verdict.  CDG maintenance diagnostics
    /// are ignored, so an incremental run and a full-rebuild reference run
    /// can be compared directly — the equivalence the incremental engine is
    /// tested against.
    pub fn same_outcome(&self, other: &RemovalReport) -> bool {
        self.added_vcs == other.added_vcs
            && self.cycles_broken == other.cycles_broken
            && self.already_deadlock_free == other.already_deadlock_free
            && self.steps == other.steps
    }
}

/// One live-reconfiguration event: the response to a batch of runtime
/// faults arriving at the same cycle (the dynamic counterpart of a
/// [`BreakStep`]).
///
/// The epoch protocol behind these numbers lives in the simulator: affected
/// flows are re-routed onto surviving up*/down* paths and the *transient*
/// combined dependency graph — committed routes of every flow plus the
/// residual old-route segments of in-flight worms — is checked acyclic
/// before the epoch commits.  A cyclic check triggers a scoped DBR-style
/// drain ([`fallback_drain`](Self::fallback_drain)) instead of a commit on
/// a cyclic graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconfigEvent {
    /// Cycle the fault batch arrived at.
    pub cycle: u64,
    /// Fault/repair events applied in this batch.
    pub faults_applied: usize,
    /// Flows moved onto a new (surviving up*/down*) route.
    pub flows_rerouted: usize,
    /// Flows stranded by a partition at this event (no surviving route).
    pub flows_unreachable: usize,
    /// Worms pulled back to their source by this event (broken-path
    /// pull-backs plus any fallback drain).
    pub packets_drained: usize,
    /// `true` when the transient-graph check failed and a scoped drain ran
    /// before the epoch could commit acyclically.
    pub fallback_drain: bool,
    /// `true` if the epoch committed while the transient combined
    /// dependency graph was still cyclic.  The protocol's core guarantee is
    /// that this **never** happens; the field is re-checked after every
    /// commit so the property suite asserts on evidence, not intent.
    pub committed_cyclic: bool,
}

/// Aggregate statistics of live reconfiguration under runtime faults, in
/// the style of [`RemovalReport`]: per-event details plus the counters the
/// artifacts and CI invariants consume.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReconfigStats {
    /// Per-event details, in fault order.
    pub events: Vec<ReconfigEvent>,
    /// Epochs committed (one per fault batch that found traffic to move or
    /// faults to absorb).
    pub epochs_committed: usize,
    /// Epochs that needed the scoped-drain fallback before committing.
    pub drain_fallbacks: usize,
    /// Epochs that committed on a cyclic transient graph (must stay 0).
    pub cyclic_commits: usize,
    /// Total worms pulled back across all events.
    pub packets_drained: usize,
    /// Total flow re-routes across all events (a flow re-routed by two
    /// events counts twice).
    pub flows_rerouted: usize,
    /// Flows currently stranded by a partition (repairs can shrink this).
    pub unreachable_flows: usize,
}

impl ReconfigStats {
    /// Folds one event into the aggregate counters (the event is also
    /// recorded in [`events`](Self::events)).
    pub fn record(&mut self, event: ReconfigEvent) {
        self.epochs_committed += 1;
        self.drain_fallbacks += event.fallback_drain as usize;
        self.cyclic_commits += event.committed_cyclic as usize;
        self.packets_drained += event.packets_drained;
        self.flows_rerouted += event.flows_rerouted;
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kind_names_are_stable() {
        assert_eq!(StrategyKind::ALL.len(), 4);
        let names: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "cycle-breaking",
                "resource-ordering",
                "escape-channel",
                "recovery-reconfig"
            ]
        );
        assert_eq!(StrategyKind::EscapeChannel.to_string(), "escape-channel");
    }

    #[test]
    fn default_report_is_empty() {
        let report = RemovalReport::default();
        assert_eq!(report.added_vcs, 0);
        assert_eq!(report.cycles_broken, 0);
        assert!(!report.already_deadlock_free);
        assert!(report.steps.is_empty());
        assert_eq!(report.cdg.full_builds, 0);
        assert!(!report.cdg.incremental());
    }

    #[test]
    fn same_outcome_ignores_cdg_maintenance_stats() {
        let mut a = RemovalReport {
            added_vcs: 1,
            cycles_broken: 1,
            steps: vec![BreakStep {
                cycle_len: 4,
                direction: Direction::Forward,
                vcs_added: 1,
                flows_rerouted: 2,
            }],
            already_deadlock_free: false,
            cdg: CdgMaintenanceStats {
                full_builds: 1,
                step_deltas: vec![CdgDeltaStats {
                    deps_removed: 2,
                    deps_added: 3,
                    channels_added: 1,
                    dirty_nodes: 5,
                }],
            },
        };
        let mut b = a.clone();
        b.cdg = CdgMaintenanceStats {
            full_builds: 2,
            step_deltas: Vec::new(),
        };
        assert!(a.same_outcome(&b));
        assert_ne!(a, b, "derived equality still sees the diagnostics");
        assert_eq!(a.cdg.deps_removed(), 2);
        assert_eq!(a.cdg.deps_added(), 3);
        assert_eq!(a.cdg.channels_added(), 1);
        assert!(a.cdg.incremental());
        a.added_vcs = 9;
        assert!(!a.same_outcome(&b));
    }

    #[test]
    fn reconfig_stats_fold_events() {
        let mut stats = ReconfigStats::default();
        stats.record(ReconfigEvent {
            cycle: 100,
            faults_applied: 1,
            flows_rerouted: 3,
            flows_unreachable: 0,
            packets_drained: 2,
            fallback_drain: false,
            committed_cyclic: false,
        });
        stats.record(ReconfigEvent {
            cycle: 400,
            faults_applied: 2,
            flows_rerouted: 1,
            flows_unreachable: 1,
            packets_drained: 4,
            fallback_drain: true,
            committed_cyclic: false,
        });
        stats.unreachable_flows = 1;
        assert_eq!(stats.events.len(), 2);
        assert_eq!(stats.epochs_committed, 2);
        assert_eq!(stats.drain_fallbacks, 1);
        assert_eq!(stats.cyclic_commits, 0);
        assert_eq!(stats.packets_drained, 6);
        assert_eq!(stats.flows_rerouted, 4);
    }
}

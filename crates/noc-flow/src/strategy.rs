//! The pluggable deadlock-handling seam of the pipeline.
//!
//! The paper's evaluation is a comparison between two ways of making the
//! same routed design deadlock-free: its cycle-breaking algorithm
//! (Algorithm 1) and the resource-ordering baseline.  [`DeadlockStrategy`]
//! captures that seam, and the suite now ships the full strategy matrix
//! across the deadlock design space — one implementation per
//! [`StrategyKind`]:
//!
//! | Strategy | Kind | Mechanism | Cost model |
//! |---|---|---|---|
//! | [`CycleBreaking`] | removal | break CDG cycles (Algorithm 1) | few extra VCs |
//! | [`ResourceOrdering`] | prevention | ascending channel classes | many extra VCs |
//! | [`EscapeChannel`] | avoidance | escape-VC layers over the up*/down* subgraph | moderate extra VCs, zero cycles ever broken |
//! | [`RecoveryReconfig`] | recovery | drain cyclic SCCs onto up*/down* routes (DBR-style) | zero VCs, hop inflation + reconfiguration events |
//!
//! All four are interchangeable one-line swaps in a flow and run side by
//! side in [`FlowSweep`](crate::FlowSweep) grids (the `fig_strategy_matrix`
//! experiment).

use crate::FlowError;
use noc_deadlock::escape::{apply_escape_channels, EscapeChannelResult};
use noc_deadlock::recovery::{apply_recovery_reconfig, RecoveryResult};
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::report::{RemovalReport, StrategyKind};
use noc_deadlock::resource_ordering::{apply_resource_ordering, ResourceOrderingResult};
use noc_routing::RouteSet;
use noc_topology::{SwitchId, Topology};

/// The report a [`DeadlockStrategy`] returns: one variant per
/// [`StrategyKind`], so the variant is the strategy's kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolutionDetail {
    /// The paper's removal algorithm: every break and CDG delta.
    Removal(RemovalReport),
    /// Resource ordering: VCs added and channel classes used.
    Ordering(ResourceOrderingResult),
    /// Escape-channel avoidance: escape VCs, layers and escaped flows.
    Escape(EscapeChannelResult),
    /// Recovery reconfiguration: drain events and hop inflation.
    Recovery(RecoveryResult),
}

/// What a [`DeadlockStrategy`] did to a design: the strategy's name and its
/// detail, from which the kind and counts every strategy reports are read.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockResolution {
    /// Name of the strategy that produced this resolution.
    pub strategy: String,
    /// The strategy's own report.
    pub detail: ResolutionDetail,
}

impl DeadlockResolution {
    /// Runs `strategy` on the design in place and records what it did —
    /// the one place a detail becomes a resolution.
    ///
    /// # Errors
    ///
    /// Whatever [`DeadlockStrategy::resolve`] returns.
    pub fn apply(
        strategy: &dyn DeadlockStrategy,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<Self, FlowError> {
        let detail = strategy.resolve(topology, routes)?;
        Ok(DeadlockResolution {
            strategy: strategy.name().to_string(),
            detail,
        })
    }

    /// Which point of the deadlock design space the strategy occupies.
    pub fn kind(&self) -> StrategyKind {
        match self.detail {
            ResolutionDetail::Removal(_) => StrategyKind::CycleBreaking,
            ResolutionDetail::Ordering(_) => StrategyKind::ResourceOrdering,
            ResolutionDetail::Escape(_) => StrategyKind::EscapeChannel,
            ResolutionDetail::Recovery(_) => StrategyKind::RecoveryReconfig,
        }
    }

    /// Total VCs added on top of the single VC every link starts with
    /// (0 for recovery, which re-routes instead).
    pub fn added_vcs(&self) -> usize {
        match &self.detail {
            ResolutionDetail::Removal(r) => r.added_vcs,
            ResolutionDetail::Ordering(r) => r.added_vcs,
            ResolutionDetail::Escape(r) => r.added_vcs,
            ResolutionDetail::Recovery(_) => 0,
        }
    }

    /// CDG cycles broken (0 for schemes that restructure wholesale —
    /// resource ordering, escape channels, recovery).
    pub fn cycles_broken(&self) -> usize {
        match &self.detail {
            ResolutionDetail::Removal(r) => r.cycles_broken,
            _ => 0,
        }
    }
}

/// A scheme that mutates a routed design until its CDG is acyclic.
///
/// The [`resolve_deadlocks`](crate::RoutedStage::resolve_deadlocks) stage
/// re-verifies deadlock freedom after every call, so implementations that
/// fail to deliver an acyclic CDG are rejected with
/// [`FlowError::StillCyclic`] instead of leaking unsafe designs downstream.
///
/// Strategies are shared by reference across worker threads —
/// [`FlowSweep::run`](crate::FlowSweep::run) charges one strategy list on
/// every worker, and the `fig_strategy_matrix` job source shares one set
/// across its tasks — hence the `Sync` bound; the design being repaired is
/// a clone owned per call, and the shipped strategies carry no state at all.
pub trait DeadlockStrategy: Sync {
    /// Human-readable scheme name (used in sweep output and diagnostics).
    fn name(&self) -> &str;

    /// Makes the design deadlock-free in place (extra VCs, re-routed flows)
    /// and reports what it did; the variant of the detail is the
    /// strategy's [`StrategyKind`].
    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError>;
}

/// The paper's contribution: smallest-cycle-first CDG cycle breaking
/// (Algorithm 1) with forward/backward cost tables (Algorithm 2), under
/// the default [`RemovalConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreaking;

impl DeadlockStrategy for CycleBreaking {
    fn name(&self) -> &str {
        "cycle-breaking"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError> {
        let report = remove_deadlocks(topology, routes, &RemovalConfig::default())?;
        Ok(ResolutionDetail::Removal(report))
    }
}

/// The baseline the paper compares against: ascending channel classes along
/// every route (Dally & Towles resource ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceOrdering;

impl DeadlockStrategy for ResourceOrdering {
    fn name(&self) -> &str {
        "resource-ordering"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError> {
        let result = apply_resource_ordering(topology, routes)?;
        Ok(ResolutionDetail::Ordering(result))
    }
}

/// Escape-channel *avoidance*: routes keep their physical links but climb
/// one VC layer at every turn the up*/down* order forbids, so every layer is
/// a deadlock-free subgraph and the CDG is acyclic by construction
/// ([`noc_deadlock::escape`]).  Zero cycles are ever broken; the cost is the
/// escape VCs reserved, reported in [`ResolutionDetail::Escape`].  The up*/down*
/// spanning tree is rooted at switch 0, which every non-empty topology has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscapeChannel;

impl DeadlockStrategy for EscapeChannel {
    fn name(&self) -> &str {
        "escape-channel"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError> {
        let result = apply_escape_channels(topology, routes, SwitchId::from_index(0))?;
        Ok(ResolutionDetail::Escape(result))
    }
}

/// Recovery-based reconfiguration (DBR-style, [`noc_deadlock::recovery`]):
/// cyclic CDG regions are detected as strongly-connected components and
/// their flows are drained onto up*/down* routes, whole SCCs at a time,
/// until the CDG is acyclic.  Adds zero VCs — the cost is reconfiguration
/// events and the hop inflation of the recovery routes, reported in the
/// resolution's [`ResolutionDetail::Recovery`].  The recovery routing function's
/// spanning tree is rooted at switch 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReconfig;

impl DeadlockStrategy for RecoveryReconfig {
    fn name(&self) -> &str {
        "recovery-reconfig"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<ResolutionDetail, FlowError> {
        let result = apply_recovery_reconfig(topology, routes, SwitchId::from_index(0))?;
        Ok(ResolutionDetail::Recovery(result))
    }
}

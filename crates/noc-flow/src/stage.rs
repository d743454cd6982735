//! The pipeline's stages.
//!
//! One type, [`Stage`], holds a design — communication graph, topology,
//! core map and routes — plus a private state that says how far along the
//! pipeline it is.  Each transition re-runs the matching
//! `validate_*`/`verify` check:
//!
//! ```text
//! RoutedStage::synthesize / RoutedStage::with_design ──▶ RoutedStage
//!     ──resolve_deadlocks──▶ DeadlockFreeStage
//! ```
//!
//! Every stage reads the same way: the accessors,
//! [`vc_map`](Stage::vc_map), [`power`](Stage::power) and
//! [`simulate_vc`](Stage::simulate_vc), which runs the VC-aware simulator
//! on the design as it stands and returns its bare [`VcSimOutcome`]; a
//! simulation is data, not a further stage.
//!
//! Branching is free: `resolve_deadlocks` takes `&self` and copies
//! internally, so comparing two deadlock strategies on the same routed
//! design needs no hand-cloning at the call site.  A repaired stage shares
//! the communication graph and core map with the stage it came from; only
//! the topology and routes, which a strategy rewrites, are copied.

use crate::error::FlowError;
use crate::strategy::{DeadlockResolution, DeadlockStrategy};
use noc_deadlock::certify::{certify_deadlock_free, CertifyReport};
use noc_deadlock::vcmap::VcMap;
use noc_deadlock::verify::{check_deadlock_free, DeadlockCycle};
use noc_power::NetworkEstimate;
use noc_routing::shortest::route_all_shortest;
use noc_routing::validate::validate_routes;
use noc_routing::RouteSet;
use noc_sim::{TrafficConfig, VcPolicy, VcSimConfig, VcSimOutcome, VcSimulator};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::validate::validate_design;
use noc_topology::{CommGraph, CoreMap, Topology};
use std::sync::Arc;

/// A validated design at one point of the pipeline; `S` is its state,
/// [`Routed`] before repair and [`DeadlockResolution`] after.
///
/// The fields are private: [`RoutedStage`]'s two constructors and
/// [`RoutedStage::resolve_deadlocks`] are the only ways to build one.
#[derive(Debug, Clone)]
pub struct Stage<S> {
    comm: Arc<CommGraph>,
    topology: Topology,
    core_map: Arc<CoreMap>,
    routes: RouteSet,
    state: S,
}

/// The state of a design routed by deadlock-oblivious shortest paths,
/// before any deadlock strategy ran.
#[derive(Debug, Clone)]
pub struct Routed;

/// A fully routed design — the exact triple the deadlock analysis consumes.
///
/// The paper's method takes a routed design as its input, routed by
/// deadlock-oblivious shortest paths; both constructors produce one.
///
/// # Example
///
/// The full Figure-8-style pipeline in one chain:
///
/// ```
/// use noc_flow::{CycleBreaking, RoutedStage};
/// use noc_sim::{AssignedVc, TrafficConfig, VcSimConfig};
/// use noc_synth::SynthesisConfig;
/// use noc_topology::benchmarks::Benchmark;
///
/// let comm = Benchmark::D26Media.comm_graph();
/// let fixed = RoutedStage::synthesize(comm, &SynthesisConfig::with_switches(12))?
///     .resolve_deadlocks(&CycleBreaking)?;
/// let traffic = TrafficConfig::default();
/// let outcome = fixed.simulate_vc(&AssignedVc, &VcSimConfig::default(), &traffic);
/// assert!(!outcome.deadlocked);
/// let estimate = fixed.power();
/// assert!(estimate.total_power_mw > 0.0);
/// # Ok::<(), noc_flow::FlowError>(())
/// ```
pub type RoutedStage = Stage<Routed>;

/// A design whose CDG has been verified acyclic: it cannot deadlock.
///
/// [`RoutedStage::resolve_deadlocks`], its only constructor, checks that
/// first, so its certify report is [`CertifyReport::acyclic`].
pub type DeadlockFreeStage = Stage<DeadlockResolution>;

impl<S> Stage<S> {
    /// The topology (with any extra VCs a deadlock strategy added).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The route set, one route per flow.
    pub fn routes(&self) -> &RouteSet {
        &self.routes
    }

    /// The communication graph.
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// The core-to-switch attachment.
    pub fn core_map(&self) -> &CoreMap {
        &self.core_map
    }

    /// The design's VC assignment (per-link VC counts, per-hop flow
    /// assignments; all base VCs before any deadlock strategy ran) as the
    /// [`VcMap`] the VC-fidelity simulator consumes.
    pub fn vc_map(&self) -> VcMap {
        VcMap::from_design(&self.topology, &self.routes)
    }

    /// Simulates the design as it stands: buffers per (link × VC) sized
    /// from its [`VcMap`], credit-based flow control, the given
    /// [`VcPolicy`] deciding how the assignment is used at runtime, and
    /// exact wait-for-graph deadlock detection.  On a routed stage this
    /// shows a deadlock-prone design really deadlocking; on a repaired
    /// stage the outcome's `deadlocked` flag must stay `false` under
    /// [`AssignedVc`](noc_sim::AssignedVc).
    pub fn simulate_vc(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
    ) -> VcSimOutcome {
        let _span = noc_telemetry::span("stage", "simulate_vc");
        VcSimulator::new(&self.comm, &self.routes, &self.vc_map(), policy, sim).run(traffic)
    }

    /// Area/power estimate of the design as it stands: the "original" bars
    /// of Figure 10 before repair, the "removal" or "ordering" bars after,
    /// depending on the strategy used.
    pub fn power(&self) -> NetworkEstimate {
        let _span = noc_telemetry::span("stage", "power");
        noc_power::estimate(&self.topology, &self.comm, &self.routes)
    }
}

impl RoutedStage {
    /// Synthesizes an application-specific topology and attachment for
    /// `comm` and keeps the synthesizer's shortest-path routes, after
    /// validating the design triple and the routes.  `comm` may be an
    /// `Arc` that other designs share.
    pub fn synthesize(
        comm: impl Into<Arc<CommGraph>>,
        config: &SynthesisConfig,
    ) -> Result<Self, FlowError> {
        let _span = noc_telemetry::span("stage", "synthesize");
        let comm = comm.into();
        let design = synthesize(&comm, config)?;
        validate_design(&design.topology, &comm, &design.core_map)?;
        validate_routes(&design.topology, &comm, &design.core_map, &design.routes)?;
        Ok(Stage {
            comm,
            topology: design.topology,
            core_map: Arc::new(design.core_map),
            routes: design.routes,
            state: Routed,
        })
    }

    /// Imports a hand-built topology and core attachment, validates them
    /// like a synthesized design and routes every flow by hop-count
    /// shortest paths.
    pub fn with_design(
        comm: CommGraph,
        topology: Topology,
        core_map: CoreMap,
    ) -> Result<Self, FlowError> {
        let _span = noc_telemetry::span("stage", "route");
        validate_design(&topology, &comm, &core_map)?;
        let routes = route_all_shortest(&topology, &comm, &core_map)?;
        validate_routes(&topology, &comm, &core_map, &routes)?;
        Ok(Stage {
            comm: Arc::new(comm),
            topology,
            core_map: Arc::new(core_map),
            routes,
            state: Routed,
        })
    }

    /// The smallest CDG cycle of the design, if any — evidence that the
    /// design can deadlock; `None` when the CDG is already acyclic.
    pub fn deadlock_evidence(&self) -> Option<DeadlockCycle> {
        check_deadlock_free(&self.topology, &self.routes).err()
    }

    /// Certifies the routed design with the exact static verifier
    /// (`noc_deadlock::certify`): unlike
    /// [`deadlock_evidence`](Self::deadlock_evidence), which condemns any
    /// CDG cycle, this searches for a genuinely trappable configuration and
    /// returns a three-valued verdict with a machine-checkable witness.
    /// For designs before repair: a [`DeadlockFreeStage`] is certified by
    /// its acyclicity proof.
    pub fn certify(&self) -> CertifyReport {
        let _span = noc_telemetry::span("stage", "certify");
        certify_deadlock_free(&self.topology, &self.routes)
    }

    /// Number of flows that actually enter the switch network.
    pub fn active_flow_count(&self) -> usize {
        self.routes.active_flow_count()
    }

    /// Makes the design deadlock-free with the given strategy, then
    /// re-verifies the CDG is acyclic and the routes still valid.
    ///
    /// Takes `&self` and copies internally, so the paper's central
    /// comparison — the same routed design under
    /// [`CycleBreaking`](crate::CycleBreaking) versus
    /// [`ResourceOrdering`](crate::ResourceOrdering) — is two calls on one
    /// stage, and swapping strategies is a one-line change.
    pub fn resolve_deadlocks(
        &self,
        strategy: &dyn DeadlockStrategy,
    ) -> Result<DeadlockFreeStage, FlowError> {
        let mut span = noc_telemetry::span("stage", "resolve_deadlocks");
        span.arg("strategy", strategy.name());
        let mut topology = self.topology.clone();
        let mut routes = self.routes.clone();
        let resolution = DeadlockResolution::apply(strategy, &mut topology, &mut routes)?;
        check_deadlock_free(&topology, &routes).map_err(FlowError::StillCyclic)?;
        validate_routes(&topology, &self.comm, &self.core_map, &routes)?;
        Ok(Stage {
            comm: Arc::clone(&self.comm),
            topology,
            core_map: Arc::clone(&self.core_map),
            routes,
            state: resolution,
        })
    }
}

impl DeadlockFreeStage {
    /// What the deadlock strategy did (VCs added, cycles broken, its
    /// detail).
    pub fn resolution(&self) -> &DeadlockResolution {
        &self.state
    }
}

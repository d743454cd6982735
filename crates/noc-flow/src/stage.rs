//! The staged `DesignFlow` builder.
//!
//! One type per pipeline stage, each owning the artifacts it produced, each
//! transition re-running the matching `validate_*`/`verify` check:
//!
//! ```text
//! DesignFlow ──synthesize──▶ SynthesizedStage ──route──▶ RoutedStage
//!     ──resolve_deadlocks──▶ DeadlockFreeStage
//! ```
//!
//! `RoutedStage::simulate_vc` and `DeadlockFreeStage::simulate_vc` run the
//! VC-aware simulator on the design as it stands and return its bare
//! [`VcSimOutcome`]; a simulation is data, not a further stage.
//!
//! Branching is free: `route` and `resolve_deadlocks` take `&self` and copy
//! internally, so comparing two routers or two deadlock strategies on the
//! same synthesized design needs no hand-cloning at the call site.

use crate::error::FlowError;
use crate::router::{Router, ShortestPathRouter};
use crate::strategy::{DeadlockResolution, DeadlockStrategy};
use noc_deadlock::certify::{certify_deadlock_free, CertifyReport};
use noc_deadlock::vcmap::VcMap;
use noc_deadlock::verify::{check_deadlock_free, DeadlockCycle};
use noc_power::{NetworkEstimate, NetworkPowerModel, TechParams};
use noc_routing::validate::validate_routes;
use noc_routing::RouteSet;
use noc_sim::{TrafficConfig, VcPolicy, VcSimConfig, VcSimOutcome, VcSimulator};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::validate::validate_design;
use noc_topology::{CommGraph, CoreMap, Topology};

/// Entry point of the pipeline: a communication specification waiting for a
/// topology.
///
/// # Example
///
/// The full Figure-8-style pipeline in one chain:
///
/// ```
/// use noc_flow::{CycleBreaking, DesignFlow, ShortestPathRouter};
/// use noc_power::TechParams;
/// use noc_sim::{AssignedVc, TrafficConfig, VcSimConfig};
/// use noc_synth::SynthesisConfig;
/// use noc_topology::benchmarks::Benchmark;
///
/// let fixed = DesignFlow::from_benchmark(Benchmark::D26Media)
///     .synthesize(SynthesisConfig::with_switches(12))?
///     .route(&ShortestPathRouter::default())?
///     .resolve_deadlocks(&CycleBreaking::default())?;
/// let traffic = TrafficConfig::default();
/// let outcome = fixed.simulate_vc(&AssignedVc, &VcSimConfig::default(), &traffic);
/// assert!(!outcome.deadlocked);
/// let estimate = fixed.power(TechParams::default());
/// assert!(estimate.total_power_mw > 0.0);
/// # Ok::<(), noc_flow::FlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DesignFlow {
    comm: CommGraph,
    label: String,
}

impl DesignFlow {
    /// Starts a flow from one of the paper's six SoC benchmarks.
    pub fn from_benchmark(benchmark: Benchmark) -> Self {
        DesignFlow {
            comm: benchmark.comm_graph(),
            label: benchmark.name().to_string(),
        }
    }

    /// Starts a flow from an arbitrary communication graph.
    pub fn from_comm(comm: CommGraph) -> Self {
        DesignFlow {
            comm,
            label: "custom".to_string(),
        }
    }

    /// Overrides the label used in diagnostics and sweep output.
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The flow's label (benchmark name, or `"custom"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Synthesizes an application-specific topology, attachment and default
    /// shortest-path routes, then validates the design triple and the routes
    /// (the checks `tests/end_to_end.rs` used to run by hand).
    pub fn synthesize(self, config: SynthesisConfig) -> Result<SynthesizedStage, FlowError> {
        let mut span = noc_telemetry::span("stage", "synthesize");
        span.arg("label", self.label.as_str());
        // The synthesizer routes with a shortest-path router under the
        // configured cost model; remember which one so route_default() can
        // report the scheme accurately.
        let default_router = ShortestPathRouter::with_cost(config.link_cost)
            .name()
            .to_string();
        let design = synthesize(&self.comm, &config)?;
        validate_design(&design.topology, &self.comm, &design.core_map)?;
        validate_routes(
            &design.topology,
            &self.comm,
            &design.core_map,
            &design.routes,
        )?;
        Ok(SynthesizedStage {
            comm: self.comm,
            topology: design.topology,
            core_map: design.core_map,
            default_routes: Some((default_router, design.routes)),
        })
    }

    /// Imports a hand-built topology and core attachment instead of
    /// synthesizing one (validated like a synthesized design).  The
    /// resulting stage has no default routes; route it with an explicit
    /// [`Router`].
    pub fn with_design(
        self,
        topology: Topology,
        core_map: CoreMap,
    ) -> Result<SynthesizedStage, FlowError> {
        validate_design(&topology, &self.comm, &core_map)?;
        Ok(SynthesizedStage {
            comm: self.comm,
            topology,
            core_map,
            default_routes: None,
        })
    }
}

/// A validated design triple (topology, communication graph, attachment),
/// ready to be routed.
#[derive(Debug, Clone)]
pub struct SynthesizedStage {
    comm: CommGraph,
    topology: Topology,
    core_map: CoreMap,
    /// `(router name, routes)` the synthesizer produced, when synthesized.
    default_routes: Option<(String, RouteSet)>,
}

impl SynthesizedStage {
    /// Routes every flow with the given scheme and validates the result.
    ///
    /// Takes `&self` so several routers can be compared on one synthesized
    /// design without caller-side cloning.
    pub fn route(&self, router: &dyn Router) -> Result<RoutedStage, FlowError> {
        let mut span = noc_telemetry::span("stage", "route");
        span.arg("router", router.name());
        let routes = router.route(&self.topology, &self.comm, &self.core_map)?;
        validate_routes(&self.topology, &self.comm, &self.core_map, &routes)?;
        Ok(RoutedStage {
            router: router.name().to_string(),
            comm: self.comm.clone(),
            topology: self.topology.clone(),
            core_map: self.core_map.clone(),
            routes,
        })
    }

    /// Adopts the deadlock-oblivious shortest-path routes the synthesizer
    /// already computed (the paper's input routing) without re-routing.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoDefaultRoutes`] if the design was imported via
    /// [`DesignFlow::with_design`] rather than synthesized.
    pub fn route_default(&self) -> Result<RoutedStage, FlowError> {
        let (router, routes) = self
            .default_routes
            .clone()
            .ok_or(FlowError::NoDefaultRoutes)?;
        Ok(RoutedStage {
            router,
            comm: self.comm.clone(),
            topology: self.topology.clone(),
            core_map: self.core_map.clone(),
            routes,
        })
    }
}

/// A fully routed design — the exact triple the deadlock analysis consumes.
#[derive(Debug, Clone)]
pub struct RoutedStage {
    router: String,
    comm: CommGraph,
    topology: Topology,
    core_map: CoreMap,
    routes: RouteSet,
}

impl RoutedStage {
    /// The routed topology.
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

    /// Name of the router that produced the routes.
    pub fn router_name(&self) -> &str {
        &self.router
    }

    /// `true` when the CDG of the routed design is already acyclic.
    pub fn is_deadlock_free(&self) -> bool {
        check_deadlock_free(&self.topology, &self.routes).is_ok()
    }

    /// The smallest CDG cycle of the design, if any — evidence that the
    /// design can deadlock.
    pub fn deadlock_evidence(&self) -> Option<DeadlockCycle> {
        check_deadlock_free(&self.topology, &self.routes).err()
    }

    /// Certifies the routed design with the exact static verifier
    /// (`noc_deadlock::certify`): unlike
    /// [`is_deadlock_free`](Self::is_deadlock_free), which condemns any CDG
    /// cycle, this searches for a genuinely trappable configuration and
    /// returns a three-valued verdict with a machine-checkable witness.
    pub fn certify(&self) -> CertifyReport {
        let _span = noc_telemetry::span("stage", "certify");
        certify_deadlock_free(&self.topology, &self.routes)
    }

    /// VC overhead resource ordering *would* cost on this design, without
    /// modifying anything (the dry-run baseline of Figures 8 and 9).
    pub fn resource_ordering_overhead(&self) -> usize {
        noc_deadlock::resource_ordering::resource_ordering_overhead(&self.topology, &self.routes)
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
        let (topology, routes, resolution) =
            strategy.resolve_cloned(&self.topology, &self.routes)?;
        check_deadlock_free(&topology, &routes).map_err(FlowError::StillCyclic)?;
        validate_routes(&topology, &self.comm, &self.core_map, &routes)?;
        Ok(DeadlockFreeStage {
            comm: self.comm.clone(),
            topology,
            core_map: self.core_map.clone(),
            routes,
            resolution,
        })
    }

    /// The VC assignment of the routed design (all base VCs before any
    /// deadlock strategy ran), as the simulator's [`VcMap`] seam.
    pub fn vc_map(&self) -> VcMap {
        VcMap::from_design(&self.topology, &self.routes)
    }

    /// Simulates the routed design as-is under the given [`VcPolicy`] —
    /// useful for demonstrating that a deadlock-prone design really does
    /// deadlock at runtime.  Diagnostic, not a stage transition:
    /// deadlock-prone designs stay on this stage.
    pub fn simulate_vc(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
    ) -> VcSimOutcome {
        simulate_routes(
            &self.comm,
            &self.topology,
            &self.routes,
            policy,
            sim,
            traffic,
        )
    }

    /// Area/power estimate of the design as routed (the "original" bars of
    /// Figure 10).
    pub(crate) fn power(&self, params: TechParams) -> NetworkEstimate {
        let _span = noc_telemetry::span("stage", "power");
        NetworkPowerModel::new(params).estimate(&self.topology, &self.comm, &self.routes)
    }
}

/// A design whose CDG has been verified acyclic: it cannot deadlock.
#[derive(Debug, Clone)]
pub struct DeadlockFreeStage {
    comm: CommGraph,
    topology: Topology,
    core_map: CoreMap,
    routes: RouteSet,
    resolution: DeadlockResolution,
}

impl DeadlockFreeStage {
    /// The repaired topology (with any extra VCs).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The repaired route set.
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

    /// What the deadlock strategy did (VCs added, cycles broken, reports).
    pub fn resolution(&self) -> &DeadlockResolution {
        &self.resolution
    }

    /// Certifies the repaired design with the exact static verifier
    /// (`noc_deadlock::certify`).  For stages built by
    /// [`RoutedStage::resolve_deadlocks`] the CDG is already acyclic, so
    /// this takes the fast path and must report
    /// [`CertifyVerdict::CertifiedFree`](noc_deadlock::certify::CertifyVerdict) —
    /// the sound end of the three-way verifier lattice.
    pub(crate) fn certify(&self) -> CertifyReport {
        let _span = noc_telemetry::span("stage", "certify");
        certify_deadlock_free(&self.topology, &self.routes)
    }

    /// The strategy's VC assignment (per-link VC counts, per-hop flow
    /// assignments) as the [`VcMap`] the VC-fidelity simulator consumes.
    pub fn vc_map(&self) -> VcMap {
        VcMap::from_design(&self.topology, &self.routes)
    }

    /// Simulates the repaired design: buffers per (link × VC) sized from
    /// the strategy's [`VcMap`], credit-based flow control, the given
    /// [`VcPolicy`] deciding how the assignment is used at runtime, and
    /// exact wait-for-graph deadlock detection.  The outcome's `deadlocked`
    /// flag must stay `false` for a correctly repaired design under
    /// [`AssignedVc`](noc_sim::AssignedVc).
    pub fn simulate_vc(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
    ) -> VcSimOutcome {
        simulate_routes(
            &self.comm,
            &self.topology,
            &self.routes,
            policy,
            sim,
            traffic,
        )
    }

    /// Area/power estimate of the repaired design (the "removal" /
    /// "ordering" bars of Figure 10, depending on the strategy used).
    pub fn power(&self, params: TechParams) -> NetworkEstimate {
        let _span = noc_telemetry::span("stage", "power");
        NetworkPowerModel::new(params).estimate(&self.topology, &self.comm, &self.routes)
    }
}

/// Runs the VC-aware simulator on `routes` over `topology`, with the VC
/// assignment the routes carry: the one simulation behind both stages'
/// `simulate_vc`.
fn simulate_routes(
    comm: &CommGraph,
    topology: &Topology,
    routes: &RouteSet,
    policy: &dyn VcPolicy,
    sim: &VcSimConfig,
    traffic: &TrafficConfig,
) -> VcSimOutcome {
    let _span = noc_telemetry::span("stage", "simulate_vc");
    let vc_map = VcMap::from_design(topology, routes);
    VcSimulator::new(comm, routes, &vc_map, policy, sim).run(traffic)
}

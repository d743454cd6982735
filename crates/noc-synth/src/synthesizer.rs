//! End-to-end topology synthesis: clustering + interconnect + routing.

use crate::cluster::{cluster_cores, Clustering};
use crate::connect::{build_interconnect, Backbone, ConnectConfig};
use noc_routing::shortest::{route_all_with_cost, LinkCost};
use noc_routing::{RouteError, RouteSet};
use noc_topology::{CommGraph, CoreMap, Topology, TopologyError};
use std::error::Error;
use std::fmt;

/// Configuration of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Number of switches to build.
    pub switch_count: usize,
    /// Backbone shape for the switch interconnect.
    pub backbone: Backbone,
    /// Maximum switch degree (neighbouring switches).
    pub max_degree: usize,
    /// Bandwidth of every opened link.
    pub link_bandwidth: f64,
    /// Cost model for the deadlock-oblivious input routing.
    pub link_cost: LinkCost,
}

impl SynthesisConfig {
    /// A configuration with the given switch count and default parameters.
    pub fn with_switches(switch_count: usize) -> Self {
        SynthesisConfig {
            switch_count,
            backbone: Backbone::SpanningTree,
            max_degree: 4,
            link_bandwidth: 2000.0,
            link_cost: LinkCost::Hops,
        }
    }

    /// Same, but with a ring backbone (more prone to CDG cycles, like the
    /// paper's Figure 1 example).
    pub fn with_switches_ring(switch_count: usize) -> Self {
        SynthesisConfig {
            backbone: Backbone::Ring,
            ..Self::with_switches(switch_count)
        }
    }
}

/// A fully synthesized design: the triple the deadlock analysis consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizedDesign {
    /// The application-specific topology.
    pub topology: Topology,
    /// Core-to-switch attachment.
    pub core_map: CoreMap,
    /// Deadlock-oblivious shortest-path routes, one per flow.
    pub routes: RouteSet,
    /// The clustering the topology was derived from (kept for diagnostics
    /// and ablations).
    pub clustering: Clustering,
}

/// Errors reported by [`synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The requested configuration is invalid (e.g. zero switches).
    InvalidConfig(String),
    /// The synthesized topology could not route every flow.
    Routing(RouteError),
    /// An underlying topology-model error.
    Topology(TopologyError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvalidConfig(msg) => write!(f, "invalid synthesis config: {msg}"),
            SynthesisError::Routing(e) => write!(f, "routing failed: {e}"),
            SynthesisError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::Routing(e) => Some(e),
            SynthesisError::Topology(e) => Some(e),
            SynthesisError::InvalidConfig(_) => None,
        }
    }
}

impl From<RouteError> for SynthesisError {
    fn from(e: RouteError) -> Self {
        SynthesisError::Routing(e)
    }
}

impl From<TopologyError> for SynthesisError {
    fn from(e: TopologyError) -> Self {
        SynthesisError::Topology(e)
    }
}

/// Synthesizes an application-specific topology, core attachment and
/// deadlock-oblivious routes for `comm`.
///
/// This is the substitute for the paper's external synthesis tool \[9\]: the
/// deadlock-removal algorithm and the resource-ordering baseline only care
/// that they receive *some* application-specific `TG(S, L)`, `G(V, E)`
/// mapping and route set per switch count.
///
/// # Errors
///
/// * [`SynthesisError::InvalidConfig`] when `switch_count` is zero or larger
///   than the number of cores.
/// * [`SynthesisError::Routing`] when a flow cannot be routed on the
///   generated interconnect (should not happen for connected interconnects).
pub fn synthesize(
    comm: &CommGraph,
    config: &SynthesisConfig,
) -> Result<SynthesizedDesign, SynthesisError> {
    if config.switch_count == 0 {
        return Err(SynthesisError::InvalidConfig(
            "switch count must be positive".into(),
        ));
    }
    if config.switch_count > comm.core_count() {
        return Err(SynthesisError::InvalidConfig(format!(
            "switch count {} exceeds core count {}",
            config.switch_count,
            comm.core_count()
        )));
    }
    if config.max_degree < 2 {
        return Err(SynthesisError::InvalidConfig(
            "max degree must be at least 2".into(),
        ));
    }

    let clustering = cluster_cores(comm, config.switch_count);
    let interconnect = build_interconnect(
        comm,
        &clustering,
        &ConnectConfig {
            backbone: config.backbone,
            max_degree: config.max_degree,
            link_bandwidth: config.link_bandwidth,
        },
    );

    let mut core_map = CoreMap::new(comm.core_count());
    for (core, _) in comm.cores() {
        let cluster = clustering.cluster_of(core);
        core_map.assign(core, interconnect.switches[cluster])?;
    }

    let routes = route_all_with_cost(&interconnect.topology, comm, &core_map, config.link_cost)?;

    Ok(SynthesizedDesign {
        topology: interconnect.topology,
        core_map,
        routes,
        clustering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::validate::validate_routes;
    use noc_topology::benchmarks::Benchmark;
    use noc_topology::validate::validate_design;

    #[test]
    fn synthesized_designs_are_consistent() {
        for benchmark in Benchmark::ALL {
            let comm = benchmark.comm_graph();
            for switches in [4, 9, 14] {
                let design = synthesize(&comm, &SynthesisConfig::with_switches(switches))
                    .unwrap_or_else(|e| panic!("{benchmark} {switches}: {e}"));
                assert_eq!(design.topology.switch_count(), switches);
                validate_design(&design.topology, &comm, &design.core_map).unwrap();
                validate_routes(&design.topology, &comm, &design.core_map, &design.routes).unwrap();
            }
        }
    }

    #[test]
    fn ring_backbone_also_routes_everything() {
        let comm = Benchmark::D26Media.comm_graph();
        let design = synthesize(&comm, &SynthesisConfig::with_switches_ring(8)).unwrap();
        validate_routes(&design.topology, &comm, &design.core_map, &design.routes).unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let comm = Benchmark::D26Media.comm_graph();
        assert!(matches!(
            synthesize(&comm, &SynthesisConfig::with_switches(0)),
            Err(SynthesisError::InvalidConfig(_))
        ));
        assert!(matches!(
            synthesize(&comm, &SynthesisConfig::with_switches(100)),
            Err(SynthesisError::InvalidConfig(_))
        ));
        let bad_degree = SynthesisConfig {
            max_degree: 1,
            ..SynthesisConfig::with_switches(5)
        };
        assert!(matches!(
            synthesize(&comm, &bad_degree),
            Err(SynthesisError::InvalidConfig(_))
        ));
    }

    #[test]
    fn more_switches_means_longer_routes_on_average() {
        let comm = Benchmark::D36x8.comm_graph();
        let small = synthesize(&comm, &SynthesisConfig::with_switches(4)).unwrap();
        let large = synthesize(&comm, &SynthesisConfig::with_switches(18)).unwrap();
        assert!(large.routes.mean_hops() >= small.routes.mean_hops());
    }

    #[test]
    fn single_switch_design_has_empty_routes() {
        let comm = Benchmark::D26Media.comm_graph();
        let design = synthesize(&comm, &SynthesisConfig::with_switches(1)).unwrap();
        assert_eq!(design.routes.max_hops(), 0);
        assert_eq!(design.clustering.members(0).len(), comm.core_count());
    }

    #[test]
    fn error_display_mentions_the_cause() {
        let comm = Benchmark::D26Media.comm_graph();
        let err = synthesize(&comm, &SynthesisConfig::with_switches(0)).unwrap_err();
        assert!(err.to_string().contains("switch count"));
    }
}

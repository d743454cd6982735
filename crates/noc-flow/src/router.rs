//! The pluggable routing seam of the pipeline.
//!
//! The paper's method accepts *any* routing function as input (Section 3):
//! deadlock-oblivious shortest-path routes are what its evaluation uses, but
//! the analysis only needs the route set.  [`Router`] captures that contract
//! so a flow can swap routing schemes without touching the rest of the
//! pipeline, mirroring how related deadlock-avoidance work compares schemes
//! on a fixed substrate.

use crate::FlowError;
use noc_routing::shortest::{route_all_with_cost, LinkCost};
use noc_routing::updown::route_all_updown;
use noc_routing::xy::{route_all_xy, MeshCoords};
use noc_routing::RouteSet;
use noc_topology::{CommGraph, CoreMap, SwitchId, Topology};

/// A routing scheme: produces one route per flow over a fixed design triple.
///
/// Implementations must return a route set that passes
/// [`noc_routing::validate::validate_routes`]; the
/// [`route`](crate::SynthesizedStage::route) stage re-checks this after
/// every call, so a broken implementation fails fast instead of corrupting
/// downstream stages.
///
/// Routers are `Sync` so that one router can be shared by reference across
/// the worker threads of an [`executor`](crate::executor) map, like the
/// strategies of a [`FlowSweep`](crate::FlowSweep); routing itself takes
/// `&self`, so implementations are naturally immutable.
pub trait Router: Sync {
    /// Human-readable scheme name (used in sweep output and diagnostics).
    fn name(&self) -> &str;

    /// Routes every flow of `comm` over `topology`.
    fn route(
        &self,
        topology: &Topology,
        comm: &CommGraph,
        map: &CoreMap,
    ) -> Result<RouteSet, FlowError>;
}

/// Deadlock-oblivious minimum-cost routing — the paper's input routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShortestPathRouter {
    /// Link cost model (hop count by default).
    pub cost: LinkCost,
}

impl ShortestPathRouter {
    /// A shortest-path router with an explicit cost model.
    pub fn with_cost(cost: LinkCost) -> Self {
        ShortestPathRouter { cost }
    }
}

impl Router for ShortestPathRouter {
    fn name(&self) -> &str {
        match self.cost {
            LinkCost::Hops => "shortest-path",
            LinkCost::InverseBandwidth => "shortest-path-bw",
        }
    }

    fn route(
        &self,
        topology: &Topology,
        comm: &CommGraph,
        map: &CoreMap,
    ) -> Result<RouteSet, FlowError> {
        Ok(route_all_with_cost(topology, comm, map, self.cost)?)
    }
}

/// Dimension-order XY routing for 2-D meshes (deadlock-free by
/// construction, so [`CycleBreaking`](crate::CycleBreaking) must add zero
/// VCs after it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XyRouter {
    /// Row-major coordinates of the mesh being routed.
    pub coords: MeshCoords,
}

impl XyRouter {
    /// An XY router for the mesh described by `coords`.
    pub fn new(coords: MeshCoords) -> Self {
        XyRouter { coords }
    }
}

impl Router for XyRouter {
    fn name(&self) -> &str {
        "xy"
    }

    fn route(
        &self,
        topology: &Topology,
        comm: &CommGraph,
        map: &CoreMap,
    ) -> Result<RouteSet, FlowError> {
        Ok(route_all_xy(topology, comm, map, &self.coords)?)
    }
}

/// Up*/down* routing relative to a BFS spanning tree — a classic
/// deadlock-free scheme for arbitrary topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpDownRouter {
    /// Root switch of the spanning tree.
    pub root: SwitchId,
}

impl UpDownRouter {
    /// An up*/down* router rooted at `root`.
    pub fn rooted_at(root: SwitchId) -> Self {
        UpDownRouter { root }
    }
}

impl Default for UpDownRouter {
    /// Roots the spanning tree at switch 0, which exists in every non-empty
    /// topology.
    fn default() -> Self {
        UpDownRouter {
            root: SwitchId::from_index(0),
        }
    }
}

impl Router for UpDownRouter {
    fn name(&self) -> &str {
        "up-down"
    }

    fn route(
        &self,
        topology: &Topology,
        comm: &CommGraph,
        map: &CoreMap,
    ) -> Result<RouteSet, FlowError> {
        Ok(route_all_updown(topology, comm, map, self.root)?)
    }
}

//! Route validation and the routing error type.

use crate::route::RouteSet;
use noc_topology::{CommGraph, CoreMap, FlowId, SwitchId, Topology, TopologyError};
use std::error::Error;
use std::fmt;

/// Errors produced while computing or validating routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A flow cannot be routed because no switch-level path exists.
    Unroutable {
        /// The flow that could not be routed.
        flow: FlowId,
        /// Switch the route must start from.
        from: SwitchId,
        /// Switch the route must reach.
        to: SwitchId,
    },
    /// The route of a flow is not a contiguous path in the topology.
    Discontiguous {
        /// The offending flow.
        flow: FlowId,
        /// Index of the first hop whose source switch does not match the
        /// previous hop's target switch.
        at_hop: usize,
    },
    /// The route of a flow references a channel whose VC does not exist on
    /// the link.
    MissingVc {
        /// The offending flow.
        flow: FlowId,
        /// Index of the offending hop.
        at_hop: usize,
    },
    /// The route does not start or end at the switches the flow's cores are
    /// attached to.
    WrongEndpoints {
        /// The offending flow.
        flow: FlowId,
    },
    /// An underlying topology-model error (unknown link, unmapped core, …).
    Topology(TopologyError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable { flow, from, to } => {
                write!(f, "flow {flow} cannot be routed from {from} to {to}")
            }
            RouteError::Discontiguous { flow, at_hop } => {
                write!(f, "route of flow {flow} is discontiguous at hop {at_hop}")
            }
            RouteError::MissingVc { flow, at_hop } => {
                write!(f, "route of flow {flow} uses a missing VC at hop {at_hop}")
            }
            RouteError::WrongEndpoints { flow } => {
                write!(f, "route of flow {flow} does not match its core attachment")
            }
            RouteError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl Error for RouteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RouteError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for RouteError {
    fn from(e: TopologyError) -> Self {
        RouteError::Topology(e)
    }
}

/// Validates that every route in `routes` is well-formed with respect to the
/// topology, the communication graph and the core attachment:
///
/// 1. every referenced link exists and the referenced VC exists on it,
/// 2. consecutive links are contiguous (target of hop *i* = source of hop
///    *i+1*),
/// 3. the route starts at the source core's switch and ends at the
///    destination core's switch (empty routes require both cores to share a
///    switch).
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_routes(
    topology: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
    routes: &RouteSet,
) -> Result<(), RouteError> {
    for (flow_id, flow) in comm.flows() {
        let route = routes
            .route(flow_id)
            .ok_or(RouteError::WrongEndpoints { flow: flow_id })?;
        let src_switch = map.require(flow.source)?;
        let dst_switch = map.require(flow.destination)?;

        if route.is_empty() {
            if src_switch != dst_switch {
                return Err(RouteError::WrongEndpoints { flow: flow_id });
            }
            continue;
        }

        let mut prev_target: Option<SwitchId> = None;
        for (hop, channel) in route.channels().iter().enumerate() {
            let link = topology.link(channel.link).ok_or(RouteError::Topology(
                TopologyError::UnknownLink(channel.link),
            ))?;
            if channel.vc >= link.vcs {
                return Err(RouteError::MissingVc {
                    flow: flow_id,
                    at_hop: hop,
                });
            }
            if let Some(prev) = prev_target {
                if prev != link.source {
                    return Err(RouteError::Discontiguous {
                        flow: flow_id,
                        at_hop: hop,
                    });
                }
            }
            prev_target = Some(link.target);
        }

        let first_link = topology
            .link(route.channels()[0].link)
            .expect("validated above");
        if first_link.source != src_switch || prev_target != Some(dst_switch) {
            return Err(RouteError::WrongEndpoints { flow: flow_id });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;
    use crate::shortest::route_all_shortest;
    use noc_topology::{generators, Channel, CommGraph, CoreMap, LinkId};

    fn design() -> (Topology, CommGraph, CoreMap, RouteSet, FlowId) {
        let generated = generators::bidirectional_ring(4, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        let f = comm.add_flow(a, b, 1.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        (generated.topology, comm, map, routes, f)
    }

    #[test]
    fn shortest_routes_validate_cleanly() {
        let (t, c, m, r, _) = design();
        assert!(validate_routes(&t, &c, &m, &r).is_ok());
    }

    #[test]
    fn missing_vc_is_detected() {
        let (t, c, m, mut r, f) = design();
        let first = r.route(f).unwrap().channels()[0];
        r.route_mut(f).unwrap()[0] = Channel::new(first.link, 3);
        assert_eq!(
            validate_routes(&t, &c, &m, &r),
            Err(RouteError::MissingVc { flow: f, at_hop: 0 })
        );
    }

    #[test]
    fn discontiguous_route_is_detected() {
        let (t, c, m, mut r, f) = design();
        // Replace the second hop with a link that does not start where the
        // first ends (reuse the first link again).
        let first = r.route(f).unwrap().channels()[0];
        r.route_mut(f).unwrap()[1] = first;
        assert_eq!(
            validate_routes(&t, &c, &m, &r),
            Err(RouteError::Discontiguous { flow: f, at_hop: 1 })
        );
    }

    #[test]
    fn wrong_endpoints_are_detected() {
        let (t, c, m, mut r, f) = design();
        // Truncate the route so it no longer reaches the destination switch.
        let channels = r.route(f).unwrap().channels();
        let truncated = Route::new(channels[..channels.len() - 1].to_vec());
        r.set_route(f, truncated);
        assert_eq!(
            validate_routes(&t, &c, &m, &r),
            Err(RouteError::WrongEndpoints { flow: f })
        );
    }

    #[test]
    fn empty_route_for_distinct_switches_is_rejected() {
        let (t, c, m, mut r, f) = design();
        r.set_route(f, Route::empty());
        assert_eq!(
            validate_routes(&t, &c, &m, &r),
            Err(RouteError::WrongEndpoints { flow: f })
        );
    }

    #[test]
    fn unknown_link_is_reported_as_topology_error() {
        let (t, c, m, mut r, f) = design();
        r.set_route(f, Route::from_links([LinkId::from_index(999)]));
        assert!(matches!(
            validate_routes(&t, &c, &m, &r),
            Err(RouteError::Topology(TopologyError::UnknownLink(_)))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = RouteError::Unroutable {
            flow: FlowId::from_index(1),
            from: SwitchId::from_index(0),
            to: SwitchId::from_index(2),
        };
        assert!(e.to_string().contains("F1"));
        let e: RouteError = TopologyError::UnknownLink(LinkId::from_index(3)).into();
        assert!(e.to_string().contains("L3"));
    }
}

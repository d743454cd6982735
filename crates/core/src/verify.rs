//! Deadlock-freedom verification.

use crate::cdg::Cdg;
use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId, Topology};
use std::error::Error;
use std::fmt;

/// A CDG cycle found by [`check_deadlock_free`]: evidence that the design can
/// deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The channels forming the cyclic dependency, in order.
    pub channels: Vec<Channel>,
    /// The flows pinning each edge of the cycle: `edge_flows[i]` are the
    /// flows whose routes induce the dependency `channels[i] →
    /// channels[(i + 1) % len]`.  Conservatism-gap reports use this to name
    /// the traffic responsible for a cycle.
    pub edge_flows: Vec<Vec<FlowId>>,
}

impl fmt::Display for DeadlockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cyclic channel dependency of length {}: ",
            self.channels.len()
        )?;
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl Error for DeadlockCycle {}

/// Checks the necessary-and-sufficient condition for deadlock freedom with
/// static routing [Dally & Towles]: the channel dependency graph must be
/// acyclic.
///
/// # Errors
///
/// Returns the smallest cycle found as a [`DeadlockCycle`] when the design
/// can deadlock.
pub fn check_deadlock_free(topology: &Topology, routes: &RouteSet) -> Result<(), DeadlockCycle> {
    let cdg = Cdg::build(topology, routes);
    // One SCC pass settles the common, acyclic case; only a cyclic CDG
    // pays for the smallest-cycle search.
    if cdg.is_acyclic() {
        return Ok(());
    }
    let channels = cdg.smallest_cycle().expect("a cyclic CDG has a cycle");
    let edge_flows = channels
        .iter()
        .enumerate()
        .map(|(i, &from)| {
            let to = channels[(i + 1) % channels.len()];
            cdg.dependency_flows(from, to).unwrap_or_default().to_vec()
        })
        .collect();
    Err(DeadlockCycle {
        channels,
        edge_flows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::Route;
    use noc_topology::{FlowId, LinkId};

    fn ring_with_cycle() -> (Topology, RouteSet) {
        let mut topo = Topology::new();
        let sw: Vec<_> = (0..3).map(|i| topo.add_switch(format!("s{i}"))).collect();
        let links: Vec<LinkId> = (0..3)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % 3], 1.0))
            .collect();
        let mut routes = RouteSet::new(3);
        for i in 0..3 {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([links[i], links[(i + 1) % 3]]),
            );
        }
        (topo, routes)
    }

    #[test]
    fn cyclic_design_is_rejected_with_evidence() {
        let (topo, routes) = ring_with_cycle();
        let err = check_deadlock_free(&topo, &routes).unwrap_err();
        assert_eq!(err.channels.len(), 3);
        assert!(err.to_string().contains("length 3"));
        assert!(err.to_string().contains("->"));
    }

    #[test]
    fn cycle_evidence_names_the_pinning_flows() {
        let (topo, routes) = ring_with_cycle();
        let err = check_deadlock_free(&topo, &routes).unwrap_err();
        assert_eq!(err.edge_flows.len(), err.channels.len());
        // Each edge of the ring cycle is pinned by exactly one flow: the one
        // whose route traverses that consecutive link pair.
        for flows in &err.edge_flows {
            assert_eq!(flows.len(), 1);
        }
        let distinct: std::collections::HashSet<_> = err.edge_flows.iter().flatten().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn breaking_the_cycle_passes_verification() {
        let (mut topo, mut routes) = ring_with_cycle();
        // Manually re-route flow 2's second hop onto a new VC.
        let new_vc = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes.route_mut(FlowId::from_index(2)).unwrap()[1] = new_vc;
        assert!(check_deadlock_free(&topo, &routes).is_ok());
    }
}

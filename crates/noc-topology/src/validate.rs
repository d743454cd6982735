//! Consistency checks across topology, communication graph and core mapping.

use crate::comm::{CommGraph, CoreMap};
use crate::error::TopologyError;
use crate::ids::SwitchId;
use crate::search::{for_each_source, LinkCost};
use crate::topology::Topology;

/// Checks that the design triple (topology, communication graph, core map)
/// is internally consistent:
///
/// 1. every core is mapped to an existing switch,
/// 2. for every flow there exists at least one directed switch-level path
///    from the source core's switch to the destination core's switch.
///
/// Every flow is checked, with one reachability search per distinct source
/// switch ([`for_each_source`]), so the check costs O(sources × links), not
/// O(flows × links).
///
/// # Errors
///
/// Returns the first violation found as a [`TopologyError`].
pub fn validate_design(
    topology: &Topology,
    comm: &CommGraph,
    map: &CoreMap,
) -> Result<(), TopologyError> {
    // 1. Mapping completeness and validity.
    for (core, _) in comm.cores() {
        let switch = map.require(core)?;
        if topology.switch(switch).is_none() {
            return Err(TopologyError::UnknownSwitch(switch));
        }
    }
    // 2. Reachability: one search per distinct source switch, stopping once
    // its flows' destinations are reached; the earliest failing flow wins.
    let endpoints = comm
        .flows()
        .map(|(_, flow)| Ok((map.require(flow.source)?, map.require(flow.destination)?)))
        .collect::<Result<Vec<(SwitchId, SwitchId)>, TopologyError>>()?;
    let mut first_disconnected: Option<usize> = None;
    for_each_source(topology, &endpoints, LinkCost::Hops, |search, flows| {
        if let Some(&f) = flows.iter().find(|&&f| !search.reached(endpoints[f].1)) {
            first_disconnected = Some(first_disconnected.map_or(f, |g| g.min(f)));
        }
    });
    if let Some(f) = first_disconnected {
        let (from, to) = endpoints[f];
        return Err(TopologyError::Disconnected { from, to });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::ids::{CoreId, SwitchId};

    fn simple_design() -> (Topology, CommGraph, CoreMap) {
        let generated = generators::bidirectional_ring(4, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 10.0);
        let mut map = CoreMap::new(comm.core_count());
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        (generated.topology, comm, map)
    }

    #[test]
    fn valid_design_passes() {
        let (t, c, m) = simple_design();
        assert!(validate_design(&t, &c, &m).is_ok());
    }

    #[test]
    fn unmapped_core_is_reported() {
        let (t, c, _) = simple_design();
        let empty = CoreMap::new(c.core_count());
        assert_eq!(
            validate_design(&t, &c, &empty),
            Err(TopologyError::UnmappedCore(CoreId::from_index(0)))
        );
    }

    #[test]
    fn mapping_to_missing_switch_is_reported() {
        let (t, c, mut m) = simple_design();
        m.assign(CoreId::from_index(0), SwitchId::from_index(99))
            .unwrap();
        assert_eq!(
            validate_design(&t, &c, &m),
            Err(TopologyError::UnknownSwitch(SwitchId::from_index(99)))
        );
    }

    #[test]
    fn disconnected_flow_is_reported() {
        // Two isolated switches.
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let mut c = CommGraph::new();
        let a = c.add_core("a");
        let b = c.add_core("b");
        c.add_flow(a, b, 1.0);
        let mut m = CoreMap::new(2);
        m.assign(a, s0).unwrap();
        m.assign(b, s1).unwrap();
        assert_eq!(
            validate_design(&t, &c, &m),
            Err(TopologyError::Disconnected { from: s0, to: s1 })
        );
    }

    #[test]
    fn earliest_disconnected_flow_is_reported() {
        // s2 -> s0 -> s1 is a chain; flows leave s1 (stuck) and s2.
        let mut t = Topology::new();
        let s: Vec<_> = (0..3).map(|i| t.add_switch(format!("s{i}"))).collect();
        t.add_link(s[2], s[0], 1.0);
        t.add_link(s[0], s[1], 1.0);
        let mut c = CommGraph::new();
        let cores: Vec<_> = (0..3).map(|i| c.add_core(format!("c{i}"))).collect();
        let mut m = CoreMap::new(3);
        for i in 0..3 {
            m.assign(cores[i], s[i]).unwrap();
        }
        // Flow 0 is fine; flow 1 (from s1, a later source bucket than s0 but
        // an earlier flow than flow 2) and flow 2 (from s0) are both cut off.
        c.add_flow(cores[2], cores[1], 1.0);
        c.add_flow(cores[1], cores[2], 1.0);
        c.add_flow(cores[0], cores[2], 1.0);
        assert_eq!(
            validate_design(&t, &c, &m),
            Err(TopologyError::Disconnected {
                from: s[1],
                to: s[2]
            })
        );
        // Reversed flow order: the s0 flow is now the earliest failure.
        let mut r = CommGraph::new();
        let cores: Vec<_> = (0..3).map(|i| r.add_core(format!("c{i}"))).collect();
        r.add_flow(cores[0], cores[2], 1.0);
        r.add_flow(cores[1], cores[2], 1.0);
        assert_eq!(
            validate_design(&t, &r, &m),
            Err(TopologyError::Disconnected {
                from: s[0],
                to: s[2]
            })
        );
    }

    #[test]
    fn same_switch_flow_needs_no_path() {
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let mut c = CommGraph::new();
        let a = c.add_core("a");
        let b = c.add_core("b");
        c.add_flow(a, b, 1.0);
        let mut m = CoreMap::new(2);
        m.assign(a, s0).unwrap();
        m.assign(b, s0).unwrap();
        assert!(validate_design(&t, &c, &m).is_ok());
    }
}

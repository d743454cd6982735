//! Runtime fault state and fault-aware connectivity.
//!
//! The rest of the crate models the network a synthesis run *designed*; this
//! module models what is left of it once links or switches have failed at
//! runtime.  [`FaultSet`] is the mutable down/up state a fault plan drives,
//! and [`Topology::connectivity_after`] answers the question the rest of the
//! stack kept deferring to synthesis-time validation: *which flows can still
//! be routed at all on the surviving fabric?*  The simulator uses the answer
//! to surface a typed `Unreachable` outcome for partition-stranded flows
//! instead of letting them rot into an idle-timeout.

use crate::comm::{CommGraph, CoreMap};
use crate::ids::{FlowId, LinkId, SwitchId};
use crate::topology::Topology;
use std::collections::VecDeque;

/// The set of links and switches currently failed.
///
/// A link is *usable* when the link itself and both endpoint switches are
/// up; a failed switch implicitly takes every incident link down with it
/// (repairs restore the link as soon as all three are up again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    link_down: Vec<bool>,
    switch_down: Vec<bool>,
}

impl FaultSet {
    /// An all-up fault set sized for `topology`.
    pub fn new(topology: &Topology) -> Self {
        FaultSet {
            link_down: vec![false; topology.link_count()],
            switch_down: vec![false; topology.switch_count()],
        }
    }

    /// Marks a link failed.  Out-of-range ids are ignored.
    fn fail_link(&mut self, link: LinkId) {
        if let Some(slot) = self.link_down.get_mut(link.index()) {
            *slot = true;
        }
    }

    /// Repairs a previously failed link.  Out-of-range ids are ignored.
    fn repair_link(&mut self, link: LinkId) {
        if let Some(slot) = self.link_down.get_mut(link.index()) {
            *slot = false;
        }
    }

    /// Marks a link *and its reverse twin* (the `target → source` link,
    /// when one exists) failed: a physical cable fault takes down both
    /// directions at once.  Directed routing over a half-failed pair is
    /// never what a runtime fault model means, and a symmetric usable
    /// subgraph is what keeps up*/down* recovery complete on every
    /// connected component.
    pub fn fail_link_pair(&mut self, topology: &Topology, link: LinkId) {
        self.fail_link(link);
        if let Some(reverse) = reverse_of(topology, link) {
            self.fail_link(reverse);
        }
    }

    /// Repairs a link and its reverse twin (the inverse of
    /// [`fail_link_pair`](Self::fail_link_pair)).
    pub fn repair_link_pair(&mut self, topology: &Topology, link: LinkId) {
        self.repair_link(link);
        if let Some(reverse) = reverse_of(topology, link) {
            self.repair_link(reverse);
        }
    }

    /// Marks a switch failed (taking all incident links down with it).
    pub fn fail_switch(&mut self, switch: SwitchId) {
        if let Some(slot) = self.switch_down.get_mut(switch.index()) {
            *slot = true;
        }
    }

    /// Repairs a previously failed switch.
    pub fn repair_switch(&mut self, switch: SwitchId) {
        if let Some(slot) = self.switch_down.get_mut(switch.index()) {
            *slot = false;
        }
    }

    /// `true` when the switch itself is up.
    pub fn switch_up(&self, switch: SwitchId) -> bool {
        !self
            .switch_down
            .get(switch.index())
            .copied()
            .unwrap_or(true)
    }

    /// `true` when the link and both endpoint switches are up.
    pub fn link_usable(&self, topology: &Topology, link: LinkId) -> bool {
        if self.link_down.get(link.index()).copied().unwrap_or(true) {
            return false;
        }
        let Some(l) = topology.link(link) else {
            return false;
        };
        self.switch_up(l.source) && self.switch_up(l.target)
    }

    /// `true` when nothing is failed.
    pub fn is_empty(&self) -> bool {
        !self.link_down.iter().any(|&d| d) && !self.switch_down.iter().any(|&d| d)
    }
}

/// The `target → source` twin of a link, when the topology has one.
fn reverse_of(topology: &Topology, link: LinkId) -> Option<LinkId> {
    let l = topology.link(link)?;
    topology.find_link(l.target, l.source)
}

/// Connectivity of the surviving fabric, as computed by
/// [`Topology::connectivity_after`].
///
/// Components are the *physical* (undirected) connected components over
/// usable links — the criterion under which a recovery routing function
/// (up*/down* over bidirectional fabrics) can still reach a destination.
/// Failed switches belong to no component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connectivity {
    /// `component[switch]` — component index, `None` for failed switches.
    component: Vec<Option<usize>>,
    component_count: usize,
}

impl Connectivity {
    /// Component index of a switch (`None` when the switch is failed or
    /// out of range).
    pub fn component_of(&self, switch: SwitchId) -> Option<usize> {
        self.component.get(switch.index()).copied().flatten()
    }

    /// Number of surviving components (0 for an all-failed fabric).
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// `true` when both switches are up and in the same surviving
    /// component.
    fn connected(&self, from: SwitchId, to: SwitchId) -> bool {
        match (self.component_of(from), self.component_of(to)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// `true` when every up switch is in one component (vacuously true
    /// when at most one switch survives).
    pub fn is_fully_connected(&self) -> bool {
        self.component_count <= 1
    }

    /// The flows whose mapped endpoint switches are no longer connected —
    /// the traffic a partition strands.  Unmapped cores count as
    /// disconnected (the design was invalid to begin with).
    pub fn disconnected_flows(&self, comm: &CommGraph, map: &CoreMap) -> Vec<FlowId> {
        let mut stranded = Vec::new();
        for (flow_id, flow) in comm.flows() {
            let connected = match (map.switch_of(flow.source), map.switch_of(flow.destination)) {
                (Some(src), Some(dst)) => src == dst || self.connected(src, dst),
                _ => false,
            };
            if !connected {
                stranded.push(flow_id);
            }
        }
        stranded
    }
}

impl Topology {
    /// Connected components of the fabric that survives `faults`.
    ///
    /// Links are treated as undirected for this check (physical
    /// connectivity); a link contributes only when it is
    /// [usable](FaultSet::link_usable).  This closes the gap where a
    /// partition was only ever rejected by synthesis-time validation:
    /// callers can now ask, mid-run, which flows a fault storm stranded.
    pub fn connectivity_after(&self, faults: &FaultSet) -> Connectivity {
        let n = self.switch_count();
        let mut component: Vec<Option<usize>> = vec![None; n];
        let mut count = 0usize;
        for start in 0..n {
            let start_id = SwitchId::from_index(start);
            if component[start].is_some() || !faults.switch_up(start_id) {
                continue;
            }
            component[start] = Some(count);
            let mut queue = VecDeque::from([start_id]);
            while let Some(sw) = queue.pop_front() {
                let neighbors = self
                    .links_from(sw)
                    .filter(|&(id, _)| faults.link_usable(self, id))
                    .map(|(_, l)| l.target)
                    .chain(
                        self.links_to(sw)
                            .filter(|&(id, _)| faults.link_usable(self, id))
                            .map(|(_, l)| l.source),
                    );
                for next in neighbors {
                    if component[next.index()].is_none() {
                        component[next.index()] = Some(count);
                        queue.push_back(next);
                    }
                }
            }
            count += 1;
        }
        Connectivity {
            component,
            component_count: count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// 4-switch bidirectional ring plus its switch ids.
    fn ring() -> (Topology, Vec<SwitchId>) {
        let generated = generators::bidirectional_ring(4, 1.0);
        (generated.topology, generated.switches)
    }

    #[test]
    fn no_faults_is_one_component() {
        let (topo, sw) = ring();
        let faults = FaultSet::new(&topo);
        assert!(faults.is_empty());
        let conn = topo.connectivity_after(&faults);
        assert_eq!(conn.component_count(), 1);
        assert!(conn.is_fully_connected());
        assert!(conn.connected(sw[0], sw[3]));
    }

    #[test]
    fn one_ring_segment_down_stays_connected() {
        let (topo, sw) = ring();
        let mut faults = FaultSet::new(&topo);
        // Fail both directions of the 0-1 segment: the ring degrades to a
        // chain but stays connected.
        let fwd = topo.find_link(sw[0], sw[1]).unwrap();
        let back = topo.find_link(sw[1], sw[0]).unwrap();
        faults.fail_link(fwd);
        faults.fail_link(back);
        assert!(!faults.link_usable(&topo, fwd) && !faults.link_usable(&topo, back));
        let conn = topo.connectivity_after(&faults);
        assert!(conn.is_fully_connected());
        assert!(conn.connected(sw[0], sw[1]), "the long way around survives");
    }

    #[test]
    fn two_ring_segments_down_partition() {
        let (topo, sw) = ring();
        let mut faults = FaultSet::new(&topo);
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            faults.fail_link(topo.find_link(sw[a], sw[b]).unwrap());
        }
        let conn = topo.connectivity_after(&faults);
        assert_eq!(conn.component_count(), 2);
        assert!(conn.connected(sw[1], sw[2]));
        assert!(conn.connected(sw[3], sw[0]));
        assert!(!conn.connected(sw[0], sw[1]));
        assert!(!conn.connected(sw[2], sw[3]));
    }

    #[test]
    fn switch_failure_takes_incident_links_down() {
        let (topo, sw) = ring();
        let mut faults = FaultSet::new(&topo);
        faults.fail_switch(sw[1]);
        let fwd = topo.find_link(sw[0], sw[1]).unwrap();
        assert!(!faults.link_usable(&topo, fwd));
        let mut repaired = faults.clone();
        repaired.repair_switch(sw[1]);
        assert!(
            repaired.link_usable(&topo, fwd),
            "the link itself is intact"
        );
        let conn = topo.connectivity_after(&faults);
        assert_eq!(conn.component_of(sw[1]), None);
        assert!(!conn.connected(sw[0], sw[1]));
        // The three survivors still form one component.
        assert!(conn.connected(sw[0], sw[2]));
        assert!(conn.is_fully_connected());
    }

    #[test]
    fn repair_restores_usability_and_components() {
        let (topo, sw) = ring();
        let mut faults = FaultSet::new(&topo);
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            faults.fail_link(topo.find_link(sw[a], sw[b]).unwrap());
        }
        assert_eq!(topo.connectivity_after(&faults).component_count(), 2);
        faults.repair_link(topo.find_link(sw[0], sw[1]).unwrap());
        let conn = topo.connectivity_after(&faults);
        assert!(conn.is_fully_connected(), "one repaired direction suffices");
        assert!(!faults.is_empty(), "other faults persist");
    }

    #[test]
    fn pair_failure_takes_both_directions_and_repairs_them() {
        let (topo, sw) = ring();
        let fwd = topo.find_link(sw[0], sw[1]).unwrap();
        let bwd = topo.find_link(sw[1], sw[0]).unwrap();
        let mut faults = FaultSet::new(&topo);
        faults.fail_link_pair(&topo, fwd);
        assert!(!faults.link_usable(&topo, fwd));
        assert!(
            !faults.link_usable(&topo, bwd),
            "the reverse twin fails too"
        );
        assert!(
            topo.connectivity_after(&faults).is_fully_connected(),
            "the ring survives one severed segment"
        );
        faults.repair_link_pair(&topo, bwd);
        assert!(
            faults.is_empty(),
            "repairing either direction heals the pair"
        );
    }

    #[test]
    fn disconnected_flows_names_exactly_the_stranded_traffic() {
        let (topo, sw) = ring();
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
        let across = comm.add_flow(cores[0], cores[2], 1.0); // 0 -> 2: severed
        let local = comm.add_flow(cores[1], cores[2], 1.0); // 1 -> 2: survives
        let same = comm.add_flow(cores[3], cores[3], 1.0); // same-switch
        let mut map = CoreMap::new(4);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, sw[i]).unwrap();
        }
        let mut faults = FaultSet::new(&topo);
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            faults.fail_link(topo.find_link(sw[a], sw[b]).unwrap());
        }
        let conn = topo.connectivity_after(&faults);
        let stranded = conn.disconnected_flows(&comm, &map);
        assert_eq!(stranded, vec![across]);
        let _ = (local, same);
    }
}

//! The communication graph `G(V, E)` (cores and flows) and the core-to-switch
//! attachment.

use crate::error::TopologyError;
use crate::ids::{CoreId, FlowId, SwitchId};

/// A core (IP block): processor, memory, accelerator, peripheral…
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// Human-readable name, e.g. `"arm0"` or `"sdram"`.
    pub name: String,
}

/// A communication flow between two cores (an edge of `G(V, E)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Core that produces the traffic.
    pub source: CoreId,
    /// Core that consumes the traffic.
    pub destination: CoreId,
    /// Average bandwidth demand in abstract MB/s units.
    pub bandwidth: f64,
}

/// The communication graph `G(V, E)` of Definition 2.
///
/// # Example
///
/// ```
/// use noc_topology::CommGraph;
///
/// let mut comm = CommGraph::new();
/// let cpu = comm.add_core("cpu");
/// let mem = comm.add_core("mem");
/// let f = comm.add_flow(cpu, mem, 400.0);
/// assert_eq!(comm.flow(f).unwrap().bandwidth, 400.0);
/// assert_eq!(comm.total_bandwidth(), 400.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommGraph {
    cores: Vec<Core>,
    flows: Vec<Flow>,
}

impl CommGraph {
    /// Creates an empty communication graph.
    pub fn new() -> Self {
        CommGraph::default()
    }

    /// Adds a core and returns its id.
    pub fn add_core(&mut self, name: impl Into<String>) -> CoreId {
        let id = CoreId::from_index(self.cores.len());
        self.cores.push(Core { name: name.into() });
        id
    }

    /// Adds a flow from `source` to `destination` with the given bandwidth
    /// demand and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either core does not exist.
    pub fn add_flow(&mut self, source: CoreId, destination: CoreId, bandwidth: f64) -> FlowId {
        assert!(
            source.index() < self.cores.len(),
            "source core out of bounds"
        );
        assert!(
            destination.index() < self.cores.len(),
            "destination core out of bounds"
        );
        let id = FlowId::from_index(self.flows.len());
        self.flows.push(Flow {
            source,
            destination,
            bandwidth,
        });
        id
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Returns the flow payload, if the id is valid.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(id.index())
    }

    /// Iterates over `(CoreId, &Core)`.
    pub fn cores(&self) -> impl Iterator<Item = (CoreId, &Core)> + '_ {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, c)| (CoreId::from_index(i), c))
    }

    /// Iterates over `(FlowId, &Flow)`.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &Flow)> + '_ {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| (FlowId::from_index(i), f))
    }

    /// Sum of the bandwidth demand of every flow.
    pub fn total_bandwidth(&self) -> f64 {
        self.flows.iter().map(|f| f.bandwidth).sum()
    }
}

/// Attachment of cores to switches: each core connects to exactly one switch
/// through a local (core ↔ switch) port.
///
/// The paper's topology synthesis decides this mapping; the deadlock analysis
/// only needs it to translate a flow (core → core) into a switch-level path
/// (switch → switch).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreMap {
    attachment: Vec<Option<SwitchId>>,
}

impl CoreMap {
    /// Creates an empty mapping for `core_count` cores (all unmapped).
    pub fn new(core_count: usize) -> Self {
        CoreMap {
            attachment: vec![None; core_count],
        }
    }

    /// Maps `core` onto `switch`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownCore`] if the core index is out of
    /// range for this mapping.
    pub fn assign(&mut self, core: CoreId, switch: SwitchId) -> Result<(), TopologyError> {
        let slot = self
            .attachment
            .get_mut(core.index())
            .ok_or(TopologyError::UnknownCore(core))?;
        *slot = Some(switch);
        Ok(())
    }

    /// Returns the switch `core` is attached to, if mapped.
    pub fn switch_of(&self, core: CoreId) -> Option<SwitchId> {
        self.attachment.get(core.index()).copied().flatten()
    }

    /// Returns the switch `core` is attached to, or an error naming the core.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnmappedCore`] when the core has no attachment.
    pub fn require(&self, core: CoreId) -> Result<SwitchId, TopologyError> {
        self.switch_of(core)
            .ok_or(TopologyError::UnmappedCore(core))
    }

    /// Number of cores this mapping covers (mapped or not).
    pub fn core_count(&self) -> usize {
        self.attachment.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (CommGraph, Vec<CoreId>) {
        let mut g = CommGraph::new();
        let cores: Vec<_> = ["cpu", "dsp", "mem"]
            .iter()
            .map(|n| g.add_core(*n))
            .collect();
        g.add_flow(cores[0], cores[2], 100.0);
        g.add_flow(cores[1], cores[2], 50.0);
        g.add_flow(cores[2], cores[0], 25.0);
        (g, cores)
    }

    #[test]
    fn counts_and_lookup() {
        let (g, cores) = sample();
        assert_eq!(g.core_count(), 3);
        assert_eq!(g.flow_count(), 3);
        let (id, core) = g.cores().nth(1).unwrap();
        assert_eq!((id, core.name.as_str()), (cores[1], "dsp"));
        assert_eq!(g.total_bandwidth(), 175.0);
    }

    #[test]
    fn core_map_assignment_and_queries() {
        let (g, cores) = sample();
        let mut map = CoreMap::new(g.core_count());
        assert_eq!(map.switch_of(cores[0]), None);
        let sw0 = SwitchId::from_index(0);
        let sw1 = SwitchId::from_index(1);
        map.assign(cores[0], sw0).unwrap();
        map.assign(cores[1], sw0).unwrap();
        map.assign(cores[2], sw1).unwrap();
        assert_eq!(map.switch_of(cores[1]), Some(sw0));
        assert_eq!(map.require(cores[2]).unwrap(), sw1);
        assert_eq!(map.core_count(), 3);
    }

    #[test]
    fn core_map_errors() {
        let mut map = CoreMap::new(1);
        let bad = CoreId::from_index(5);
        assert_eq!(
            map.assign(bad, SwitchId::from_index(0)),
            Err(TopologyError::UnknownCore(bad))
        );
        assert_eq!(
            map.require(CoreId::from_index(0)),
            Err(TopologyError::UnmappedCore(CoreId::from_index(0)))
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flow_with_unknown_core_panics() {
        let mut g = CommGraph::new();
        let a = g.add_core("a");
        g.add_flow(a, CoreId::from_index(9), 1.0);
    }
}

//! Packets.

use noc_topology::FlowId;

/// Identifier of a packet within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub usize);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A packet: `length` flits following the static route of its flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Identifier.
    pub id: PacketId,
    /// The flow whose route the packet follows.
    pub flow: FlowId,
    /// Number of flits (≥ 1).
    pub length: usize,
    /// Cycle at which the packet was created (entered the source queue).
    pub created_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_id_display() {
        assert_eq!(PacketId(7).to_string(), "P7");
    }
}

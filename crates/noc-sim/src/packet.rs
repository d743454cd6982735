//! Packets and flits.

use noc_topology::FlowId;

/// Identifier of a packet within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub usize);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Kind of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: allocates VCs along the route.
    Head,
    /// Payload flit.
    Body,
    /// Last flit: releases the VCs it passes.
    Tail,
    /// Single-flit packet: acts as head and tail at once.
    HeadTail,
}

/// One flit of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Kind (head / body / tail).
    pub kind: FlitKind,
    /// Sequence number of the flit within the packet (head = 0).
    pub sequence: usize,
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

impl Packet {
    /// Builds the flit sequence of this packet.
    pub(crate) fn flits(&self) -> Vec<Flit> {
        if self.length == 1 {
            return vec![Flit {
                packet: self.id,
                kind: FlitKind::HeadTail,
                sequence: 0,
            }];
        }
        (0..self.length)
            .map(|sequence| Flit {
                packet: self.id,
                kind: if sequence == 0 {
                    FlitKind::Head
                } else if sequence == self.length - 1 {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                },
                sequence,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_sequence_of_a_multi_flit_packet() {
        let p = Packet {
            id: PacketId(3),
            flow: FlowId::from_index(0),
            length: 4,
            created_at: 10,
        };
        let flits = p.flits();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.sequence == i));
        assert!(flits.iter().all(|f| f.packet == PacketId(3)));
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let p = Packet {
            id: PacketId(0),
            flow: FlowId::from_index(1),
            length: 1,
            created_at: 0,
        };
        let flits = p.flits();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    fn packet_id_display() {
        assert_eq!(PacketId(7).to_string(), "P7");
    }
}

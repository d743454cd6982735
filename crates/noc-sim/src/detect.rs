//! Exact runtime deadlock detection over a flit wait-for graph.
//!
//! An idle-timeout heuristic declares deadlock after *N*
//! cycles without progress — a guess that is both slow (it must wait out
//! the threshold) and blind to partial deadlocks (a stuck ring keeps the
//! counter at zero as long as unrelated traffic still moves).  This module
//! decides the question exactly from a snapshot of the network state:
//!
//! * every **occupied channel** is a node; its head-of-line flit either can
//!   move right now, or *waits* on a set of targets — the channels whose
//!   drain would free a buffer slot, and the packets whose tail must pass
//!   to release a wormhole ownership;
//! * every **packet** is a node; it is live when any channel holding one of
//!   its flits is live, or when it can push its next flit into the network;
//! * liveness propagates backwards from the nodes that can move *now*
//!   (OR-semantics: one live candidate is enough, matching adaptive
//!   policies whose head flits re-evaluate every candidate VC each cycle).
//!
//! Packets with flits in the network that the fixed point never reaches can
//! **never move again** — no sequence of flit movements unblocks them — so
//! reporting them is exact, not heuristic: a snapshot containing a knot is
//! recognised immediately (the engine runs the check periodically and on
//! every idle cycle, so a knot is established within one detection period
//! of forming and never later than any timeout).  Ejection always counts
//! as movement (destinations sink flits unconditionally), and a credit
//! currently travelling back upstream counts as a move-enabler (it arrives
//! without anyone else making progress).

use crate::packet::PacketId;
use std::collections::{HashMap, VecDeque};

/// One thing a blocked flit is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitTarget {
    /// A buffer slot of the given channel (its head-of-line flit must
    /// advance before one frees).
    Channel(usize),
    /// The tail of the given packet must pass to release a wormhole
    /// ownership.
    Packet(PacketId),
}

/// The head-of-line flit of an occupied channel: either free to move this
/// cycle, or blocked on a set of wait targets (one per candidate VC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelWait {
    /// The packet the head-of-line flit belongs to.
    pub packet: PacketId,
    /// `true` when the flit can eject or advance right now (or a credit is
    /// already on its way back for one of its candidates).
    pub can_move: bool,
    /// What each blocked candidate waits for (empty iff `can_move`).
    pub waits: Vec<WaitTarget>,
}

/// A packet trying to push its next flit into the network from the source
/// queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionWait {
    /// The injecting packet.
    pub packet: PacketId,
    /// `true` when the flit can enter its first channel right now.
    pub can_move: bool,
    /// What each blocked candidate waits for (empty iff `can_move`).
    pub waits: Vec<WaitTarget>,
    /// `true` when the packet already owns channels (its head claimed a
    /// path).  Such a packet can pin a deadlock knot even with *zero* flits
    /// buffered in the network — a worm whose leading flits all ejected at
    /// the destination while its tail is still at the source keeps every
    /// claimed channel's ownership — so it belongs to the deadlocked set
    /// when it can never move again.
    pub holds_channels: bool,
}

/// A start-of-cycle snapshot of everything the detector needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitForSnapshot {
    /// Per channel (dense index): the head-of-line wait record, or `None`
    /// for an empty buffer.
    pub channels: Vec<Option<ChannelWait>>,
    /// One record per packet currently at the front of its flow's injection
    /// queue with flits left to inject.
    pub injections: Vec<InjectionWait>,
    /// For every packet with flits in the network: the channels holding at
    /// least one of its flits (any order; the engine emits ascending ids).
    pub flit_locations: Vec<(PacketId, Vec<usize>)>,
}

/// Node numbering for the liveness propagation: channels first, packets
/// after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Channel(usize),
    Packet(usize),
}

impl WaitForSnapshot {
    /// The packets that can never move again — the deadlocked set.  Empty
    /// iff the snapshot contains no deadlock.
    ///
    /// Runs one backwards reachability pass from the nodes that can move
    /// now, in `O(channels + packets + wait edges)`.
    pub fn deadlocked_packets(&self) -> Vec<PacketId> {
        let channel_count = self.channels.len();
        // Packet nodes: every packet with flits in the network, plus every
        // injecting packet (with or without network presence — an injector
        // can own channels while all its in-flight flits have already
        // ejected).  `in_dead_scope` marks the packets that hold network
        // resources and therefore belong to the reported deadlocked set.
        let mut packet_index: HashMap<PacketId, usize> = HashMap::new();
        let mut packets: Vec<(PacketId, bool)> = Vec::new();
        for (id, _) in &self.flit_locations {
            packet_index.entry(*id).or_insert_with(|| {
                packets.push((*id, true));
                packets.len() - 1
            });
        }
        for injection in &self.injections {
            if let Some(&index) = packet_index.get(&injection.packet) {
                packets[index].1 |= injection.holds_channels;
            } else {
                packet_index.insert(injection.packet, packets.len());
                packets.push((injection.packet, injection.holds_channels));
            }
        }
        let packet_count = packets.len();

        // Reverse wait edges: rev[target] = the nodes liberated when
        // `target` becomes live.
        let mut rev: Vec<Vec<Node>> = vec![Vec::new(); channel_count + packet_count];
        let target_slot = |target: &WaitTarget| match *target {
            WaitTarget::Channel(c) => Some(c),
            // An owner that is neither buffered nor injecting has released
            // everything already; ignore defensively.
            WaitTarget::Packet(p) => packet_index.get(&p).map(|&i| channel_count + i),
        };

        let mut live = vec![false; channel_count + packet_count];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let seed = |slot: usize, live: &mut Vec<bool>, queue: &mut VecDeque<usize>| {
            if !live[slot] {
                live[slot] = true;
                queue.push_back(slot);
            }
        };

        for (channel, wait) in self.channels.iter().enumerate() {
            let Some(wait) = wait else { continue };
            if wait.can_move {
                seed(channel, &mut live, &mut queue);
            } else {
                for target in &wait.waits {
                    if let Some(slot) = target_slot(target) {
                        rev[slot].push(Node::Channel(channel));
                    }
                }
            }
        }
        for injection in &self.injections {
            let index = packet_index[&injection.packet];
            if injection.can_move {
                seed(channel_count + index, &mut live, &mut queue);
            } else {
                for target in &injection.waits {
                    if let Some(slot) = target_slot(target) {
                        rev[slot].push(Node::Packet(index));
                    }
                }
            }
        }
        // A packet is liberated whenever any channel holding its flits is.
        for (id, locations) in &self.flit_locations {
            let index = packet_index[id];
            for &channel in locations {
                rev[channel].push(Node::Packet(index));
            }
        }

        while let Some(slot) = queue.pop_front() {
            // Split borrow: take the edge list before mutating `live`.
            let dependents = std::mem::take(&mut rev[slot]);
            for node in dependents {
                let dependent = match node {
                    Node::Channel(c) => c,
                    Node::Packet(p) => channel_count + p,
                };
                if !live[dependent] {
                    live[dependent] = true;
                    queue.push_back(dependent);
                }
            }
        }

        let mut dead: Vec<PacketId> = packets
            .iter()
            .enumerate()
            .filter(|(index, (_, in_dead_scope))| *in_dead_scope && !live[channel_count + index])
            .map(|(_, (id, _))| *id)
            .collect();
        dead.sort();
        dead
    }

    /// The dense channel indices holding flits of the deadlocked set — the
    /// runtime counterpart of a static trap witness's claimed footprint,
    /// used to cross-check certified witnesses against what the detector
    /// actually saw.  Sorted and deduplicated; empty iff
    /// [`deadlocked_packets`](Self::deadlocked_packets) is empty.
    pub fn deadlocked_channels(&self) -> Vec<usize> {
        let dead = self.deadlocked_packets();
        let mut channels: Vec<usize> = self
            .flit_locations
            .iter()
            .filter(|(id, _)| dead.binary_search(id).is_ok())
            .flat_map(|(_, locations)| locations.iter().copied())
            .collect();
        channels.sort_unstable();
        channels.dedup();
        channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: usize) -> PacketId {
        PacketId(id)
    }

    /// Two packets each holding one channel and waiting for the other's
    /// channel slot: the textbook wormhole cycle.
    #[test]
    fn two_channel_cycle_is_deadlocked() {
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(1)],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(0)],
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1])],
        };
        assert_eq!(snapshot.deadlocked_packets(), vec![p(0), p(1)]);
        assert_eq!(snapshot.deadlocked_channels(), vec![0, 1]);
    }

    #[test]
    fn deadlocked_channels_skip_live_traffic() {
        // Dead cycle on channels 0/1; packet 2 lives on channel 2.
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(1)],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(0)],
                }),
                Some(ChannelWait {
                    packet: p(2),
                    can_move: true,
                    waits: Vec::new(),
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1]), (p(2), vec![2])],
        };
        assert_eq!(snapshot.deadlocked_channels(), vec![0, 1]);
    }

    #[test]
    fn a_live_head_unblocks_the_chain() {
        // 0 waits on 1, 1 waits on 2, 2 can move: everyone lives.
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(1)],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(2)],
                }),
                Some(ChannelWait {
                    packet: p(2),
                    can_move: true,
                    waits: Vec::new(),
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1]), (p(2), vec![2])],
        };
        assert!(snapshot.deadlocked_packets().is_empty());
    }

    #[test]
    fn or_semantics_one_live_candidate_suffices() {
        // Channel 0's head has two candidates: one inside a dead cycle with
        // channel 1, one waiting on the live channel 2.
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(1), WaitTarget::Channel(2)],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(0)],
                }),
                Some(ChannelWait {
                    packet: p(2),
                    can_move: true,
                    waits: Vec::new(),
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1]), (p(2), vec![2])],
        };
        // Packet 0 escapes through its second candidate; packet 1 is then
        // liberated because its wait target (channel 0) drains.
        assert!(snapshot.deadlocked_packets().is_empty());
    }

    #[test]
    fn ownership_waits_follow_the_owning_packet() {
        // Packet 0 waits for packet 1's ownership; packet 1 is live.
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Packet(p(1))],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: true,
                    waits: Vec::new(),
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1])],
        };
        assert!(snapshot.deadlocked_packets().is_empty());

        // Same shape, but packet 1 is itself stuck on packet 0: dead knot.
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Packet(p(1))],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Packet(p(0))],
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1])],
        };
        assert_eq!(snapshot.deadlocked_packets(), vec![p(0), p(1)]);
    }

    #[test]
    fn partial_deadlock_is_found_while_other_traffic_moves() {
        let snapshot = WaitForSnapshot {
            channels: vec![
                // A dead 2-cycle...
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(1)],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Channel(0)],
                }),
                // ...next to perfectly healthy traffic.
                Some(ChannelWait {
                    packet: p(2),
                    can_move: true,
                    waits: Vec::new(),
                }),
            ],
            injections: Vec::new(),
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1]), (p(2), vec![2])],
        };
        assert_eq!(snapshot.deadlocked_packets(), vec![p(0), p(1)]);
    }

    #[test]
    fn blocked_injections_of_network_packets_count() {
        // Packet 0 is mid-injection (one flit in channel 0, the rest at the
        // source); its next flit waits on channel 0's slot, whose head (its
        // own earlier flit) waits on the dead packet 1.
        let snapshot = WaitForSnapshot {
            channels: vec![
                Some(ChannelWait {
                    packet: p(0),
                    can_move: false,
                    waits: vec![WaitTarget::Packet(p(1))],
                }),
                Some(ChannelWait {
                    packet: p(1),
                    can_move: false,
                    waits: vec![WaitTarget::Packet(p(1))],
                }),
            ],
            injections: vec![InjectionWait {
                packet: p(0),
                can_move: false,
                waits: vec![WaitTarget::Channel(0)],
                holds_channels: true,
            }],
            flit_locations: vec![(p(0), vec![0]), (p(1), vec![1])],
        };
        assert_eq!(snapshot.deadlocked_packets(), vec![p(0), p(1)]);
    }

    #[test]
    fn queue_only_packets_are_not_deadlock_members() {
        // Packet 5 cannot inject (network ahead is dead) but holds nothing:
        // it is not reported; the network packet is.
        let snapshot = WaitForSnapshot {
            channels: vec![Some(ChannelWait {
                packet: p(1),
                can_move: false,
                waits: vec![WaitTarget::Packet(p(1))],
            })],
            injections: vec![InjectionWait {
                packet: p(5),
                can_move: false,
                waits: vec![WaitTarget::Channel(0)],
                holds_channels: false,
            }],
            flit_locations: vec![(p(1), vec![0])],
        };
        assert_eq!(snapshot.deadlocked_packets(), vec![p(1)]);
    }

    #[test]
    fn live_injection_keeps_a_partially_injected_packet_alive() {
        // Packet 0's network flit is stuck behind a full buffer, but the
        // packet can still inject into a second candidate — it is live, and
        // its liveness liberates channel 0 eventually.
        let snapshot = WaitForSnapshot {
            channels: vec![Some(ChannelWait {
                packet: p(0),
                can_move: false,
                waits: vec![WaitTarget::Packet(p(0))],
            })],
            injections: vec![InjectionWait {
                packet: p(0),
                can_move: true,
                waits: Vec::new(),
                holds_channels: true,
            }],
            flit_locations: vec![(p(0), vec![0])],
        };
        assert!(snapshot.deadlocked_packets().is_empty());
    }

    #[test]
    fn an_owner_with_no_buffered_flits_is_a_node_not_a_dropped_edge() {
        // Packet 0's worm has fully ejected its leading flits: nothing of
        // it is buffered, but it still owns its claimed channels and its
        // tail is at the source.  Packet 1 waits on that ownership.
        //
        // Live case: P0 can inject — both packets live (the regression the
        // ejected-head false positive came from).
        let live_case = WaitForSnapshot {
            channels: vec![Some(ChannelWait {
                packet: p(1),
                can_move: false,
                waits: vec![WaitTarget::Packet(p(0))],
            })],
            injections: vec![InjectionWait {
                packet: p(0),
                can_move: true,
                waits: Vec::new(),
                holds_channels: true,
            }],
            flit_locations: vec![(p(1), vec![0])],
        };
        assert!(live_case.deadlocked_packets().is_empty());

        // Dead case: P0's injection waits on the very channel P1 is stuck
        // in — a knot pinned by a packet with zero buffered flits.  P0 is
        // reported because it holds channels.
        let dead_case = WaitForSnapshot {
            channels: vec![Some(ChannelWait {
                packet: p(1),
                can_move: false,
                waits: vec![WaitTarget::Packet(p(0))],
            })],
            injections: vec![InjectionWait {
                packet: p(0),
                can_move: false,
                waits: vec![WaitTarget::Channel(0)],
                holds_channels: true,
            }],
            flit_locations: vec![(p(1), vec![0])],
        };
        assert_eq!(dead_case.deadlocked_packets(), vec![p(0), p(1)]);
    }

    #[test]
    fn empty_snapshot_has_no_deadlock() {
        assert!(WaitForSnapshot::default().deadlocked_packets().is_empty());
    }
}

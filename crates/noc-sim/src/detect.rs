//! Exact runtime deadlock detection over a flit wait-for graph.
//!
//! An idle-timeout heuristic declares deadlock after *N*
//! cycles without progress — a guess that is both slow (it must wait out
//! the threshold) and blind to partial deadlocks (a stuck ring keeps the
//! counter at zero as long as unrelated traffic still moves).  This module
//! decides the question exactly from the network state:
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
//! reporting them is exact, not heuristic: a state containing a knot is
//! recognised immediately (the engine runs the check periodically and on
//! every idle cycle, so a knot is established within one detection period
//! of forming and never later than any timeout).  Ejection always counts
//! as movement (destinations sink flits unconditionally), and a credit
//! currently travelling back upstream counts as a move-enabler (it arrives
//! without anyone else making progress).
//!
//! # The graph and its cost
//!
//! [`WaitGraph`] is built once per simulator and refilled on every check.
//! Its nodes are numbered densely: the simulator's channels first, then
//! the slots of its packet slab, so no packet id is ever hashed or looked
//! up.  Every per-node mark — "holds network resources", "is live", "has
//! an edge list" — is an epoch stamp: starting a new state bumps the epoch
//! instead of clearing anything, and each node's reverse-edge vector keeps
//! its capacity across checks.  A check therefore costs `O(occupied
//! channels + buffered flits + queue fronts + wait edges)`, independent of
//! the slab size, and allocates nothing once the vectors have grown; only
//! a non-empty result allocates.

use crate::packet::PacketId;

/// One thing a blocked movement is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitTarget {
    /// A buffer slot of the given dense channel (its head-of-line flit must
    /// advance before one frees).
    Channel(usize),
    /// The tail of the packet in the given slab slot must pass to release a
    /// wormhole ownership.
    Packet(usize),
}

/// A reusable wait-for graph over dense channels and packet slots.
///
/// Fill one state with `begin`, then any number of `channel`, `flit` and
/// `injection` calls in any order, and read the verdict with `dead_slots`.
/// Channel `c` is node `c`, and the packet in slab slot `s` is node
/// `channels + s`.
#[derive(Debug, Clone, Default)]
pub struct WaitGraph {
    channels: usize,
    /// Stamp of the current state; a mark is set iff it equals `epoch`.
    epoch: u32,
    /// Per node: marked when the packet holds network resources, so it is
    /// reported if it can never move again.
    holds: Vec<u32>,
    /// Per node: marked once the node is known to be able to move.
    live: Vec<u32>,
    /// Per node: marked when `liberates` holds this state's edges.
    edges: Vec<u32>,
    /// Per node: the nodes liberated when it becomes live.
    liberates: Vec<Vec<usize>>,
    /// The packets marked in `holds`, as `(id, slot)`.
    holders: Vec<(PacketId, usize)>,
    /// Live nodes whose dependents are not yet visited.
    stack: Vec<usize>,
}

impl WaitGraph {
    /// An empty graph.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Starts a new state over `channels` channels and packet slots
    /// `0..slots`, forgetting the previous one.
    pub(crate) fn begin(&mut self, channels: usize, slots: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            for marks in [&mut self.holds, &mut self.live, &mut self.edges] {
                marks.fill(0);
            }
            self.epoch = 1;
        }
        self.channels = channels;
        let nodes = channels + slots;
        if self.live.len() < nodes {
            for marks in [&mut self.holds, &mut self.live, &mut self.edges] {
                marks.resize(nodes, 0);
            }
            self.liberates.resize_with(nodes, Vec::new);
        }
        self.holders.clear();
        self.stack.clear();
    }

    /// Declares the head-of-line flit of occupied `channel`: it can move
    /// now, or it waits on any one of `waits` (ignored when `can_move`).
    pub(crate) fn channel(&mut self, channel: usize, can_move: bool, waits: &[WaitTarget]) {
        self.movement(channel, can_move, waits);
    }

    /// Declares that `channel` buffers at least one flit of the packet in
    /// `slot`: the packet is reported unless it can move, and it is
    /// liberated whenever the channel is.
    pub(crate) fn flit(&mut self, channel: usize, slot: usize, id: PacketId) {
        let node = self.hold(slot, id);
        self.liberates_on(channel, node);
    }

    /// Declares the packet in `slot` as pushing its next flit into the
    /// network from the front of its source queue: it can move now, or it
    /// waits on any one of `waits` (ignored when `can_move`).
    ///
    /// `holds_channels` marks a packet that already owns channels.  Such a
    /// packet can pin a knot with *zero* flits buffered — a worm whose
    /// leading flits all ejected while its tail is still at the source
    /// keeps every claimed channel — so it is reported when it can never
    /// move again.  An injector holding nothing is never reported.
    pub(crate) fn injection(
        &mut self,
        slot: usize,
        id: PacketId,
        holds_channels: bool,
        can_move: bool,
        waits: &[WaitTarget],
    ) {
        let node = if holds_channels {
            self.hold(slot, id)
        } else {
            self.channels + slot
        };
        self.movement(node, can_move, waits);
    }

    /// The slots of the packets that hold network resources and can never
    /// move again — the deadlocked set — in packet-id order.  Empty iff
    /// the state contains no deadlock.
    ///
    /// One backwards reachability pass from the nodes that can move now.
    /// A packet that is neither buffered nor injecting is never seeded and
    /// never liberated, so a wait on it (its owner released everything
    /// already) never fires.
    pub(crate) fn dead_slots(&mut self) -> Vec<usize> {
        let epoch = self.epoch;
        while let Some(node) = self.stack.pop() {
            if self.edges[node] != epoch {
                continue;
            }
            for &dependent in &self.liberates[node] {
                if self.live[dependent] != epoch {
                    self.live[dependent] = epoch;
                    self.stack.push(dependent);
                }
            }
        }
        let mut dead: Vec<(PacketId, usize)> = self
            .holders
            .iter()
            .filter(|&&(_, slot)| self.live[self.channels + slot] != epoch)
            .copied()
            .collect();
        dead.sort_unstable();
        dead.into_iter().map(|(_, slot)| slot).collect()
    }

    /// Marks the packet in `slot` as holding network resources; returns its
    /// node.
    fn hold(&mut self, slot: usize, id: PacketId) -> usize {
        let node = self.channels + slot;
        if self.holds[node] != self.epoch {
            self.holds[node] = self.epoch;
            self.holders.push((id, slot));
        }
        node
    }

    /// Seeds `node` when it can move, else links it behind its targets.
    fn movement(&mut self, node: usize, can_move: bool, waits: &[WaitTarget]) {
        if can_move {
            if self.live[node] != self.epoch {
                self.live[node] = self.epoch;
                self.stack.push(node);
            }
            return;
        }
        for &target in waits {
            let target = match target {
                WaitTarget::Channel(channel) => channel,
                WaitTarget::Packet(slot) => self.channels + slot,
            };
            self.liberates_on(target, node);
        }
    }

    /// Records that `dependent` becomes live once `target` is.
    fn liberates_on(&mut self, target: usize, dependent: usize) {
        if self.edges[target] != self.epoch {
            self.edges[target] = self.epoch;
            self.liberates[target].clear();
        }
        self.liberates[target].push(dependent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_rng::SmallRng;
    use std::collections::{HashMap, VecDeque};
    use WaitTarget::{Channel, Packet};

    /// A detector input in test form.  Slot `s` carries id `ids[s]`.
    #[derive(Debug, Clone, Default)]
    struct State {
        ids: Vec<PacketId>,
        /// Per channel: `(can_move, waits)` of its head-of-line flit, or
        /// `None` for an empty buffer.
        heads: Vec<Option<(bool, Vec<WaitTarget>)>>,
        /// `(channel, slot)`: the channel buffers a flit of the slot.
        flits: Vec<(usize, usize)>,
        /// `(slot, can_move, waits, holds_channels)` per queue front.
        injections: Vec<(usize, bool, Vec<WaitTarget>, bool)>,
    }

    impl State {
        /// `slots` packets whose ids equal their slots.
        fn new(slots: usize) -> Self {
            State {
                ids: (0..slots).map(PacketId).collect(),
                ..State::default()
            }
        }

        /// The next channel holds a flit of `slot` at its head, which can
        /// move iff `waits` is empty.
        fn head(mut self, slot: usize, waits: &[WaitTarget]) -> Self {
            self.flits.push((self.heads.len(), slot));
            self.heads.push(Some((waits.is_empty(), waits.to_vec())));
            self
        }

        fn injecting(mut self, slot: usize, waits: &[WaitTarget], holds: bool) -> Self {
            self.injections
                .push((slot, waits.is_empty(), waits.to_vec(), holds));
            self
        }

        fn dead(&self, graph: &mut WaitGraph) -> Vec<usize> {
            graph.begin(self.heads.len(), self.ids.len());
            for (channel, head) in self.heads.iter().enumerate() {
                if let Some((can_move, waits)) = head {
                    graph.channel(channel, *can_move, waits);
                }
            }
            for &(channel, slot) in &self.flits {
                graph.flit(channel, slot, self.ids[slot]);
            }
            for (slot, can_move, waits, holds) in &self.injections {
                graph.injection(*slot, self.ids[*slot], *holds, *can_move, waits);
            }
            graph.dead_slots()
        }

        /// The verdict of a fresh graph and of one reused three times.
        fn verdict(&self) -> Vec<usize> {
            let fresh = self.dead(&mut WaitGraph::new());
            let mut reused = WaitGraph::new();
            for _ in 0..3 {
                assert_eq!(self.dead(&mut reused), fresh);
            }
            fresh
        }
    }

    /// Two packets each holding one channel and waiting for the other's
    /// channel slot: the textbook wormhole cycle.
    #[test]
    fn two_channel_cycle_is_deadlocked() {
        let state = State::new(2).head(0, &[Channel(1)]).head(1, &[Channel(0)]);
        assert_eq!(state.verdict(), vec![0, 1]);
    }

    #[test]
    fn deadlocked_channels_skip_live_traffic() {
        // Dead cycle on channels 0/1; packet 2 lives on channel 2.
        let state = State::new(3)
            .head(0, &[Channel(1)])
            .head(1, &[Channel(0)])
            .head(2, &[]);
        assert_eq!(state.verdict(), vec![0, 1]);
    }

    #[test]
    fn a_live_head_unblocks_the_chain() {
        // 0 waits on 1, 1 waits on 2, 2 can move: everyone lives.
        let state = State::new(3)
            .head(0, &[Channel(1)])
            .head(1, &[Channel(2)])
            .head(2, &[]);
        assert!(state.verdict().is_empty());
    }

    #[test]
    fn or_semantics_one_live_candidate_suffices() {
        // Channel 0's head has two candidates: one inside a dead cycle with
        // channel 1, one waiting on the live channel 2.  Packet 0 escapes
        // through its second candidate; packet 1 is then liberated because
        // its wait target (channel 0) drains.
        let state = State::new(3)
            .head(0, &[Channel(1), Channel(2)])
            .head(1, &[Channel(0)])
            .head(2, &[]);
        assert!(state.verdict().is_empty());
    }

    #[test]
    fn ownership_waits_follow_the_owning_packet() {
        // Packet 0 waits for packet 1's ownership; packet 1 is live.
        let live = State::new(2).head(0, &[Packet(1)]).head(1, &[]);
        assert!(live.verdict().is_empty());

        // Same shape, but packet 1 is itself stuck on packet 0: dead knot.
        let dead = State::new(2).head(0, &[Packet(1)]).head(1, &[Packet(0)]);
        assert_eq!(dead.verdict(), vec![0, 1]);
    }

    #[test]
    fn partial_deadlock_is_found_while_other_traffic_moves() {
        // A dead 2-cycle next to perfectly healthy traffic.
        let state = State::new(3)
            .head(0, &[Channel(1)])
            .head(1, &[Channel(0)])
            .head(2, &[]);
        assert_eq!(state.verdict(), vec![0, 1]);
    }

    #[test]
    fn blocked_injections_of_network_packets_count() {
        // Packet 0 is mid-injection (one flit in channel 0, the rest at the
        // source); its next flit waits on channel 0's slot, whose head (its
        // own earlier flit) waits on the dead packet 1.
        let state = State::new(2)
            .head(0, &[Packet(1)])
            .head(1, &[Packet(1)])
            .injecting(0, &[Channel(0)], true);
        assert_eq!(state.verdict(), vec![0, 1]);
    }

    #[test]
    fn queue_only_packets_are_not_deadlock_members() {
        // Slot 5 cannot inject (network ahead is dead) but holds nothing:
        // it is not reported; the network packet is.
        let state = State::new(6)
            .head(1, &[Packet(1)])
            .injecting(5, &[Channel(0)], false);
        assert_eq!(state.verdict(), vec![1]);
    }

    #[test]
    fn live_injection_keeps_a_partially_injected_packet_alive() {
        // Packet 0's network flit is stuck behind a full buffer, but the
        // packet can still inject into a second candidate — it is live, and
        // its liveness liberates channel 0 eventually.
        let state = State::new(1).head(0, &[Packet(0)]).injecting(0, &[], true);
        assert!(state.verdict().is_empty());
    }

    #[test]
    fn an_owner_with_no_buffered_flits_is_a_node_not_a_dropped_edge() {
        // Packet 0's worm has fully ejected its leading flits: nothing of
        // it is buffered, but it still owns its claimed channels and its
        // tail is at the source.  Packet 1 waits on that ownership.
        //
        // Live case: P0 can inject — both packets live (the regression the
        // ejected-head false positive came from).
        let live = State::new(2).head(1, &[Packet(0)]).injecting(0, &[], true);
        assert!(live.verdict().is_empty());

        // Dead case: P0's injection waits on the very channel P1 is stuck
        // in — a knot pinned by a packet with zero buffered flits.  P0 is
        // reported because it holds channels.
        let dead = State::new(2)
            .head(1, &[Packet(0)])
            .injecting(0, &[Channel(0)], true);
        assert_eq!(dead.verdict(), vec![0, 1]);
    }

    #[test]
    fn empty_snapshot_has_no_deadlock() {
        assert!(State::new(0).verdict().is_empty());
    }

    #[test]
    fn dead_slots_come_in_packet_id_order() {
        // Slots 0..3 carry ids 7, 2, 5: the knot is reported by id.
        let mut state = State::new(3)
            .head(0, &[Channel(1)])
            .head(1, &[Channel(2)])
            .head(2, &[Channel(0)]);
        state.ids = vec![PacketId(7), PacketId(2), PacketId(5)];
        assert_eq!(state.verdict(), vec![1, 2, 0]);
    }

    /// A wait target of the detector this graph replaced: packets by id.
    #[derive(Debug, Clone, Copy)]
    enum IdTarget {
        Channel(usize),
        Packet(PacketId),
    }

    /// A movement as the replaced detector saw it.
    struct IdWait {
        can_move: bool,
        waits: Vec<IdTarget>,
    }

    /// A queue front as the replaced detector saw it.
    struct IdInjection {
        packet: PacketId,
        wait: IdWait,
        holds_channels: bool,
    }

    /// The detector this graph replaced, kept as an oracle: it keys packet
    /// nodes by id in a map and builds fresh edge lists per call.
    fn reference_dead_ids(
        heads: &[Option<IdWait>],
        injections: &[IdInjection],
        flit_locations: &[(PacketId, Vec<usize>)],
    ) -> Vec<PacketId> {
        let channel_count = heads.len();
        let mut packet_index: HashMap<PacketId, usize> = HashMap::new();
        let mut packets: Vec<(PacketId, bool)> = Vec::new();
        for (id, _) in flit_locations {
            packet_index.entry(*id).or_insert_with(|| {
                packets.push((*id, true));
                packets.len() - 1
            });
        }
        for injection in injections {
            if let Some(&index) = packet_index.get(&injection.packet) {
                packets[index].1 |= injection.holds_channels;
            } else {
                packet_index.insert(injection.packet, packets.len());
                packets.push((injection.packet, injection.holds_channels));
            }
        }
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); channel_count + packets.len()];
        let target_node = |target: &IdTarget| match *target {
            IdTarget::Channel(channel) => Some(channel),
            IdTarget::Packet(id) => packet_index.get(&id).map(|&i| channel_count + i),
        };
        let mut live = vec![false; channel_count + packets.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut link = |node: usize, wait: &IdWait, live: &mut Vec<bool>| {
            if wait.can_move {
                if !live[node] {
                    live[node] = true;
                    queue.push_back(node);
                }
            } else {
                for target in wait.waits.iter().filter_map(target_node) {
                    rev[target].push(node);
                }
            }
        };
        for (channel, head) in heads.iter().enumerate() {
            if let Some(wait) = head {
                link(channel, wait, &mut live);
            }
        }
        for injection in injections {
            let node = channel_count + packet_index[&injection.packet];
            link(node, &injection.wait, &mut live);
        }
        for (id, locations) in flit_locations {
            let node = channel_count + packet_index[id];
            for &channel in locations {
                rev[channel].push(node);
            }
        }
        while let Some(node) = queue.pop_front() {
            for dependent in std::mem::take(&mut rev[node]) {
                if !live[dependent] {
                    live[dependent] = true;
                    queue.push_back(dependent);
                }
            }
        }
        let mut dead: Vec<PacketId> = packets
            .iter()
            .enumerate()
            .filter(|(index, (_, in_scope))| *in_scope && !live[channel_count + index])
            .map(|(_, (id, _))| *id)
            .collect();
        dead.sort();
        dead
    }

    /// The reference detector's verdict on a test state.
    fn reference(state: &State) -> Vec<PacketId> {
        let id_wait = |can_move: bool, waits: &[WaitTarget]| IdWait {
            can_move,
            waits: waits
                .iter()
                .map(|target| match *target {
                    Channel(channel) => IdTarget::Channel(channel),
                    Packet(slot) => IdTarget::Packet(state.ids[slot]),
                })
                .collect(),
        };
        let heads: Vec<Option<IdWait>> = state
            .heads
            .iter()
            .map(|head| {
                head.as_ref()
                    .map(|(can_move, waits)| id_wait(*can_move, waits))
            })
            .collect();
        let injections: Vec<IdInjection> = state
            .injections
            .iter()
            .map(|(slot, can_move, waits, holds)| IdInjection {
                packet: state.ids[*slot],
                wait: id_wait(*can_move, waits),
                holds_channels: *holds,
            })
            .collect();
        let mut locations: Vec<(PacketId, Vec<usize>)> = Vec::new();
        for &(channel, slot) in &state.flits {
            let id = state.ids[slot];
            match locations.iter_mut().find(|(known, _)| *known == id) {
                Some((_, channels)) => channels.push(channel),
                None => locations.push((id, vec![channel])),
            }
        }
        reference_dead_ids(&heads, &injections, &locations)
    }

    /// A random state over `channels` channels: heads that move or wait on
    /// one to three candidates (channels, other packets or their own
    /// packet), extra flits behind them, and queue fronts with and without
    /// held channels — some of them packets with nothing buffered.  Ids are
    /// sparse and shuffled against the slots.
    fn random_state(rng: &mut SmallRng, channels: usize) -> State {
        let slots = rng.gen_range(1..10);
        let mut ids: Vec<PacketId> = Vec::new();
        while ids.len() < slots {
            let id = PacketId(rng.gen_range(0..1_000));
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut state = State {
            ids,
            ..State::default()
        };
        let waits = |rng: &mut SmallRng| -> Vec<WaitTarget> {
            (0..rng.gen_range(1..4))
                .map(|_| {
                    if rng.gen_range(0..2) == 0 {
                        Channel(rng.gen_range(0..channels))
                    } else {
                        Packet(rng.gen_range(0..slots))
                    }
                })
                .collect()
        };
        for channel in 0..channels {
            if rng.gen_range(0..3) == 0 {
                state.heads.push(None);
                continue;
            }
            let can_move = rng.gen_range(0..4) == 0;
            let head_waits = if can_move { Vec::new() } else { waits(rng) };
            state.heads.push(Some((can_move, head_waits)));
            for _ in 0..rng.gen_range(1..4) {
                state.flits.push((channel, rng.gen_range(0..slots)));
            }
        }
        for slot in 0..slots {
            if rng.gen_range(0..3) == 0 {
                let can_move = rng.gen_range(0..4) == 0;
                let front_waits = if can_move { Vec::new() } else { waits(rng) };
                let holds = rng.gen_range(0..2) == 0;
                state.injections.push((slot, can_move, front_waits, holds));
            }
        }
        state
    }

    #[test]
    fn the_graph_agrees_with_the_reference_detector_on_random_states() {
        let mut rng = SmallRng::seed_from_u64(0xDEAD_10C5);
        let mut graph = WaitGraph::new();
        let (mut states, mut deadlocked) = (0usize, 0usize);
        // Groups of successive states on one graph: stamps, marks and edge
        // lists of the previous states must never leak into the next.
        for _ in 0..500 {
            let channels = rng.gen_range(1..12);
            for _ in 0..5 {
                let state = random_state(&mut rng, channels);
                let expected = reference(&state);
                let dead: Vec<PacketId> = state
                    .dead(&mut graph)
                    .into_iter()
                    .map(|slot| state.ids[slot])
                    .collect();
                assert_eq!(dead, expected, "state {states}: {state:?}");
                states += 1;
                deadlocked += usize::from(!dead.is_empty());
            }
        }
        assert_eq!(states, 2_500);
        // Non-vacuity: both verdicts are well represented.
        assert!(deadlocked > 250 && deadlocked < 2_250, "{deadlocked}");
    }
}

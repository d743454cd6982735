//! Which items the decide phase of a cycle visits.
//!
//! An *item* is something that may move a flit: the front flit of a
//! channel buffer, or the compiled head of a flow queue.  Most items are
//! blocked most of the time — a head waits for a channel another worm owns,
//! a follower for a credit — so [`VcSimulator::decide_moves`] walks only the
//! *ready* ones, and an item that provably cannot move is *parked* on the
//! channels it waits for until one of them changes:
//!
//! * a claim (a head flit, or a queue head, acquiring one of its candidate
//!   channels) parks when every candidate is owned by another packet or has
//!   no credit; it waits for the release of each owned candidate and for a
//!   credit on each of the others;
//! * a follower (a body or tail flit, or a queue head pushing into a
//!   channel its packet holds) parks when that channel has no credit;
//! * an item blocked only because another move already enters its channel
//!   this cycle stays ready — that conflict lasts one cycle — and an eject
//!   never parks.
//!
//! With instant credit returns, a follower whose channel's front moves this
//! cycle is not parked: this cycle's apply phase returns the credit.
//!
//! An owner release wakes the channel's release waiters — only the
//! earliest one in visit order when the channel is its first choice — and
//! a restored credit wakes its credit waiters.  A channel whose buffer
//! front changes, a flow whose head is recompiled, and every item after a
//! drain event or a fault epoch become ready again.  A wake may be
//! spurious (it costs one re-check); a missed wake would change the
//! simulation, so debug builds re-run the full scan of every channel and
//! every queue head each cycle and assert the same moves in the same order
//! and the same credit-stall count.

use super::{BufFlit, FlowQueues, HeadStep, Move, QueueHead, VcSimulator};
use crate::credit::CreditBook;
use std::collections::VecDeque;

/// A set of small indices, one bit each, grown on demand.
#[derive(Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn insert(&mut self, index: usize) {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (index % 64);
    }

    fn remove(&mut self, index: usize) {
        if let Some(word) = self.words.get_mut(index / 64) {
            *word &= !(1 << (index % 64));
        }
    }

    fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Why a parked item waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Parked {
    #[default]
    No,
    /// A claim, waiting for any of its candidates.
    Claim,
    /// A follower, waiting for a credit: one credit stall per cycle.
    Follower,
}

/// Whether an item is parked, and the generation of its latest park.
#[derive(Debug, Clone, Copy, Default)]
struct Park {
    kind: Parked,
    generation: u32,
}

/// One registration on a wait list.  An entry whose item has been woken
/// (or parked again) since is stale and is skipped.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    item: u32,
    generation: u32,
    /// The channel of this list is the claim's first candidate.
    first_choice: bool,
}

/// The ready sets and the park of every item.  Items are numbered channel
/// first: channel `c` is item `c`, flow queue `f` is item
/// `channel_count + f`.
#[derive(Debug)]
struct Items {
    channel_count: usize,
    /// Channels whose buffer holds a flit and whose front is not parked.
    channels: BitSet,
    /// Flows whose queue is non-empty and whose head is not parked (an
    /// idle head leaves the set when visited).
    flows: BitSet,
    parks: Vec<Park>,
    /// Parked followers, each a credit stall in every cycle it stays
    /// parked.
    followers: u64,
}

impl Items {
    fn is_live(&self, waiter: Waiter) -> bool {
        let park = self.parks[waiter.item as usize];
        park.kind != Parked::No && park.generation == waiter.generation
    }

    /// Position of `item` in the visit order: channels in descending
    /// index, then flows in ascending index.
    fn rank(&self, item: u32) -> usize {
        let item = item as usize;
        if item < self.channel_count {
            self.channel_count - 1 - item
        } else {
            item
        }
    }

    fn wake(&mut self, waiter: Waiter) {
        if self.is_live(waiter) {
            let item = waiter.item as usize;
            self.unpark(item);
            if item < self.channel_count {
                self.channels.insert(item);
            } else {
                self.flows.insert(item - self.channel_count);
            }
        }
    }

    fn unpark(&mut self, item: usize) {
        if let Some(park) = self.parks.get_mut(item) {
            if park.kind == Parked::Follower {
                self.followers -= 1;
            }
            park.kind = Parked::No;
        }
    }

    /// Marks `item` parked, takes it out of its ready set and returns the
    /// waiter that registers it.
    fn park(&mut self, item: usize, kind: Parked) -> Waiter {
        if item >= self.parks.len() {
            self.parks.resize(item + 1, Park::default());
        }
        if item < self.channel_count {
            self.channels.remove(item);
        } else {
            self.flows.remove(item - self.channel_count);
        }
        if kind == Parked::Follower {
            self.followers += 1;
        }
        let park = &mut self.parks[item];
        park.kind = kind;
        park.generation = park.generation.wrapping_add(1);
        Waiter {
            item: u32::try_from(item).expect("item index fits in u32"),
            generation: park.generation,
            first_choice: false,
        }
    }
}

/// The ready sets and wait lists of one simulator.
#[derive(Debug)]
pub(super) struct Schedule {
    items: Items,
    /// Per channel: the claims parked until its owner is released.
    on_release: Vec<Vec<Waiter>>,
    /// Per channel: the follower parked until it regains a credit.  Only
    /// the owner's flit one hop upstream feeds a channel, so one slot
    /// holds it; a second one (a route through the channel twice) goes
    /// to `on_credit`.
    feeder: Vec<Option<Waiter>>,
    /// Per channel: the other items parked until it regains a credit.
    on_credit: Vec<Vec<Waiter>>,
    /// Credits return in the cycle they are given back.
    instant_credits: bool,
    /// Decide-phase scratch: the channels whose front moves this cycle,
    /// and the followers found out of credit, parked once the walk is over.
    leaving: BitSet,
    blocked: Vec<(usize, usize)>,
    /// Items `decide_moves` examined this run (`sim.decide_visits`).
    pub(super) visits: u64,
}

/// What a visited item does this cycle.
enum Visit {
    /// Move into this channel.
    Enter(usize),
    /// Blocked only by a move already entering the channel: try again
    /// next cycle.
    Retry,
    /// Blocked until an owner release or a credit wakes it.
    Park,
}

/// The first candidate that is unowned or owned by `slot`, has a credit
/// and is not entered this cycle.
fn claim(
    candidates: &[usize],
    slot: usize,
    owner: &[Option<usize>],
    credits: &CreditBook,
    entering: &[bool],
) -> Visit {
    let mut retry = false;
    for &to in candidates {
        if owner[to].is_some_and(|o| o != slot) || !credits.can_send(to) {
            continue;
        }
        if !entering[to] {
            return Visit::Enter(to);
        }
        retry = true;
    }
    if retry {
        Visit::Retry
    } else {
        Visit::Park
    }
}

/// A follower's move into `to`, the channel its worm already holds.
fn follow(to: usize, credits: &CreditBook, entering: &[bool]) -> Visit {
    if entering[to] {
        Visit::Retry
    } else if credits.can_send(to) {
        Visit::Enter(to)
    } else {
        Visit::Park
    }
}

impl Schedule {
    /// A schedule for `channel_count` channels and (initially) `flow_count`
    /// flow queues; `instant_credits` when credits return without delay.
    pub(super) fn new(channel_count: usize, flow_count: usize, instant_credits: bool) -> Self {
        Schedule {
            items: Items {
                channel_count,
                channels: BitSet::default(),
                flows: BitSet::default(),
                parks: vec![Park::default(); channel_count + flow_count],
                followers: 0,
            },
            on_release: vec![Vec::new(); channel_count],
            feeder: vec![None; channel_count],
            on_credit: vec![Vec::new(); channel_count],
            instant_credits,
            leaving: BitSet::default(),
            blocked: Vec::new(),
            visits: 0,
        }
    }

    /// Forgets every park and every ready item, and zeroes the visit count
    /// (the start of a run).
    pub(super) fn clear(&mut self) {
        self.forget_all();
        self.visits = 0;
    }

    fn forget_all(&mut self) {
        self.items.channels.clear();
        self.items.flows.clear();
        for park in &mut self.items.parks {
            park.kind = Parked::No;
        }
        for list in self.on_release.iter_mut().chain(&mut self.on_credit) {
            list.clear();
        }
        self.feeder.fill(None);
        self.items.followers = 0;
    }

    /// Makes every item ready that has something to try: after a drain
    /// event or a fault epoch, which rewrite buffers, owners, credits,
    /// routes and queues wholesale.
    pub(super) fn ready_all(&mut self, buffers: &[VecDeque<BufFlit>], queues: &FlowQueues) {
        self.forget_all();
        for (channel, buffer) in buffers.iter().enumerate() {
            if !buffer.is_empty() {
                self.items.channels.insert(channel);
            }
        }
        for (flow, head) in queues.heads.iter().enumerate() {
            if head.is_some() {
                self.items.flows.insert(flow);
            }
        }
    }

    /// A flit entered the empty buffer of `channel`: its front is new (an
    /// empty channel has no parked front).
    #[inline]
    pub(super) fn channel_filled(&mut self, channel: usize) {
        self.items.channels.insert(channel);
    }

    /// The buffer of `channel` ran empty (its front just moved, so it was
    /// not parked).
    #[inline]
    pub(super) fn channel_emptied(&mut self, channel: usize) {
        self.items.channels.remove(channel);
    }

    /// The head of `flow` was recompiled; `queued` when its queue is
    /// non-empty.
    pub(super) fn flow_synced(&mut self, flow: usize, queued: bool) {
        self.items.unpark(self.items.channel_count + flow);
        if queued {
            self.items.flows.insert(flow);
        } else {
            self.items.flows.remove(flow);
        }
    }

    /// The owner of `channel` was cleared.
    ///
    /// Only the earliest waiter in visit order wakes when the channel is
    /// its first choice: next cycle it either takes the channel or finds
    /// it entered or out of credit, and in each case no later waiter
    /// could take it either.  Otherwise every waiter wakes.
    #[inline]
    pub(super) fn released(&mut self, channel: usize) {
        let list = &mut self.on_release[channel];
        if list.is_empty() {
            return;
        }
        let items = &mut self.items;
        let earliest = (0..list.len())
            .filter(|&index| items.is_live(list[index]))
            .min_by_key(|&index| items.rank(list[index].item));
        match earliest {
            Some(index) if list[index].first_choice => {
                let waiter = list.swap_remove(index);
                items.wake(waiter);
                list.retain(|&waiter| items.is_live(waiter));
            }
            _ => {
                for waiter in list.drain(..) {
                    items.wake(waiter);
                }
            }
        }
    }

    /// A credit of `channel` was restored.  On an unowned channel this
    /// also wakes the waiters a release left parked: the earliest one
    /// found the channel out of credit, or took another candidate.
    #[inline]
    pub(super) fn credited(&mut self, channel: usize, unowned: bool) {
        if let Some(waiter) = self.feeder[channel].take() {
            self.items.wake(waiter);
        }
        if !self.on_credit[channel].is_empty() || unowned && !self.on_release[channel].is_empty() {
            self.wake_credit_lists(channel, unowned);
        }
    }

    fn wake_credit_lists(&mut self, channel: usize, unowned: bool) {
        for waiter in self.on_credit[channel].drain(..) {
            self.items.wake(waiter);
        }
        if unowned {
            for waiter in self.on_release[channel].drain(..) {
                self.items.wake(waiter);
            }
        }
    }

    /// Parks a claim of the packet in `slot` on every candidate.
    fn park_claim(
        &mut self,
        item: usize,
        candidates: &[usize],
        slot: usize,
        owner: &[Option<usize>],
    ) {
        let waiter = self.items.park(item, Parked::Claim);
        for (position, &to) in candidates.iter().enumerate() {
            let owned_by_other = owner[to].is_some_and(|o| o != slot);
            let list = if owned_by_other {
                &mut self.on_release[to]
            } else {
                &mut self.on_credit[to]
            };
            let waiter = Waiter {
                first_choice: position == 0,
                ..waiter
            };
            register(list, waiter, &self.items);
        }
    }

    /// Parks the followers found out of credit this cycle, except those
    /// whose channel's front moves this cycle: with instant credits that
    /// move returns the credit in this cycle's apply phase, so a park
    /// would only be woken again.
    fn park_blocked_followers(&mut self) {
        let mut blocked = std::mem::take(&mut self.blocked);
        for (item, to) in blocked.drain(..) {
            if !(self.instant_credits && self.leaving.contains(to)) {
                self.park_follower(item, to);
            }
        }
        self.blocked = blocked;
        self.leaving.clear();
    }

    /// Parks a follower on the credit of `to`.
    fn park_follower(&mut self, item: usize, to: usize) {
        let waiter = self.items.park(item, Parked::Follower);
        match &mut self.feeder[to] {
            Some(other) if self.items.is_live(*other) => {
                register(&mut self.on_credit[to], waiter, &self.items)
            }
            slot => *slot = Some(waiter),
        }
    }
}

/// Appends `waiter` to `list`.  A claim woken through one candidate leaves
/// stale entries on the others, so a full list first drops its stale
/// entries, and doubles when that frees less than half of it.
fn register(list: &mut Vec<Waiter>, waiter: Waiter, items: &Items) {
    if list.len() == list.capacity() && list.len() >= 8 {
        list.retain(|&waiter| items.is_live(waiter));
        if 2 * list.len() > list.capacity() {
            list.reserve(list.capacity());
        }
    }
    list.push(waiter);
}

impl VcSimulator<'_> {
    /// Phase 1: decide all flit movements for this cycle into `self.moves`
    /// from the start-of-cycle state.  At most one flit enters and one flit
    /// leaves each channel per cycle.
    ///
    /// In-network flits go first (drain before filling), channels in
    /// descending index so downstream channels are not starved; then the
    /// queue heads in flow-id order.  Only ready items are visited; the
    /// parked ones could not move (see the module docs).
    pub(super) fn decide_moves(&mut self) {
        let stalls_before = self.credit_stalls;
        let VcSimulator {
            buffers,
            packets,
            owner,
            credits,
            queues,
            moves,
            entering,
            credit_stalls,
            schedule,
            ..
        } = self;
        moves.clear();
        let mut visits = 0;
        // Every parked follower stalls on its credit this cycle too.
        *credit_stalls += schedule.items.followers;

        for word in (0..schedule.items.channels.words.len()).rev() {
            let mut bits = schedule.items.channels.words[word];
            while bits != 0 {
                let bit = 63 - bits.leading_zeros() as usize;
                bits &= !(1 << bit);
                let from = word * 64 + bit;
                visits += 1;
                let moves_before = moves.len();
                let bf = buffers[from].front().expect("ready channels hold a flit");
                let state = &packets[bf.slot];
                let next = bf.hop + 1;
                if next == state.hops.len() {
                    // Last hop: eject (destination always sinks flits).
                    moves.push(Move::Eject { from });
                } else if state.taken.len() == next {
                    // Head flit claiming the next hop.
                    let candidates = state.hops[next].candidates.as_slice();
                    match claim(candidates, bf.slot, owner, credits, entering) {
                        Visit::Enter(to) => {
                            moves.push(Move::Advance {
                                from,
                                to,
                                claim: true,
                            });
                            entering[to] = true;
                        }
                        Visit::Retry => {}
                        Visit::Park => schedule.park_claim(from, candidates, bf.slot, owner),
                    }
                } else {
                    // Follower flit: the worm's path is established.
                    let to = state.taken[next];
                    match follow(to, credits, entering) {
                        Visit::Enter(to) => {
                            moves.push(Move::Advance {
                                from,
                                to,
                                claim: false,
                            });
                            entering[to] = true;
                        }
                        Visit::Retry => {}
                        Visit::Park => {
                            // Established worm blocked on a credit: the
                            // canonical credit stall (one count per
                            // flit-cycle).
                            *credit_stalls += 1;
                            schedule.blocked.push((from, to));
                        }
                    }
                }
                if moves.len() > moves_before {
                    schedule.leaving.insert(from);
                }
            }
        }

        // Injections: the packet at the front of each flow queue may push
        // its next flit into the first channel of its route.  The compiled
        // heads say what each front tries without reading the slab.
        if cfg!(debug_assertions) {
            queues.assert_heads_exact(packets);
        }
        let base = schedule.items.channel_count;
        for word in 0..schedule.items.flows.words.len() {
            let mut bits = schedule.items.flows.words[word];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let flow = word * 64 + bit;
                visits += 1;
                let QueueHead { slot, ref step } = *queues.heads[flow]
                    .as_ref()
                    .expect("ready flows have a queued packet");
                match *step {
                    HeadStep::Claim(ref candidates) => {
                        let candidates = candidates.as_slice();
                        match claim(candidates, slot, owner, credits, entering) {
                            Visit::Enter(to) => {
                                moves.push(Move::Inject {
                                    slot,
                                    to,
                                    claim: true,
                                });
                                entering[to] = true;
                            }
                            Visit::Retry => {}
                            Visit::Park => {
                                schedule.park_claim(base + flow, candidates, slot, owner)
                            }
                        }
                    }
                    HeadStep::Follow(to) => match follow(to, credits, entering) {
                        Visit::Enter(to) => {
                            moves.push(Move::Inject {
                                slot,
                                to,
                                claim: false,
                            });
                            entering[to] = true;
                        }
                        Visit::Retry => {}
                        Visit::Park => {
                            *credit_stalls += 1;
                            schedule.blocked.push((base + flow, to));
                        }
                    },
                    HeadStep::Idle => schedule.items.flows.remove(flow),
                }
            }
        }

        schedule.visits += visits;
        schedule.park_blocked_followers();
        for to in moves.iter().filter_map(|mv| mv.target()) {
            entering[to] = false;
        }
        if cfg!(debug_assertions) {
            self.assert_schedule_exact(self.credit_stalls - stalls_before);
        }
    }

    /// Panics unless the full scan of every channel and every queue head —
    /// the reference the ready sets must agree with — decides the same
    /// moves in the same order and counts `stalls` credit stalls.
    fn assert_schedule_exact(&mut self, stalls: u64) {
        let mut scanned = std::mem::take(&mut self.scan_moves);
        let mut entering = std::mem::take(&mut self.entering);
        let scanned_stalls = self.full_scan(&mut scanned, &mut entering);
        assert_eq!(
            scanned, self.moves,
            "the ready sets skipped or reordered a move"
        );
        assert_eq!(scanned_stalls, stalls, "parked followers miscounted");
        self.scan_moves = scanned;
        self.entering = entering;
    }

    /// The decide phase without ready sets: every channel in descending
    /// index, then every queue head in flow-id order.  Returns the credit
    /// stalls it counted; `entering` is all `false` before and after.
    fn full_scan(&self, moves: &mut Vec<Move>, entering: &mut [bool]) -> u64 {
        moves.clear();
        let mut stalls = 0;
        for from in (0..self.buffers.len()).rev() {
            let Some(bf) = self.buffers[from].front() else {
                continue;
            };
            let state = &self.packets[bf.slot];
            let next = bf.hop + 1;
            let (visit, claim_move) = if next == state.hops.len() {
                moves.push(Move::Eject { from });
                continue;
            } else if state.taken.len() == next {
                let candidates = state.hops[next].candidates.as_slice();
                let visit = claim(candidates, bf.slot, &self.owner, &self.credits, entering);
                (visit, true)
            } else {
                (follow(state.taken[next], &self.credits, entering), false)
            };
            match visit {
                Visit::Enter(to) => {
                    moves.push(Move::Advance {
                        from,
                        to,
                        claim: claim_move,
                    });
                    entering[to] = true;
                }
                Visit::Park if !claim_move => stalls += 1,
                Visit::Retry | Visit::Park => {}
            }
        }
        for head in self.queues.heads.iter().flatten() {
            let (visit, claim_move) = match head.step {
                HeadStep::Claim(ref candidates) => {
                    let candidates = candidates.as_slice();
                    let visit = claim(candidates, head.slot, &self.owner, &self.credits, entering);
                    (visit, true)
                }
                HeadStep::Follow(to) => (follow(to, &self.credits, entering), false),
                HeadStep::Idle => continue,
            };
            match visit {
                Visit::Enter(to) => {
                    moves.push(Move::Inject {
                        slot: head.slot,
                        to,
                        claim: claim_move,
                    });
                    entering[to] = true;
                }
                Visit::Park if !claim_move => stalls += 1,
                Visit::Retry | Visit::Park => {}
            }
        }
        for to in moves.iter().filter_map(|mv| mv.target()) {
            entering[to] = false;
        }
        stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two channels and two flows: flow 0 is item 2, flow 1 is item 3.
    fn schedule() -> Schedule {
        Schedule::new(2, 2, true)
    }

    fn ready_flows(schedule: &Schedule) -> Vec<usize> {
        (0..2)
            .filter(|&flow| schedule.items.flows.contains(flow))
            .collect()
    }

    #[test]
    fn a_release_wakes_only_the_earliest_first_choice_claim() {
        let mut schedule = schedule();
        let owner = [Some(9), None];
        // Both flows claim channel 0, owned by another packet.
        schedule.park_claim(3, &[0], 7, &owner);
        schedule.park_claim(2, &[0], 8, &owner);
        schedule.released(0);
        assert_eq!(ready_flows(&schedule), [0], "flow 0 is visited first");
        // The channel stayed unowned and regained a credit: the earliest
        // claim found it out of credit or took another candidate, so the
        // rest wake too.
        schedule.credited(0, true);
        assert_eq!(ready_flows(&schedule), [0, 1]);
    }

    #[test]
    fn a_release_wakes_every_claim_when_the_earliest_prefers_another_channel() {
        let mut schedule = schedule();
        let owner = [Some(9), Some(9)];
        schedule.park_claim(2, &[1, 0], 7, &owner);
        schedule.park_claim(3, &[0], 8, &owner);
        schedule.released(0);
        assert_eq!(ready_flows(&schedule), [0, 1]);
    }

    #[test]
    fn parked_followers_count_until_their_credit_returns() {
        let mut schedule = schedule();
        schedule.blocked.push((3, 0));
        schedule.blocked.push((1, 0));
        schedule.park_blocked_followers();
        assert_eq!(schedule.items.followers, 2, "one in the slot, one listed");
        schedule.credited(0, false);
        assert_eq!(schedule.items.followers, 0);
        assert!(schedule.items.channels.contains(1));
        assert_eq!(ready_flows(&schedule), [1]);
    }

    #[test]
    fn a_follower_whose_channel_drains_this_cycle_stays_ready() {
        let mut schedule = schedule();
        schedule.items.channels.insert(1);
        schedule.leaving.insert(0);
        schedule.blocked.push((1, 0));
        schedule.park_blocked_followers();
        assert_eq!(schedule.items.followers, 0);
        assert!(schedule.items.channels.contains(1));
        assert!(!schedule.leaving.contains(0), "the scratch is cleared");
    }

    #[test]
    fn a_stale_registration_wakes_nothing() {
        let mut schedule = schedule();
        let owner = [Some(9), Some(9)];
        schedule.park_claim(2, &[0, 1], 7, &owner);
        // Woken through channel 1 and parked again on channel 1 only.
        schedule.released(1);
        schedule.park_claim(2, &[1], 7, &owner);
        schedule.released(0);
        assert!(ready_flows(&schedule).is_empty());
    }
}

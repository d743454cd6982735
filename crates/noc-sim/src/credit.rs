//! Credit-based flow control.
//!
//! In a credit-based wormhole router, the upstream side of every channel
//! keeps a *credit counter* initialised to the depth of the downstream input
//! buffer.  Sending a flit consumes one credit; when the downstream switch
//! forwards (or ejects) a buffered flit it returns the credit, optionally
//! after a propagation delay.  A channel with zero credits cannot accept
//! flits — this is the backpressure that makes wormhole blocking (and
//! therefore deadlock) possible in the first place, so the simulator models
//! it explicitly instead of peeking at buffer occupancy.

use std::collections::VecDeque;

/// The per-channel credit counters of a simulated network.
///
/// # Example
///
/// ```
/// use noc_sim::credit::CreditBook;
///
/// // Two channels, buffers two flits deep, credits return after 1 cycle.
/// let mut credits = CreditBook::new(2, 2, 1);
/// credits.consume(0);
/// assert!(credits.can_send(0));
/// credits.consume(0);
/// assert!(!credits.can_send(0));
/// assert!(!credits.give_back(0, 10)); // flit left the buffer at cycle 10
/// assert!(!credits.can_send(0)); // the credit is still in flight
/// let mut restored = Vec::new();
/// credits.collect_returns(11, |channel| restored.push(channel));
/// assert_eq!(restored, [0]);
/// assert!(credits.can_send(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditBook {
    /// Credits currently usable by the upstream side, per channel.
    available: Vec<usize>,
    /// Credits travelling back upstream: `(cycle the credit arrives,
    /// channel)`, kept sorted by arrival cycle (give-backs happen in cycle
    /// order).
    in_flight: VecDeque<(u64, usize)>,
    /// Credit propagation delay in cycles (0 = same-cycle return).
    return_latency: u64,
    /// Initial (= maximum) credit count per channel.
    depth: usize,
}

impl CreditBook {
    /// A book for `channels` channels, each backed by a `depth`-flit buffer,
    /// with credits taking `return_latency` cycles to travel back upstream.
    pub fn new(channels: usize, depth: usize, return_latency: u64) -> Self {
        CreditBook {
            available: vec![depth; channels],
            in_flight: VecDeque::new(),
            return_latency,
            depth,
        }
    }

    /// Credits currently available on `channel`.
    #[cfg(test)]
    fn available(&self, channel: usize) -> usize {
        self.available[channel]
    }

    /// `true` when the upstream side may send a flit into `channel`.
    pub fn can_send(&self, channel: usize) -> bool {
        self.available[channel] > 0
    }

    /// Consumes one credit of `channel` (a flit was sent into it).
    ///
    /// # Panics
    ///
    /// Panics if the channel has no credit — callers must check
    /// [`can_send`](Self::can_send) first; sending without credit would
    /// overflow the downstream buffer.
    pub fn consume(&mut self, channel: usize) {
        assert!(
            self.available[channel] > 0,
            "credit underflow on channel {channel}"
        );
        self.available[channel] -= 1;
    }

    /// Returns one credit of `channel` (a flit left its buffer in `cycle`).
    /// With a non-zero return latency the credit becomes available once
    /// [`collect_returns`](Self::collect_returns) reaches
    /// `cycle + return_latency`.  Returns `true` when the credit is usable
    /// at once (zero return latency).
    pub fn give_back(&mut self, channel: usize, cycle: u64) -> bool {
        if self.return_latency == 0 {
            self.restore(channel);
            true
        } else {
            self.in_flight
                .push_back((cycle + self.return_latency, channel));
            false
        }
    }

    /// Delivers every in-flight credit due at or before `cycle` (call once
    /// at the start of each simulated cycle), calling `on_restore` with the
    /// channel of each credit delivered.
    pub fn collect_returns(&mut self, cycle: u64, mut on_restore: impl FnMut(usize)) {
        while self.in_flight.front().is_some_and(|&(due, _)| due <= cycle) {
            let (_, channel) = self.in_flight.pop_front().expect("checked non-empty");
            self.restore(channel);
            on_restore(channel);
        }
    }

    /// Immediately restores one credit of `channel` (used when a drained
    /// flit is removed from a buffer outside the normal forwarding path).
    fn restore(&mut self, channel: usize) {
        assert!(
            self.available[channel] < self.depth,
            "credit overflow on channel {channel}"
        );
        self.available[channel] += 1;
    }

    /// Discards every in-flight credit of the book (used together with
    /// [`restore`](Self::restore) when a drain rewrites buffer contents
    /// wholesale — the caller re-derives availability from the buffers).
    /// Calls `on_restore` with every channel that gained a credit.
    pub(crate) fn reset_from_occupancy(
        &mut self,
        occupancy: impl IntoIterator<Item = usize>,
        mut on_restore: impl FnMut(usize),
    ) {
        self.in_flight.clear();
        for (channel, used) in occupancy.into_iter().enumerate() {
            assert!(used <= self.depth, "buffer deeper than the credit depth");
            let available = self.depth - used;
            if available > self.available[channel] {
                on_restore(channel);
            }
            self.available[channel] = available;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_latency_credits_return_instantly() {
        let mut credits = CreditBook::new(1, 2, 0);
        credits.consume(0);
        assert_eq!(credits.available(0), 1);
        assert!(credits.give_back(0, 5), "usable at once");
        assert_eq!(credits.available(0), 2);
        assert!(credits.can_send(0));
    }

    #[test]
    fn latency_delays_the_return() {
        let mut credits = CreditBook::new(1, 1, 3);
        credits.consume(0);
        assert!(!credits.can_send(0));
        assert!(!credits.give_back(0, 10), "in flight");
        credits.collect_returns(12, |_| panic!("due at 13, not yet arrived"));
        assert!(!credits.can_send(0));
        let mut restored = Vec::new();
        credits.collect_returns(13, |channel| restored.push(channel));
        assert_eq!(restored, [0]);
        assert!(credits.can_send(0));
    }

    #[test]
    fn returns_arrive_in_cycle_order() {
        let mut credits = CreditBook::new(2, 2, 2);
        credits.consume(0);
        credits.consume(1);
        credits.give_back(0, 1); // due at 3
        credits.give_back(1, 2); // due at 4
        let mut restored = Vec::new();
        credits.collect_returns(3, |channel| restored.push(channel));
        assert_eq!(restored, [0]);
        assert_eq!(credits.available(0), 2);
        assert_eq!(credits.available(1), 1);
        credits.collect_returns(4, |channel| restored.push(channel));
        assert_eq!(restored, [0, 1]);
        assert_eq!(credits.available(1), 2);
    }

    #[test]
    fn occupancy_reset_rebuilds_availability() {
        let mut credits = CreditBook::new(3, 2, 1);
        credits.consume(0);
        credits.consume(0);
        credits.consume(1);
        credits.give_back(0, 7);
        // After a drain the buffers hold 1, 0 and 2 flits respectively.
        let mut restored = Vec::new();
        credits.reset_from_occupancy([1, 0, 2], |channel| restored.push(channel));
        assert_eq!(restored, [0, 1], "channels 0 and 1 gained a credit");
        assert_eq!(credits.available(0), 1);
        assert_eq!(credits.available(1), 2);
        assert_eq!(credits.available(2), 0);
        // The in-flight return from before the reset was discarded.
        credits.collect_returns(100, |_| panic!("no return is left in flight"));
        assert_eq!(credits.available(0), 1);
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn consuming_without_credit_panics() {
        let mut credits = CreditBook::new(1, 1, 0);
        credits.consume(0);
        credits.consume(0);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn restoring_past_depth_panics() {
        let mut credits = CreditBook::new(1, 1, 0);
        credits.restore(0);
    }
}

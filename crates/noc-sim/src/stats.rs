//! Simulation statistics.

/// Latency / throughput statistics of a simulation run.
///
/// Per-packet network latencies are recorded individually
/// ([`record_latency`](Self::record_latency)), so besides the mean the run
/// reports order statistics ([`latency_percentile`](Self::latency_percentile)
/// — p50/p95/p99 in the artifacts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Packets handed to source queues.
    pub injected_packets: usize,
    /// Packets fully delivered (tail flit ejected).
    pub delivered_packets: usize,
    /// Total flits delivered.
    pub delivered_flits: usize,
    /// Sum of per-packet latencies (delivery cycle − creation cycle).
    pub total_latency_cycles: u64,
    /// Worst per-packet latency observed.
    pub max_latency_cycles: u64,
    /// Number of cycles simulated.
    pub cycles: u64,
    /// Every delivered packet's latency, in delivery order (the raw samples
    /// behind the percentiles).
    pub latency_samples: Vec<u64>,
}

impl SimStats {
    /// Records the delivery of one packet with the given network latency,
    /// updating the sum, the maximum and the sample list together.
    pub fn record_latency(&mut self, latency: u64) {
        self.total_latency_cycles += latency;
        self.max_latency_cycles = self.max_latency_cycles.max(latency);
        self.latency_samples.push(latency);
    }

    /// Average packet latency in cycles (0 when nothing was delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.delivered_packets as f64
        }
    }

    /// The `p`-th latency percentile (nearest-rank, `0.0 < p <= 100.0`),
    /// or 0 when nothing was delivered.
    ///
    /// ```
    /// let mut stats = noc_sim::SimStats::default();
    /// for l in [10, 20, 30, 40] {
    ///     stats.record_latency(l);
    /// }
    /// assert_eq!(stats.latency_percentile(50.0), 20);
    /// assert_eq!(stats.latency_percentile(99.0), 40);
    /// ```
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.latency_percentiles(&[p])[0]
    }

    /// Several percentiles in one pass — the samples are cloned and sorted
    /// once, so summaries asking for p50/p95/p99 together pay a single
    /// `O(n log n)` instead of three.
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<u64> {
        if self.latency_samples.is_empty() {
            return vec![0; ps.len()];
        }
        let mut sorted = self.latency_samples.clone();
        sorted.sort_unstable();
        ps.iter()
            .map(|&p| {
                let p = p.clamp(0.0, 100.0);
                // Nearest-rank: the smallest sample with at least p% of the
                // samples at or below it (rank ⌈p/100 · n⌉, 1-based).
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                sorted[rank.max(1) - 1]
            })
            .collect()
    }

    /// Delivered flits per simulated cycle.
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered_flits as f64 / self.cycles as f64
        }
    }

    /// Fraction of injected packets that were delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected_packets == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / self.injected_packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let stats = SimStats {
            injected_packets: 10,
            delivered_packets: 8,
            delivered_flits: 32,
            total_latency_cycles: 160,
            max_latency_cycles: 40,
            cycles: 64,
            latency_samples: Vec::new(),
        };
        assert_eq!(stats.mean_latency(), 20.0);
        assert_eq!(stats.throughput_flits_per_cycle(), 0.5);
        assert_eq!(stats.delivery_ratio(), 0.8);
    }

    #[test]
    fn empty_run_has_zero_metrics() {
        let stats = SimStats::default();
        assert_eq!(stats.mean_latency(), 0.0);
        assert_eq!(stats.throughput_flits_per_cycle(), 0.0);
        assert_eq!(stats.delivery_ratio(), 0.0);
        assert_eq!(stats.latency_percentile(50.0), 0);
    }

    #[test]
    fn record_latency_updates_sum_max_and_samples() {
        let mut stats = SimStats::default();
        stats.record_latency(5);
        stats.record_latency(11);
        stats.record_latency(3);
        assert_eq!(stats.total_latency_cycles, 19);
        assert_eq!(stats.max_latency_cycles, 11);
        assert_eq!(stats.latency_samples, vec![5, 11, 3]);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut stats = SimStats::default();
        for l in 1..=100u64 {
            stats.record_latency(l);
        }
        assert_eq!(stats.latency_percentile(50.0), 50);
        assert_eq!(stats.latency_percentile(95.0), 95);
        assert_eq!(stats.latency_percentile(99.0), 99);
        assert_eq!(stats.latency_percentile(100.0), 100);
        // One sample: every percentile is that sample.
        let mut one = SimStats::default();
        one.record_latency(7);
        assert_eq!(one.latency_percentile(50.0), 7);
        assert_eq!(one.latency_percentile(99.0), 7);
    }

    #[test]
    fn percentiles_are_order_independent() {
        let mut a = SimStats::default();
        let mut b = SimStats::default();
        for l in [9u64, 2, 7, 2, 30] {
            a.record_latency(l);
        }
        for l in [30u64, 2, 2, 7, 9] {
            b.record_latency(l);
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.latency_percentile(p), b.latency_percentile(p));
        }
    }
}

//! Log-bucketed latency histogram.
//!
//! The paper reports average and 95th-percentile latencies (Figures 7b, 8b).
//! This is a compact HDR-style histogram: buckets grow geometrically so the
//! relative quantile error is bounded (~4 %) across nine decades of
//! nanoseconds, with O(1) record and O(buckets) quantile queries. It is the
//! single latency-aggregation type used by tiers, instances, and the
//! experiment harness.

use crate::clock::SimDuration;

/// Sub-buckets per power of two (higher = finer resolution).
const SUBBUCKETS_LOG2: u32 = 5; // 32 sub-buckets per octave ⇒ ≤ ~3.1 % error
const SUBBUCKETS: usize = 1 << SUBBUCKETS_LOG2;
/// Number of octaves covered (2^0 .. 2^39 ns ≈ 550 s).
const OCTAVES: usize = 40;
const NBUCKETS: usize = OCTAVES * SUBBUCKETS;

/// A fixed-footprint log-bucketed histogram of durations.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; NBUCKETS], total: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    fn bucket_index(ns: u64) -> usize {
        if ns < SUBBUCKETS as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros(); // floor(log2(ns)) ≥ SUBBUCKETS_LOG2
        let shift = octave - SUBBUCKETS_LOG2;
        let sub = (ns >> shift) as usize & (SUBBUCKETS - 1);
        let idx = ((octave - SUBBUCKETS_LOG2 + 1) as usize) * SUBBUCKETS + sub;
        idx.min(NBUCKETS - 1)
    }

    /// Representative (upper-edge) value of a bucket, in nanoseconds.
    fn bucket_value(idx: usize) -> u64 {
        if idx < SUBBUCKETS {
            return idx as u64;
        }
        let octave = (idx / SUBBUCKETS - 1) as u32 + SUBBUCKETS_LOG2;
        let sub = (idx % SUBBUCKETS) as u64;
        let base = 1u64 << octave;
        base + (sub << (octave - SUBBUCKETS_LOG2))
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.counts[Self::bucket_index(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of the samples, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / u128::from(self.total)) as u64)
    }

    /// Smallest recorded sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample (bucket-quantized upper bound is exact for max
    /// because we track it separately).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Value at quantile `q ∈ [0, 1]` (e.g. `0.95` for the paper's p95),
    /// accurate to the bucket's relative width (~3 %).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(Self::bucket_value(i).min(self.max_ns));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p95", &self.quantile(0.95))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.95), SimDuration::ZERO);
    }

    #[test]
    fn mean_of_known_samples() {
        let mut h = Histogram::new();
        for ms in [1u64, 2, 3, 4] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.mean().as_micros(), 2500);
        assert_eq!(h.min(), SimDuration::from_millis(1));
        assert_eq!(h.max(), SimDuration::from_millis(4));
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        let mut rng = SimRng::new(77);
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            let ns = rng.next_range(1_000, 50_000_000); // 1 us .. 50 ms
            exact.push(ns);
            h.record(SimDuration::from_nanos(ns));
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let true_v =
                exact[((q * exact.len() as f64).ceil() as usize - 1).min(exact.len() - 1)] as f64;
            let est = h.quantile(q).as_nanos() as f64;
            let rel = (est - true_v).abs() / true_v;
            assert!(rel < 0.05, "q={q} rel_err={rel} est={est} true={true_v}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000u64 {
            let d = SimDuration::from_micros(i * 7 + 1);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean(), whole.mean());
        assert_eq!(a.quantile(0.95), whole.quantile(0.95));
    }

    #[test]
    fn tiny_values_are_exact() {
        let mut h = Histogram::new();
        for ns in 0..SUBBUCKETS as u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.quantile(0.0).as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), SUBBUCKETS as u64 - 1);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_millis(5));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_secs(10_000)); // beyond covered range
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > SimDuration::from_secs(100));
    }
}

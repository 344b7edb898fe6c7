//! Per-operation latency models for simulated storage services.
//!
//! A storage operation's service time is modeled as
//!
//! ```text
//! latency = (base + bytes * per_byte) * jitter
//! ```
//!
//! where `jitter` is a bounded multiplicative factor sampled from the
//! component's seeded RNG. The default profiles below encode the relative
//! ordering the paper's evaluation relies on (Memcached ≪ EBS ≪ S3); see
//! `DESIGN.md` §1 for the calibration rationale.

use crate::clock::SimDuration;
use crate::rng::SimRng;

/// Latency model: fixed base cost plus linear per-byte transfer cost, with
/// bounded multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-operation overhead (network round trip + service dispatch).
    pub base: SimDuration,
    /// Transfer time per byte moved.
    pub per_byte_ns: f64,
    /// Jitter half-width as a fraction of the deterministic latency
    /// (e.g. `0.15` samples uniformly in `[0.85, 1.15]`).
    pub jitter: f64,
}

impl LatencyModel {
    /// A model with zero latency (useful for tests of pure logic).
    pub const ZERO: LatencyModel =
        LatencyModel { base: SimDuration::ZERO, per_byte_ns: 0.0, jitter: 0.0 };

    /// Creates a model from a base latency and a throughput in MiB/s.
    ///
    /// `throughput_mib_s == 0` means "infinite bandwidth" (no per-byte cost).
    pub fn new(base: SimDuration, throughput_mib_s: f64, jitter: f64) -> Self {
        let per_byte_ns =
            if throughput_mib_s > 0.0 { 1e9 / (throughput_mib_s * 1024.0 * 1024.0) } else { 0.0 };
        Self { base, per_byte_ns, jitter }
    }

    /// Deterministic (jitter-free) latency for an operation moving `bytes`.
    pub fn deterministic(&self, bytes: usize) -> SimDuration {
        let transfer = (bytes as f64 * self.per_byte_ns).round() as u64;
        SimDuration::from_nanos(self.base.as_nanos() + transfer)
    }

    /// Samples the latency for an operation moving `bytes`.
    pub fn sample(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let det = self.deterministic(bytes);
        if self.jitter <= 0.0 {
            det
        } else {
            det.mul_f64(rng.jitter(self.jitter))
        }
    }

    // ---- Calibrated profiles (per-4KB numbers quoted in DESIGN.md) ----

    /// Memcached in the client's availability zone: ~0.25 ms RTT + ~250 MiB/s.
    pub fn memcached_same_az() -> Self {
        Self::new(SimDuration::from_micros(250), 250.0, 0.15)
    }

    /// Memcached in a different availability zone: ~1 ms RTT.
    pub fn memcached_cross_az() -> Self {
        Self::new(SimDuration::from_micros(1000), 180.0, 0.20)
    }

    /// EBS-style block store read. 2014-era *standard* (magnetic) EBS under
    /// load: ~9 ms access latency.
    pub fn ebs_read() -> Self {
        Self::new(SimDuration::from_micros(9000), 90.0, 0.30)
    }

    /// EBS-style block store write: ~11 ms.
    pub fn ebs_write() -> Self {
        Self::new(SimDuration::from_micros(11_000), 70.0, 0.30)
    }

    /// S3-style object store GET: ~28 ms per request.
    pub fn s3_read() -> Self {
        Self::new(SimDuration::from_millis(28), 60.0, 0.30)
    }

    /// S3-style object store PUT: ~120 ms per small-object request
    /// (2014-era S3 PUTs of small files through FUSE were slow).
    pub fn s3_write() -> Self {
        Self::new(SimDuration::from_millis(120), 45.0, 0.30)
    }

    /// EC2 ephemeral (instance-store) read: "performance comparable to
    /// EBS" (paper §4.2.3), slightly faster being instance-local.
    pub fn ephemeral_read() -> Self {
        Self::new(SimDuration::from_micros(7000), 110.0, 0.25)
    }

    /// EC2 ephemeral write.
    pub fn ephemeral_write() -> Self {
        Self::new(SimDuration::from_micros(9000), 95.0, 0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_scales_with_bytes() {
        let m = LatencyModel::new(SimDuration::from_micros(100), 100.0, 0.0);
        let small = m.deterministic(4096);
        let big = m.deterministic(4 * 1024 * 1024);
        assert!(big > small);
        // 4 MiB at 100 MiB/s ≈ 40 ms (< 50 ms with base).
        assert!(big.as_millis() >= 39 && big.as_millis() <= 41, "{big}");
    }

    #[test]
    fn zero_model_charges_nothing() {
        let mut rng = SimRng::new(1);
        assert_eq!(LatencyModel::ZERO.sample(1 << 20, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn jitter_brackets_deterministic() {
        let m = LatencyModel::new(SimDuration::from_millis(10), 0.0, 0.2);
        let mut rng = SimRng::new(2);
        for _ in 0..500 {
            let s = m.sample(0, &mut rng).as_nanos() as f64;
            let d = m.deterministic(0).as_nanos() as f64;
            assert!(s >= d * 0.8 - 1.0 && s <= d * 1.2 + 1.0);
        }
    }

    #[test]
    fn tier_profiles_preserve_paper_ordering() {
        // The evaluation depends on: memcached << ebs << s3 for 4 KB ops.
        let b = 4096;
        let mem = LatencyModel::memcached_same_az().deterministic(b);
        let ebs = LatencyModel::ebs_read().deterministic(b);
        let s3 = LatencyModel::s3_read().deterministic(b);
        assert!(mem < ebs && ebs < s3);
        assert!(s3.as_nanos() > 2 * ebs.as_nanos());
        let cross = LatencyModel::memcached_cross_az().deterministic(b);
        assert!(cross > mem && cross < ebs);
    }

    #[test]
    fn infinite_bandwidth_means_flat_latency() {
        let m = LatencyModel::new(SimDuration::from_millis(1), 0.0, 0.0);
        assert_eq!(m.deterministic(0), m.deterministic(1 << 30));
    }
}

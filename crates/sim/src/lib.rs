//! # tiera-sim — simulation substrate for the Tiera middleware
//!
//! The Tiera paper (Middleware 2014) evaluates its prototype against real
//! Amazon storage services (ElastiCache/Memcached, EBS, S3, EC2 ephemeral
//! volumes) measured from EC2 instances. This crate provides the synthetic
//! stand-ins for everything that was physical in that evaluation:
//!
//! * [`VirtualClock`] / [`SimTime`] — multithread-safe virtual time, so a
//!   "10 minute" experiment (paper Figure 17) runs in milliseconds and is
//!   deterministic.
//! * [`SimRng`] — a seeded, splittable PRNG (SplitMix64 core) so every
//!   latency sample and workload decision is reproducible.
//! * [`LatencyModel`] — per-operation service time: base latency + per-byte
//!   transfer time + bounded multiplicative jitter.
//! * [`SharedBandwidth`] — a rate over a [`SerialResource`] modelling a
//!   contended resource such as an EBS volume's disk bandwidth (paper
//!   Figure 14).
//! * [`cost`] — the 2014-era AWS price points the paper's cost plots
//!   (Figures 9b, 11b, 13b) are built from.
//! * [`FailureInjector`] — time-windowed fault injection used to reproduce
//!   the EBS outage timeline of Figure 17.
//! * [`Provisioner`] — delayed capacity changes modelling EC2 node spawn
//!   (the "approximately 1 minute" of Figure 16).
//! * [`Histogram`] — log-bucketed latency histogram with percentile queries
//!   (the paper reports averages and 95th percentiles).
//! * [`exec::run_clients`] — the deterministic executor the workload
//!   drivers step their closed-loop virtual clients through.
//!
//! Nothing in this crate sleeps or reads the wall clock: operations *return*
//! the time they would have taken, and drivers account for it. See
//! `DESIGN.md` §3 ("Virtual time under concurrency").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod clock;
pub mod cost;
pub mod exec;
pub mod failure;
pub mod histogram;
pub mod latency;
pub mod provision;
pub mod rng;
pub mod serial;

pub use bandwidth::SharedBandwidth;
pub use clock::{SimDuration, SimTime, VirtualClock};
pub use cost::{CostReport, PricePlan, StorageClass};
pub use failure::{FailureInjector, FailureKind, FailureWindow, FaultSpec, Verdict};
pub use histogram::Histogram;
pub use latency::LatencyModel;
pub use provision::Provisioner;
pub use rng::SimRng;
pub use serial::SerialResource;

use std::sync::Arc;

/// Shared simulation environment handed to every simulated component.
///
/// Bundles the global [`VirtualClock`] with the seed from which component
/// RNGs are derived. Cloning is cheap (the clock is shared, the seed is
/// copied).
#[derive(Debug, Clone)]
pub struct SimEnv {
    clock: Arc<VirtualClock>,
    seed: u64,
}

impl SimEnv {
    /// Creates an environment with a fresh clock starting at time zero.
    pub fn new(seed: u64) -> Self {
        Self { clock: Arc::new(VirtualClock::new()), seed }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The environment's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives a deterministic RNG for a named component.
    ///
    /// Different `label`s yield independent streams; the same label always
    /// yields the same stream for a given environment seed.
    pub fn rng_for(&self, label: &str) -> SimRng {
        // FNV-1a, not the codec's content checksum: every seeded stream,
        // hence every exact metric, derives from this value.
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::new(self.seed ^ h)
    }
}

impl Default for SimEnv {
    fn default() -> Self {
        Self::new(t_seed_default())
    }
}

const fn t_seed_default() -> u64 {
    0x7165_7261_5f73_6565 // "tiera_see(d)" flavoured constant
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_for_is_deterministic_per_label() {
        let env = SimEnv::new(42);
        let mut a1 = env.rng_for("memcached");
        let mut a2 = env.rng_for("memcached");
        let mut b = env.rng_for("ebs");
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn env_clone_shares_clock() {
        let env = SimEnv::new(1);
        let env2 = env.clone();
        env.clock().advance_to(SimTime::from_millis(5));
        assert_eq!(env2.clock().now(), SimTime::from_millis(5));
    }
}

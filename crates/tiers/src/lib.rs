//! # tiera-tiers — simulated cloud storage services
//!
//! The Tiera prototype (paper §3) used four Amazon storage tiers:
//! Memcached (ElastiCache), Ephemeral Storage (EC2 local volumes), Amazon
//! EBS, and Amazon S3. This crate provides faithful *simulated* stand-ins
//! built on `tiera-sim`:
//!
//! * [`MemoryTier`] — Memcached-style in-memory cache: volatile,
//!   sub-millisecond, expensive per GB (cache-node pricing). Same- or
//!   cross-availability-zone latency profiles (the paper's
//!   `MemcachedReplicated` instance spans two zones).
//! * [`BlockTier`] — EBS-style persistent block store: millisecond
//!   latencies, a *shared disk bandwidth path* that makes background
//!   replication contend with foreground IO (Figure 14), per-GB-month plus
//!   per-IO pricing, and failure-window injection (Figure 17).
//! * [`ObjectStoreTier`] — S3-style object store: tens of milliseconds per
//!   request, cheapest capacity, billed per request (Figure 12b counts
//!   exactly these).
//! * [`EphemeralTier`] — EC2 instance-store: EBS-like speed, free, and
//!   *non-durable* — a [`EphemeralTier::reboot`] loses everything.
//!
//! All tiers implement [`tiera_core::tier::Tier`]; they charge virtual
//! latency through seeded latency models and never sleep.
//!
//! [`default_catalog`] returns a [`TierCatalog`] mapping the paper's tier
//! type names (`Memcached`, `EBS`, `S3`, `EphemeralStorage`, plus
//! `MemcachedRemote` for the cross-zone replica) to these implementations,
//! which is what the `tiera-spec` compiler resolves against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod simulated;

pub use simulated::{BlockTier, EphemeralTier, MemoryTier, ObjectStoreTier, SimulatedTier};

use std::sync::Arc;

use tiera_core::catalog::TierCatalog;
use tiera_core::tier::TierHandle;
use tiera_sim::SimEnv;

/// A catalog pre-populated with the four simulated Amazon services under
/// the paper's names (case-insensitive): `Memcached`, `MemcachedRemote`
/// (cross-AZ replica), `EBS`, `S3`, `EphemeralStorage`.
pub fn default_catalog(env: &SimEnv) -> TierCatalog {
    let mut catalog = TierCatalog::new();
    {
        let env = env.clone();
        catalog.register("Memcached", move |label, cap| {
            Arc::new(MemoryTier::same_az(label, cap, &env)) as TierHandle
        });
    }
    {
        let env = env.clone();
        catalog.register("MemcachedRemote", move |label, cap| {
            Arc::new(MemoryTier::cross_az(label, cap, &env)) as TierHandle
        });
    }
    {
        let env = env.clone();
        catalog.register("EBS", move |label, cap| {
            Arc::new(BlockTier::ebs(label, cap, &env)) as TierHandle
        });
    }
    {
        let env = env.clone();
        catalog.register("S3", move |label, cap| {
            Arc::new(ObjectStoreTier::s3(label, cap, &env)) as TierHandle
        });
    }
    {
        let env = env.clone();
        catalog.register("EphemeralStorage", move |label, cap| {
            Arc::new(EphemeralTier::new(label, cap, &env)) as TierHandle
        });
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_paper_tiers() {
        let env = SimEnv::new(1);
        let c = default_catalog(&env);
        for name in ["Memcached", "MemcachedRemote", "EBS", "S3", "EphemeralStorage"] {
            assert!(c.create(name, "t", 1 << 20).is_ok(), "catalog should create {name}");
        }
        assert!(c.create("Tape", "t", 1).is_err());
    }
}

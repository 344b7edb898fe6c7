//! Responses — the action half of Tiera's policy mechanism.
//!
//! This module defines the declarative [`ResponseSpec`] mirroring the
//! paper's Table 1 in full:
//!
//! | paper response | spec variant |
//! |---|---|
//! | `store` | [`ResponseSpec::Store`] |
//! | `storeOnce` | [`ResponseSpec::StoreOnce`] |
//! | `retrieve` | [`ResponseSpec::Retrieve`] |
//! | `copy` (w/ bandwidth cap) | [`ResponseSpec::Copy`] |
//! | `move` (w/ bandwidth cap) | [`ResponseSpec::Move`] |
//! | `delete` | [`ResponseSpec::Delete`] |
//! | `encrypt` / `decrypt` | [`ResponseSpec::Encrypt`] / [`ResponseSpec::Decrypt`] |
//! | `compress` / `uncompress` | [`ResponseSpec::Compress`] / [`ResponseSpec::Uncompress`] |
//! | `grow` / `shrink` | [`ResponseSpec::Grow`] / [`ResponseSpec::Shrink`] |
//!
//! plus [`ResponseSpec::If`] (the `if (tier1.filled) { ... }` guard of
//! Figure 5) and [`ResponseSpec::EvictUntilFit`], the compiled form of the
//! Figure 5 LRU/MRU eviction loop.
//!
//! Execution lives in [`crate::instance`]; this module is pure description,
//! which is what makes policies inspectable, replaceable at runtime, and
//! constructible from the specification DSL (`tiera-spec`).

use tiera_sim::bandwidth::BandwidthCap;

use crate::selector::Selector;

/// Eviction victim ordering for [`ResponseSpec::EvictUntilFit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictOrder {
    /// Evict the least recently used object first (`tier1.oldest`).
    Lru,
    /// Evict the most recently used object first (`tier1.newest`).
    Mru,
}

/// A guard usable inside a response body (`if (...) { ... }`).
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// `tier.filled` — true when the tier cannot absorb the inserted object
    /// (or, with an explicit fraction, when fill ≥ fraction).
    TierFilled {
        /// Tier under observation.
        tier: String,
        /// Fill fraction bound; `None` means "would overflow on this
        /// insert".
        at_least: Option<f64>,
    },
    /// Negation.
    Not(Box<Guard>),
}

impl Guard {
    /// `tier.filled` with the paper's "would overflow" meaning.
    pub fn tier_filled(tier: impl Into<String>) -> Self {
        Guard::TierFilled { tier: tier.into(), at_least: None }
    }

    /// Negates the guard.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Guard::Not(Box::new(self))
    }
}

/// A declarative response, executed when its rule's event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseSpec {
    /// Stores objects into the given tiers. Writes to multiple tiers are
    /// issued in parallel; the charged latency is the slowest write (the
    /// paper's MemcachedReplicated instance acknowledges after both
    /// zone-replica writes complete).
    Store {
        /// Objects to store.
        what: Selector,
        /// Destination tier names.
        to: Vec<String>,
    },
    /// Stores objects only if their content is unique (deduplication via
    /// SHA-256 content digest; paper §4.2.1 and Figure 12).
    StoreOnce {
        /// Objects to store.
        what: Selector,
        /// Destination tier names.
        to: Vec<String>,
    },
    /// Reads objects from their current tier (warming access statistics).
    Retrieve {
        /// Objects to read.
        what: Selector,
    },
    /// Copies objects into the given tiers, leaving existing copies in
    /// place and clearing the dirty flag (write-back, paper Fig 3).
    Copy {
        /// Objects to copy.
        what: Selector,
        /// Destination tier names.
        to: Vec<String>,
        /// Optional self-imposed rate limit (paper Fig 14's `bandwidth:
        /// 40KB/s`).
        bandwidth: Option<BandwidthCap>,
    },
    /// Moves objects to the given tiers (copy + delete from their previous
    /// locations).
    Move {
        /// Objects to move.
        what: Selector,
        /// Destination tier names.
        to: Vec<String>,
        /// Optional rate limit.
        bandwidth: Option<BandwidthCap>,
    },
    /// Deletes objects, either from one tier or from the whole instance.
    Delete {
        /// Objects to delete.
        what: Selector,
        /// Restrict deletion to this tier; `None` deletes everywhere and
        /// drops the object.
        from: Option<String>,
    },
    /// Encrypts stored payloads with the named key (ChaCha20).
    Encrypt {
        /// Objects to encrypt.
        what: Selector,
        /// Key identifier resolved through the instance key ring.
        key_id: String,
    },
    /// Decrypts stored payloads with the named key.
    Decrypt {
        /// Objects to decrypt.
        what: Selector,
        /// Key identifier.
        key_id: String,
    },
    /// Compresses stored payloads (LZSS).
    Compress {
        /// Objects to compress.
        what: Selector,
    },
    /// Decompresses stored payloads.
    Uncompress {
        /// Objects to decompress.
        what: Selector,
    },
    /// Expands a tier's capacity by a percentage (provisioning delay
    /// applies; paper Fig 6/16).
    Grow {
        /// Tier to expand.
        tier: String,
        /// Percent increase (100 = double).
        percent: f64,
    },
    /// Reduces a tier's capacity by a percentage.
    Shrink {
        /// Tier to reduce.
        tier: String,
        /// Percent decrease.
        percent: f64,
    },
    /// Evicts objects from `from` into `to` (in `order`) until the inserted
    /// object fits — the executable form of Figure 5's
    /// `if (tier1.filled) { move(what: tier1.oldest, to: tier2); }`.
    EvictUntilFit {
        /// Tier to make room in.
        from: String,
        /// Tier receiving the evicted objects.
        to: String,
        /// LRU or MRU victim selection.
        order: EvictOrder,
    },
    /// Conditional execution of a response body.
    If {
        /// The guard to evaluate.
        guard: Guard,
        /// Responses executed when the guard holds.
        then: Vec<ResponseSpec>,
    },
}

impl ResponseSpec {
    /// `store(what, to: [tiers])`.
    pub fn store<T: Into<String>>(what: Selector, to: impl IntoIterator<Item = T>) -> Self {
        ResponseSpec::Store { what, to: to.into_iter().map(Into::into).collect() }
    }

    /// `storeOnce(what, to: [tiers])`.
    pub fn store_once<T: Into<String>>(what: Selector, to: impl IntoIterator<Item = T>) -> Self {
        ResponseSpec::StoreOnce { what, to: to.into_iter().map(Into::into).collect() }
    }

    /// `copy(what, to: [tiers])` without a bandwidth cap.
    pub fn copy<T: Into<String>>(what: Selector, to: impl IntoIterator<Item = T>) -> Self {
        ResponseSpec::Copy { what, to: to.into_iter().map(Into::into).collect(), bandwidth: None }
    }

    /// `copy` with a bandwidth cap.
    pub fn copy_capped<T: Into<String>>(
        what: Selector,
        to: impl IntoIterator<Item = T>,
        bandwidth: BandwidthCap,
    ) -> Self {
        ResponseSpec::Copy {
            what,
            to: to.into_iter().map(Into::into).collect(),
            bandwidth: Some(bandwidth),
        }
    }

    /// `move(what, to: [tiers])`.
    pub fn move_to<T: Into<String>>(what: Selector, to: impl IntoIterator<Item = T>) -> Self {
        ResponseSpec::Move { what, to: to.into_iter().map(Into::into).collect(), bandwidth: None }
    }

    /// `delete(what)` from every tier.
    pub fn delete(what: Selector) -> Self {
        ResponseSpec::Delete { what, from: None }
    }

    /// LRU eviction into `to` (Figure 5's common case).
    pub fn evict_lru(from: impl Into<String>, to: impl Into<String>) -> Self {
        ResponseSpec::EvictUntilFit { from: from.into(), to: to.into(), order: EvictOrder::Lru }
    }

    /// Tier names this response writes to or manages (for validation).
    pub fn referenced_tiers(&self) -> Vec<&str> {
        match self {
            ResponseSpec::Store { what, to }
            | ResponseSpec::StoreOnce { what, to }
            | ResponseSpec::Copy { what, to, .. }
            | ResponseSpec::Move { what, to, .. } => {
                let mut v: Vec<&str> = to.iter().map(|s| s.as_str()).collect();
                v.extend(what.referenced_tiers());
                v
            }
            ResponseSpec::Delete { what, from } => {
                let mut v = what.referenced_tiers();
                if let Some(f) = from {
                    v.push(f);
                }
                v
            }
            ResponseSpec::Retrieve { what }
            | ResponseSpec::Encrypt { what, .. }
            | ResponseSpec::Decrypt { what, .. }
            | ResponseSpec::Compress { what }
            | ResponseSpec::Uncompress { what } => what.referenced_tiers(),
            ResponseSpec::Grow { tier, .. } | ResponseSpec::Shrink { tier, .. } => {
                vec![tier.as_str()]
            }
            ResponseSpec::EvictUntilFit { from, to, .. } => vec![from.as_str(), to.as_str()],
            ResponseSpec::If { guard, then } => {
                let mut v: Vec<&str> = Vec::new();
                if let Guard::TierFilled { tier, .. } = guard {
                    v.push(tier);
                }
                for r in then {
                    v.extend(r.referenced_tiers());
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_variants() {
        let s = ResponseSpec::store(Selector::Inserted, ["tier1", "tier2"]);
        match s {
            ResponseSpec::Store { to, .. } => assert_eq!(to, vec!["tier1", "tier2"]),
            _ => panic!(),
        }
        let c =
            ResponseSpec::copy_capped(Selector::Dirty, ["tier2"], BandwidthCap::kb_per_sec(40.0));
        match c {
            ResponseSpec::Copy { bandwidth, .. } => {
                assert_eq!(bandwidth.unwrap().bytes_per_sec, 40_000.0)
            }
            _ => panic!(),
        }
    }

    #[test]
    fn referenced_tiers_covers_nested_ifs() {
        let r = ResponseSpec::If {
            guard: Guard::tier_filled("tier1"),
            then: vec![ResponseSpec::move_to(Selector::OldestIn("tier1".into()), ["tier2"])],
        };
        let mut tiers = r.referenced_tiers();
        tiers.sort_unstable();
        tiers.dedup();
        assert_eq!(tiers, vec!["tier1", "tier2"]);
    }

    #[test]
    fn guard_negation() {
        let g = Guard::tier_filled("t").not();
        assert!(matches!(g, Guard::Not(_)));
    }

    #[test]
    fn grow_references_its_tier() {
        let r = ResponseSpec::Grow { tier: "tier1".into(), percent: 100.0 };
        assert_eq!(r.referenced_tiers(), vec!["tier1"]);
    }
}

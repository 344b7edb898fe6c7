//! Regression tests: the registry's dedup-leaf path (`storeOnce`, which
//! content-addresses *logical* objects and skips tier writes for known
//! digests) must compose with [`DedupTier`] (which content-addresses
//! *physical* payloads inside one tier). Both layers key blobs by
//! `sha256:<hex>`; stacking them must neither double-count bytes nor
//! desynchronize the registry's incremental aggregates from a full
//! recount.

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::prelude::*;
use tiera_core::tier::TierTraits;
use tiera_sim::{SimEnv, StorageClass};
use tiera_support::Bytes;
use tiera_tierx::DedupTier;

const T0: SimTime = SimTime::ZERO;

/// A durable in-memory tier wrapped in a `DedupTier`, plus the wrapper
/// handle for white-box assertions.
fn dedup_durable(name: &str, cap: u64) -> Arc<DedupTier> {
    DedupTier::new(MemTier::with_traits(
        name,
        cap,
        TierTraits {
            durable: true,
            availability_zone: "zone-a".into(),
            class: StorageClass::BlockStore,
        },
    ))
}

fn store_once_instance(seed: u64) -> (Arc<Instance>, Arc<DedupTier>) {
    let tier = dedup_durable("t", 1 << 20);
    let inst = InstanceBuilder::new("dd-compose", SimEnv::new(seed))
        .tier_handle(tier.clone())
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store_once(Selector::Inserted, ["t"])),
        )
        .build()
        .unwrap();
    (inst, tier)
}

/// storeOnce over a dedup'd tier stores each distinct payload exactly
/// once: the registry's digest leaf elides the duplicate tier writes, and
/// the bytes that do land are not counted twice anywhere. Incremental
/// aggregates stay equal to a full recount with the wrapper in the chain.
#[test]
fn store_once_over_dedup_tier_does_not_double_count() {
    let (inst, tier) = store_once_instance(41);
    let payload = vec![0xA5u8; 4096];

    for key in ["a", "b", "c"] {
        inst.put(key, Bytes::from(payload.clone()), T0).unwrap();
    }
    inst.put("d", Bytes::from(vec![0x5Au8; 2048]), T0).unwrap();

    // Registry-level dedup already elided the duplicate writes, so the
    // wrapper saw each distinct payload once: two unique blobs, no
    // wrapper-level hits, physical == logical at this layer.
    let profile = tier.capacity_profile().unwrap();
    assert_eq!(profile.unique_blobs, 2);
    assert_eq!(profile.dedup_hits, 0);
    assert_eq!(profile.logical_bytes, 4096 + 2048);
    assert_eq!(inst.tier("t").unwrap().used(), 4096 + 2048);
    // One tier PUT per distinct content, not per logical key.
    assert_eq!(inst.tier("t").unwrap().request_counts().puts, 2);

    // Every logical key reads back byte-identically through both layers.
    for key in ["a", "b", "c"] {
        let (data, _) = inst.get(key, SimTime::from_secs(1)).unwrap();
        assert_eq!(&data[..], &payload[..], "{key}");
    }

    // The incremental aggregates match an O(n) recount, and the wrapper's
    // refcount map is internally consistent.
    assert_eq!(inst.registry().aggregates("t"), inst.registry().recount_aggregates("t"));
    assert_eq!(tier.check_integrity(), Vec::<String>::new());
}

/// Deleting logical references reclaims physical space only when the
/// *registry's* refcount reaches zero — and that final release flows
/// through the wrapper's own refcounting down to the backing tier.
#[test]
fn last_reference_delete_reclaims_through_both_layers() {
    let (inst, tier) = store_once_instance(42);
    let payload = vec![0xC3u8; 1024];
    inst.put("x", Bytes::from(payload.clone()), T0).unwrap();
    inst.put("y", Bytes::from(payload.clone()), T0).unwrap();

    // Dropping one of two references frees nothing.
    inst.delete("x", SimTime::from_secs(1)).unwrap();
    assert_eq!(inst.tier("t").unwrap().used(), 1024);
    let (data, _) = inst.get("y", SimTime::from_secs(2)).unwrap();
    assert_eq!(&data[..], &payload[..]);

    // Dropping the last reference reclaims all the way down.
    inst.delete("y", SimTime::from_secs(3)).unwrap();
    assert_eq!(inst.tier("t").unwrap().used(), 0);
    let profile = tier.capacity_profile().unwrap();
    assert_eq!(profile.unique_blobs, 0);
    assert_eq!(profile.logical_bytes, 0);
    assert_eq!(inst.registry().aggregates("t"), inst.registry().recount_aggregates("t"));
    assert_eq!(tier.check_integrity(), Vec::<String>::new());
}

/// A plain `store` rule (no registry dedup) over the same wrapped tier:
/// here the *wrapper* is the layer that collapses duplicates, and the
/// registry's per-object accounting still reconciles with a recount even
/// though the tier's physical usage is smaller than the logical sum.
#[test]
fn plain_store_lets_the_wrapper_do_the_deduplication() {
    let tier = dedup_durable("t", 1 << 20);
    let inst = InstanceBuilder::new("dd-plain", SimEnv::new(43))
        .tier_handle(tier.clone())
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["t"])),
        )
        .build()
        .unwrap();
    let payload = vec![0x96u8; 512];
    for key in ["p", "q", "r"] {
        inst.put(key, Bytes::from(payload.clone()), T0).unwrap();
    }

    let profile = tier.capacity_profile().unwrap();
    assert_eq!(profile.unique_blobs, 1);
    assert_eq!(profile.dedup_hits, 2);
    assert_eq!(profile.logical_bytes, 3 * 512);
    assert_eq!(inst.tier("t").unwrap().used(), 512);
    for key in ["p", "q", "r"] {
        let (data, _) = inst.get(key, SimTime::from_secs(1)).unwrap();
        assert_eq!(&data[..], &payload[..], "{key}");
    }
    assert_eq!(inst.registry().aggregates("t"), inst.registry().recount_aggregates("t"));
    assert_eq!(tier.check_integrity(), Vec::<String>::new());
}

//! Behavioral tests of policy composition — the paper's §2.3 claim that "a
//! rich array of data management policies can be easily constructed" from
//! the event/response building blocks.

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind, Metric, Relation};
use tiera_core::prelude::*;
use tiera_core::response::Guard;
use tiera_core::tier::TierTraits;
use tiera_sim::{SimEnv, StorageClass};
use tiera_support::Bytes;

const T0: SimTime = SimTime::ZERO;

fn durable(name: &str, cap: u64) -> Arc<MemTier> {
    MemTier::with_traits(
        name,
        cap,
        TierTraits {
            durable: true,
            availability_zone: "zone-a".into(),
            class: StorageClass::BlockStore,
        },
    )
}

/// Paper §2.1: a `tmp` tag routes an object class to inexpensive volatile
/// storage while everything else is persisted.
#[test]
fn tmp_tag_routes_object_class_to_volatile_tier() {
    let inst = InstanceBuilder::new("tags", SimEnv::new(1))
        .tier(MemTier::with_capacity("scratch", 1 << 20))
        .tier(durable("persist", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["scratch"])),
        )
        .rule(
            // Periodically persist everything that is *not* scratch data.
            Rule::on(EventKind::timer(SimDuration::from_secs(5))).respond(ResponseSpec::copy(
                Selector::InTier("scratch".into()).and(Selector::Dirty),
                ["persist"],
            )),
        )
        .rule(
            // And purge the tmp class wholesale.
            Rule::on(EventKind::timer(SimDuration::from_secs(60))).respond(ResponseSpec::Delete {
                what: Selector::Tagged(Tag::new("tmp")),
                from: None,
            }),
        )
        .build()
        .unwrap();
    inst.put_with(
        "cache-entry",
        &b"ephemeral"[..],
        tiera_core::instance::PutOptions { tags: vec![Tag::new("tmp")] },
        T0,
    )
    .unwrap();
    inst.put("real-data", &b"important"[..], T0).unwrap();

    // The write-back copy is paced background work: pump once to fire the
    // timer and once more to drain the paced continuation.
    inst.pump(SimTime::from_secs(5)).unwrap();
    inst.pump(SimTime::from_secs(6)).unwrap();
    // Both were persisted by the write-back (the tag doesn't exempt them
    // from the generic rule)...
    assert!(inst.registry().get(&"real-data".into()).unwrap().in_tier("persist"));
    // ...but after the purge timer the tmp class is gone entirely.
    inst.pump(SimTime::from_secs(60)).unwrap();
    assert!(!inst.contains("cache-entry"));
    assert!(inst.contains("real-data"));
}

/// Background action events defer their responses to the response pool
/// (paper §3: "If a slow response needs to be associated with an action
/// event then it should be specified as a background event").
#[test]
fn background_action_event_defers_work() {
    let inst = InstanceBuilder::new("bg-action", SimEnv::new(3))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .tier(durable("t2", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put).background())
                .respond(ResponseSpec::copy(Selector::Inserted, ["t2"])),
        )
        .build()
        .unwrap();
    let receipt = inst.put("k", &b"v"[..], T0).unwrap();
    // The background copy charged nothing to the client...
    assert!(inst.background_depth() > 0);
    let meta = inst.registry().get(&"k".into()).unwrap();
    assert!(!meta.in_tier("t2"));
    // ...and runs on the next pump.
    inst.pump(T0 + receipt.latency).unwrap();
    let meta = inst.registry().get(&"k".into()).unwrap();
    assert!(meta.in_tier("t2"));
}

/// AtMost thresholds: shrink an over-provisioned tier when usage drops.
#[test]
fn at_most_threshold_shrinks_idle_tier() {
    let inst = InstanceBuilder::new("shrink", SimEnv::new(4))
        .tier(MemTier::with_capacity("t1", 1000))
        .rule(
            Rule::on(EventKind::Threshold {
                metric: Metric::TierFillFraction("t1".into()),
                relation: Relation::AtMost,
                value: 0.10,
                background: false,
            })
            .respond(ResponseSpec::Shrink { tier: "t1".into(), percent: 50.0 }),
        )
        .build()
        .unwrap();
    // Fill to 50% (above the 10% floor) — the rule arms but must not fire
    // while usage is high... then delete everything and watch it fire.
    inst.put("a", Bytes::from(vec![0u8; 500]), T0).unwrap();
    assert_eq!(inst.tier("t1").unwrap().capacity(T0), 1000);
    inst.delete("a", T0).unwrap();
    assert_eq!(inst.tier("t1").unwrap().capacity(T0), 500, "shrink fired when usage fell to 0%");
}

/// Runtime rule replacement mid-stream redirects placement without
/// restarting the instance (paper §4.2.3).
#[test]
fn rule_replace_redirects_placement_between_puts() {
    let inst = InstanceBuilder::new("swap", SimEnv::new(5))
        .tier(MemTier::with_capacity("a", 1 << 20))
        .tier(MemTier::with_capacity("b", 1 << 20))
        .build()
        .unwrap();
    let id = inst.policy().add(
        Rule::on(EventKind::action(ActionOp::Put))
            .respond(ResponseSpec::store(Selector::Inserted, ["a"])),
    );
    inst.put("one", &b"1"[..], T0).unwrap();
    assert!(inst.registry().get(&"one".into()).unwrap().in_tier("a"));

    assert!(inst.policy().replace(
        id,
        Rule::on(EventKind::action(ActionOp::Put))
            .respond(ResponseSpec::store(Selector::Inserted, ["b"])),
    ));
    inst.put("two", &b"2"[..], T0).unwrap();
    let two = inst.registry().get(&"two".into()).unwrap();
    assert!(two.in_tier("b") && !two.in_tier("a"));
}

/// A three-tier eviction chain: memcached → block → object store, all via
/// the Figure 5 idiom (the Table 2 instances' shape).
#[test]
fn three_tier_eviction_chain() {
    let inst = InstanceBuilder::new("chain", SimEnv::new(6))
        .tier(MemTier::with_capacity("l1", 8))
        .tier(durable("l2", 8))
        .tier(durable("l3", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::evict_lru("l2", "l3"))
                .respond(ResponseSpec::evict_lru("l1", "l2"))
                .respond(ResponseSpec::store(Selector::Inserted, ["l1"])),
        )
        .build()
        .unwrap();
    for (i, key) in ["w", "x", "y", "z"].iter().enumerate() {
        inst.put(*key, Bytes::from(vec![i as u8; 4]), SimTime::from_secs(i as u64)).unwrap();
    }
    // With 4 × 4-byte objects over 8-byte l1/l2: w and x get evicted from
    // l1 into l2 (which just fits them); the newest two stay in l1.
    let locs = |k: &str| {
        inst.registry().get(&k.into()).unwrap().locations.iter().cloned().collect::<Vec<_>>()
    };
    assert_eq!(locs("z"), vec!["l1"]);
    assert_eq!(locs("y"), vec!["l1"]);
    assert_eq!(locs("x"), vec!["l2"]);
    assert_eq!(locs("w"), vec!["l2"]);
    // Every object is still readable through the chain.
    for key in ["w", "x", "y", "z"] {
        let (data, _) = inst.get(key, SimTime::from_secs(10)).unwrap();
        assert_eq!(data.len(), 4, "{key}");
    }
}

/// Encrypt-cold-data-by-timer: compression + encryption compose with
/// selectors (the paper's "expose storage primitives ... for applications
/// to use").
#[test]
fn timer_encrypts_tagged_class() {
    let inst = InstanceBuilder::new("enc", SimEnv::new(7))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .rule(Rule::on(EventKind::timer(SimDuration::from_secs(10))).respond(
            ResponseSpec::Encrypt {
                what: Selector::Tagged(Tag::new("sensitive")),
                key_id: "vault".into(),
            },
        ))
        .build()
        .unwrap();
    inst.add_key("vault", [3u8; 32]);
    inst.put_with(
        "secret",
        &b"classified"[..],
        tiera_core::instance::PutOptions { tags: vec![Tag::new("sensitive")] },
        T0,
    )
    .unwrap();
    inst.put("public", &b"open"[..], T0).unwrap();
    inst.pump(SimTime::from_secs(10)).unwrap();

    assert!(inst.registry().get(&"secret".into()).unwrap().encrypted);
    assert!(!inst.registry().get(&"public".into()).unwrap().encrypted);
    // Transparent decryption on GET.
    let (data, _) = inst.get("secret", SimTime::from_secs(11)).unwrap();
    assert_eq!(&data[..], b"classified");
}

/// A `decrypt` under a key other than the one an object was encrypted
/// under is refused: applying it would write other bytes back as the
/// plaintext, and a GET would then return them.
#[test]
fn decrypt_under_another_key_is_refused() {
    let inst = InstanceBuilder::new("dec", SimEnv::new(7))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .rule(Rule::on(EventKind::timer(SimDuration::from_secs(10))).respond(
            ResponseSpec::Encrypt { what: Selector::Key("secret".into()), key_id: "k1".into() },
        ))
        .build()
        .unwrap();
    inst.add_key("k1", [1u8; 32]);
    inst.add_key("k2", [2u8; 32]);
    inst.put("secret", &b"classified"[..], T0).unwrap();
    inst.pump(SimTime::from_secs(10)).unwrap();
    let key = ObjectKey::new("secret");
    let stored = |inst: &Instance| {
        let (bytes, _) = inst.tier("t1").unwrap().get(&key, T0).unwrap();
        (inst.registry().get(&key).unwrap(), bytes.to_vec())
    };
    let encrypted = stored(&inst);
    assert!(encrypted.0.encrypted && encrypted.1 != b"classified");

    let decrypt = ResponseSpec::Decrypt { what: Selector::Key(key.clone()), key_id: "k2".into() };
    inst.install_rule(Rule::on(EventKind::timer(SimDuration::from_secs(20))).respond(decrypt))
        .unwrap();
    inst.pump(SimTime::from_secs(20)).unwrap();
    let alerts = inst.drain_alerts();
    assert!(
        alerts.iter().any(|a| a.detail.contains("not encrypted under key id k2")),
        "{alerts:?}"
    );
    assert_eq!(stored(&inst), encrypted, "bytes and record are unchanged");
    let (data, _) = inst.get("secret", SimTime::from_secs(21)).unwrap();
    assert_eq!(&data[..], b"classified");
}

/// A `storeOnce` object's bytes are a shared blob, not the record's own:
/// an in-place rewrite of one is refused, and the object stays readable.
#[test]
fn a_rewrite_of_a_store_once_object_is_refused() {
    let inst = InstanceBuilder::new("dd-rewrite", SimEnv::new(7))
        .tier(MemTier::with_capacity("t", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store_once(Selector::Inserted, ["t"])),
        )
        .rule(
            Rule::on(EventKind::timer(SimDuration::from_secs(10)))
                .respond(ResponseSpec::Compress { what: Selector::Key("k".into()) }),
        )
        .build()
        .unwrap();
    inst.put("k", &b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"[..], T0).unwrap();
    let key = ObjectKey::new("k");
    let before = inst.registry().get(&key).unwrap();
    inst.pump(SimTime::from_secs(10)).unwrap();
    let alerts = inst.drain_alerts();
    assert!(alerts.iter().any(|a| a.detail.contains("storeOnce")), "{alerts:?}");
    assert_eq!(inst.registry().get(&key).unwrap(), before, "the record is unchanged");
    let (data, _) = inst.get("k", SimTime::from_secs(11)).unwrap();
    assert_eq!(&data[..], b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
}

/// storeOnce + overwrite: replacing a dedup'd object's content releases the
/// old digest reference and acquires the new one.
#[test]
fn store_once_overwrite_switches_digest() {
    let inst = InstanceBuilder::new("dd-over", SimEnv::new(8))
        .tier(MemTier::with_capacity("t", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store_once(Selector::Inserted, ["t"])),
        )
        .build()
        .unwrap();
    inst.put("a", &b"content-1"[..], T0).unwrap();
    inst.put("b", &b"content-1"[..], T0).unwrap();
    let puts_before = inst.tier("t").unwrap().request_counts().puts;
    assert_eq!(puts_before, 1, "deduped");
    // Overwrite "a" with new content: new physical object appears, the old
    // one survives because "b" still references it.
    inst.put("a", &b"content-2"[..], SimTime::from_secs(1)).unwrap();
    let (data_a, _) = inst.get("a", SimTime::from_secs(2)).unwrap();
    let (data_b, _) = inst.get("b", SimTime::from_secs(2)).unwrap();
    assert_eq!(&data_a[..], b"content-2");
    assert_eq!(&data_b[..], b"content-1");
    // Deleting "b" (the last content-1 reference) frees its bytes.
    inst.delete("b", SimTime::from_secs(3)).unwrap();
    let used = inst.tier("t").unwrap().used();
    assert_eq!(used, b"content-2".len() as u64);
}

/// Delete action events fire policies (e.g. audit trails / tombstones).
#[test]
fn delete_action_event_fires() {
    let inst = InstanceBuilder::new("del-event", SimEnv::new(9))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Delete))
                .respond(ResponseSpec::Grow { tier: "t1".into(), percent: 1.0 })
                .labeled("audit: grow a little on every delete"),
        )
        .build()
        .unwrap();
    let before = inst.tier("t1").unwrap().capacity(T0);
    inst.put("x", &b"v"[..], T0).unwrap();
    inst.delete("x", T0).unwrap();
    assert!(inst.tier("t1").unwrap().capacity(T0) > before);
}

/// Guards compose: a not-filled guard keeps a conditional store from
/// overflowing (the Figure 16 overflow-placement pattern).
#[test]
fn guarded_overflow_placement() {
    let inst = InstanceBuilder::new("guard", SimEnv::new(10))
        .tier(MemTier::with_capacity("small", 8))
        .tier(durable("big", 1 << 20))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::If {
                    guard: Guard::tier_filled("small"),
                    then: vec![ResponseSpec::store(Selector::Inserted, ["big"])],
                })
                .respond(ResponseSpec::If {
                    guard: Guard::tier_filled("small").not(),
                    then: vec![ResponseSpec::store(Selector::Inserted, ["small"])],
                }),
        )
        .build()
        .unwrap();
    inst.put("fits-1", Bytes::from(vec![1u8; 4]), T0).unwrap();
    inst.put("fits-2", Bytes::from(vec![2u8; 4]), T0).unwrap();
    inst.put("overflow", Bytes::from(vec![3u8; 4]), T0).unwrap();
    assert!(inst.registry().get(&"fits-1".into()).unwrap().in_tier("small"));
    assert!(inst.registry().get(&"fits-2".into()).unwrap().in_tier("small"));
    let over = inst.registry().get(&"overflow".into()).unwrap();
    assert!(over.in_tier("big") && !over.in_tier("small"));
}

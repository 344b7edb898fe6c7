//! Property-based tests of cross-crate invariants.

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::tier::TierTraits;
use tiera::core::{InstanceBuilder, Rule};
use tiera::prelude::*;
use tiera_support::prop::gen;
use tiera_support::prop_check;

fn durable(name: &str, cap: u64) -> Arc<MemTier> {
    MemTier::with_traits(
        name,
        cap,
        TierTraits {
            durable: true,
            availability_zone: "zone-a".into(),
            class: tiera::sim::StorageClass::BlockStore,
        },
    )
}

/// Whatever interleaving of puts/overwrites/deletes runs against a
/// write-through instance, GET returns exactly the model's bytes and
/// used-bytes accounting never leaks.
#[test]
fn instance_matches_model_under_random_ops() {
    prop_check!(cases = 24, |rng| {
        let ops = gen::vec_of(rng, 1..120, |rng| {
            (rng.next_below(8) as u8, gen::byte_vec(rng, 0..512), gen::boolean(rng))
        });
        let inst = InstanceBuilder::new("prop", SimEnv::new(7))
            .tier(MemTier::with_capacity("fast", 1 << 20))
            .tier(durable("slow", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["fast"]))
                    .respond(ResponseSpec::copy(Selector::Inserted, ["slow"])),
            )
            .build()
            .unwrap();
        let mut model: tiera_support::collections::FxHashMap<String, Vec<u8>> = Default::default();
        let mut t = SimTime::ZERO;
        for (key_id, value, is_put) in ops {
            let key = format!("k{key_id}");
            if is_put {
                inst.put(key.as_str(), value.clone(), t).unwrap();
                model.insert(key, value);
            } else if model.remove(&key).is_some() {
                inst.delete(key.as_str(), t).unwrap();
            }
            t += SimDuration::from_millis(1);
        }
        for (key, value) in &model {
            let (data, _) = inst.get(key.as_str(), t).unwrap();
            assert_eq!(&data[..], &value[..]);
        }
        assert_eq!(inst.registry().len(), model.len());
        // Both tiers hold exactly the live bytes (write-through copies).
        let live: u64 = model.values().map(|v| v.len() as u64).sum();
        assert_eq!(inst.tier("fast").unwrap().used(), live);
        assert_eq!(inst.tier("slow").unwrap().used(), live);
    });
}

/// LRU-evicting caches never exceed capacity and never lose data.
#[test]
fn lru_cache_never_overflows_or_loses() {
    prop_check!(cases = 24, |rng| {
        let sizes = gen::vec_of(rng, 1..60, |rng| gen::usize_in(rng, 1..2000));
        let cap = 4096u64;
        let inst = InstanceBuilder::new("lru", SimEnv::new(8))
            .tier(MemTier::with_capacity("cache", cap))
            .tier(durable("backing", 1 << 22))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::evict_lru("cache", "backing"))
                    .respond(ResponseSpec::store(Selector::Inserted, ["cache"])),
            )
            .build()
            .unwrap();
        let mut t = SimTime::ZERO;
        for (i, size) in sizes.iter().enumerate() {
            let size = (*size).min(cap as usize);
            inst.put(format!("o{i}").as_str(), vec![i as u8; size], t).unwrap();
            assert!(inst.tier("cache").unwrap().used() <= cap);
            t += SimDuration::from_millis(1);
        }
        for (i, size) in sizes.iter().enumerate() {
            let size = (*size).min(cap as usize);
            let (data, _) = inst.get(format!("o{i}").as_str(), t).unwrap();
            assert_eq!(data.len(), size);
            assert!(data.iter().all(|&b| b == i as u8));
        }
    });
}

/// storeOnce: physical bytes equal the number of distinct payloads, and
/// reads are correct for every alias.
#[test]
fn store_once_physical_equals_distinct() {
    prop_check!(cases = 24, |rng| {
        let payload_ids = gen::vec_of(rng, 1..40, |rng| rng.next_below(6) as u8);
        let inst = InstanceBuilder::new("dd", SimEnv::new(9))
            .tier(MemTier::with_capacity("t", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store_once(Selector::Inserted, ["t"])),
            )
            .build()
            .unwrap();
        let mut distinct = tiera_support::collections::FxHashSet::default();
        let mut t = SimTime::ZERO;
        for (i, id) in payload_ids.iter().enumerate() {
            distinct.insert(*id);
            inst.put(format!("k{i}").as_str(), vec![*id; 256], t).unwrap();
            t += SimDuration::from_millis(1);
        }
        assert_eq!(inst.tier("t").unwrap().request_counts().puts as usize, distinct.len());
        assert_eq!(inst.tier("t").unwrap().used() as usize, distinct.len() * 256);
        for (i, id) in payload_ids.iter().enumerate() {
            let (data, _) = inst.get(format!("k{i}").as_str(), t).unwrap();
            assert!(data.iter().all(|b| b == id));
        }
    });
}

/// The spec pipeline is total: parsing arbitrary printable garbage never
/// panics, and every valid round-trip spec compiles to the same tier
/// set it declared.
#[test]
fn spec_parser_never_panics() {
    prop_check!(cases = 48, |rng| {
        let src = gen::printable_ascii(rng, 0..200);
        let _ = tiera::spec::parse(&src);
    });
}

/// Virtual-time monotonicity: latencies accumulate, receipts are
/// non-negative, and the shared clock never runs backwards.
#[test]
fn clock_monotone_under_concurrent_load() {
    prop_check!(cases = 24, |rng| {
        let threads = gen::usize_in(rng, 1..6);
        let ops = gen::u64_in(rng, 1..80);
        let env = SimEnv::new(10);
        let inst = InstanceBuilder::new("mono", env.clone())
            .tier(MemTier::with_capacity("t", 1 << 22))
            .build()
            .unwrap();
        let clock = Arc::clone(env.clock());
        let mut handles = Vec::new();
        for th in 0..threads {
            let inst = Arc::clone(&inst);
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                let mut t = SimTime::ZERO;
                for i in 0..ops {
                    let r = inst.put(format!("t{th}-{i}").as_str(), vec![0u8; 64], t).unwrap();
                    t += r.latency;
                    let published = clock.advance_to(t);
                    assert!(published >= t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(inst.registry().len() as u64, threads as u64 * ops);
    });
}

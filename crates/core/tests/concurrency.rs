//! Concurrency tests for the sharded metadata hot path.
//!
//! The registry's invariant under any operation interleaving: the
//! incrementally-maintained per-tier `TierAggregates` must equal a
//! from-scratch recount of the object map, and every order index must hold
//! exactly the live keys. Checked two ways — a deterministic `prop_check!`
//! sweep over random operation sequences (replays bit-identically from the
//! printed seed), and a genuinely parallel hammer through one `Instance`
//! with a concurrent pump thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiera_core::prelude::*;
use tiera_core::registry::Registry;
use tiera_sim::SimEnv;
use tiera_support::collections::FxHashMap;
use tiera_support::prop::gen;
use tiera_support::prop_check;

const TIERS: [&str; 3] = ["t1", "t2", "t3"];

/// Random single-registry operation sequences: after every step, the
/// incremental aggregates equal a recount and the per-tier order index
/// agrees with the map.
#[test]
fn prop_aggregates_equal_recount_after_any_interleaving() {
    prop_check!(cases = 48, |rng| {
        let reg = Registry::in_memory();
        let mut live: Vec<String> = Vec::new();
        for step in 0..gen::usize_in(rng, 20..120) {
            let op = gen::usize_in(rng, 0..100);
            let now = SimTime::from_secs(step as u64);
            match op {
                // upsert (fresh or overwriting)
                0..=39 => {
                    let key = format!("k{}", gen::usize_in(rng, 0..40));
                    let mut meta = ObjectMeta::new(gen::u64_in(rng, 1..4096), now);
                    meta.dirty = gen::boolean(rng);
                    for tier in &TIERS {
                        if gen::boolean(rng) {
                            meta.locations.insert((*tier).into());
                        }
                    }
                    reg.upsert(ObjectKey::new(key.clone()), meta);
                    if !live.contains(&key) {
                        live.push(key);
                    }
                }
                // update: flip dirty and/or move between tiers
                40..=64 => {
                    if let Some(key) = pick_live(rng, &live) {
                        reg.update(&ObjectKey::new(key), |m| {
                            m.dirty = !m.dirty;
                            let tier = *gen::pick(rng, &TIERS);
                            if !m.locations.insert(tier.into()) {
                                m.locations.remove(tier);
                            }
                        });
                    }
                }
                // touch
                65..=79 => {
                    if let Some(key) = pick_live(rng, &live) {
                        reg.touch(&ObjectKey::new(key), now);
                    }
                }
                // remove
                _ => {
                    if let Some(key) = pick_live(rng, &live) {
                        reg.remove(&ObjectKey::new(key.clone()));
                        live.retain(|k| k != &key);
                    }
                }
            }
        }
        for tier in &TIERS {
            assert_eq!(
                reg.aggregates(tier),
                reg.recount_aggregates(tier),
                "tier {tier} aggregates drifted from recount"
            );
            assert_eq!(
                reg.keys_in(tier).len() as u64,
                reg.recount_aggregates(tier).objects,
                "tier {tier} order index disagrees with map"
            );
        }
    });
}

fn pick_live(rng: &mut tiera_support::SimRng, live: &[String]) -> Option<String> {
    if live.is_empty() {
        None
    } else {
        Some(gen::pick(rng, live).clone())
    }
}

/// Parallel hammer: four mutator threads doing put/get/delete through one
/// shared `Instance` while a fifth thread pumps background work, all
/// racing on the sharded registry, striped stats, and heap queue. The
/// instance has a write-back timer so pumps actually execute responses.
#[test]
fn hammer_instance_with_concurrent_pump() {
    let env = SimEnv::new(99);
    let inst = InstanceBuilder::new("hammer", env.clone())
        .tier(MemTier::with_capacity("t1", 64 << 20))
        .tier(MemTier::with_traits(
            "t2",
            64 << 20,
            TierTraits {
                durable: true,
                availability_zone: "zone-a".into(),
                class: tiera_sim::StorageClass::BlockStore,
            },
        ))
        .rule(
            Rule::on(EventKind::timer(SimDuration::from_secs(1)))
                .respond(ResponseSpec::copy(Selector::Dirty, ["t2"])),
        )
        .build()
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let pumper = {
        let inst = Arc::clone(&inst);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut tick = 0u64;
            while !stop.load(Ordering::Relaxed) {
                tick += 1;
                inst.pump(SimTime::from_secs(tick)).unwrap();
                // Keep the pump thread from starving the mutators on
                // small machines; contention, not throughput, is the test.
                std::thread::yield_now();
            }
        })
    };

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let inst = Arc::clone(&inst);
            std::thread::spawn(move || {
                for i in 0..300u64 {
                    let key = format!("h{t}-{}", i % 40);
                    let now = SimTime::from_secs(i);
                    inst.put(&key, format!("v{t}-{i}").as_bytes(), now).unwrap();
                    let (data, _) = inst.get(&key, now).unwrap();
                    assert_eq!(data.as_ref(), format!("v{t}-{i}").as_bytes());
                    if i % 7 == 0 {
                        inst.delete(&key, now).unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    pumper.join().unwrap();
    // One final pump drains whatever the mutators queued last.
    inst.pump(SimTime::from_secs(100_000)).unwrap();

    let reg = inst.registry();
    for tier in ["t1", "t2"] {
        assert_eq!(
            reg.aggregates(tier),
            reg.recount_aggregates(tier),
            "tier {tier} aggregates drifted under parallel load"
        );
    }
    // Every key the hammer left behind is readable and correctly indexed.
    let now = SimTime::from_secs(100_001);
    for key in reg.select(&Selector::All, None) {
        let meta = reg.get(&key).expect("indexed key exists");
        assert!(!meta.locations.is_empty(), "{key:?} has no location");
        inst.get(key.as_str(), now).unwrap();
    }
}

fn durable(name: &str) -> std::sync::Arc<MemTier> {
    MemTier::with_traits(
        name,
        64 << 20,
        TierTraits {
            durable: true,
            availability_zone: "zone-a".into(),
            class: tiera_sim::StorageClass::BlockStore,
        },
    )
}

/// Two placement specs to swap between. Neither names the spare tier, so
/// detaching it never strands an acked object.
fn placement(b: bool) -> Vec<Rule> {
    if b {
        vec![
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["t2"])),
            Rule::on(EventKind::action(ActionOp::Put).background())
                .respond(ResponseSpec::copy(Selector::Inserted, ["t1"])),
            Rule::on(EventKind::action_on(ActionOp::Get, "t2"))
                .respond(ResponseSpec::copy(Selector::Inserted, ["t1"])),
        ]
    } else {
        vec![Rule::on(EventKind::action(ActionOp::Put))
            .respond(ResponseSpec::store(Selector::Inserted, ["t1", "t2"]))]
    }
}

/// Returns once both clients have arrived at `round`, counting arrivals in
/// `arrived`, so the two start each round together. Unlike a `Barrier`, it
/// panics when the other client stops arriving (it panicked) instead of
/// waiting forever.
fn meet(arrived: &AtomicU64, round: u64) {
    arrived.fetch_add(1, Ordering::AcqRel);
    let deadline = Instant::now() + Duration::from_secs(30);
    while arrived.load(Ordering::Acquire) < 2 * (round + 1) {
        assert!(Instant::now() < deadline, "the other client never reached round {round}");
        std::thread::yield_now();
    }
}

/// Runs `client` on two threads beside a thread that alternates
/// `replace_all` between the placement specs (when `swap_rules`) and a
/// thread that attaches and detaches a spare tier and swaps the retry
/// policy. Each client thread is seeded, and the two share an arrival
/// count to [`meet`] at; returns what each one did.
fn under_config_churn<R: Send + 'static>(
    inst: &Arc<Instance>,
    seed: u64,
    swap_rules: bool,
    client: fn(&Instance, usize, &mut tiera_support::SimRng, &AtomicU64) -> R,
) -> Vec<R> {
    let stop = Arc::new(AtomicBool::new(false));
    let churn: Vec<_> = (0..2)
        .map(|role| {
            let (inst, stop) = (Arc::clone(inst), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    if role == 0 {
                        if swap_rules {
                            inst.policy().replace_all(placement(round % 2 == 1));
                        }
                    } else if round % 2 == 1 {
                        inst.attach_tier(MemTier::with_capacity("spare", 1 << 20)).unwrap();
                        inst.set_retry_policy(RetryPolicy::robust());
                    } else {
                        inst.detach_tier("spare").unwrap();
                        inst.set_retry_policy(RetryPolicy::none());
                    }
                    // Paced, so two CPUs still run the clients.
                    std::thread::sleep(Duration::from_micros(50));
                }
                if role == 1 && round % 2 == 1 {
                    inst.detach_tier("spare").unwrap();
                }
            })
        })
        .collect();
    let lockstep = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..2)
        .map(|t| {
            let (inst, lockstep) = (Arc::clone(inst), Arc::clone(&lockstep));
            std::thread::spawn(move || {
                let mut rng = tiera_support::SimRng::new(seed ^ (t as u64 + 1));
                client(&inst, t, &mut rng, &lockstep)
            })
        })
        .collect();
    let out = clients.into_iter().map(|c| c.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    for c in churn {
        c.join().unwrap();
    }
    out
}

/// Configuration changes race client traffic: placement specs swap
/// whole, a spare tier comes and goes, the retry policy flips. Each
/// operation runs under one configuration snapshot, so every acked PUT
/// stays readable, whatever spec it was placed under; and because timer
/// state lives on the shared rule, concurrent pumps fire each timer period
/// exactly once while tiers and retry policy are republished around them.
#[test]
fn config_publishes_race_traffic_and_timer_claims() {
    const SEED: u64 = 0x5EED_C0F1;
    let inst = InstanceBuilder::new("churn", SimEnv::new(SEED))
        .tier(MemTier::with_capacity("t1", 64 << 20))
        .tier(durable("t2"))
        .build()
        .unwrap();
    inst.policy().replace_all(placement(false));

    // Phase 1: every acked PUT stays readable through rule, tier and retry
    // swaps. Each client owns its keys. The two meet every round and take
    // turns to pump, so the race is there by construction in any build
    // profile: one client's pump runs the background copies spec B queued
    // last round while the other overwrites the key it wrote then, and a
    // copy publishes only at the version whose bytes it read. The final
    // pump runs what is still queued under whichever spec is current then.
    let acked = under_config_churn(&inst, SEED, true, |inst, t, rng, lockstep| {
        let mut last: FxHashMap<String, String> = FxHashMap::default();
        let mut key = String::new();
        for i in 0..400u64 {
            let pumps = i % 2 == t as u64;
            if pumps || key.is_empty() {
                key = format!("c{t}-{}", rng.next_below(32));
            }
            let value = format!("v{t}-{i}-{}", rng.next_u64());
            let now = SimTime::from_millis(i * 10);
            meet(lockstep, i);
            if pumps {
                inst.pump(now).unwrap();
            }
            inst.put(key.as_str(), value.as_bytes(), now).unwrap();
            let (data, _) = inst.get(key.as_str(), now).unwrap();
            assert_eq!(data.as_ref(), value.as_bytes(), "{key} right after its PUT");
            last.insert(key.clone(), value);
        }
        last
    });
    let now = SimTime::from_secs(10);
    inst.pump(now).unwrap();
    for (key, value) in acked.iter().flatten() {
        let (data, _) = inst.get(key.as_str(), now).unwrap();
        assert_eq!(data.as_ref(), value.as_bytes(), "{key} after the churn");
    }
    for tier in ["t1", "t2"] {
        let reg = inst.registry();
        assert_eq!(reg.aggregates(tier), reg.recount_aggregates(tier), "{tier}");
    }

    // Phase 2: a write-back timer, pumped by both clients at their own
    // clocks (10 s on) while tiers and retry policy are republished. Its
    // periods count from zero, so the first pump fires forty at once.
    let period = SimDuration::from_millis(250);
    inst.install_rule(
        Rule::on(EventKind::timer(period)).respond(ResponseSpec::copy(Selector::Dirty, ["t2"])),
    )
    .unwrap();
    let fired = under_config_churn(&inst, SEED, false, |inst, t, rng, _| {
        let mut fired = 0;
        for i in 0..400u64 {
            let now = SimTime::from_millis(10_000 + i * 10 + t as u64);
            let key = format!("w{t}-{}", rng.next_below(32));
            inst.put(key.as_str(), &b"dirty"[..], now).unwrap();
            fired += inst.pump(now).unwrap().timers_fired;
        }
        fired
    });
    let end = SimTime::from_secs(15);
    let last = inst.pump(end).unwrap().timers_fired;
    let elapsed_periods = end.as_nanos() / period.as_nanos();
    assert_eq!(fired.iter().sum::<u64>() + last, elapsed_periods);
}

/// Figure 5's LRU cache as `specs/lru_cache.tiera` declares it — every PUT
/// into `tier1` first moves `tier1.oldest` to `tier2` while `tier1` is
/// full — with `tier1` shrunk to four 64-byte objects so the PUTs evict.
fn lru_cache() -> Arc<Instance> {
    InstanceBuilder::new("LruCachingInstance", SimEnv::new(5))
        .tier(MemTier::with_capacity("tier1", 4 * 64))
        .tier(MemTier::with_capacity("tier2", 2 << 30))
        .rule(
            Rule::on(EventKind::action_on(ActionOp::Put, "tier1"))
                .respond(ResponseSpec::evict_lru("tier1", "tier2"))
                .respond(ResponseSpec::store(Selector::Inserted, ["tier1"])),
        )
        .build()
        .unwrap()
}

/// A GET locks its key's registry shard to read the metadata and again to
/// record the access, and takes no other registry lock: no registry-wide
/// lock, whether or not the registry keeps its order lists. The tally is
/// the lockcheck sanitizer's, so the test measures under `lockcheck`.
#[test]
fn a_get_takes_no_registry_lock_but_its_shard() {
    use tiera_support::sync::{reset_tally, tally, LOCKCHECK};
    if !LOCKCHECK {
        return;
    }
    let lru = lru_cache();
    let rule_free = InstanceBuilder::new("bare", SimEnv::new(6))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .build()
        .unwrap();
    for inst in [&lru, &rule_free] {
        for i in 0..16u8 {
            inst.put(format!("k{i}").as_str(), &[i; 64][..], SimTime::ZERO).unwrap();
        }
    }
    assert!(lru.registry().oldest_in("tier1").is_some(), "an ordered read");
    assert_eq!(lru.registry().keys_in("tier2").len(), 12, "the PUTs evicted");
    for (inst, key) in [(&lru, "k15"), (&lru, "k0"), (&rule_free, "k3")] {
        reset_tally();
        inst.get(key, SimTime::from_secs(1)).unwrap();
        let registry: Vec<(&str, u64)> =
            tally().into_iter().filter(|(name, _)| name.starts_with("registry.")).collect();
        assert_eq!(registry, [("registry.shard", 2)], "{inst:?} GET {key}");
    }
}

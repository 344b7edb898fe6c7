//! A `SimulatedTier` checked against a `BTreeMap` model.
//!
//! Values of 0–300 bytes cross the slab's size classes and its 256-byte
//! edge in both directions as keys are overwritten. The caller keeps some
//! buffers and lets others go, so some values stay shared buffers and
//! others move into cells. Deletes, torn writes (on a fresh key and on an
//! overwrite, whose rollback puts the old value back, cell or buffer), a
//! matured reshard and a reboot run in between. Every GET must match the
//! model byte for byte, `used()` must be the sum of the model's lengths,
//! and a buffer the caller kept must never change.

use std::collections::BTreeMap;

use tiera_core::error::TieraError;
use tiera_core::object::ObjectKey;
use tiera_core::tier::Tier;
use tiera_sim::{FailureKind, FaultSpec, SimDuration, SimEnv, SimRng, SimTime};
use tiera_support::prop::gen::{bytes, pick, usize_in};
use tiera_support::{prop_check, Bytes};
use tiera_tiers::MemoryTier;

/// Short keys, held inline, and two long enough to be shared strings.
fn keys() -> Vec<ObjectKey> {
    let mut keys: Vec<ObjectKey> = (0..20).map(|k| ObjectKey::new(format!("k{k:02}"))).collect();
    keys.extend((0..2).map(|k| ObjectKey::new(format!("a-key-too-long-to-be-inline-{k}"))));
    keys
}

/// A value's length: mostly around the slab's classes and its edge.
fn value_len(rng: &mut SimRng) -> usize {
    match rng.next_below(4) {
        0 => usize_in(rng, 0..17),
        1 => usize_in(rng, 240..301),
        _ => usize_in(rng, 0..301),
    }
}

fn check_all(tier: &MemoryTier, model: &BTreeMap<ObjectKey, Vec<u8>>, keys: &[ObjectKey]) {
    for key in keys {
        match (model.get(key), tier.get(key, SimTime::ZERO)) {
            (Some(want), Ok((got, _))) => assert_eq!(&got[..], &want[..], "{key}"),
            (None, Err(TieraError::NoSuchObject(_))) => {}
            (want, got) => panic!("{key}: model {want:?}, tier {:?}", got.map(|(b, _)| b)),
        }
    }
    assert_eq!(tier.used(), model.values().map(|v| v.len() as u64).sum::<u64>());
}

#[test]
fn simulated_tier_matches_a_map_model_across_the_slab() {
    let keys = keys();
    let (mut torn_fresh, mut torn_over) = (0, 0);
    prop_check!(cases = 48, |rng| {
        let env = SimEnv::new(rng.next_u64());
        let tier = MemoryTier::same_az("mem", 1 << 20, &env);
        tier.failures().set_seed(rng.next_u64());
        let mut model: BTreeMap<ObjectKey, Vec<u8>> = BTreeMap::new();
        // Buffers the caller still holds, with the bytes each must keep.
        let mut kept: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            let key = pick(rng, &keys).clone();
            match rng.next_below(20) {
                0..=8 => {
                    let len = value_len(rng);
                    let value = bytes(rng, len);
                    let data = Bytes::copy_from_slice(&value);
                    if rng.chance(0.3) {
                        kept.push((data.clone(), value.clone()));
                    }
                    tier.put(&key, data, now).unwrap();
                    model.insert(key, value);
                }
                9..=12 => match (model.get(&key), tier.get(&key, now)) {
                    (Some(want), Ok((got, _))) => assert_eq!(&got[..], &want[..], "{key}"),
                    (None, Err(TieraError::NoSuchObject(_))) => {}
                    (want, got) => panic!("{key}: model {want:?}, tier {:?}", got.map(|(b, _)| b)),
                },
                13 | 14 => {
                    tier.delete(&key, now).unwrap();
                    model.remove(&key);
                }
                15 | 16 => {
                    // Torn: an error, and the key reads what it read before.
                    if model.contains_key(&key) {
                        torn_over += 1;
                    } else {
                        torn_fresh += 1;
                    }
                    tier.failures().install(
                        FaultSpec::new(FailureKind::Writes, SimTime::ZERO, None).torn(1.0),
                    );
                    let len = value_len(rng);
                    let data = Bytes::from(bytes(rng, len));
                    let err = tier.put(&key, data, now).unwrap_err();
                    assert!(matches!(err, TieraError::Timeout { .. }), "{err}");
                    tier.failures().clear();
                }
                17 if !kept.is_empty() => {
                    let at = usize_in(rng, 0..kept.len());
                    kept.swap_remove(at);
                }
                18 if rng.chance(0.2) => {
                    // A matured grow: the first GET after it drops about
                    // half the keys; the model forgets the same ones.
                    tier.grow(100.0, now);
                    now += SimDuration::from_secs(61);
                    let _ = tier.get(&ObjectKey::new("absent"), now);
                    model.retain(|key, _| tier.contains(key));
                }
                19 if rng.chance(0.1) => {
                    tier.reboot();
                    model.clear();
                }
                _ => {}
            }
            assert_eq!(tier.used(), model.values().map(|v| v.len() as u64).sum::<u64>());
            for (buf, want) in &kept {
                assert_eq!(&buf[..], &want[..], "a kept buffer changed");
            }
            now += SimDuration::from_millis(1);
        }
        check_all(&tier, &model, &keys);
        drop(kept);
        check_all(&tier, &model, &keys);
    });
    assert!(torn_fresh > 0 && torn_over > 0, "torn writes: {torn_fresh} fresh, {torn_over} over");
}

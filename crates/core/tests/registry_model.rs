//! Referees for the registry's representation: the recency lists against a
//! sequence-numbered reference model, and the metadata codec against bytes
//! captured before tier names were interned.
//!
//! The model is the structure the lists replaced — one `BTreeMap<seq, key>`
//! where every mutation removes the object's old sequence number and
//! inserts a fresh maximum — so "the selectors agree element for element
//! after every step" is exactly "eviction order did not change".

use std::collections::BTreeMap;

use tiera_core::meta::ObjectMeta;
use tiera_core::prelude::*;
use tiera_core::registry::{Registry, TierAggregates};
use tiera_sim::SimEnv;
use tiera_support::prop::gen;
use tiera_support::prop_check;

/// More tiers than a `TierSet` holds inline, so some objects spill.
const TIERS: [&str; 6] = ["m1", "m2", "m3", "m4", "m5", "m6"];

/// The reference: every object's metadata and sequence number, and the
/// access order as a map from sequence number to key.
#[derive(Default)]
struct Model {
    next_seq: u64,
    objects: BTreeMap<ObjectKey, (ObjectMeta, u64)>,
    order: BTreeMap<u64, ObjectKey>,
}

impl Model {
    fn bump(&mut self, key: &ObjectKey, old_seq: Option<u64>) -> u64 {
        if let Some(seq) = old_seq {
            self.order.remove(&seq);
        }
        self.next_seq += 1;
        self.order.insert(self.next_seq, key.clone());
        self.next_seq
    }

    fn upsert(&mut self, key: ObjectKey, meta: ObjectMeta) {
        let old = self.objects.get(&key).map(|(_, seq)| *seq);
        let seq = self.bump(&key, old);
        self.objects.insert(key, (meta, seq));
    }

    fn update(&mut self, key: &ObjectKey, f: impl FnOnce(&mut ObjectMeta)) {
        let Some((mut meta, old)) = self.objects.remove(key) else {
            return;
        };
        f(&mut meta);
        let seq = self.bump(key, Some(old));
        self.objects.insert(key.clone(), (meta, seq));
    }

    fn remove(&mut self, key: &ObjectKey) {
        if let Some((_, seq)) = self.objects.remove(key) {
            self.order.remove(&seq);
        }
    }

    /// Keys in access order whose metadata passes `keep`.
    fn in_order(&self, keep: impl Fn(&ObjectMeta) -> bool) -> Vec<ObjectKey> {
        self.order
            .values()
            .filter(|k| keep(&self.objects[*k].0))
            .cloned()
            .collect()
    }

    /// Keys by `(access_count, key)` whose metadata passes `keep`.
    fn by_count(&self, keep: impl Fn(&ObjectMeta) -> bool) -> Vec<ObjectKey> {
        let mut hits: Vec<(u64, ObjectKey)> = self
            .objects
            .iter()
            .filter(|(_, (m, _))| keep(m))
            .map(|(k, (m, _))| (m.access_count, k.clone()))
            .collect();
        hits.sort();
        hits.into_iter().map(|(_, k)| k).collect()
    }

    fn aggregates(&self, tier: &str) -> TierAggregates {
        let mut agg = TierAggregates::default();
        for (meta, _) in self.objects.values().filter(|(m, _)| m.in_tier(tier)) {
            agg.objects += 1;
            if meta.dirty {
                agg.dirty_bytes += meta.stored_size;
            }
        }
        agg
    }
}

fn assert_agrees(reg: &Registry, model: &Model, now: SimTime, step: usize) {
    let select = |s: Selector| reg.select(&s, None, now);
    assert_eq!(
        select(Selector::All),
        model.in_order(|_| true),
        "All @{step}"
    );
    assert_eq!(
        select(Selector::Dirty),
        model.in_order(|m| m.dirty),
        "Dirty @{step}"
    );
    assert_eq!(reg.len(), model.objects.len(), "len @{step}");
    for tier in TIERS {
        let expected = model.in_order(|m| m.in_tier(tier));
        assert_eq!(
            select(Selector::InTier(tier.into())),
            expected,
            "InTier({tier}) @{step}"
        );
        assert_eq!(reg.keys_in(tier), expected, "keys_in({tier}) @{step}");
        assert_eq!(
            select(Selector::OldestIn(tier.into())),
            expected.first().cloned().into_iter().collect::<Vec<_>>(),
            "OldestIn({tier}) @{step}"
        );
        assert_eq!(
            select(Selector::NewestIn(tier.into())),
            expected.last().cloned().into_iter().collect::<Vec<_>>(),
            "NewestIn({tier}) @{step}"
        );
        assert_eq!(
            reg.aggregates(tier),
            reg.recount_aggregates(tier),
            "recount({tier}) @{step}"
        );
        assert_eq!(
            reg.aggregates(tier),
            model.aggregates(tier),
            "aggregates({tier}) @{step}"
        );
    }
    for bound in [0.05, 0.5, 2.0] {
        let mut hot = model.by_count(|m| m.access_frequency(now) >= bound);
        hot.reverse();
        assert_eq!(
            select(Selector::HotterThan(bound)),
            hot,
            "HotterThan({bound}) @{step}"
        );
        let cold = model.by_count(|m| m.access_frequency(now) < bound);
        assert_eq!(
            select(Selector::ColderThan(bound)),
            cold,
            "ColderThan({bound}) @{step}"
        );
    }
}

#[test]
fn prop_selectors_match_a_sequence_numbered_model_after_every_step() {
    prop_check!(cases = 32, |rng| {
        let reg = Registry::in_memory();
        let mut model = Model::default();
        let key_space = gen::usize_in(rng, 4..24);
        for step in 0..gen::usize_in(rng, 20..90) {
            let now = SimTime::from_secs(step as u64 + 1);
            let key = ObjectKey::new(format!("k{}", gen::usize_in(rng, 0..key_space)));
            match gen::usize_in(rng, 0..100) {
                0..=34 => {
                    let mut meta = ObjectMeta::new(gen::u64_in(rng, 1..4096), now);
                    meta.dirty = gen::boolean(rng);
                    meta.access_count = gen::u64_in(rng, 0..6);
                    for tier in TIERS {
                        if gen::usize_in(rng, 0..3) == 0 {
                            meta.locations.insert(tier.to_string());
                        }
                    }
                    reg.upsert(key.clone(), meta.clone());
                    model.upsert(key, meta);
                }
                35..=64 => {
                    let flip = gen::boolean(rng);
                    let tier = *gen::pick(rng, &TIERS);
                    let resize = gen::u64_in(rng, 1..4096);
                    let edit = |m: &mut ObjectMeta| {
                        if flip {
                            m.dirty = !m.dirty;
                        }
                        if !m.locations.insert(tier.to_string()) {
                            m.locations.remove(tier);
                        }
                        m.stored_size = resize;
                    };
                    let updated = reg.update(&key, edit);
                    model.update(&key, edit);
                    assert_eq!(updated.as_ref(), model.objects.get(&key).map(|(m, _)| m));
                }
                65..=84 => {
                    reg.touch(&key, now);
                    model.update(&key, |m| m.touch(now));
                }
                _ => {
                    let removed = reg.remove(&key);
                    assert_eq!(removed.as_ref(), model.objects.get(&key).map(|(m, _)| m));
                    model.remove(&key);
                }
            }
            assert_agrees(&reg, &model, now, step);
        }
    });
}

// ---- golden bytes: `ObjectMeta::encode` output captured at the parent ----

/// `ObjectMeta::new(128, 3 s)`.
const GOLDEN_MINIMAL: &str = "800000000000000080000000000000000000000000000000005ed0b200000000005ed0b20000000000000000000000000000";
/// 1 KiB object in `mem` (the benchmark's registry and metastore rungs).
const GOLDEN_ONE_LOCATION: &str = "000400000000000000040000000000000000000000000000000000000000000000000000000000000001000000030000006d656d0000000000";
/// Two locations, a tag, a digest, compressed + encrypted with a key id.
const GOLDEN_FULL: &str = "0010000000000000d204000000000000010000000000000000c817a80400000000e40b54020000000f239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e50200000003000000656273090000006d656d6361636865640100000003000000746d70010700000064656661756c74";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn parent_encodings_decode_and_reencode_byte_identically() {
    for golden in [GOLDEN_MINIMAL, GOLDEN_ONE_LOCATION, GOLDEN_FULL] {
        let bytes = unhex(golden);
        let meta = ObjectMeta::decode(&bytes).expect("parent encoding decodes");
        assert_eq!(meta.encode(), bytes, "{meta:?}");
    }
    // And the records mean what the parent meant by them.
    let minimal = ObjectMeta::decode(&unhex(GOLDEN_MINIMAL)).unwrap();
    assert_eq!(minimal, ObjectMeta::new(128, SimTime::from_secs(3)));
    let full = ObjectMeta::decode(&unhex(GOLDEN_FULL)).unwrap();
    assert_eq!(
        (full.size, full.stored_size, full.access_count),
        (4096, 1234, 1)
    );
    assert_eq!(
        full.locations.iter().copied().collect::<Vec<_>>(),
        ["ebs", "memcached"]
    );
    assert!(full.dirty && full.compressed && full.encrypted);
    assert!(full.has_tag(&Tag::new("tmp")));
    assert_eq!(full.digest(), Some(tiera_codec::Digest::of(b"payload")));
    assert_eq!(full.encryption_key_id(), Some("default"));
}

#[test]
fn metadata_directory_written_by_the_parent_reopens_with_every_key() {
    // Written at the parent commit through `InstanceBuilder::metadata_dir`
    // (the benchmark's `core.instance_meta` path): 64 PUTs of `key-000` ..
    // `key-063` into tier `mem`, a GET of every third, a DELETE of every
    // sixteenth, then `sync()`.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_metadata");
    let dir = std::env::temp_dir().join(format!("tiera-parent-meta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let inst = InstanceBuilder::new("sut", SimEnv::new(7))
        .tier(MemTier::with_capacity("mem", 1 << 20))
        .metadata_dir(&dir)
        .build()
        .unwrap();
    let reg = inst.registry();
    assert_eq!(reg.len(), 60);
    for k in 0..64u64 {
        let meta = reg.get(&ObjectKey::new(format!("key-{k:03}")));
        if k % 16 == 0 {
            assert!(meta.is_none(), "key-{k:03} was deleted");
            continue;
        }
        let meta = meta.unwrap_or_else(|| panic!("key-{k:03} recovered"));
        assert_eq!(meta.size, 100 + k);
        assert_eq!(meta.access_count, if k % 3 == 0 { 2 } else { 1 });
        assert!(meta.in_tier("mem") && meta.dirty);
    }
    assert_eq!(reg.aggregates("mem").objects, 60);
    assert_eq!(reg.keys_in("mem").len(), 60);
    drop(inst);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_record_recovery_cannot_decode_is_counted_and_reported_by_the_next_sync() {
    use std::os::unix::fs::FileExt;
    use tiera_metastore::{LogReader, RecordKind};

    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_metadata");
    let dir = std::env::temp_dir().join(format!("tiera-parent-meta-skip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }

    // One live record of shard 0 — the last put in its log — rewritten in
    // place: a location count no value is long enough for, under a crc
    // that holds, so that the store replays it and `decode` refuses it.
    let segment = dir.join("s00-seg-0000000000.log");
    let mut reader = LogReader::new(std::fs::File::open(&segment).unwrap());
    let mut victim = None;
    loop {
        let at = reader.valid_len;
        let Some(rec) = reader.next_record().unwrap() else {
            break;
        };
        match rec.kind {
            RecordKind::Put => victim = Some((at, rec)),
            RecordKind::Delete if victim.as_ref().is_some_and(|(_, v)| v.key == rec.key) => {
                victim = None
            }
            _ => {}
        }
    }
    let (at, rec) = victim.expect("shard 0 holds a live record");
    let file = std::fs::OpenOptions::new().read(true).write(true).open(&segment).unwrap();
    let mut frame = vec![0u8; 13 + rec.key.len() + rec.value.len()];
    file.read_exact_at(&mut frame, at).unwrap();
    // Five u64 fields and the flags byte come before the location count.
    let count_at = 13 + rec.key.len() + 41;
    frame[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = tiera_codec::crc32::checksum(&frame[4..]);
    frame[..4].copy_from_slice(&crc.to_le_bytes());
    file.write_all_at(&frame, at).unwrap();
    drop(file);

    let inst = InstanceBuilder::new("sut", SimEnv::new(7))
        .tier(MemTier::with_capacity("mem", 1 << 20))
        .metadata_dir(&dir)
        .build()
        .unwrap();
    let reg = inst.registry();
    assert_eq!(reg.len(), 59);
    assert_eq!(reg.recovery_skipped(), 1);
    let lost = ObjectKey::new(String::from_utf8(rec.key).unwrap());
    assert!(reg.get(&lost).is_none());
    let err = reg.sync().unwrap_err();
    assert!(
        matches!(&err, TieraError::Metadata(m) if m.contains("1 metadata record(s)") && m.contains(lost.as_str())),
        "{err}"
    );
    reg.sync().expect("reported once");
    assert_eq!(reg.recovery_skipped(), 1);
    // The object can be stored again over the record that did not decode.
    inst.put(lost.as_str(), vec![1u8; 8], SimTime::ZERO).unwrap();
    reg.sync().unwrap();
    drop(inst);
    let reopened = Registry::persistent(&dir).unwrap();
    assert_eq!((reopened.len(), reopened.recovery_skipped()), (60, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// A tier whose `put` panics once armed: a process dying between a PUT's
/// metadata and its bytes, staged in-process.
struct DiesOnPut {
    inner: std::sync::Arc<MemTier>,
    armed: std::sync::atomic::AtomicBool,
}

impl Tier for DiesOnPut {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tier_traits(&self) -> TierTraits {
        self.inner.tier_traits()
    }
    fn capacity(&self, now: SimTime) -> u64 {
        self.inner.capacity(now)
    }
    fn used(&self) -> u64 {
        self.inner.used()
    }
    fn put(&self, key: &ObjectKey, data: tiera_support::Bytes, now: SimTime) -> Result<OpReceipt> {
        assert!(!self.armed.load(std::sync::atomic::Ordering::Relaxed), "process died mid-PUT");
        self.inner.put(key, data, now)
    }
    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(tiera_support::Bytes, OpReceipt)> {
        self.inner.get(key, now)
    }
    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        self.inner.delete(key, now)
    }
    fn contains(&self, key: &ObjectKey) -> bool {
        self.inner.contains(key)
    }
    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        self.inner.grow(percent, now)
    }
    fn shrink(&self, percent: f64, now: SimTime) {
        self.inner.shrink(percent, now)
    }
    fn request_counts(&self) -> tiera_core::tier::RequestCounts {
        self.inner.request_counts()
    }
}

fn metadata_temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tiera-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_put_that_dies_before_its_bytes_land_leaves_no_phantom_record() {
    let dir = metadata_temp_dir("put-dies");
    let tier = std::sync::Arc::new(DiesOnPut {
        inner: MemTier::with_capacity("mem", 1 << 20),
        armed: std::sync::atomic::AtomicBool::new(false),
    });
    let inst = InstanceBuilder::new("sut", SimEnv::new(7))
        .tier(std::sync::Arc::clone(&tier))
        .metadata_dir(&dir)
        .build()
        .unwrap();
    inst.put("landed", vec![1u8; 8], SimTime::ZERO).unwrap();
    tier.armed.store(true, std::sync::atomic::Ordering::Relaxed);
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        inst.put("phantom", vec![2u8; 8], SimTime::ZERO)
    }));
    assert!(died.is_err(), "the armed tier must panic");
    drop(inst);

    let reopened = InstanceBuilder::new("sut", SimEnv::new(7))
        .tier(MemTier::with_capacity("mem", 1 << 20))
        .metadata_dir(&dir)
        .build()
        .unwrap();
    let reg = reopened.registry();
    assert!(reg.contains(&ObjectKey::new("landed")));
    assert!(
        !reg.contains(&ObjectKey::new("phantom")),
        "a record for a PUT whose bytes never reached a tier survived the crash"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fresh_put_appends_one_metadata_record() {
    let dir = metadata_temp_dir("put-one-record");
    let inst = InstanceBuilder::new("sut", SimEnv::new(7))
        .tier(MemTier::with_capacity("mem", 1 << 20))
        .metadata_dir(&dir)
        .build()
        .unwrap();
    for i in 0..32u64 {
        inst.put(format!("key-{i}"), vec![i as u8; 16], SimTime::ZERO).unwrap();
    }
    inst.registry().sync().unwrap();
    drop(inst);
    let stats = tiera_metastore::MetaStore::open(&dir).unwrap().stats();
    assert_eq!(stats.live_keys, 32);
    assert_eq!(stats.dead_bytes, 0, "a fresh PUT superseded a record of its own");
    std::fs::remove_dir_all(&dir).ok();
}

//! A copy, move or in-place rewrite publishes only at the write version
//! whose bytes it read, an eviction removes only the bytes its copy
//! wrote, a move that fails part way still records where the bytes went,
//! and one PUT of a key places at a time. Each case stages its timing
//! with a test tier: one that holds a read, a delete or a capacity check
//! until the test releases it, or one that refuses deletes or a given
//! value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use tiera_core::prelude::*;
use tiera_core::tier::RequestCounts;
use tiera_sim::SimEnv;
use tiera_support::sync::Mutex;
use tiera_support::Bytes;

/// A memory tier that, once armed, holds its next `get` after reading,
/// its next `delete` before deleting or its next `capacity` check — it
/// reports on `parked` and waits for `release` — that refuses deletes
/// while `refuse_deletes` is set, and puts of `refused_value`.
struct Held {
    inner: Arc<MemTier>,
    park_get: AtomicBool,
    park_delete: AtomicBool,
    park_capacity: AtomicBool,
    refuse_deletes: AtomicBool,
    refused_value: Mutex<Option<Vec<u8>>>,
    parked: Sender<()>,
    release: Mutex<Receiver<()>>,
}

/// The test's ends of a [`Held`] tier.
struct Gate {
    parked: Receiver<()>,
    release: Sender<()>,
}

impl Held {
    fn new(name: &str, capacity: u64) -> (Arc<Self>, Gate) {
        let (parked_tx, parked) = channel();
        let (release, release_rx) = channel();
        let tier = Arc::new(Self {
            inner: MemTier::with_capacity(name, capacity),
            park_get: AtomicBool::new(false),
            park_delete: AtomicBool::new(false),
            park_capacity: AtomicBool::new(false),
            refuse_deletes: AtomicBool::new(false),
            refused_value: Mutex::new(None),
            parked: parked_tx,
            release: Mutex::new(release_rx),
        });
        (tier, Gate { parked, release })
    }

    fn hold(&self) {
        self.parked.send(()).unwrap();
        self.release.lock().recv().unwrap();
    }

    fn refusal(&self) -> TieraError {
        TieraError::Timeout { tier: self.name().to_string(), waited: SimDuration::from_millis(10) }
    }
}

impl Tier for Held {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tier_traits(&self) -> TierTraits {
        self.inner.tier_traits()
    }
    fn capacity(&self, now: SimTime) -> u64 {
        if self.park_capacity.swap(false, Ordering::SeqCst) {
            self.hold();
        }
        self.inner.capacity(now)
    }
    fn used(&self) -> u64 {
        self.inner.used()
    }
    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
        if self.refused_value.lock().as_deref() == Some(&data[..]) {
            return Err(self.refusal());
        }
        self.inner.put(key, data, now)
    }
    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
        let read = self.inner.get(key, now);
        if self.park_get.swap(false, Ordering::SeqCst) {
            self.hold();
        }
        read
    }
    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        if self.park_delete.swap(false, Ordering::SeqCst) {
            self.hold();
        }
        if self.refuse_deletes.load(Ordering::SeqCst) {
            return Err(self.refusal());
        }
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
    fn request_counts(&self) -> RequestCounts {
        self.inner.request_counts()
    }
}

/// `t1` (the [`Held`] tier, where PUTs land) and a durable `t2`, with a
/// one-second write-back timer that moves every dirty object to `t2`.
fn write_back() -> (Arc<Instance>, Arc<Held>, Gate, Arc<MemTier>) {
    let (t1, gate) = Held::new("t1", 64 << 20);
    let t2 =
        MemTier::with_traits("t2", 64 << 20, TierTraits { durable: true, ..TierTraits::default() });
    let inst = InstanceBuilder::new("write-back", SimEnv::new(3))
        .tier(Arc::clone(&t1))
        .tier(Arc::clone(&t2))
        .rule(
            Rule::on(EventKind::timer(SimDuration::from_secs(1)))
                .respond(ResponseSpec::move_to(Selector::Dirty, ["t2"])),
        )
        .build()
        .unwrap();
    (inst, t1, gate, t2)
}

#[test]
fn a_move_racing_an_overwrite_publishes_nothing() {
    let (inst, t1, gate, t2) = write_back();
    inst.put("k", &b"old"[..], SimTime::ZERO).unwrap();
    // The write-back move reads `old`, and holds before it publishes.
    t1.park_get.store(true, Ordering::SeqCst);
    let pump = {
        let inst = Arc::clone(&inst);
        std::thread::spawn(move || inst.pump(SimTime::from_secs(1)).unwrap())
    };
    gate.parked.recv().unwrap();
    inst.put("k", &b"new"[..], SimTime::from_millis(1500)).unwrap();
    gate.release.send(()).unwrap();
    pump.join().unwrap();

    let now = SimTime::from_secs(2);
    let (data, _) = inst.get("k", now).unwrap();
    assert_eq!(data.as_ref(), b"new");
    let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
    assert!(meta.dirty, "the new bytes are not in a durable tier yet");
    assert!(!meta.in_tier("t2"), "{meta:?}");
    assert_eq!(t2.used(), 0, "the stale move wrote nothing");
    assert_eq!(inst.stats().stale_copies(), 1);
    // The next write-back moves the new bytes.
    inst.pump(SimTime::from_secs(3)).unwrap();
    let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
    assert!(!meta.dirty && meta.in_tier("t2") && !meta.in_tier("t1"), "{meta:?}");
    assert_eq!(inst.get("k", now).unwrap().0.as_ref(), b"new");
}

#[test]
fn a_move_whose_source_refuses_the_delete_strands_nothing() {
    let (inst, t1, _gate, t2) = write_back();
    inst.put("k", &b"bytes"[..], SimTime::ZERO).unwrap();
    t1.refuse_deletes.store(true, Ordering::SeqCst);
    inst.pump(SimTime::from_secs(1)).unwrap();
    // The move wrote `t2`, then failed to vacate `t1`: the record names
    // both, and both hold the bytes.
    let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
    assert!(meta.in_tier("t1") && meta.in_tier("t2"), "{meta:?}");
    assert!(t2.used() > 0);
    t1.refuse_deletes.store(false, Ordering::SeqCst);
    inst.delete("k", SimTime::from_secs(2)).unwrap();
    assert_eq!((t1.used(), t2.used()), (0, 0));
}

#[test]
fn a_put_stays_readable_when_the_overwrite_behind_it_fails() {
    // Figure 5's LRU cache: each PUT checks `t1`'s room, then stores there.
    let (t1, gate) = Held::new("t1", 64 << 20);
    let t2 = MemTier::with_capacity("t2", 64 << 20);
    let inst = InstanceBuilder::new("lru", SimEnv::new(3))
        .tier(Arc::clone(&t1))
        .tier(t2)
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::evict_lru("t1", "t2"))
                .respond(ResponseSpec::store(Selector::Inserted, ["t1"])),
        )
        .build()
        .unwrap();
    inst.put("k", &b"zero"[..], SimTime::ZERO).unwrap();
    *t1.refused_value.lock() = Some(b"second".to_vec());

    // The first PUT holds in its room check, before its store.
    t1.park_capacity.store(true, Ordering::SeqCst);
    let first = {
        let inst = Arc::clone(&inst);
        std::thread::spawn(move || inst.put("k", &b"first"[..], SimTime::from_secs(1)))
    };
    gate.parked.recv().unwrap();
    // The second, whose bytes `t1` refuses, waits for the first to finish
    // and then holds in the same check. Were it let in, it would replace
    // the first's record and hold there; the first's store would then
    // find its record replaced, and the second's failure put back a
    // record of the first whose bytes never landed.
    t1.park_capacity.store(true, Ordering::SeqCst);
    let second = {
        let inst = Arc::clone(&inst);
        std::thread::spawn(move || inst.put("k", &b"second"[..], SimTime::from_secs(2)))
    };
    let _ = gate.parked.recv_timeout(Duration::from_millis(200));
    gate.release.send(()).unwrap();
    first.join().unwrap().unwrap();
    gate.release.send(()).unwrap();
    assert!(second.join().unwrap().is_err(), "t1 refuses the second value");

    let now = SimTime::from_secs(3);
    let (data, receipt) = inst.get("k", now).unwrap();
    assert_eq!(data.as_ref(), b"first", "the acknowledged PUT is what a GET reads");
    assert_ne!(receipt.version, 0, "no PUT is still placing the record");
    inst.put("k", &b"third"[..], now).unwrap();
    assert_eq!(inst.get("k", now).unwrap().0.as_ref(), b"third");
}

/// `t1` (the [`Held`] tier) alone, with a one-second timer that runs
/// `rewrite` on `k`, which holds `old` (a 4 KiB text).
fn rewriting(rewrite: ResponseSpec) -> (Arc<Instance>, Arc<Held>, Gate) {
    let (t1, gate) = Held::new("t1", 64 << 20);
    let inst = InstanceBuilder::new("rewrite", SimEnv::new(3))
        .tier(Arc::clone(&t1))
        .rule(Rule::on(EventKind::timer(SimDuration::from_secs(1))).respond(rewrite))
        .build()
        .unwrap();
    inst.add_key("k1", [7u8; 32]);
    let old: Vec<u8> = b"old ".iter().cycle().take(4096).copied().collect();
    inst.put("k", Bytes::from(old), SimTime::ZERO).unwrap();
    (inst, t1, gate)
}

/// The rewrite reads `old` and holds there while `new` overwrites it;
/// once let go, it finds the record at a later version and writes
/// nothing: `new` stays in `t1` as it was stored, and readable.
fn a_rewrite_racing_an_overwrite_writes_nothing(rewrite: ResponseSpec) {
    let (inst, t1, gate) = rewriting(rewrite);
    t1.park_get.store(true, Ordering::SeqCst);
    let pump = {
        let inst = Arc::clone(&inst);
        std::thread::spawn(move || inst.pump(SimTime::from_secs(1)).unwrap())
    };
    gate.parked.recv().unwrap();
    inst.put("k", &b"new"[..], SimTime::from_millis(1500)).unwrap();
    gate.release.send(()).unwrap();
    pump.join().unwrap();

    let now = SimTime::from_secs(2);
    assert_eq!(inst.get("k", now).unwrap().0.as_ref(), b"new");
    let (stored, _) = t1.inner.get(&ObjectKey::new("k"), now).unwrap();
    assert_eq!(stored.as_ref(), b"new", "the stale rewrite wrote nothing");
    let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
    assert!(!meta.compressed && !meta.encrypted, "{meta:?}");
    assert_eq!(inst.stats().stale_copies(), 1);
}

#[test]
fn a_compress_racing_an_overwrite_writes_nothing() {
    let what = Selector::Key(ObjectKey::new("k"));
    a_rewrite_racing_an_overwrite_writes_nothing(ResponseSpec::Compress { what });
}

#[test]
fn an_encrypt_racing_an_overwrite_writes_nothing() {
    let what = Selector::Key(ObjectKey::new("k"));
    a_rewrite_racing_an_overwrite_writes_nothing(ResponseSpec::Encrypt {
        what,
        key_id: "k1".into(),
    });
}

#[test]
fn an_eviction_removes_only_the_bytes_its_copy_wrote() {
    // Figure 5's LRU cache over an 8-byte `t1`: each 4-byte PUT into a
    // full `t1` moves the oldest object to `t2`, a copy and then a vacate.
    let (t1, gate) = Held::new("t1", 8);
    let t2 = MemTier::with_capacity("t2", 64 << 20);
    let inst = InstanceBuilder::new("lru", SimEnv::new(3))
        .tier(Arc::clone(&t1))
        .tier(Arc::clone(&t2))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::evict_lru("t1", "t2"))
                .respond(ResponseSpec::store(Selector::Inserted, ["t1"])),
        )
        .build()
        .unwrap();
    inst.put("a", &b"aaaa"[..], SimTime::ZERO).unwrap();
    inst.put("b", &b"bbbb"[..], SimTime::from_secs(1)).unwrap();

    // `c` evicts `a`: the copy to `t2` lands, and the vacate of `t1`
    // holds at its delete.
    t1.park_delete.store(true, Ordering::SeqCst);
    let evicting = {
        let inst = Arc::clone(&inst);
        std::thread::spawn(move || inst.put("c", &b"cccc"[..], SimTime::from_secs(2)))
    };
    gate.parked.recv().unwrap();
    // A PUT of the victim, meanwhile. The vacate holds `a`'s record at the
    // version its copy wrote, so the PUT lands after it; had it landed in
    // between, the vacate would find the later version and delete nothing.
    let (done, landed) = channel();
    let overwrite = {
        let inst = Arc::clone(&inst);
        std::thread::spawn(move || {
            let put = inst.put("a", &b"new!"[..], SimTime::from_secs(3));
            done.send(()).unwrap();
            put
        })
    };
    let _ = landed.recv_timeout(Duration::from_millis(200));
    gate.release.send(()).unwrap();
    evicting.join().unwrap().unwrap();
    overwrite.join().unwrap().unwrap();

    let now = SimTime::from_secs(4);
    let (data, receipt) = inst.get("a", now).unwrap();
    assert_eq!(data.as_ref(), b"new!", "the acknowledged overwrite is readable");
    assert_eq!(receipt.served_by, "t1");
    let (stored, _) = t1.inner.get(&ObjectKey::new("a"), now).unwrap();
    assert_eq!(stored.as_ref(), b"new!");
    for key in ["b", "c"] {
        assert!(inst.get(key, now).is_ok(), "{key} is readable");
    }
    // No copy of `a` outlived its record: `t2` holds only `b`.
    assert_eq!(t2.used(), 4);
}

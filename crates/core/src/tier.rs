//! The tier abstraction.
//!
//! Paper §2.2: "A tier can be any source or sink for data with a prescribed
//! interface." This module defines that prescribed interface — the [`Tier`]
//! trait — plus a minimal in-memory implementation ([`MemTier`]) used by
//! tests and examples. Realistic simulated cloud tiers (Memcached, EBS, S3,
//! ephemeral instance storage) live in the `tiera-tiers` crate.
//!
//! Tiers never sleep: each operation returns an [`OpReceipt`] carrying the
//! virtual latency the operation would have taken, and callers account for
//! it (see `DESIGN.md` §3, "Virtual time under concurrency").
//!
//! Tier *names* are interned: everywhere a name travels with an object or
//! an operation — `ObjectMeta::locations`, the registry's per-tier indexes,
//! read receipts, hit counters — it travels as a [`TierId`], a `Copy`
//! two-byte handle resolved once at the edge (tier attach, metadata decode,
//! `locations.insert(String)`). Ids exist only in memory: persisted
//! metadata and the RPC wire format carry names.

use std::fmt;
use std::sync::{Arc, OnceLock};

use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, Mutex};
use tiera_support::Bytes;

use tiera_sim::{SimDuration, SimTime, StorageClass};

use crate::error::{Result, TieraError};
use crate::object::ObjectKey;

/// Shared handle to a tier.
pub type TierHandle = Arc<dyn Tier>;

/// How many distinct tier names one process may intern. Tier names are a
/// tiny closed vocabulary (a handful per instance); the bound exists so
/// that hostile persisted metadata cannot grow the table without limit.
pub const MAX_TIER_NAMES: usize = 4096;

/// The process-wide, append-only name table: slot `i` holds the name of
/// `TierId(i)`. Slots fill in order and are never cleared, so the table is
/// dense, a reader needs no lock, and an id stays valid for the life of the
/// process. Lookups scan — the vocabulary is a few names long.
static NAMES: [OnceLock<Box<str>>; MAX_TIER_NAMES] = [const { OnceLock::new() }; MAX_TIER_NAMES];

/// An interned tier name: two bytes, `Copy`, compared as an integer.
///
/// Prints (`Display`, `Debug`) and compares (`== "tier1"`) as its name.
/// Ids are assigned in first-intern order and mean nothing outside this
/// process; never persist or send one.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TierId(u16);

impl TierId {
    /// Filler for the unused slots of an inline [`TierSet`]; never a valid
    /// id, never read.
    ///
    /// [`TierSet`]: crate::meta::TierSet
    pub(crate) const UNSET: TierId = TierId(u16::MAX);

    /// Interns `name`, returning its id; `None` once [`MAX_TIER_NAMES`]
    /// distinct names exist and `name` is not among them.
    pub fn intern(name: &str) -> Option<TierId> {
        NAMES
            .iter()
            // Claims the first empty slot for `name` unless an earlier slot
            // already holds it; racing claimants of one slot agree on a
            // winner and the loser moves on.
            .position(|slot| **slot.get_or_init(|| name.into()) == *name)
            .map(|i| TierId(i as u16))
    }

    /// The id of an already interned name, without interning it.
    pub fn lookup(name: &str) -> Option<TierId> {
        NAMES
            .iter()
            .map_while(|slot| slot.get())
            .position(|known| **known == *name)
            .map(|i| TierId(i as u16))
    }

    /// The tier name this id stands for.
    pub fn name(self) -> &'static str {
        NAMES[self.0 as usize]
            .get()
            .expect("a TierId is only ever minted by `intern`, which fills its slot")
    }

    /// How many names the table holds.
    pub fn interned() -> usize {
        NAMES.partition_point(|slot| slot.get().is_some())
    }
}

impl From<&str> for TierId {
    /// Interns `name`. Panics if the process has already interned
    /// [`MAX_TIER_NAMES`] other names — use [`TierId::intern`] for names
    /// that arrive from outside the program.
    fn from(name: &str) -> Self {
        TierId::intern(name).expect("more than MAX_TIER_NAMES distinct tier names in one process")
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.name(), f)
    }
}

impl PartialEq<&str> for TierId {
    fn eq(&self, other: &&str) -> bool {
        self.name() == *other
    }
}

/// What a storage operation cost in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpReceipt {
    /// Service latency of the operation.
    pub latency: SimDuration,
}

impl OpReceipt {
    /// A receipt with the given latency.
    pub fn took(latency: SimDuration) -> Self {
        Self { latency }
    }

    /// A free operation.
    pub const FREE: OpReceipt = OpReceipt { latency: SimDuration::ZERO };
}

/// Static properties of a tier that policies and the cost model reason
/// about.
#[derive(Debug, Clone, PartialEq)]
pub struct TierTraits {
    /// Whether data survives instance reboots / node failures.
    pub durable: bool,
    /// Availability zone label (paper §4.1.1 runs Memcached replicas in two
    /// different zones).
    pub availability_zone: String,
    /// Pricing/latency class.
    pub class: StorageClass,
}

impl Default for TierTraits {
    fn default() -> Self {
        Self {
            durable: false,
            availability_zone: "zone-a".into(),
            class: StorageClass::MemoryCache,
        }
    }
}

/// Counters of chargeable requests made to a tier (object stores bill
/// per-request; paper Fig 12b counts requests to S3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCounts {
    /// PUT-class requests (writes, deletes).
    pub puts: u64,
    /// GET-class requests (reads).
    pub gets: u64,
}

/// Logical-vs-physical capacity accounting for tiers that transform
/// payloads (compression, content-addressed dedup). Plain tiers store
/// bytes verbatim and report `None` from [`Tier::capacity_profile`];
/// wrapper tiers (`tiera-tierx`) report how many logical bytes they are
/// presenting on top of how many physical bytes the backing tier holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityProfile {
    /// Bytes the tier's clients have stored (pre-transform).
    pub logical_bytes: u64,
    /// Bytes physically occupied in the backing store (post-transform).
    pub physical_bytes: u64,
    /// Live objects (client keys) the tier is presenting.
    pub objects: u64,
    /// Objects stored raw because compression would have expanded them.
    pub raw_fallback_objects: u64,
    /// Puts answered by an existing content-addressed blob (no new
    /// physical write).
    pub dedup_hits: u64,
    /// Distinct refcounted blobs in the content-addressed store.
    pub unique_blobs: u64,
    /// `(refcount, blobs with that refcount)`, ascending by refcount.
    pub refcount_histogram: Vec<(u64, u64)>,
}

impl CapacityProfile {
    /// Logical bytes per physical byte (`1.0` when nothing is stored).
    pub fn compression_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }

    /// Fraction of puts absorbed by an existing blob.
    pub fn dedup_hit_rate(&self) -> f64 {
        let total = self.dedup_hits + self.unique_blobs;
        if total == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / total as f64
        }
    }
}

/// The prescribed interface every storage tier implements.
///
/// All methods take the caller's current virtual time `now` so the tier can
/// model queuing, failure windows, and provisioning delays.
pub trait Tier: Send + Sync {
    /// The tier's unique name within its instance (e.g. `"tier1"`).
    fn name(&self) -> &str;

    /// Static properties.
    fn tier_traits(&self) -> TierTraits;

    /// Capacity in bytes at virtual time `now` (growing tiers change over
    /// time).
    fn capacity(&self, now: SimTime) -> u64;

    /// Bytes currently stored.
    fn used(&self) -> u64;

    /// Stores (or overwrites) an object.
    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt>;

    /// Retrieves an object.
    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)>;

    /// Deletes an object; succeeds silently if absent.
    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt>;

    /// Whether the object is present.
    fn contains(&self, key: &ObjectKey) -> bool;

    /// Grows capacity by `percent`, returning when the new capacity becomes
    /// effective (provisioning may take time — paper Fig 16).
    fn grow(&self, percent: f64, now: SimTime) -> SimTime;

    /// Shrinks capacity by `percent`, effective immediately.
    fn shrink(&self, percent: f64, now: SimTime);

    /// Chargeable request counters since creation.
    fn request_counts(&self) -> RequestCounts;

    /// Monthly capacity cost in dollars at `now` (excluding request costs).
    fn monthly_cost(&self, now: SimTime) -> f64 {
        let gb = self.capacity(now) as f64 / (1024.0 * 1024.0 * 1024.0);
        tiera_sim::PricePlan::for_class(self.tier_traits().class).capacity_cost(gb)
    }

    /// Fraction of capacity in use at `now` (`0.0..=1.0`).
    fn fill_fraction(&self, now: SimTime) -> f64 {
        let cap = self.capacity(now);
        if cap == 0 {
            1.0
        } else {
            self.used() as f64 / cap as f64
        }
    }

    /// Whether storing `bytes` more would exceed capacity at `now`.
    fn would_overflow(&self, bytes: u64, now: SimTime) -> bool {
        self.used() + bytes > self.capacity(now)
    }

    /// Logical-vs-physical accounting for payload-transforming tiers.
    /// Plain tiers store bytes verbatim, so the default is `None`.
    fn capacity_profile(&self) -> Option<CapacityProfile> {
        None
    }
}

/// A minimal, zero-latency in-memory tier for tests, examples, and as a
/// template for real tier implementations.
///
/// Enforces capacity and tracks request counts but charges no latency and
/// never fails. Production-shaped tiers live in `tiera-tiers`.
#[derive(Debug)]
pub struct MemTier {
    name: String,
    capacity: Mutex<u64>,
    traits_: TierTraits,
    state: Mutex<MemState>,
}

#[derive(Debug, Default)]
struct MemState {
    map: FxHashMap<ObjectKey, Bytes>,
    used: u64,
    puts: u64,
    gets: u64,
}

impl MemTier {
    /// Creates a tier with the given name and capacity in bytes.
    pub fn with_capacity(name: impl Into<String>, capacity: u64) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            capacity: Mutex::named("memtier.capacity", rank::MEMTIER_CAPACITY, capacity),
            traits_: TierTraits::default(),
            state: Mutex::named("memtier.state", rank::MEMTIER_STATE, MemState::default()),
        })
    }

    /// Creates a tier with explicit traits.
    pub fn with_traits(name: impl Into<String>, capacity: u64, traits_: TierTraits) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            capacity: Mutex::named("memtier.capacity", rank::MEMTIER_CAPACITY, capacity),
            traits_,
            state: Mutex::named("memtier.state", rank::MEMTIER_STATE, MemState::default()),
        })
    }
}

impl Tier for MemTier {
    fn name(&self) -> &str {
        &self.name
    }

    fn tier_traits(&self) -> TierTraits {
        self.traits_.clone()
    }

    fn capacity(&self, _now: SimTime) -> u64 {
        *self.capacity.lock()
    }

    fn used(&self) -> u64 {
        self.state.lock().used
    }

    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
        let mut st = self.state.lock();
        let old = st.map.get(key).map(|b| b.len() as u64).unwrap_or(0);
        let new_used = st.used - old + data.len() as u64;
        let cap = self.capacity(now);
        if new_used > cap {
            return Err(TieraError::TierFull {
                tier: self.name.clone(),
                needed: data.len() as u64,
                available: cap.saturating_sub(st.used - old),
            });
        }
        st.map.insert(key.clone(), data);
        st.used = new_used;
        st.puts += 1;
        Ok(OpReceipt::FREE)
    }

    fn get(&self, key: &ObjectKey, _now: SimTime) -> Result<(Bytes, OpReceipt)> {
        let mut st = self.state.lock();
        st.gets += 1;
        st.map
            .get(key)
            .cloned()
            .map(|b| (b, OpReceipt::FREE))
            .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))
    }

    fn delete(&self, key: &ObjectKey, _now: SimTime) -> Result<OpReceipt> {
        let mut st = self.state.lock();
        if let Some(b) = st.map.remove(key) {
            st.used -= b.len() as u64;
        }
        st.puts += 1;
        Ok(OpReceipt::FREE)
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.state.lock().map.contains_key(key)
    }

    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        let mut cap = self.capacity.lock();
        let add = (*cap as f64 * (percent / 100.0).max(0.0)).round() as u64;
        *cap += add;
        now // immediate
    }

    fn shrink(&self, percent: f64, _now: SimTime) {
        let mut cap = self.capacity.lock();
        let cut = (*cap as f64 * (percent / 100.0).clamp(0.0, 1.0)).round() as u64;
        *cap = cap.saturating_sub(cut);
    }

    fn request_counts(&self) -> RequestCounts {
        let st = self.state.lock();
        RequestCounts { puts: st.puts, gets: st.gets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> ObjectKey {
        ObjectKey::new(s)
    }

    #[test]
    fn tier_ids_intern_once_and_read_back_as_names() {
        let before = TierId::interned();
        assert_eq!(TierId::lookup("tier-id-test-a"), None);
        let a = TierId::from("tier-id-test-a");
        let b = TierId::from("tier-id-test-b");
        assert_ne!(a, b);
        assert_eq!(TierId::intern("tier-id-test-a"), Some(a), "second intern is a lookup");
        assert_eq!(TierId::lookup("tier-id-test-b"), Some(b));
        assert!(TierId::interned() >= before + 2);
        assert_eq!(a.name(), "tier-id-test-a");
        assert_eq!(a, "tier-id-test-a");
        assert_eq!(format!("{a} {a:?}"), r#"tier-id-test-a "tier-id-test-a""#);
    }

    #[test]
    fn racing_interns_of_one_name_agree() {
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let ids: Vec<TierId> = (0..4)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    TierId::from("tier-id-test-raced")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        assert!(ids.iter().all(|id| *id == ids[0] && id.name() == "tier-id-test-raced"));
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let t = MemTier::with_capacity("t", 1024);
        t.put(&key("a"), Bytes::from_static(b"hello"), SimTime::ZERO).unwrap();
        assert!(t.contains(&key("a")));
        let (data, _) = t.get(&key("a"), SimTime::ZERO).unwrap();
        assert_eq!(&data[..], b"hello");
        assert_eq!(t.used(), 5);
        t.delete(&key("a"), SimTime::ZERO).unwrap();
        assert!(!t.contains(&key("a")));
        assert_eq!(t.used(), 0);
    }

    #[test]
    fn capacity_enforced() {
        let t = MemTier::with_capacity("t", 10);
        t.put(&key("a"), Bytes::from(vec![0u8; 8]), SimTime::ZERO).unwrap();
        let err = t.put(&key("b"), Bytes::from(vec![0u8; 8]), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, TieraError::TierFull { .. }));
    }

    #[test]
    fn overwrite_replaces_accounting() {
        let t = MemTier::with_capacity("t", 10);
        t.put(&key("a"), Bytes::from(vec![0u8; 8]), SimTime::ZERO).unwrap();
        // Overwriting with a smaller object must free the difference.
        t.put(&key("a"), Bytes::from(vec![0u8; 2]), SimTime::ZERO).unwrap();
        assert_eq!(t.used(), 2);
        // And a same-key overwrite that still fits must succeed.
        t.put(&key("a"), Bytes::from(vec![0u8; 10]), SimTime::ZERO).unwrap();
        assert_eq!(t.used(), 10);
    }

    #[test]
    fn grow_and_shrink() {
        let t = MemTier::with_capacity("t", 100);
        t.grow(100.0, SimTime::ZERO);
        assert_eq!(t.capacity(SimTime::ZERO), 200);
        t.shrink(25.0, SimTime::ZERO);
        assert_eq!(t.capacity(SimTime::ZERO), 150);
    }

    #[test]
    fn fill_fraction_and_overflow() {
        let t = MemTier::with_capacity("t", 100);
        t.put(&key("a"), Bytes::from(vec![0u8; 75]), SimTime::ZERO).unwrap();
        assert!((t.fill_fraction(SimTime::ZERO) - 0.75).abs() < 1e-9);
        assert!(t.would_overflow(26, SimTime::ZERO));
        assert!(!t.would_overflow(25, SimTime::ZERO));
    }

    #[test]
    fn request_counts_accumulate() {
        let t = MemTier::with_capacity("t", 1024);
        t.put(&key("a"), Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        let _ = t.get(&key("a"), SimTime::ZERO);
        let _ = t.get(&key("missing"), SimTime::ZERO);
        let c = t.request_counts();
        assert_eq!(c.puts, 1);
        assert_eq!(c.gets, 2);
    }

    #[test]
    fn monthly_cost_scales_with_capacity() {
        let small = MemTier::with_capacity("s", 1 << 30);
        let big = MemTier::with_capacity("b", 10 << 30);
        let cs = small.monthly_cost(SimTime::ZERO);
        let cb = big.monthly_cost(SimTime::ZERO);
        assert!(cb > 9.0 * cs && cb < 11.0 * cs);
    }
}

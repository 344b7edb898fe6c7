//! The metadata registry.
//!
//! Owns every object's [`ObjectMeta`], maintains the access-ordered per-tier
//! lists that make `tierN.oldest` / `tierN.newest` selections O(1)
//! (the Figure 5 LRU/MRU idiom), keeps the content-digest index behind
//! `storeOnce` deduplication, and — mirroring the paper's BerkeleyDB usage —
//! optionally persists all metadata through `tiera-metastore`.
//!
//! ## Concurrency model
//!
//! The registry is the metadata hot path shared by every request thread, so
//! its state is split to avoid a single global lock (DESIGN.md,
//! "Concurrency model"):
//!
//! * **Shards.** The key→meta map is hash-partitioned into
//!   [`SHARD_COUNT`] shards, each behind its own `RwLock`. A key-addressed
//!   operation (`get`/`contains`/`upsert`/`update`/`touch`/`remove`) locks
//!   exactly one shard — two requests for different keys usually touch
//!   different shards and proceed in parallel.
//! * **Order indexes** (`order`): the recency lists — global access order,
//!   dirty objects, one list per tier behind `tierN.oldest`/`newest` — and
//!   the frequency lists driving hot/cold selectors. All are doubly linked
//!   through one slab of nodes (an object has one node, and one
//!   `(prev, next)` pair in each list it is on); a mutation moves its
//!   object to the back of every recency list it belongs to, so each is
//!   the global access order restricted to its members. The frequency
//!   lists are one per power-of-two range of access counts, so an access
//!   refiles its object only when the count crosses a power of two. One
//!   `RwLock`, write-held for a few link edits per mutation once the
//!   indexes are built (see below).
//! * **Aggregates** (`aggregates`): per-tier object/dirty-byte counters for
//!   threshold metrics. One `RwLock`, taken only by mutations that change
//!   an object's locations, dirty flag or dirty size (a touch does not).
//! * **Dedup** (`dedup`): the `storeOnce` digest table behind its own
//!   `Mutex`; never held together with any other registry lock.
//!
//! ## Built at the first ordered read
//!
//! A registry starts *unindexed*: the order indexes are empty and no
//! mutation touches them. Each entry's slot holds instead a *stamp*, a
//! number a mutation takes from one registry-wide counter under its shard
//! lock, so an unindexed PUT or GET costs one shard lock and no node. The
//! first *ordered read* — a selector that walks a list (`All`, `Dirty`,
//! `InTier`, `Tagged`, `OldestIn`/`NewestIn`, hot/cold), `oldest_in`,
//! `newest_in`, `for_each_in`, `keys_in` — builds the indexes: it gives
//! every entry a node and links the objects into their lists in stamp
//! order. Every mutation moves its object to the back of each list it is
//! on, so each list holds its members in the order of their last
//! mutation: stamp order, and the built lists are the ones eager upkeep
//! would have kept. From then on the registry is *indexed* for good, the
//! slots hold nodes and mutations keep the lists as above.
//!
//! The `gate` orders the build against mutations. While the registry is
//! unindexed a mutation holds it shared; the build holds it exclusively,
//! so it sees no mutation half done. Once indexed, mutations skip it.
//!
//! **Lock order: gate → shard → order → aggregates.** A thread may skip
//! levels but never acquires a lower level while holding a higher one, and
//! never holds two shard locks at once. `dedup` is independent (leaf-only).
//!
//! Mutations hold their shard lock across the index updates, so for any
//! single key the map and every index always agree; cross-key readers of
//! the order indexes see each mutation atomically because the index edits
//! for one mutation happen under one `order` write guard.

use std::cell::RefCell;
use std::collections::hash_map::Entry as MapEntry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use tiera_support::collections::{fx_hash_one, FxHashMap};
use tiera_support::sync::{rank, Mutex, RwLock, RwLockReadGuard};
use tiera_codec::Digest;
use tiera_metastore::MetaStore;
use tiera_sim::SimTime;

use crate::error::{Result, TieraError};
use crate::meta::{ObjectMeta, TierSet};
use crate::object::ObjectKey;
use crate::selector::Selector;
use crate::tier::TierId;

/// Number of key-addressed shards (power of two; picked from the top hash
/// bits). 16 keeps per-shard contention negligible for the request-pool
/// sizes the RPC server runs (≤ 8 threads) without bloating the footprint.
pub const SHARD_COUNT: usize = 16;

/// Aggregates maintained per tier for cheap threshold-metric evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierAggregates {
    /// Objects located in the tier.
    pub objects: u64,
    /// Bytes of dirty objects located in the tier.
    pub dirty_bytes: u64,
}

/// One object's registry record: its metadata plus its slot, which holds
/// the stamp of its last mutation while the registry is unindexed and its
/// node in the order indexes' slab once they are built.
struct Entry {
    meta: ObjectMeta,
    slot: u64,
}

impl Entry {
    /// The object's node; the registry is indexed.
    fn node(&self) -> u32 {
        self.slot as u32
    }
}

/// One hash shard of the key→meta map.
#[derive(Default)]
struct Shard {
    map: FxHashMap<ObjectKey, Entry>,
}

/// "No node": the end of a list, or an unlinked node's neighbours.
const NIL: u32 = u32::MAX;

/// A node's neighbours in one list.
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// The two ends of one list threaded through a `links` array (indexed by
/// node), oldest at the head. Which nodes are members is the caller's
/// knowledge (it follows from the object's metadata), not the list's.
#[derive(Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Ends {
    const EMPTY: Ends = Ends { head: NIL, tail: NIL };

    /// Appends `node` (not currently a member) as the newest; `links`
    /// grows to the highest node ever linked.
    fn push_back(&mut self, links: &mut Vec<Link>, node: u32) {
        let at = node as usize;
        if at >= links.len() {
            links.resize(at + 1, Link { prev: NIL, next: NIL });
        }
        links[at] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = node,
            tail => links[tail as usize].next = node,
        }
        self.tail = node;
    }

    /// Removes `node` (currently a member).
    fn unlink(&mut self, links: &mut [Link], node: u32) {
        let Link { prev, next } = links[node as usize];
        match prev {
            NIL => self.head = next,
            prev => links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => links[next as usize].prev = prev,
        }
    }

    /// The members, oldest first.
    fn iter(self, links: &[Link]) -> impl Iterator<Item = u32> + '_ {
        let from = |node: u32| (node != NIL).then_some(node);
        std::iter::successors(from(self.head), move |&n| from(links[n as usize].next))
    }
}

/// One recency list over the slab's nodes, oldest at the head.
struct RecencyList {
    links: Vec<Link>,
    ends: Ends,
}

impl Default for RecencyList {
    fn default() -> Self {
        Self {
            links: Vec::new(),
            ends: Ends::EMPTY,
        }
    }
}

impl RecencyList {
    /// Appends `node` (not currently a member) as the newest.
    fn push_back(&mut self, node: u32) {
        self.ends.push_back(&mut self.links, node);
    }

    /// Removes `node` (currently a member).
    fn unlink(&mut self, node: u32) {
        self.ends.unlink(&mut self.links, node);
    }

    /// Makes `node` (currently a member) the newest.
    fn move_to_back(&mut self, node: u32) {
        if self.ends.tail != node {
            self.unlink(node);
            self.push_back(node);
        }
    }

    /// The members, oldest first.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ends.iter(&self.links)
    }
}

/// Frequency buckets: bucket 0 holds access count 0, bucket `b` counts in
/// `[2^(b-1), 2^b)`, up to bucket 64 for counts with the top bit set.
const BUCKETS: usize = u64::BITS as usize + 1;

/// The bucket holding objects accessed `count` times.
fn bucket_of(count: u64) -> usize {
    (u64::BITS - count.leading_zeros()) as usize
}

/// The lowest access count filed in `bucket`.
fn bucket_min(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => 1 << (b - 1),
    }
}

/// The highest access count filed in `bucket`.
fn bucket_max(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => u64::MAX >> (BUCKETS - 1 - b),
    }
}

/// The frequency index: every object on the list of its access count's
/// bucket. A node is on exactly one of the lists, so they share one
/// `links` array; an access moves a node only when its count crosses a
/// power of two, and position within a bucket carries no meaning.
struct FrequencyLists {
    links: Vec<Link>,
    buckets: [Ends; BUCKETS],
    /// Bucket-to-bucket moves made by [`recount`](Self::recount).
    #[cfg(test)]
    moves: u64,
}

impl Default for FrequencyLists {
    fn default() -> Self {
        Self {
            links: Vec::new(),
            buckets: [Ends::EMPTY; BUCKETS],
            #[cfg(test)]
            moves: 0,
        }
    }
}

impl FrequencyLists {
    /// Files `node` (not currently filed) under `count`.
    fn insert(&mut self, node: u32, count: u64) {
        self.buckets[bucket_of(count)].push_back(&mut self.links, node);
    }

    /// Removes `node`, filed under `count`.
    fn remove(&mut self, node: u32, count: u64) {
        self.buckets[bucket_of(count)].unlink(&mut self.links, node);
    }

    /// `node`'s count went from `was` to `now`: refiles it if that is a
    /// different bucket.
    fn recount(&mut self, node: u32, was: u64, now: u64) {
        if bucket_of(was) != bucket_of(now) {
            self.remove(node, was);
            self.insert(node, now);
            #[cfg(test)]
            {
                self.moves += 1;
            }
        }
    }

    /// The nodes filed in `bucket`.
    fn iter(&self, bucket: usize) -> impl Iterator<Item = u32> + '_ {
        self.buckets[bucket].iter(&self.links)
    }
}

/// What the indexes and aggregates record about one object: the part of
/// its metadata a mutation must compare before and after.
struct Indexed {
    locations: TierSet,
    dirty: bool,
    stored_size: u64,
    access_count: u64,
    created: SimTime,
}

impl Indexed {
    fn of(meta: &ObjectMeta) -> Self {
        Self {
            locations: meta.locations.clone(),
            dirty: meta.dirty,
            stored_size: meta.stored_size,
            access_count: meta.access_count,
            created: meta.created,
        }
    }

    /// Whether the per-tier aggregates count `self` and `other` alike.
    fn same_aggregates(&self, other: &Indexed) -> bool {
        self.locations == other.locations
            && self.dirty == other.dirty
            && (!self.dirty || self.stored_size == other.stored_size)
    }
}

/// The cross-shard order indexes (see module docs for the lock order).
struct OrderIndexes {
    /// The node slab: node → its object's key (`None` while on `free`).
    keys: Vec<Option<ObjectKey>>,
    /// Released nodes, reused before the slab grows.
    free: Vec<u32>,
    /// Every object, in access order (drives `All`/`Not`).
    access: RecencyList,
    /// Dirty objects, in access order (drives `Dirty`).
    dirty: RecencyList,
    /// Per tier, the objects located there, in access order.
    tiers: FxHashMap<TierId, RecencyList>,
    /// Every object, by the bucket of its access count. Hot/cold selectors
    /// walk the buckets from the hot (high-count) or cold (low-count) end
    /// and prune with the `created` bounds below.
    frequency: FrequencyLists,
    /// Monotone upper bound on live objects' creation times: the youngest
    /// possible object. `now - max_created` lower-bounds every object's
    /// age, letting `HotterThan` stop early.
    max_created: SimTime,
    /// Monotone lower bound on creation times (upper-bounds ages) for
    /// `ColderThan`'s early stop. Conservative after removals — stale
    /// bounds only weaken pruning, never correctness.
    min_created: SimTime,
}

impl Default for OrderIndexes {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            free: Vec::new(),
            access: RecencyList::default(),
            dirty: RecencyList::default(),
            tiers: FxHashMap::default(),
            frequency: FrequencyLists::default(),
            max_created: SimTime::ZERO,
            min_created: SimTime::from_nanos(u64::MAX),
        }
    }
}

impl OrderIndexes {
    /// Takes a node for `key`; the caller links it.
    fn alloc(&mut self, key: ObjectKey) -> u32 {
        match self.free.pop() {
            Some(node) => {
                self.keys[node as usize] = Some(key);
                node
            }
            None => {
                let node = u32::try_from(self.keys.len())
                    .ok()
                    .filter(|node| *node != NIL)
                    .expect("a registry holds fewer than 2^32 - 1 objects");
                self.keys.push(Some(key));
                node
            }
        }
    }

    /// Returns an unlinked node to the slab.
    fn release(&mut self, node: u32) {
        self.keys[node as usize] = None;
        self.free.push(node);
    }

    /// Links `node` as the newest of every list `now` puts it on and
    /// files it under its access count.
    fn link(&mut self, node: u32, now: &Indexed) {
        self.access.push_back(node);
        self.link_lists(node, now);
        self.frequency.insert(node, now.access_count);
        self.bound_created(now.created);
    }

    /// Undoes [`link`](Self::link) for the state it was linked with. The
    /// `created` bounds stay put — they are monotone and only need to
    /// bound the *live* set conservatively.
    fn unlink(&mut self, node: u32, was: &Indexed) {
        self.access.unlink(node);
        self.unlink_lists(node, was);
        self.frequency.remove(node, was.access_count);
    }

    /// A mutation of a linked object: it becomes the newest of every list
    /// `now` puts it on and leaves the lists only `was` had it on.
    fn relink(&mut self, node: u32, was: &Indexed, now: &Indexed) {
        self.access.move_to_back(node);
        self.unlink_lists(node, was);
        self.link_lists(node, now);
        self.frequency.recount(node, was.access_count, now.access_count);
        self.bound_created(now.created);
    }

    /// An access to a linked object, which `meta` describes as it is
    /// after it: the access moved its count from `was_count` and changed
    /// none of its locations, dirty flag or creation time, so it stays on
    /// the lists it is on and becomes the newest of each.
    fn touch(&mut self, node: u32, meta: &ObjectMeta, was_count: u64) {
        self.access.move_to_back(node);
        if meta.dirty {
            self.dirty.move_to_back(node);
        }
        for tier in &meta.locations {
            if let Some(list) = self.tiers.get_mut(tier) {
                list.move_to_back(node);
            }
        }
        self.frequency.recount(node, was_count, meta.access_count);
    }

    /// Widens the `created` bounds to cover an object created at `created`.
    fn bound_created(&mut self, created: SimTime) {
        self.max_created = self.max_created.max(created);
        self.min_created = self.min_created.min(created);
    }

    fn link_lists(&mut self, node: u32, now: &Indexed) {
        if now.dirty {
            self.dirty.push_back(node);
        }
        for tier in &now.locations {
            self.tiers.entry(*tier).or_default().push_back(node);
        }
    }

    fn unlink_lists(&mut self, node: u32, was: &Indexed) {
        if was.dirty {
            self.dirty.unlink(node);
        }
        for tier in &was.locations {
            if let Some(list) = self.tiers.get_mut(tier) {
                list.unlink(node);
            }
        }
    }

    /// The key of `node`; `None` for [`NIL`] (an empty list's ends).
    fn key_of(&self, node: u32) -> Option<&ObjectKey> {
        self.keys.get(node as usize)?.as_ref()
    }

    /// The keys on `list`, oldest first.
    fn keys_on<'a>(&'a self, list: &'a RecencyList) -> impl Iterator<Item = &'a ObjectKey> + 'a {
        list.iter().filter_map(|node| self.key_of(node))
    }

    /// The keys filed in frequency bucket `bucket`, in no particular order.
    fn keys_in_bucket(&self, bucket: usize) -> impl Iterator<Item = &ObjectKey> + '_ {
        self.frequency.iter(bucket).filter_map(|node| self.key_of(node))
    }

    /// The recency list of the tier called `tier`, if any object was ever
    /// located there.
    fn tier_list(&self, tier: &str) -> Option<&RecencyList> {
        self.tiers.get(&TierId::lookup(tier)?)
    }
}

type Aggregates = FxHashMap<TierId, TierAggregates>;

/// Counts an object in the aggregates of every tier holding it.
fn aggregates_add(aggregates: &mut Aggregates, now: &Indexed) {
    for tier in &now.locations {
        let agg = aggregates.entry(*tier).or_default();
        agg.objects += 1;
        if now.dirty {
            agg.dirty_bytes += now.stored_size;
        }
    }
}

/// Undoes [`aggregates_add`] for the state it was counted with.
fn aggregates_sub(aggregates: &mut Aggregates, was: &Indexed) {
    for tier in &was.locations {
        if let Some(agg) = aggregates.get_mut(tier) {
            agg.objects = agg.objects.saturating_sub(1);
            if was.dirty {
                agg.dirty_bytes = agg.dirty_bytes.saturating_sub(was.stored_size);
            }
        }
    }
}

/// A fresh stamp for an object mutated while the registry is unindexed.
/// `Relaxed`: a stamp publishes nothing. It is taken and stored under the
/// object's shard lock, which orders one key's stamps and hands them to
/// the build.
fn next_stamp(stamps: &AtomicU64) -> u64 {
    stamps.fetch_add(1, Ordering::Relaxed)
}

/// Inserts or replaces `key`'s metadata in its shard, the order indexes
/// (`None` while the registry is unindexed: the object takes a stamp from
/// `stamps` instead) and the aggregates; returns whether the key is new.
fn insert_into(
    shard: &mut Shard,
    order: Option<&mut OrderIndexes>,
    stamps: &AtomicU64,
    aggregates: &mut Aggregates,
    key: &ObjectKey,
    meta: ObjectMeta,
) -> bool {
    let now = Indexed::of(&meta);
    let new = match shard.map.entry(key.clone()) {
        MapEntry::Occupied(mut occupied) => {
            let entry = occupied.get_mut();
            let was = Indexed::of(&entry.meta);
            match order {
                Some(order) => order.relink(entry.node(), &was, &now),
                None => entry.slot = next_stamp(stamps),
            }
            aggregates_sub(aggregates, &was);
            entry.meta = meta;
            false
        }
        MapEntry::Vacant(vacant) => {
            let slot = match order {
                Some(order) => {
                    let node = order.alloc(key.clone());
                    order.link(node, &now);
                    u64::from(node)
                }
                None => next_stamp(stamps),
            };
            vacant.insert(Entry { meta, slot });
            true
        }
    };
    aggregates_add(aggregates, &now);
    new
}

/// Thread-safe object-metadata registry with optional persistence.
pub struct Registry {
    /// Held shared by unindexed mutations, exclusively by the build.
    gate: RwLock<()>,
    /// Whether the order indexes are built; never goes back to `false`.
    /// The build's `Release` store pairs with the `Acquire` load in
    /// `indexed()`.
    indexed: AtomicBool,
    /// The next stamp an unindexed mutation takes.
    stamps: AtomicU64,
    shards: Vec<RwLock<Shard>>,
    /// Live object count (kept here so `len()` does not sweep the shards).
    count: AtomicU64,
    order: RwLock<OrderIndexes>,
    aggregates: RwLock<Aggregates>,
    /// Content digest → (physical object key, reference count).
    dedup: Mutex<FxHashMap<Digest, (ObjectKey, u64)>>,
    store: Option<MetaStore>,
    /// Metadata writes the store refused since construction.
    persist_failures: AtomicU64,
    /// `persist_failures` as of the last `sync()` that reported them.
    persist_failures_reported: AtomicU64,
    /// The first refusal's error text, quoted by that report.
    first_persist_error: OnceLock<String>,
    /// Records recovery found in the store and could not decode, and the
    /// key of the first; `reported` once a `sync()` has said so.
    recovery_skipped: u64,
    first_skipped_key: Option<String>,
    recovery_skipped_reported: AtomicBool,
}

thread_local! {
    /// The encoding of the record being persisted: one buffer a thread,
    /// reused from write to write.
    static ENCODED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl Registry {
    /// An in-memory registry (no persistence).
    pub fn in_memory() -> Self {
        Self {
            gate: RwLock::named("registry.gate", rank::REGISTRY_GATE, ()),
            indexed: AtomicBool::new(false),
            stamps: AtomicU64::new(0),
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::named("registry.shard", rank::REGISTRY_SHARD, Shard::default()))
                .collect(),
            count: AtomicU64::new(0),
            order: RwLock::named("registry.order", rank::REGISTRY_ORDER, OrderIndexes::default()),
            aggregates: RwLock::named(
                "registry.aggregates",
                rank::REGISTRY_AGGREGATES,
                FxHashMap::default(),
            ),
            dedup: Mutex::named("registry.dedup", rank::REGISTRY_DEDUP, FxHashMap::default()),
            store: None,
            persist_failures: AtomicU64::new(0),
            persist_failures_reported: AtomicU64::new(0),
            first_persist_error: OnceLock::new(),
            recovery_skipped: 0,
            first_skipped_key: None,
            recovery_skipped_reported: AtomicBool::new(false),
        }
    }

    /// A registry persisted in `dir`; existing metadata is recovered.
    pub fn persistent(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        let store = MetaStore::open(dir).map_err(|e| TieraError::Metadata(e.to_string()))?;
        Self::over(store)
    }

    /// A registry persisted in `store`; existing metadata is recovered,
    /// streamed record by record from the store's log. Objects come back
    /// in the store's log order — shard by shard, each shard's by last
    /// write — which is the access order the recency lists start from.
    ///
    /// A record whose key is not UTF-8 or whose value does not decode is
    /// left out, counted ([`recovery_skipped`](Self::recovery_skipped)) and
    /// reported by the next [`sync`](Self::sync).
    pub fn over(store: MetaStore) -> Result<Self> {
        let mut reg = Self::in_memory();
        let mut skipped = 0;
        let mut first_skipped = None;
        store
            .for_each(|k, v| {
                let record = std::str::from_utf8(k)
                    .ok()
                    .and_then(|key| Some((ObjectKey::new(key), ObjectMeta::decode(v)?)));
                match record {
                    Some((key, meta)) => reg.insert_unshared(&key, meta),
                    None => {
                        skipped += 1;
                        first_skipped.get_or_insert_with(|| String::from_utf8_lossy(k).into_owned());
                    }
                }
            })
            .map_err(|e| TieraError::Metadata(e.to_string()))?;
        Ok(Self {
            store: Some(store),
            recovery_skipped: skipped,
            first_skipped_key: first_skipped,
            ..reg
        })
    }

    #[inline]
    fn shard_at(key: &ObjectKey) -> usize {
        // Top bits: FxHash mixes best into the high half of the word.
        (fx_hash_one(key) >> (64 - SHARD_COUNT.trailing_zeros())) as usize
    }

    #[inline]
    fn shard_of(&self, key: &ObjectKey) -> &RwLock<Shard> {
        &self.shards[Self::shard_at(key)]
    }

    fn persist(&self, key: &ObjectKey, meta: Option<&ObjectMeta>) {
        if let Some(store) = &self.store {
            let r = match meta {
                Some(m) => ENCODED.with_borrow_mut(|encoded| {
                    encoded.clear();
                    m.encode_into(encoded);
                    store.put(key.as_str().as_bytes(), encoded)
                }),
                None => store.delete(key.as_str().as_bytes()).map(|_| ()),
            };
            // Metadata persistence failures must not fail client IO: they
            // are counted here and surface through the next sync(), the
            // durability boundary.
            if let Err(e) = r {
                self.first_persist_error.get_or_init(|| e.to_string());
                self.persist_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Metadata writes the backing store has refused since construction.
    /// The object map keeps such a write; only its persisted copy is stale.
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::Relaxed)
    }

    /// Records the backing store held at recovery that could not be
    /// decoded — a key that is not UTF-8, a value `ObjectMeta::decode`
    /// rejects. Their objects are not in the registry; the records stay in
    /// the store.
    pub fn recovery_skipped(&self) -> u64 {
        self.recovery_skipped
    }

    /// Flushes persisted metadata to disk. Fails — once — if any metadata
    /// write was refused since the last call (what reached the store is
    /// flushed, but it is not everything the registry holds) or if
    /// recovery left records out (the registry is not everything the store
    /// holds).
    pub fn sync(&self) -> Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        store
            .sync()
            .map_err(|e| TieraError::Metadata(e.to_string()))?;
        let failed = self.persist_failures.load(Ordering::Relaxed);
        let unreported = failed - self.persist_failures_reported.swap(failed, Ordering::Relaxed);
        let mut problems = Vec::new();
        if unreported > 0 {
            problems.push(format!(
                "{unreported} metadata write(s) were not persisted (first failure: {})",
                self.first_persist_error.get().map_or("unknown", String::as_str)
            ));
        }
        if self.recovery_skipped > 0 && !self.recovery_skipped_reported.swap(true, Ordering::Relaxed) {
            problems.push(format!(
                "{} metadata record(s) could not be decoded at recovery and were left out (first key: {:?})",
                self.recovery_skipped,
                self.first_skipped_key.as_deref().unwrap_or_default()
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(TieraError::Metadata(problems.join("; ")))
        }
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire) as usize
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies `f` to an object's metadata under its shard's read lock.
    fn peek<R>(&self, key: &ObjectKey, f: impl FnOnce(&ObjectMeta) -> R) -> Option<R> {
        self.shard_of(key).read().map.get(key).map(|e| f(&e.meta))
    }

    /// Copy of an object's metadata (a plain copy unless the object
    /// carries tags, a digest or a key id).
    pub fn get(&self, key: &ObjectKey) -> Option<ObjectMeta> {
        self.peek(key, ObjectMeta::clone)
    }

    /// Whether the object exists.
    pub fn contains(&self, key: &ObjectKey) -> bool {
        self.shard_of(key).read().map.contains_key(key)
    }

    /// Inserts or replaces an object's metadata wholesale.
    pub fn upsert(&self, key: ObjectKey, meta: ObjectMeta) {
        self.insert_locked(&key, meta.clone());
        self.persist(&key, Some(&meta));
    }

    /// [`upsert`](Self::upsert) without the persisted record: for state a
    /// later [`update`](Self::update) persists once it is true (a PUT's
    /// metadata before its bytes have landed in any tier).
    pub(crate) fn insert_locked(&self, key: &ObjectKey, meta: ObjectMeta) {
        let _gate = (!self.indexed()).then(|| self.gate.read());
        let mut shard = self.shard_of(key).write();
        let mut order = self.indexed().then(|| self.order.write());
        let mut aggregates = self.aggregates.write();
        let order = order.as_deref_mut();
        if insert_into(&mut shard, order, &self.stamps, &mut aggregates, key, meta) {
            self.count.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// [`insert_locked`](Self::insert_locked) for a registry nothing else
    /// can reach yet, which is unindexed: no lock is taken, so recovery may
    /// run inside the metastore's visitor, under the store's own
    /// (later-ranked) lock.
    fn insert_unshared(&mut self, key: &ObjectKey, meta: ObjectMeta) {
        let shard = self.shards[Self::shard_at(key)].get_mut();
        if insert_into(shard, None, &self.stamps, self.aggregates.get_mut(), key, meta) {
            *self.count.get_mut() += 1;
        }
    }

    /// Whether the order indexes are built. A mutation asks twice: before
    /// its shard lock, to know whether it needs the gate, and after, to
    /// know how to file its object. A build may finish between the two, but
    /// none can start while the mutation holds the gate, so the second
    /// answer holds until the mutation is done.
    fn indexed(&self) -> bool {
        self.indexed.load(Ordering::Acquire)
    }

    /// Applies `f` to an object's metadata (if present), making the object
    /// the most recently accessed and refreshing the indexes in place.
    /// Returns a copy of the updated metadata.
    pub fn update<F>(&self, key: &ObjectKey, f: F) -> Option<ObjectMeta>
    where
        F: FnOnce(&mut ObjectMeta),
    {
        let updated = {
            let _gate = (!self.indexed()).then(|| self.gate.read());
            let mut shard = self.shard_of(key).write();
            let entry = shard.map.get_mut(key)?;
            let mut order = self.indexed().then(|| self.order.write());
            let was = Indexed::of(&entry.meta);
            f(&mut entry.meta);
            let now = Indexed::of(&entry.meta);
            match order.as_deref_mut() {
                Some(order) => order.relink(entry.node(), &was, &now),
                None => entry.slot = next_stamp(&self.stamps),
            }
            if !was.same_aggregates(&now) {
                let mut aggregates = self.aggregates.write();
                aggregates_sub(&mut aggregates, &was);
                aggregates_add(&mut aggregates, &now);
            }
            entry.meta.clone()
        };
        self.persist(key, Some(&updated));
        Some(updated)
    }

    /// Records an access (touch) at `now`, refreshing LRU ordering.
    /// [`update`](Self::update) with [`ObjectMeta::touch`], minus the work
    /// an access cannot cause: the object's list memberships and its
    /// tiers' aggregates are as they were.
    pub fn touch(&self, key: &ObjectKey, now: SimTime) -> Option<ObjectMeta> {
        let touched = {
            let _gate = (!self.indexed()).then(|| self.gate.read());
            let mut shard = self.shard_of(key).write();
            let entry = shard.map.get_mut(key)?;
            let mut order = self.indexed().then(|| self.order.write());
            let was_count = entry.meta.access_count;
            entry.meta.touch(now);
            match order.as_deref_mut() {
                Some(order) => order.touch(entry.node(), &entry.meta, was_count),
                None => entry.slot = next_stamp(&self.stamps),
            }
            entry.meta.clone()
        };
        self.persist(key, Some(&touched));
        Some(touched)
    }

    /// Removes an object entirely.
    pub fn remove(&self, key: &ObjectKey) -> Option<ObjectMeta> {
        let meta = {
            let _gate = (!self.indexed()).then(|| self.gate.read());
            let mut shard = self.shard_of(key).write();
            let entry = shard.map.remove(key)?;
            let mut order = self.indexed().then(|| self.order.write());
            let mut aggregates = self.aggregates.write();
            let was = Indexed::of(&entry.meta);
            if let Some(order) = order.as_deref_mut() {
                order.unlink(entry.node(), &was);
                order.release(entry.node());
            }
            aggregates_sub(&mut aggregates, &was);
            entry.meta
        };
        self.count.fetch_sub(1, Ordering::AcqRel);
        self.persist(key, None);
        Some(meta)
    }

    /// Aggregates for a tier (zeros if the tier holds nothing).
    pub fn aggregates(&self, tier: &str) -> TierAggregates {
        TierId::lookup(tier)
            .and_then(|id| self.aggregates.read().get(&id).copied())
            .unwrap_or_default()
    }

    /// Recomputes a tier's aggregates from scratch by sweeping every shard
    /// (O(n)). This is the audit the incremental counters are checked
    /// against in tests; production code reads [`aggregates`](Self::aggregates).
    pub fn recount_aggregates(&self, tier: &str) -> TierAggregates {
        let mut agg = TierAggregates::default();
        let Some(tier) = TierId::lookup(tier) else {
            return agg;
        };
        for shard in &self.shards {
            for entry in shard.read().map.values() {
                if entry.meta.locations.contains_id(tier) {
                    agg.objects += 1;
                    if entry.meta.dirty {
                        agg.dirty_bytes += entry.meta.stored_size;
                    }
                }
            }
        }
        agg
    }

    /// The order indexes, read-locked for an ordered read; the registry's
    /// first ordered read builds them.
    fn ordered(&self) -> RwLockReadGuard<'_, OrderIndexes> {
        if !self.indexed() {
            self.build_indexes();
        }
        self.order.read()
    }

    /// Builds the order indexes (see the module docs): every object gets a
    /// node and joins the lists its metadata puts it on, in stamp order.
    /// Mutations wait at the gate meanwhile.
    #[cold]
    fn build_indexes(&self) {
        let _gate = self.gate.write();
        if self.indexed() {
            // Another ordered read built them while this one waited.
            return;
        }
        let mut order = OrderIndexes::default();
        let mut filed = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for (key, entry) in shard.write().map.iter_mut() {
                let node = order.alloc(key.clone());
                filed.push((entry.slot, node, Indexed::of(&entry.meta)));
                entry.slot = u64::from(node);
            }
        }
        filed.sort_unstable_by_key(|&(stamp, ..)| stamp);
        for (_, node, now) in &filed {
            order.link(*node, now);
        }
        *self.order.write() = order;
        self.indexed.store(true, Ordering::Release);
    }

    /// The least recently accessed object in `tier`.
    pub fn oldest_in(&self, tier: &str) -> Option<ObjectKey> {
        let order = self.ordered();
        order.key_of(order.tier_list(tier)?.ends.head).cloned()
    }

    /// The most recently accessed object in `tier`.
    pub fn newest_in(&self, tier: &str) -> Option<ObjectKey> {
        let order = self.ordered();
        order.key_of(order.tier_list(tier)?.ends.tail).cloned()
    }

    /// Visits every key currently located in `tier`, oldest first, without
    /// materializing a key vector. The visitor runs under the order-index
    /// read lock: it must not call back into registry mutators (lock
    /// order would invert) — collect first if mutation is needed.
    pub fn for_each_in(&self, tier: &str, f: impl FnMut(&ObjectKey)) {
        let order = self.ordered();
        if let Some(list) = order.tier_list(tier) {
            order.keys_on(list).for_each(f);
        }
    }

    /// Every key currently located in `tier`, oldest first. Materializing
    /// convenience over [`for_each_in`](Self::for_each_in) — prefer the
    /// visitor when the keys are only read, not kept.
    pub fn keys_in(&self, tier: &str) -> Vec<ObjectKey> {
        let mut keys = Vec::new();
        self.for_each_in(tier, |k| keys.push(k.clone()));
        keys
    }

    /// Evaluates a selector to a concrete key set.
    ///
    /// `inserted` supplies the meaning of [`Selector::Inserted`] in action
    /// contexts. Index-backed selectors (`All`, `InTier`, `Dirty`,
    /// `OldestIn`/`NewestIn`, hot/cold) never sweep the object map; only
    /// `Tagged` scans, and it scans shard-by-shard without a global lock.
    /// Every selector but `Inserted` and `Key` is an ordered read: the
    /// registry's first one builds the order indexes.
    pub fn select(
        &self,
        selector: &Selector,
        inserted: Option<&ObjectKey>,
        now: SimTime,
    ) -> Vec<ObjectKey> {
        match selector {
            Selector::Inserted => inserted.cloned().into_iter().collect(),
            Selector::Key(k) => {
                if self.contains(k) {
                    vec![k.clone()]
                } else {
                    Vec::new()
                }
            }
            Selector::All => {
                let order = self.ordered();
                order.keys_on(&order.access).cloned().collect()
            }
            Selector::InTier(t) => self.keys_in(t),
            Selector::Dirty => {
                let order = self.ordered();
                order.keys_on(&order.dirty).cloned().collect()
            }
            Selector::Tagged(tag) => {
                // Tags carry no index (they are rare, write-once classes):
                // scan shard by shard, then return the hits in access order
                // so the result is deterministic. The scan reads nodes, so
                // the indexes are built first. A hit whose node changed
                // hands between the two steps is dropped.
                if !self.indexed() {
                    self.build_indexes();
                }
                let mut hits: FxHashMap<u32, ObjectKey> = FxHashMap::default();
                for shard in &self.shards {
                    for (key, entry) in shard.read().map.iter() {
                        if entry.meta.has_tag(tag) {
                            hits.insert(entry.node(), key.clone());
                        }
                    }
                }
                if hits.is_empty() {
                    return Vec::new();
                }
                let order = self.order.read();
                order
                    .access
                    .iter()
                    .filter_map(|node| {
                        let key = hits.get(&node)?;
                        (order.key_of(node) == Some(key)).then(|| key.clone())
                    })
                    .collect()
            }
            Selector::OldestIn(t) => self.oldest_in(t).into_iter().collect(),
            Selector::NewestIn(t) => self.newest_in(t).into_iter().collect(),
            Selector::HotterThan(bound) => self.select_hot(*bound, now),
            Selector::ColderThan(bound) => self.select_cold(*bound, now),
            Selector::And(a, b) => {
                // Evaluate the narrower side as a key set and the other as
                // a per-key predicate; this keeps hot-path conjunctions
                // like `Inserted && !Tagged(..)` O(1) instead of scanning
                // the registry.
                let (small, pred) = if Self::is_narrow(a) || !Self::is_narrow(b) {
                    (a, b)
                } else {
                    (b, a)
                };
                self.select(small, inserted, now)
                    .into_iter()
                    .filter(|k| self.matches(pred, k, inserted, now))
                    .collect()
            }
            Selector::Not(inner) => {
                let excluded: std::collections::HashSet<ObjectKey> =
                    self.select(inner, inserted, now).into_iter().collect();
                let base = self.select(&Selector::All, inserted, now);
                base.into_iter().filter(|k| !excluded.contains(k)).collect()
            }
        }
    }

    /// `HotterThan`: walk the frequency buckets from the high-count end.
    ///
    /// `freq = count / age ≥ bound` requires `count ≥ bound · age`, and
    /// every object's age is at least `now - max_created`; once the walk
    /// reaches a bucket whose highest count is below
    /// `bound · (now - max_created)` no colder bucket can hold a hit and
    /// it stops. Worst case (every object hot) is O(hits · log hits).
    fn select_hot(&self, bound: f64, now: SimTime) -> Vec<ObjectKey> {
        let candidates: Vec<ObjectKey> = {
            let order = self.ordered();
            if bound <= 0.0 {
                return order.keys_on(&order.access).cloned().collect();
            }
            let min_age = now.since(order.max_created.min(now)).as_secs_f64().max(1e-9);
            let floor = bound * min_age;
            (0..BUCKETS)
                .rev()
                .take_while(|&bucket| bucket_max(bucket) as f64 >= floor)
                .flat_map(|bucket| order.keys_in_bucket(bucket))
                .cloned()
                .collect()
        };
        let mut hits = self.by_count(candidates, |m| m.access_frequency(now) >= bound);
        hits.reverse();
        hits
    }

    /// `ColderThan`: walk the frequency buckets from the low-count end;
    /// stop at the first whose lowest count is
    /// `≥ bound · (now - min_created)` (the maximum possible age), past
    /// which no object can still be cold.
    fn select_cold(&self, bound: f64, now: SimTime) -> Vec<ObjectKey> {
        if bound <= 0.0 {
            return Vec::new();
        }
        let candidates: Vec<ObjectKey> = {
            let order = self.ordered();
            let max_age = if order.min_created > now {
                1e-9
            } else {
                now.since(order.min_created).as_secs_f64().max(1e-9)
            };
            let ceiling = bound * max_age;
            (0..BUCKETS)
                .take_while(|&bucket| (bucket_min(bucket) as f64) < ceiling)
                .flat_map(|bucket| order.keys_in_bucket(bucket))
                .cloned()
                .collect()
        };
        self.by_count(candidates, |m| m.access_frequency(now) < bound)
    }

    /// The `candidates` that exist and pass `keep`, by ascending
    /// `(access_count, key)`. A bucket walk names its candidates under the
    /// order lock and this reads each one's count under its shard lock,
    /// which ranks before it — hence after the walk, not inside it.
    fn by_count(
        &self,
        candidates: Vec<ObjectKey>,
        keep: impl Fn(&ObjectMeta) -> bool,
    ) -> Vec<ObjectKey> {
        let mut hits: Vec<(u64, ObjectKey)> = candidates
            .into_iter()
            .filter_map(|key| {
                let count = self.peek(&key, |m| keep(m).then_some(m.access_count))??;
                Some((count, key))
            })
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, key)| key).collect()
    }

    /// Whether a selector resolves to at most a handful of keys.
    fn is_narrow(sel: &Selector) -> bool {
        match sel {
            Selector::Inserted
            | Selector::Key(_)
            | Selector::OldestIn(_)
            | Selector::NewestIn(_) => true,
            Selector::And(a, b) => Self::is_narrow(a) || Self::is_narrow(b),
            _ => false,
        }
    }

    /// Predicate form of selector evaluation for a single key.
    pub fn matches(
        &self,
        selector: &Selector,
        key: &ObjectKey,
        inserted: Option<&ObjectKey>,
        now: SimTime,
    ) -> bool {
        match selector {
            Selector::Inserted => inserted == Some(key),
            Selector::Key(k) => k == key,
            Selector::All => self.contains(key),
            Selector::InTier(t) => self.peek(key, |m| m.in_tier(t)).unwrap_or(false),
            Selector::Dirty => self.peek(key, |m| m.dirty).unwrap_or(false),
            Selector::Tagged(tag) => self.peek(key, |m| m.has_tag(tag)).unwrap_or(false),
            Selector::OldestIn(t) => self.oldest_in(t).as_ref() == Some(key),
            Selector::NewestIn(t) => self.newest_in(t).as_ref() == Some(key),
            Selector::HotterThan(b) => self
                .peek(key, |m| m.access_frequency(now) >= *b)
                .unwrap_or(false),
            Selector::ColderThan(b) => self
                .peek(key, |m| m.access_frequency(now) < *b)
                .unwrap_or(false),
            Selector::And(a, b) => {
                self.matches(a, key, inserted, now) && self.matches(b, key, inserted, now)
            }
            Selector::Not(inner) => !self.matches(inner, key, inserted, now),
        }
    }

    // ---- dedup index (storeOnce) ----

    /// Registers content under `digest`. If the digest is new, `physical`
    /// becomes its physical key and `None` is returned; otherwise the
    /// existing physical key is returned and its refcount incremented.
    pub fn dedup_acquire(&self, digest: Digest, physical: ObjectKey) -> Option<ObjectKey> {
        let mut dedup = self.dedup.lock();
        match dedup.get_mut(&digest) {
            Some((existing, refs)) => {
                *refs += 1;
                Some(existing.clone())
            }
            None => {
                dedup.insert(digest, (physical, 1));
                None
            }
        }
    }

    /// Releases one reference to `digest`; returns the physical key when
    /// the last reference is dropped (the caller then deletes the bytes).
    pub fn dedup_release(&self, digest: &Digest) -> Option<ObjectKey> {
        let mut dedup = self.dedup.lock();
        if let Some((physical, refs)) = dedup.get_mut(digest) {
            *refs -= 1;
            if *refs == 0 {
                let physical = physical.clone();
                dedup.remove(digest);
                return Some(physical);
            }
        }
        None
    }

    /// Physical key behind `digest`, if registered.
    pub fn dedup_lookup(&self, digest: &Digest) -> Option<ObjectKey> {
        self.dedup.lock().get(digest).map(|(k, _)| k.clone())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("objects", &self.len())
            .field("shards", &SHARD_COUNT)
            .field("persistent", &self.store.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Tag;
    use tiera_support::prop::gen;
    use tiera_support::prop_check;

    impl Registry {
        /// The keys filed in frequency bucket `bucket`, sorted.
        fn bucket_keys(&self, bucket: usize) -> Vec<ObjectKey> {
            let mut keys: Vec<ObjectKey> = self.ordered().keys_in_bucket(bucket).cloned().collect();
            keys.sort();
            keys
        }

        fn frequency_moves(&self) -> u64 {
            self.ordered().frequency.moves
        }

        /// Every object is filed once, in the bucket of the count it has.
        fn assert_buckets_hold_every_object_once(&self) {
            let mut filed = 0;
            for bucket in 0..BUCKETS {
                for key in self.bucket_keys(bucket) {
                    let count = self.get(&key).expect("a filed key is live").access_count;
                    assert_eq!(bucket_of(count), bucket, "{key} with count {count}");
                    filed += 1;
                }
            }
            assert_eq!(filed, self.len());
        }

        /// Every object is on exactly the lists its metadata puts it on,
        /// and its node names it in the slab.
        fn assert_lists_match_metadata(&self) {
            let mut live: Vec<(ObjectKey, u32, ObjectMeta)> = Vec::new();
            for shard in &self.shards {
                for (key, entry) in shard.read().map.iter() {
                    live.push((key.clone(), entry.node(), entry.meta.clone()));
                }
            }
            live.sort_by(|a, b| a.0.cmp(&b.0));
            let order = self.ordered();
            let members = |list: &RecencyList| {
                let mut keys: Vec<ObjectKey> = order.keys_on(list).cloned().collect();
                keys.sort();
                keys
            };
            let expected = |on: &dyn Fn(&ObjectMeta) -> bool| -> Vec<ObjectKey> {
                live.iter().filter(|o| on(&o.2)).map(|o| o.0.clone()).collect()
            };
            for (key, node, _) in &live {
                assert_eq!(order.key_of(*node), Some(key), "{key}'s node");
            }
            assert_eq!(members(&order.access), expected(&|_| true), "access");
            assert_eq!(members(&order.dirty), expected(&|m| m.dirty), "dirty");
            let mut tiers: Vec<TierId> = order.tiers.keys().copied().collect();
            tiers.extend(live.iter().flat_map(|o| o.2.locations.iter().copied()));
            tiers.sort_by_key(|t| t.to_string());
            tiers.dedup();
            for tier in tiers {
                let list = order.tiers.get(&tier).expect("a list for every tier in use");
                let located = expected(&|m| m.locations.contains_id(tier));
                assert_eq!(members(list), located, "tier {tier}");
            }
            drop(order);
            self.assert_buckets_hold_every_object_once();
        }

        /// Everything an ordered read says about the registry at `now`.
        fn ordered_view(&self, now: SimTime) -> Vec<Vec<ObjectKey>> {
            let mut selectors = vec![Selector::All, Selector::Dirty, Selector::Tagged(Tag::new("tmp"))];
            for tier in TIERS {
                selectors.push(Selector::InTier(tier.into()));
                selectors.push(Selector::OldestIn(tier.into()));
                selectors.push(Selector::NewestIn(tier.into()));
            }
            for bound in [0.0, 0.05, 0.5, 5.0] {
                selectors.push(Selector::HotterThan(bound));
                selectors.push(Selector::ColderThan(bound));
            }
            let mut view: Vec<_> = selectors.iter().map(|s| self.select(s, None, now)).collect();
            view.extend(TIERS.map(|tier| self.keys_in(tier)));
            view
        }

        /// `HotterThan(bound)` and `ColderThan(bound)` as a scan of every
        /// object would answer them.
        fn scan_hot_cold(&self, bound: f64, now: SimTime) -> (Vec<ObjectKey>, Vec<ObjectKey>) {
            let mut all: Vec<(u64, ObjectKey, bool)> = Vec::new();
            for key in self.select(&Selector::All, None, now) {
                let meta = self.get(&key).unwrap();
                all.push((meta.access_count, key, meta.access_frequency(now) >= bound));
            }
            all.sort();
            let keys = |hot: bool| all.iter().filter(move |o| o.2 == hot).map(|o| o.1.clone());
            (keys(true).rev().collect(), keys(false).collect())
        }
    }

    fn counted(count: u64, created: SimTime) -> ObjectMeta {
        let mut m = meta_in("t1", 1, created);
        m.access_count = count;
        m
    }

    fn meta_in(tier: &str, size: u64, now: SimTime) -> ObjectMeta {
        let mut m = ObjectMeta::new(size, now);
        m.locations.insert(tier.into());
        m
    }

    #[test]
    fn upsert_get_remove() {
        let r = Registry::in_memory();
        let k = ObjectKey::new("a");
        r.upsert(k.clone(), meta_in("t1", 100, SimTime::ZERO));
        assert!(r.contains(&k));
        assert_eq!(r.get(&k).unwrap().size, 100);
        assert_eq!(r.aggregates("t1").objects, 1);
        r.remove(&k);
        assert!(!r.contains(&k));
        assert_eq!(r.aggregates("t1").objects, 0);
    }

    #[test]
    fn lru_order_follows_access() {
        let r = Registry::in_memory();
        for name in ["a", "b", "c"] {
            r.upsert(ObjectKey::new(name), meta_in("t1", 10, SimTime::ZERO));
        }
        assert_eq!(r.oldest_in("t1").unwrap().as_str(), "a");
        assert_eq!(r.newest_in("t1").unwrap().as_str(), "c");
        // Touching "a" makes it newest.
        r.touch(&ObjectKey::new("a"), SimTime::from_secs(1));
        assert_eq!(r.oldest_in("t1").unwrap().as_str(), "b");
        assert_eq!(r.newest_in("t1").unwrap().as_str(), "a");
    }

    #[test]
    fn aggregates_track_dirty_bytes() {
        let r = Registry::in_memory();
        let k = ObjectKey::new("a");
        let mut m = meta_in("t1", 100, SimTime::ZERO);
        m.dirty = true;
        r.upsert(k.clone(), m);
        assert_eq!(r.aggregates("t1").dirty_bytes, 100);
        r.update(&k, |m| m.dirty = false);
        assert_eq!(r.aggregates("t1").dirty_bytes, 0);
    }

    #[test]
    fn selectors_resolve() {
        let r = Registry::in_memory();
        let now = SimTime::ZERO;
        let mut m1 = meta_in("t1", 10, now);
        m1.dirty = true;
        m1.set_tags([Tag::new("tmp")]);
        r.upsert(ObjectKey::new("a"), m1);
        r.upsert(ObjectKey::new("b"), meta_in("t2", 10, now));

        assert_eq!(r.select(&Selector::All, None, now).len(), 2);
        assert_eq!(r.select(&Selector::Dirty, None, now).len(), 1);
        assert_eq!(
            r.select(&Selector::Tagged(Tag::new("tmp")), None, now)[0].as_str(),
            "a"
        );
        assert_eq!(r.select(&Selector::InTier("t2".into()), None, now).len(), 1);
        let conj = Selector::InTier("t1".into()).and(Selector::Dirty);
        assert_eq!(r.select(&conj, None, now).len(), 1);
        let conj_empty = Selector::InTier("t2".into()).and(Selector::Dirty);
        assert!(r.select(&conj_empty, None, now).is_empty());
        // Inserted resolves through the context argument.
        let k = ObjectKey::new("a");
        assert_eq!(r.select(&Selector::Inserted, Some(&k), now), vec![k]);
        assert!(r.select(&Selector::Inserted, None, now).is_empty());
    }

    #[test]
    fn not_selector_complements() {
        let r = Registry::in_memory();
        let now = SimTime::ZERO;
        let mut tagged = meta_in("t1", 1, now);
        tagged.set_tags([Tag::new("tmp")]);
        r.upsert(ObjectKey::new("tmp-obj"), tagged);
        r.upsert(ObjectKey::new("plain"), meta_in("t1", 1, now));
        let not_tmp = Selector::Tagged(Tag::new("tmp")).negate();
        let hits = r.select(&not_tmp, None, now);
        assert_eq!(hits, vec![ObjectKey::new("plain")]);
        // Inserted && !tagged resolves against the inserted object.
        let sel = Selector::Inserted.and(Selector::Tagged(Tag::new("tmp")).negate());
        assert_eq!(
            r.select(&sel, Some(&ObjectKey::new("plain")), now).len(),
            1
        );
        assert!(r
            .select(&sel, Some(&ObjectKey::new("tmp-obj")), now)
            .is_empty());
    }

    #[test]
    fn hot_cold_selectors() {
        let r = Registry::in_memory();
        let hot = ObjectKey::new("hot");
        let cold = ObjectKey::new("cold");
        r.upsert(hot.clone(), meta_in("t1", 10, SimTime::ZERO));
        r.upsert(cold.clone(), meta_in("t1", 10, SimTime::ZERO));
        for _ in 0..100 {
            r.touch(&hot, SimTime::from_secs(10));
        }
        r.touch(&cold, SimTime::from_secs(10));
        let now = SimTime::from_secs(10);
        let hots = r.select(&Selector::HotterThan(5.0), None, now);
        assert_eq!(hots, vec![hot]);
        let colds = r.select(&Selector::ColderThan(5.0), None, now);
        assert_eq!(colds, vec![cold]);
    }

    #[test]
    fn hot_cold_partition_is_exact() {
        // The index walk with early stopping must agree exactly with the
        // brute-force per-object predicate, across varied ages and counts.
        let r = Registry::in_memory();
        for i in 0..40u64 {
            let k = ObjectKey::new(format!("o{i}"));
            r.upsert(k.clone(), meta_in("t1", 1, SimTime::from_secs(i % 7)));
            for _ in 0..(i % 11) {
                r.touch(&k, SimTime::from_secs(8));
            }
        }
        let now = SimTime::from_secs(9);
        for bound in [0.0, 0.1, 0.5, 1.0, 2.0] {
            let mut hot = r.select(&Selector::HotterThan(bound), None, now);
            let mut cold = r.select(&Selector::ColderThan(bound), None, now);
            let mut brute_hot = Vec::new();
            let mut brute_cold = Vec::new();
            for k in r.select(&Selector::All, None, now) {
                if r.get(&k).unwrap().access_frequency(now) >= bound {
                    brute_hot.push(k);
                } else {
                    brute_cold.push(k);
                }
            }
            hot.sort();
            cold.sort();
            brute_hot.sort();
            brute_cold.sort();
            assert_eq!(hot, brute_hot, "bound {bound}");
            assert_eq!(cold, brute_cold, "bound {bound}");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_counts() {
        assert_eq!(BUCKETS, 65);
        assert_eq!((bucket_min(0), bucket_max(0)), (0, 0));
        assert_eq!(bucket_max(BUCKETS - 1), u64::MAX);
        for bucket in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_min(bucket)), bucket);
            assert_eq!(bucket_of(bucket_max(bucket)), bucket);
            if bucket > 0 {
                assert_eq!(bucket_min(bucket), bucket_max(bucket - 1) + 1);
            }
        }
    }

    #[test]
    fn boundary_counts_land_in_their_buckets() {
        let r = Registry::in_memory();
        let cases = [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (u64::MAX, 64)];
        for (count, _) in cases {
            r.upsert(ObjectKey::new(format!("c{count}")), counted(count, SimTime::ZERO));
        }
        for (count, bucket) in cases {
            let key = ObjectKey::new(format!("c{count}"));
            assert!(r.bucket_keys(bucket).contains(&key), "count {count} in bucket {bucket}");
        }
        r.assert_buckets_hold_every_object_once();
        // A touch refiles exactly when the count crosses a power of two.
        let touch = |count: u64| r.touch(&ObjectKey::new(format!("c{count}")), SimTime::from_secs(1));
        touch(2);
        assert_eq!(r.frequency_moves(), 0, "2 -> 3 stays in bucket 2");
        touch(7);
        assert_eq!(r.frequency_moves(), 1, "7 -> 8 moves to bucket 4");
        touch(0);
        assert_eq!(r.frequency_moves(), 2, "0 -> 1 moves to bucket 1");
        assert_eq!(r.bucket_keys(0), Vec::new());
        assert_eq!(r.bucket_keys(4), vec![ObjectKey::new("c7"), ObjectKey::new("c8")]);
        r.assert_buckets_hold_every_object_once();
    }

    #[test]
    fn a_reused_node_carries_no_stale_frequency_link() {
        let r = Registry::in_memory();
        // An ordered read first, so nodes are taken and released.
        assert_eq!(r.oldest_in("t1"), None);
        let key = |name: &str| ObjectKey::new(name);
        // Three in one bucket, so the middle one has both neighbours.
        for name in ["a", "b", "c"] {
            r.upsert(key(name), counted(5, SimTime::ZERO));
        }
        r.remove(&key("b"));
        assert_eq!(r.bucket_keys(3), vec![key("a"), key("c")]);
        // `d` takes b's node, in another bucket; then the old neighbours go.
        r.upsert(key("d"), counted(100, SimTime::ZERO));
        assert_eq!(r.bucket_keys(7), vec![key("d")]);
        r.assert_buckets_hold_every_object_once();
        r.remove(&key("a"));
        r.remove(&key("c"));
        assert_eq!(r.bucket_keys(3), Vec::new());
        assert_eq!(r.bucket_keys(7), vec![key("d")]);
        // And back into the bucket it left, beside a newcomer.
        r.upsert(key("d"), counted(4, SimTime::ZERO));
        r.upsert(key("e"), counted(6, SimTime::ZERO));
        assert_eq!(r.bucket_keys(3), vec![key("d"), key("e")]);
        assert_eq!(r.bucket_keys(7), Vec::new());
        r.assert_buckets_hold_every_object_once();
        let now = SimTime::from_secs(1);
        assert_eq!(r.select(&Selector::HotterThan(5.0), None, now), vec![key("e")]);
        assert_eq!(r.select(&Selector::ColderThan(5.0), None, now), vec![key("d")]);
    }

    #[test]
    fn a_million_touches_of_one_key_refile_it_twenty_times() {
        let r = Registry::in_memory();
        // An ordered read first, so the touches run the indexed path.
        assert_eq!(r.oldest_in("t1"), None);
        let k = ObjectKey::new("hot");
        r.upsert(k.clone(), meta_in("t1", 1, SimTime::ZERO));
        r.upsert(ObjectKey::new("idle"), meta_in("t1", 1, SimTime::ZERO));
        for _ in 0..1_000_000 {
            r.touch(&k, SimTime::from_secs(1));
        }
        // One move per power of two crossed: 1, 2, 4, .. 2^19.
        assert_eq!(r.frequency_moves(), 20);
        assert_eq!(r.bucket_keys(bucket_of(1_000_000)), vec![k]);
        r.assert_buckets_hold_every_object_once();
    }

    #[test]
    fn prop_hot_cold_match_a_scan_at_ten_thousand_objects() {
        const OBJECTS: u64 = 10_000;
        prop_check!(cases = 4, |rng| {
            let r = Registry::in_memory();
            let lifetime = gen::u64_in(rng, 60..600);
            let now = SimTime::from_secs(lifetime);
            let mut ranks: Vec<u64> = (1..=OBJECTS).collect();
            for i in (1..ranks.len()).rev() {
                ranks.swap(i, gen::usize_in(rng, 0..i + 1));
            }
            // Zipf's law: the object of popularity rank `n` is read 1/n as
            // often as the most popular one.
            let top = gen::u64_in(rng, 1_000..1_000_000);
            for (i, rank) in ranks.iter().enumerate() {
                let created = SimTime::from_secs(gen::u64_in(rng, 0..lifetime));
                r.upsert(ObjectKey::new(format!("o{i:05}")), counted(top / rank, created));
            }
            r.assert_buckets_hold_every_object_once();

            let oldest = lifetime as f64;
            let mut bounds = vec![0.0, f64::MIN_POSITIVE, 1e-3, top as f64, f64::INFINITY];
            for _ in 0..6 {
                // Some object's own frequency (an exact tie), a bound that
                // cuts a bucket in two for the oldest possible object, and
                // one that falls on a bucket's edge.
                let sample = ObjectKey::new(format!("o{:05}", gen::u64_in(rng, 0..OBJECTS)));
                bounds.push(r.get(&sample).unwrap().access_frequency(now));
                let bucket = gen::usize_in(rng, 1..22);
                let inside = gen::u64_in(rng, bucket_min(bucket)..bucket_max(bucket) + 1);
                bounds.push(inside as f64 / oldest);
                bounds.push(bucket_min(bucket) as f64 / oldest);
            }
            for bound in bounds {
                let (hot, cold) = r.scan_hot_cold(bound, now);
                if bound > 0.0 {
                    assert_eq!(r.select(&Selector::HotterThan(bound), None, now), hot, "hot {bound}");
                } else {
                    assert_eq!(r.select(&Selector::HotterThan(bound), None, now).len(), hot.len());
                }
                assert_eq!(r.select(&Selector::ColderThan(bound), None, now), cold, "cold {bound}");
            }
        });
    }

    #[test]
    fn all_and_dirty_return_access_order() {
        let r = Registry::in_memory();
        for name in ["a", "b", "c"] {
            let mut m = meta_in("t1", 1, SimTime::ZERO);
            m.dirty = true;
            r.upsert(ObjectKey::new(name), m);
        }
        r.touch(&ObjectKey::new("a"), SimTime::from_secs(1));
        let all: Vec<String> = r
            .select(&Selector::All, None, SimTime::from_secs(1))
            .iter()
            .map(|k| k.as_str().to_string())
            .collect();
        assert_eq!(all, vec!["b", "c", "a"], "oldest access first");
        let dirty = r.select(&Selector::Dirty, None, SimTime::from_secs(1));
        assert_eq!(dirty.len(), 3);
        assert_eq!(dirty[0].as_str(), "b");
    }

    #[test]
    fn for_each_in_visits_in_lru_order_without_cloning_vecs() {
        let r = Registry::in_memory();
        for name in ["a", "b", "c"] {
            r.upsert(ObjectKey::new(name), meta_in("t1", 1, SimTime::ZERO));
        }
        r.touch(&ObjectKey::new("b"), SimTime::from_secs(1));
        let mut seen = Vec::new();
        r.for_each_in("t1", |k| seen.push(k.as_str().to_string()));
        assert_eq!(seen, vec!["a", "c", "b"]);
        let mut none = 0;
        r.for_each_in("no-such-tier", |_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn recount_matches_incremental_aggregates() {
        let r = Registry::in_memory();
        for i in 0..50u64 {
            let mut m = meta_in(if i % 2 == 0 { "t1" } else { "t2" }, i + 1, SimTime::ZERO);
            m.dirty = i % 3 == 0;
            r.upsert(ObjectKey::new(format!("k{i}")), m);
        }
        for i in (0..50u64).step_by(5) {
            r.remove(&ObjectKey::new(format!("k{i}")));
        }
        for i in (1..50u64).step_by(7) {
            r.update(&ObjectKey::new(format!("k{i}")), |m| m.dirty = !m.dirty);
        }
        for tier in ["t1", "t2"] {
            assert_eq!(r.aggregates(tier), r.recount_aggregates(tier), "{tier}");
        }
    }

    #[test]
    fn concurrent_shard_ops_keep_indexes_consistent() {
        use std::sync::Arc;
        let r = Arc::new(Registry::in_memory());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = ObjectKey::new(format!("t{t}-k{i}"));
                        let mut m = meta_in("t1", 8, SimTime::ZERO);
                        m.dirty = true;
                        r.upsert(k.clone(), m);
                        r.touch(&k, SimTime::from_secs(i));
                        if i % 3 == 0 {
                            r.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.aggregates("t1"), r.recount_aggregates("t1"));
        assert_eq!(r.len() as u64, r.recount_aggregates("t1").objects);
        // The tier order index holds exactly the live keys.
        assert_eq!(r.keys_in("t1").len(), r.len());
    }

    const TIERS: [&str; 3] = ["t1", "t2", "t3"];

    /// One registry mutation, to replay against several registries.
    enum Op {
        Upsert(ObjectKey, ObjectMeta),
        /// New locations and dirty flag.
        Update(ObjectKey, Vec<&'static str>, bool),
        Touch(ObjectKey, SimTime),
        Remove(ObjectKey),
    }

    impl Op {
        fn apply(&self, r: &Registry) {
            match self {
                Op::Upsert(key, meta) => r.upsert(key.clone(), meta.clone()),
                Op::Update(key, tiers, dirty) => {
                    r.update(key, |m| {
                        m.locations = TierSet::new();
                        for tier in tiers {
                            m.locations.insert(tier.to_string());
                        }
                        m.dirty = *dirty;
                    });
                }
                Op::Touch(key, now) => {
                    r.touch(key, *now);
                }
                Op::Remove(key) => {
                    r.remove(key);
                }
            }
        }
    }

    /// `steps` random mutations of 24 keys over [`TIERS`], one a second.
    fn random_ops(rng: &mut tiera_support::SimRng, steps: u64) -> Vec<Op> {
        let some_tiers = |rng: &mut tiera_support::SimRng| -> Vec<&'static str> {
            TIERS.into_iter().filter(|_| gen::boolean(rng)).collect()
        };
        (0..steps)
            .map(|step| {
                let key = ObjectKey::new(format!("k{}", gen::u64_in(rng, 0..24)));
                let now = SimTime::from_secs(step);
                match gen::u64_in(rng, 0..8) {
                    0..=2 => {
                        let mut meta = ObjectMeta::new(gen::u64_in(rng, 1..100), now);
                        for tier in some_tiers(rng) {
                            meta.locations.insert(tier.to_string());
                        }
                        meta.dirty = gen::boolean(rng);
                        meta.access_count = gen::u64_in(rng, 0..40);
                        if gen::u64_in(rng, 0..4) == 0 {
                            meta.set_tags([Tag::new("tmp")]);
                        }
                        Op::Upsert(key, meta)
                    }
                    3 | 4 => Op::Update(key, some_tiers(rng), gen::boolean(rng)),
                    5 | 6 => Op::Touch(key, now),
                    _ => Op::Remove(key),
                }
            })
            .collect()
    }

    #[test]
    fn prop_a_lazy_build_equals_eager_upkeep() {
        prop_check!(cases = 24, |rng| {
            let steps = gen::u64_in(rng, 1..300);
            let ops = random_ops(rng, steps);
            let now = SimTime::from_secs(steps + 1);
            let eager = Registry::in_memory();
            assert!(eager.select(&Selector::All, None, SimTime::ZERO).is_empty());
            let lazy = Registry::in_memory();
            for op in &ops {
                op.apply(&eager);
                op.apply(&lazy);
            }
            assert!(!lazy.indexed(), "no ordered read yet");
            assert_eq!(lazy.ordered_view(now), eager.ordered_view(now));
            lazy.assert_lists_match_metadata();
            eager.assert_lists_match_metadata();
        });
    }

    #[test]
    fn prop_a_reopened_registry_builds_the_lists_its_writer_kept() {
        use tiera_metastore::MetaStoreOptions;
        let dir = std::env::temp_dir().join(format!("tiera-reg-reopen-{}", std::process::id()));
        prop_check!(cases = 8, |rng| {
            let _ = std::fs::remove_dir_all(&dir);
            let steps = gen::u64_in(rng, 1..200);
            let ops = random_ops(rng, steps);
            let now = SimTime::from_secs(steps + 1);
            // One store shard: its log order is then the writer's order of
            // last writes, the stamp order of the lists it kept.
            let opts = MetaStoreOptions {
                shards: 1,
                ..MetaStoreOptions::default()
            };
            let writer = Registry::over(MetaStore::open_with(&dir, opts).unwrap()).unwrap();
            for op in &ops {
                op.apply(&writer);
            }
            writer.sync().unwrap();
            let written = writer.ordered_view(now);
            drop(writer);
            let reopened = Registry::persistent(&dir).unwrap();
            assert!(!reopened.indexed(), "recovery makes no ordered read");
            assert_eq!(reopened.ordered_view(now), written);
            reopened.assert_lists_match_metadata();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_first_ordered_read_builds_the_indexes_under_load() {
        // Each round races the build against the writers anew.
        for _ in 0..8 {
            build_under_load();
        }
    }

    /// Four threads mutate shared and their own keys while a fifth makes
    /// the registry's first ordered read; then every object must be on
    /// exactly its lists and the aggregates must equal a recount.
    fn build_under_load() {
        use std::sync::Arc;
        let r = Arc::new(Registry::in_memory());
        let meta = |i: u64| {
            let mut m = meta_in(TIERS[(i % 3) as usize], i % 50 + 1, SimTime::from_secs(i % 7));
            m.dirty = i.is_multiple_of(2);
            m
        };
        let shared = |i: u64| ObjectKey::new(format!("shared{}", i % 64));
        for i in 0..64 {
            r.upsert(shared(i), meta(i));
        }
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..3_000u64 {
                        let own = ObjectKey::new(format!("w{t}-k{}", i % 400));
                        match i % 6 {
                            0 | 1 => r.upsert(own, meta(i + t)),
                            2 => {
                                r.update(&shared(i + t), |m| {
                                    m.dirty = !m.dirty;
                                    m.locations.insert(TIERS[((i + t) % 3) as usize].to_string());
                                });
                            }
                            3 => {
                                r.touch(&shared(i * 7 + t), SimTime::from_secs(i));
                            }
                            4 => {
                                r.touch(&own, SimTime::from_secs(i));
                            }
                            _ => {
                                r.remove(&own);
                            }
                        }
                    }
                })
            })
            .collect();
        let reader = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                // Once the writers are well under way.
                while r.stamps.load(Ordering::Relaxed) < 4_000 {
                    std::thread::yield_now();
                }
                r.oldest_in("t1")
            })
        };
        for t in writers {
            t.join().unwrap();
        }
        reader.join().unwrap();
        assert!(r.indexed());
        r.assert_lists_match_metadata();
        for tier in TIERS {
            assert_eq!(r.aggregates(tier), r.recount_aggregates(tier), "{tier}");
        }
    }

    #[test]
    fn dedup_refcounting() {
        let r = Registry::in_memory();
        let d = Digest::of(b"content");
        let phys = ObjectKey::new("sha256:abc");
        assert_eq!(r.dedup_acquire(d, phys.clone()), None, "first is new");
        assert_eq!(
            r.dedup_acquire(d, ObjectKey::new("ignored")),
            Some(phys.clone()),
            "second returns existing physical key"
        );
        assert_eq!(r.dedup_release(&d), None, "one ref remains");
        assert_eq!(r.dedup_release(&d), Some(phys), "last release frees");
        assert_eq!(r.dedup_lookup(&d), None);
    }

    #[test]
    fn persistent_registry_recovers() {
        let dir = std::env::temp_dir().join(format!("tiera-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let r = Registry::persistent(&dir).unwrap();
            let mut m = meta_in("t1", 42, SimTime::from_secs(3));
            m.dirty = true;
            r.upsert(ObjectKey::new("persisted"), m);
            r.remove(&ObjectKey::new("persisted-then-removed"));
            r.sync().unwrap();
        }
        let r = Registry::persistent(&dir).unwrap();
        let m = r.get(&ObjectKey::new("persisted")).expect("recovered");
        assert_eq!(m.size, 42);
        assert!(m.dirty);
        assert_eq!(r.aggregates("t1").objects, 1, "indexes rebuilt");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_registry_files_restored_counts() {
        let dir = std::env::temp_dir().join(format!("tiera-reg-buckets-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let now = SimTime::from_secs(10);
        let (hot, cold) = {
            let r = Registry::persistent(&dir).unwrap();
            for count in [0u64, 1, 2, 3, 4, 7, 8, 1 << 40, u64::MAX] {
                let key = ObjectKey::new(format!("c{count}"));
                r.upsert(key.clone(), counted(count, SimTime::from_secs(count % 5)));
                if count % 2 == 1 && count < 8 {
                    r.touch(&key, now);
                }
            }
            r.remove(&ObjectKey::new("c4"));
            r.sync().unwrap();
            r.scan_hot_cold(1.0, now)
        };
        let r = Registry::persistent(&dir).unwrap();
        assert_eq!(r.len(), 8);
        assert_eq!(r.frequency_moves(), 0, "recovery files each object where it belongs");
        r.assert_buckets_hold_every_object_once();
        assert_eq!(r.bucket_keys(0), vec![ObjectKey::new("c0")]);
        assert_eq!(r.bucket_keys(2), vec![ObjectKey::new("c1"), ObjectKey::new("c2")]);
        assert_eq!(r.bucket_keys(3), vec![ObjectKey::new("c3")]);
        assert_eq!(r.bucket_keys(4), vec![ObjectKey::new("c7"), ObjectKey::new("c8")]);
        assert_eq!(r.bucket_keys(41), vec![ObjectKey::new(format!("c{}", 1u64 << 40))]);
        assert_eq!(r.bucket_keys(64), vec![ObjectKey::new(format!("c{}", u64::MAX))]);
        assert_eq!(r.select(&Selector::HotterThan(1.0), None, now), hot);
        assert_eq!(r.select(&Selector::ColderThan(1.0), None, now), cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_metadata_writes_are_counted_and_fail_the_next_sync_once() {
        use tiera_metastore::{KillSite, MetaStoreOptions};
        let dir = std::env::temp_dir().join(format!("tiera-reg-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = MetaStoreOptions {
            sync_every_append: true,
            ..MetaStoreOptions::default()
        };
        let store = MetaStore::open_with(&dir, opts).unwrap();
        let kill = store.kill_points();
        let r = Registry::over(store).unwrap();
        let (a, b) = (ObjectKey::new("a"), ObjectKey::new("b"));
        r.upsert(a.clone(), meta_in("t1", 1, SimTime::ZERO));
        assert_eq!(r.persist_failures(), 0);
        r.sync().unwrap();

        // The store refuses the next write; the client operation still
        // succeeds and the in-memory record is intact.
        kill.arm(KillSite::BatchBeforeSync, 0);
        r.upsert(b.clone(), meta_in("t1", 2, SimTime::ZERO));
        assert_eq!(r.get(&b).unwrap().size, 2);
        assert_eq!(r.persist_failures(), 1);
        let err = r.sync().unwrap_err();
        assert!(
            matches!(&err, TieraError::Metadata(m) if m.contains("1 metadata write") && m.contains("batch.before_sync")),
            "{err}"
        );
        r.sync().expect("reported once");

        // Later refusals latch again; the count is cumulative.
        for _ in 0..2 {
            kill.arm(KillSite::BatchBeforeSync, 0);
            r.touch(&a, SimTime::from_secs(1)).unwrap();
        }
        assert_eq!(r.persist_failures(), 3);
        let err = r.sync().unwrap_err();
        assert!(matches!(&err, TieraError::Metadata(m) if m.contains("2 metadata write")), "{err}");
        r.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_missing_returns_none() {
        let r = Registry::in_memory();
        assert!(r.update(&ObjectKey::new("nope"), |m| m.dirty = true).is_none());
        assert!(r.touch(&ObjectKey::new("nope"), SimTime::ZERO).is_none());
    }
}

//! The metadata registry.
//!
//! Owns every object's [`ObjectMeta`], maintains the access-ordered per-tier
//! lists that make `tierN.oldest` / `tierN.newest` selections O(1)
//! (the Figure 5 LRU/MRU idiom), counts the references to each
//! `storeOnce` blob, and — mirroring the paper's BerkeleyDB usage —
//! optionally persists all metadata through `tiera-metastore`.
//!
//! ## Concurrency model
//!
//! The registry is the metadata hot path shared by every request thread, so
//! its state is split by key and no lock spans the registry (DESIGN.md,
//! "Concurrency model"):
//!
//! * **Shards.** The key→meta map is hash-partitioned into
//!   [`SHARD_COUNT`] shards, each behind its own `RwLock`. A shard owns
//!   all the registry keeps about its objects: their metadata, their order
//!   indexes and their per-tier aggregates. It stores the metadata
//!   compact, a 40-byte `CompactMeta` an entry, and keeps what does not
//!   fit — the rare attributes, a set of more than four locations — in a
//!   side map read only for the entries whose flag says so. Callers see
//!   whole [`ObjectMeta`]s: a read puts one together, and a closure that
//!   edits one (`update`, `publish_at`) edits a whole copy, which is
//!   stored compact again after it returns. A key-addressed operation
//!   (`get`/`contains`/`upsert`/`update`/`touch`/`remove`) locks exactly
//!   one shard and nothing else — two requests for different keys usually
//!   touch different shards and proceed in parallel.
//! * **Order indexes** (a shard's `order`): the recency lists — access
//!   order, dirty objects, one list per tier behind `tierN.oldest`/`newest`
//!   — over the shard's objects. All are doubly linked through one slab of
//!   nodes (an object has one node, and one `(prev, next)` pair in each
//!   list it is on). A mutation gives its node a fresh *stamp*, a number it
//!   takes from one registry-wide counter under its shard lock, and moves
//!   the object to the back of every list it belongs to, so each list holds
//!   its members in stamp order.
//! * **Aggregates** (a shard's `aggregates`): per-tier object/dirty-byte
//!   counters, kept by every mutation that changes an object's locations,
//!   dirty flag or dirty size.
//! * **Dedup** (`dedup`): the `storeOnce` refcounts ([`BlobTable`],
//!   rebuilt by recovery) behind their own `Mutex`; never held together
//!   with a shard.
//!
//! A cross-shard read locks the shards one at a time and merges what each
//! answers: `oldest_in`/`newest_in` compare the shards' list ends by
//! stamp, a list selector merges the shards' lists by stamp, `aggregates`
//! sums the shards. The answer is a merge of per-shard snapshots, not one
//! point-in-time snapshot: a mutation may land in a shard the read has
//! passed, or in one it has yet to visit, while the read runs. Single
//! threaded, stamp order is mutation order and the merge is exact. No
//! caller needs more: a selection is acted on key by key, each action
//! re-reading its object under its shard lock, and an eviction reads
//! `oldest_in` afresh for every victim.
//!
//! ## Built at the first ordered read
//!
//! A shard starts *unindexed*: `order` is `None` and no mutation links
//! anything. Each entry's slot holds instead its stamp, so an unindexed PUT
//! or GET costs one shard lock and no node. An *ordered read* — a selector
//! that walks a list (`All`, `Dirty`, `InTier`, `Tagged`,
//! `OldestIn`/`NewestIn`), `oldest_in`, `newest_in`, `keys_in` —
//! builds the indexes of each shard it finds unindexed, under that shard's
//! write lock: every entry gets a node carrying its stamp, and joins its
//! lists in stamp order, which is the order eager upkeep would have kept.
//! From then on the shard is indexed for good, its slots hold nodes and its
//! mutations keep the lists as above. The shard lock orders the build
//! against the shard's mutations, so nothing else needs to.
//!
//! **Lock order: shard, with `dedup` a leaf.** A thread never holds two
//! shard locks at once and never holds a shard lock together with `dedup`.
//! `publish_at` holds one shard across its caller's tier writes of that
//! key's bytes, which take only tier locks and the instance's leaf locks.
//! Mutations hold their shard lock across the index and aggregate updates,
//! so for any single key the map, every index and the aggregates always
//! agree.

use std::cell::RefCell;
use std::collections::hash_map::Entry as MapEntry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use tiera_codec::Digest;
use tiera_metastore::MetaStore;
use tiera_sim::SimTime;
use tiera_support::collections::{fx_hash_one, FxHashMap, FxHashSet};
use tiera_support::sync::{rank, Mutex, RwLock, RwLockReadGuard};

use crate::dedup::BlobTable;
use crate::error::{Result, TieraError};
use crate::meta::{Apart, CompactMeta, ObjectMeta, TierSet};
use crate::object::ObjectKey;
use crate::selector::Selector;
use crate::tier::TierId;

/// Number of key-addressed shards (power of two; picked from the top hash
/// bits). 16 keeps per-shard contention negligible for the request-pool
/// sizes the RPC server runs (≤ 8 threads) without bloating the footprint.
pub const SHARD_COUNT: usize = 16;

/// Counters maintained per tier, read without a sweep of the objects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierAggregates {
    /// Objects located in the tier.
    pub objects: u64,
    /// Bytes of dirty objects located in the tier.
    pub dirty_bytes: u64,
}

/// One object's registry record: its metadata, less what its shard keeps
/// apart ([`CompactMeta`]), plus its slot, which holds the stamp of its
/// last mutation while its shard is unindexed and its node in the shard's
/// order indexes once they are built.
struct Entry {
    core: CompactMeta,
    slot: u64,
}

// One per object, in a map slot beside its key.
const _: () = assert!(std::mem::size_of::<Entry>() <= 48);

impl Entry {
    /// The object's node; its shard is indexed.
    fn node(&self) -> u32 {
        self.slot as u32
    }
}

/// One hash shard: its objects' metadata, their per-tier aggregates and,
/// once built, their order indexes.
#[derive(Default)]
struct Shard {
    map: FxHashMap<ObjectKey, Entry>,
    /// What the shard keeps apart for the objects whose entry says so,
    /// and for no others: rare attributes, more than four locations.
    apart: ApartMap,
    /// `None` until the shard's first ordered read.
    order: Option<OrderIndexes>,
    aggregates: Aggregates,
}

/// A shard's side map: what it keeps apart for an object, by key.
type ApartMap = FxHashMap<ObjectKey, Apart>;

/// What `apart` holds for `key`, whose entry is `core`.
fn apart_of<'a>(apart: &'a ApartMap, key: &ObjectKey, core: &CompactMeta) -> Option<&'a Apart> {
    if core.has_apart() {
        apart.get(key)
    } else {
        None
    }
}

/// `key`'s whole record: `core` and what `apart` holds for it.
fn whole(apart: &ApartMap, key: &ObjectKey, core: &CompactMeta) -> ObjectMeta {
    ObjectMeta::from_compact(core, apart_of(apart, key, core))
}

/// `meta` as `key`'s entry stores it. What does not fit the entry goes to
/// `apart`; `had` says whether the entry it replaces had anything there.
fn compact(apart: &mut ApartMap, key: &ObjectKey, had: bool, meta: &ObjectMeta) -> CompactMeta {
    let (core, kept) = meta.compact();
    match kept {
        Some(kept) => {
            apart.insert(key.clone(), kept);
        }
        None if had => {
            apart.remove(key);
        }
        None => {}
    }
    core
}

/// "No node": the end of a list, or an unlinked node's neighbours.
const NIL: u32 = u32::MAX;

/// A node's neighbours in one list.
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// One recency list threaded through the slab's nodes: `links` is indexed
/// by node, oldest at the head. Which nodes are members is the caller's
/// knowledge (it follows from the object's metadata), not the list's.
struct RecencyList {
    links: Vec<Link>,
    head: u32,
    tail: u32,
}

impl Default for RecencyList {
    fn default() -> Self {
        Self { links: Vec::new(), head: NIL, tail: NIL }
    }
}

impl RecencyList {
    /// Appends `node` (not currently a member) as the newest; `links`
    /// grows to the highest node ever linked.
    fn push_back(&mut self, node: u32) {
        let at = node as usize;
        if at >= self.links.len() {
            self.links.resize(at + 1, Link { prev: NIL, next: NIL });
        }
        self.links[at] = Link { prev: self.tail, next: NIL };
        match self.tail {
            NIL => self.head = node,
            tail => self.links[tail as usize].next = node,
        }
        self.tail = node;
    }

    /// Removes `node` (currently a member).
    fn unlink(&mut self, node: u32) {
        let Link { prev, next } = self.links[node as usize];
        match prev {
            NIL => self.head = next,
            prev => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.links[next as usize].prev = prev,
        }
    }

    /// Makes `node` (currently a member) the newest.
    fn move_to_back(&mut self, node: u32) {
        if self.tail != node {
            self.unlink(node);
            self.push_back(node);
        }
    }

    /// The members, oldest first.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let from = |node: u32| (node != NIL).then_some(node);
        std::iter::successors(from(self.head), move |&n| from(self.links[n as usize].next))
    }
}

/// What the indexes and aggregates record about one object: the part of
/// its metadata a mutation must compare before and after.
struct Indexed {
    locations: TierSet,
    dirty: bool,
    stored_size: u64,
}

impl Indexed {
    fn of(meta: &ObjectMeta) -> Self {
        Self {
            locations: meta.locations.clone(),
            dirty: meta.dirty,
            stored_size: meta.stored_size(),
        }
    }
}

/// One slab node: its object's key (`None` while on `free`) and the stamp
/// of the object's last mutation, by which cross-shard reads merge.
struct Node {
    key: Option<ObjectKey>,
    stamp: u64,
}

/// One shard's order indexes (see module docs).
#[derive(Default)]
struct OrderIndexes {
    /// The node slab.
    nodes: Vec<Node>,
    /// Released nodes, reused before the slab grows.
    free: Vec<u32>,
    /// Every object, in access order (drives `All`/`Not`).
    access: RecencyList,
    /// Dirty objects, in access order (drives `Dirty`).
    dirty: RecencyList,
    /// Per tier, the objects located there, in access order.
    tiers: FxHashMap<TierId, RecencyList>,
}

impl OrderIndexes {
    /// Takes a node for `key`, stamped `stamp`, and links it as the newest
    /// of every list `now` puts it on.
    fn add(&mut self, key: ObjectKey, now: &Indexed, stamp: u64) -> u32 {
        let filled = Node { key: Some(key), stamp };
        let node = match self.free.pop() {
            Some(node) => {
                self.nodes[node as usize] = filled;
                node
            }
            None => {
                let node = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|node| *node != NIL)
                    .expect("a shard holds fewer than 2^32 - 1 objects");
                self.nodes.push(filled);
                node
            }
        };
        self.access.push_back(node);
        self.link_lists(node, now);
        node
    }

    /// Undoes [`add`](Self::add) for the state `node` was linked with and
    /// returns it to the slab.
    fn remove(&mut self, node: u32, was: &Indexed) {
        self.access.unlink(node);
        self.unlink_lists(node, was);
        self.nodes[node as usize].key = None;
        self.free.push(node);
    }

    /// A mutation of a linked object, stamped `stamp`: it becomes the
    /// newest of every list `now` puts it on and leaves the lists only
    /// `was` had it on.
    fn relink(&mut self, node: u32, was: &Indexed, now: &Indexed, stamp: u64) {
        self.nodes[node as usize].stamp = stamp;
        self.access.move_to_back(node);
        self.unlink_lists(node, was);
        self.link_lists(node, now);
    }

    /// An access to a linked object, stamped `stamp`, dirty or not and
    /// in `locations`: the access changed none of its locations or its
    /// dirty flag, so it stays on the lists it is on and becomes the
    /// newest of each.
    fn touch(&mut self, node: u32, dirty: bool, locations: &[TierId], stamp: u64) {
        self.nodes[node as usize].stamp = stamp;
        self.access.move_to_back(node);
        if dirty {
            self.dirty.move_to_back(node);
        }
        for tier in locations {
            if let Some(list) = self.tiers.get_mut(tier) {
                list.move_to_back(node);
            }
        }
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

    /// The stamp and key of `node`; `None` for [`NIL`] (an empty list's
    /// ends).
    fn stamped(&self, node: u32) -> Option<(u64, &ObjectKey)> {
        let node = self.nodes.get(node as usize)?;
        Some((node.stamp, node.key.as_ref()?))
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

/// A fresh stamp for a mutation. `Relaxed`: a stamp publishes nothing. It
/// is taken and stored under the object's shard lock, which orders one
/// shard's stamps as its mutations.
fn next_stamp(stamps: &AtomicU64) -> u64 {
    stamps.fetch_add(1, Ordering::Relaxed)
}

impl Shard {
    /// Inserts or replaces `key`'s metadata — what `build` makes of the
    /// record it replaces, if any — stamped `stamp`; returns the replaced
    /// record. `build` may decline to replace a record (`None`), and then
    /// nothing changes and the answer is `None`.
    fn insert(
        &mut self,
        key: &ObjectKey,
        stamp: u64,
        build: impl FnOnce(Option<&ObjectMeta>) -> Option<ObjectMeta>,
    ) -> Option<Option<ObjectMeta>> {
        let Shard { map, apart, order, aggregates } = self;
        let (now, prior) = match map.entry(key.clone()) {
            MapEntry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                let prior = whole(apart, key, &entry.core);
                let meta = build(Some(&prior))?;
                let (was, now) = (Indexed::of(&prior), Indexed::of(&meta));
                match order {
                    Some(order) => order.relink(entry.node(), &was, &now, stamp),
                    None => entry.slot = stamp,
                }
                aggregates_sub(aggregates, &was);
                entry.core = compact(apart, key, entry.core.has_apart(), &meta);
                (now, Some(prior))
            }
            MapEntry::Vacant(vacant) => {
                let meta = build(None)?;
                let now = Indexed::of(&meta);
                let slot = match order {
                    Some(order) => u64::from(order.add(key.clone(), &now, stamp)),
                    None => stamp,
                };
                vacant.insert(Entry { core: compact(apart, key, false, &meta), slot });
                (now, None)
            }
        };
        aggregates_add(aggregates, &now);
        Some(prior)
    }

    /// Builds the order indexes (see the module docs): every entry gets a
    /// node carrying its stamp and joins the lists its metadata puts it
    /// on, in stamp order.
    #[cold]
    fn build(&mut self) {
        let mut order = OrderIndexes::default();
        let mut entries: Vec<(&ObjectKey, &mut Entry)> = self.map.iter_mut().collect();
        entries.sort_unstable_by_key(|(_, entry)| entry.slot);
        for (key, entry) in entries {
            let now = Indexed::of(&whole(&self.apart, key, &entry.core));
            let node = order.add(key.clone(), &now, entry.slot);
            entry.slot = u64::from(node);
        }
        self.order = Some(order);
    }

    /// The order indexes of a shard an ordered read has built.
    fn lists(&self) -> &OrderIndexes {
        self.order.as_ref().expect("an ordered read builds a shard's indexes before it reads them")
    }
}

/// `stamped`'s keys in stamp order. It holds per-shard runs, each in stamp
/// order already, so the stable sort is a k-way merge of the runs.
fn by_stamp(mut stamped: Vec<(u64, ObjectKey)>) -> Vec<ObjectKey> {
    stamped.sort_by_key(|&(stamp, _)| stamp);
    stamped.into_iter().map(|(_, key)| key).collect()
}

/// Thread-safe object-metadata registry with optional persistence.
pub struct Registry {
    /// The next stamp a mutation takes.
    stamps: AtomicU64,
    /// The highest write version any record has carried: a PUT's version
    /// is the next one, so a key never gets a version back.
    versions: AtomicU64,
    shards: Vec<RwLock<Shard>>,
    /// Live object count (kept here so `len()` does not sweep the shards).
    count: AtomicU64,
    /// References to each `storeOnce` blob, by content digest.
    dedup: Mutex<BlobTable>,
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
            stamps: AtomicU64::new(0),
            versions: AtomicU64::new(0),
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::named("registry.shard", rank::REGISTRY_SHARD, Shard::default()))
                .collect(),
            count: AtomicU64::new(0),
            dedup: Mutex::named("registry.dedup", rank::REGISTRY_DEDUP, BlobTable::default()),
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
    /// reported by the next [`sync`](Self::sync). Each recovered record
    /// with a digest holds one reference to its `storeOnce` blob.
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
                    Some((key, meta)) => {
                        if let Some(digest) = meta.digest() {
                            reg.dedup.get_mut().acquire(digest);
                        }
                        let versions = reg.versions.get_mut();
                        *versions = (*versions).max(meta.version);
                        reg.insert_unshared(&key, meta)
                    }
                    None => {
                        skipped += 1;
                        first_skipped
                            .get_or_insert_with(|| String::from_utf8_lossy(k).into_owned());
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
                    store.put(key.as_bytes(), encoded)
                }),
                None => store.delete(key.as_bytes()).map(|_| ()),
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
        store.sync().map_err(|e| TieraError::Metadata(e.to_string()))?;
        let failed = self.persist_failures.load(Ordering::Relaxed);
        let unreported = failed - self.persist_failures_reported.swap(failed, Ordering::Relaxed);
        let mut problems = Vec::new();
        if unreported > 0 {
            problems.push(format!(
                "{unreported} metadata write(s) were not persisted (first failure: {})",
                self.first_persist_error.get().map_or("unknown", String::as_str)
            ));
        }
        if self.recovery_skipped > 0
            && !self.recovery_skipped_reported.swap(true, Ordering::Relaxed)
        {
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

    /// Copy of an object's metadata (a plain copy, and a reference count
    /// when the object carries tags, a digest, a key id or a stored size
    /// apart from its size).
    pub fn get(&self, key: &ObjectKey) -> Option<ObjectMeta> {
        let shard = self.shard_of(key).read();
        shard.map.get(key).map(|entry| whole(&shard.apart, key, &entry.core))
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
    /// later [`update`](Self::update) persists once it is true (a failed
    /// PUT's prior record, put back before any tier took the new bytes).
    pub(crate) fn insert_locked(&self, key: &ObjectKey, meta: ObjectMeta) {
        self.insert_in_shard(key, |_| Some(meta));
    }

    /// A PUT's first registry call: the record `build` makes from the one
    /// it replaces, read and replaced under one shard lock, in memory only
    /// (as [`insert_locked`](Self::insert_locked)). The new record takes a
    /// write version there: `write`, or without one the registry's next.
    /// The new record is placing until its PUT [`settle`](Self::settle)s
    /// it, and a record still placing is not replaced: the call waits, with
    /// no lock held, for the PUT placing it to finish. So one PUT of a key
    /// places at a time, and a PUT that fails puts back a record whose
    /// bytes have landed. Returns the replaced record and the new one's
    /// version, or `Err` with the version a record already holds when
    /// `write` is not newer, and then nothing changes.
    pub(crate) fn replace_locked(
        &self,
        key: &ObjectKey,
        write: Option<u64>,
        build: impl FnOnce(Option<&ObjectMeta>) -> ObjectMeta,
    ) -> std::result::Result<(Option<ObjectMeta>, u64), u64> {
        let mut build = Some(build);
        loop {
            let (mut held, mut busy, mut assigned) = (0, false, 0);
            let replaced = self.insert_in_shard(key, |prior| {
                let version = match (write, prior) {
                    (Some(v), Some(p)) if v <= p.version => {
                        held = p.version;
                        return None;
                    }
                    (_, Some(p)) if p.placing => {
                        busy = true;
                        return None;
                    }
                    (Some(v), _) => {
                        self.versions.fetch_max(v, Ordering::Relaxed);
                        v
                    }
                    (None, _) => self.versions.fetch_add(1, Ordering::Relaxed) + 1,
                };
                let build = build.take().expect("a record is built once");
                let mut meta = build(prior);
                meta.version = version;
                meta.placing = true;
                assigned = version;
                Some(meta)
            });
            if !busy {
                return replaced.map(|prior| (prior, assigned)).ok_or(held);
            }
            std::thread::yield_now();
        }
    }

    /// Ends the placing of write `version` of `key` (see
    /// [`replace_locked`](Self::replace_locked)), unless the record has
    /// since been deleted or put back. Only the in-memory flag changes.
    pub(crate) fn settle(&self, key: &ObjectKey, version: u64) {
        let mut shard = self.shard_of(key).write();
        if let Some(entry) = shard.map.get_mut(key).filter(|e| e.core.version() == version) {
            entry.core.settle();
        }
    }

    /// [`Shard::insert`] under the key's shard lock, counting an insert.
    fn insert_in_shard(
        &self,
        key: &ObjectKey,
        build: impl FnOnce(Option<&ObjectMeta>) -> Option<ObjectMeta>,
    ) -> Option<Option<ObjectMeta>> {
        let mut shard = self.shard_of(key).write();
        let replaced = shard.insert(key, next_stamp(&self.stamps), build)?;
        if replaced.is_none() {
            self.count.fetch_add(1, Ordering::AcqRel);
        }
        Some(replaced)
    }

    /// [`insert_locked`](Self::insert_locked) for a registry nothing else
    /// can reach yet, whose shards are unindexed: no lock is taken, so
    /// recovery may run inside the metastore's visitor, under the store's
    /// own (later-ranked) lock.
    fn insert_unshared(&mut self, key: &ObjectKey, meta: ObjectMeta) {
        let stamp = next_stamp(&self.stamps);
        let shard = self.shards[Self::shard_at(key)].get_mut();
        if matches!(shard.insert(key, stamp, |_| Some(meta)), Some(None)) {
            *self.count.get_mut() += 1;
        }
    }

    /// Applies `f` to an object's metadata (if present), making the object
    /// the most recently accessed and refreshing the indexes in place.
    /// Returns a copy of the updated metadata.
    pub fn update<F>(&self, key: &ObjectKey, f: F) -> Option<ObjectMeta>
    where
        F: FnOnce(&mut ObjectMeta),
    {
        self.update_if(key, |_| true, f).map(|((), meta)| meta)
    }

    /// [`update`](Self::update) for a write of the bytes of write
    /// `version`: runs `publish` only while the record still carries that
    /// version — and, unless `while_placing` (the PUT placing it writes),
    /// no PUT is still placing it — and answers `None` otherwise. The
    /// shard lock is held across `publish`, so tier writes made inside it
    /// land before those of any later PUT of the key, which must replace
    /// the record first.
    pub(crate) fn publish_at<R>(
        &self,
        key: &ObjectKey,
        version: u64,
        while_placing: bool,
        publish: impl FnOnce(&mut ObjectMeta) -> R,
    ) -> Option<R> {
        let current = |m: &ObjectMeta| m.version == version && (while_placing || !m.placing);
        self.update_if(key, current, publish).map(|(r, _)| r)
    }

    /// Applies `f` to `key`'s record if it exists and `keep` accepts it, as
    /// [`update`](Self::update) describes; returns what `f` returned and a
    /// copy of the updated record.
    fn update_if<R>(
        &self,
        key: &ObjectKey,
        keep: impl FnOnce(&ObjectMeta) -> bool,
        f: impl FnOnce(&mut ObjectMeta) -> R,
    ) -> Option<(R, ObjectMeta)> {
        let (r, updated) = {
            let mut guard = self.shard_of(key).write();
            let Shard { map, apart, order, aggregates } = &mut *guard;
            let entry = map.get_mut(key)?;
            let mut meta = whole(apart, key, &entry.core);
            if !keep(&meta) {
                return None;
            }
            let stamp = next_stamp(&self.stamps);
            let was = Indexed::of(&meta);
            let r = f(&mut meta);
            let now = Indexed::of(&meta);
            match order {
                Some(order) => order.relink(entry.node(), &was, &now, stamp),
                None => entry.slot = stamp,
            }
            aggregates_sub(aggregates, &was);
            aggregates_add(aggregates, &now);
            entry.core = compact(apart, key, entry.core.has_apart(), &meta);
            (r, meta)
        };
        self.persist(key, Some(&updated));
        Some((r, updated))
    }

    /// Records an access (touch) at `now`, refreshing LRU ordering.
    /// [`update`](Self::update) with [`ObjectMeta::touch`], minus the work
    /// an access cannot cause: the object's list memberships and its
    /// tiers' aggregates are as they were.
    pub fn touch(&self, key: &ObjectKey, now: SimTime) -> Option<ObjectMeta> {
        let touched = {
            let mut guard = self.shard_of(key).write();
            let Shard { map, apart, order, .. } = &mut *guard;
            let entry = map.get_mut(key)?;
            let stamp = next_stamp(&self.stamps);
            entry.core.touch(now);
            match order {
                Some(order) => {
                    let locations = entry.core.locations(apart_of(apart, key, &entry.core));
                    order.touch(entry.node(), entry.core.dirty(), locations, stamp);
                }
                None => entry.slot = stamp,
            }
            whole(apart, key, &entry.core)
        };
        self.persist(key, Some(&touched));
        Some(touched)
    }

    /// Removes an object entirely.
    pub fn remove(&self, key: &ObjectKey) -> Option<ObjectMeta> {
        self.remove_if(key, |_| true)
    }

    /// [`remove`](Self::remove) only if `keep` accepts the record, under
    /// the same shard lock.
    pub(crate) fn remove_if(
        &self,
        key: &ObjectKey,
        keep: impl FnOnce(&ObjectMeta) -> bool,
    ) -> Option<ObjectMeta> {
        let meta = {
            let mut guard = self.shard_of(key).write();
            let Shard { map, apart, order, aggregates } = &mut *guard;
            let meta = whole(apart, key, &map.get(key)?.core);
            if !keep(&meta) {
                return None;
            }
            let entry = map.remove(key)?;
            if entry.core.has_apart() {
                apart.remove(key);
            }
            let was = Indexed::of(&meta);
            if let Some(order) = order {
                order.remove(entry.node(), &was);
            }
            aggregates_sub(aggregates, &was);
            meta
        };
        self.count.fetch_sub(1, Ordering::AcqRel);
        self.persist(key, None);
        Some(meta)
    }

    /// Aggregates for a tier (zeros if the tier holds nothing): the
    /// shards' sum, read one shard at a time.
    pub fn aggregates(&self, tier: &str) -> TierAggregates {
        let mut sum = TierAggregates::default();
        let Some(tier) = TierId::lookup(tier) else {
            return sum;
        };
        for shard in &self.shards {
            if let Some(agg) = shard.read().aggregates.get(&tier) {
                sum.objects += agg.objects;
                sum.dirty_bytes += agg.dirty_bytes;
            }
        }
        sum
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
            let shard = shard.read();
            for (key, entry) in &shard.map {
                let meta = whole(&shard.apart, key, &entry.core);
                if meta.locations.contains_id(tier) {
                    agg.objects += 1;
                    if meta.dirty {
                        agg.dirty_bytes += meta.stored_size();
                    }
                }
            }
        }
        agg
    }

    /// The shards one at a time, each read-locked with its order indexes
    /// built: an ordered read builds the indexes of each shard it finds
    /// unindexed, under that shard's write lock. The caller drops each
    /// guard before it takes the next.
    fn ordered_shards(&self) -> impl Iterator<Item = RwLockReadGuard<'_, Shard>> + '_ {
        self.shards.iter().map(|lock| {
            let shard = lock.read();
            if shard.order.is_some() {
                return shard;
            }
            drop(shard);
            let mut shard = lock.write();
            if shard.order.is_none() {
                shard.build();
            }
            drop(shard);
            lock.read()
        })
    }

    /// The newest (`newest`) or the oldest object in `tier`: that end of
    /// each shard's list of `tier`, compared by stamp.
    fn tier_end(&self, tier: &str, newest: bool) -> Option<ObjectKey> {
        let tier = TierId::lookup(tier);
        let mut best: Option<(u64, ObjectKey)> = None;
        for shard in self.ordered_shards() {
            let order = shard.lists();
            let list = tier.and_then(|tier| order.tiers.get(&tier));
            let end = |list: &RecencyList| if newest { list.tail } else { list.head };
            let Some((stamp, key)) = list.and_then(|list| order.stamped(end(list))) else {
                continue;
            };
            if best.as_ref().is_none_or(|&(at, _)| (stamp > at) == newest) {
                best = Some((stamp, key.clone()));
            }
        }
        best.map(|(_, key)| key)
    }

    /// The least recently accessed object in `tier`.
    pub fn oldest_in(&self, tier: &str) -> Option<ObjectKey> {
        self.tier_end(tier, false)
    }

    /// The most recently accessed object in `tier`.
    pub fn newest_in(&self, tier: &str) -> Option<ObjectKey> {
        self.tier_end(tier, true)
    }

    /// The keys on the list `list` picks from each shard's indexes,
    /// merged by stamp: oldest first.
    fn merged(&self, list: impl Fn(&OrderIndexes) -> Option<&RecencyList>) -> Vec<ObjectKey> {
        let mut stamped = Vec::new();
        for shard in self.ordered_shards() {
            let order = shard.lists();
            let nodes = list(order).into_iter().flat_map(RecencyList::iter);
            stamped.extend(nodes.filter_map(|node| {
                let (stamp, key) = order.stamped(node)?;
                Some((stamp, key.clone()))
            }));
        }
        by_stamp(stamped)
    }

    /// Every key currently located in `tier`, oldest first.
    pub fn keys_in(&self, tier: &str) -> Vec<ObjectKey> {
        let tier = TierId::lookup(tier);
        self.merged(|order| order.tiers.get(&tier?))
    }

    /// Evaluates a selector to a concrete key set.
    ///
    /// `inserted` supplies the meaning of [`Selector::Inserted`] in action
    /// contexts. Index-backed selectors (`All`, `InTier`, `Dirty`,
    /// `OldestIn`/`NewestIn`) never sweep the object map; only
    /// `Tagged` scans, shard by shard. Every selector but `Inserted` and
    /// `Key` is an ordered read, and merges per-shard answers (see the
    /// module docs).
    pub fn select(&self, selector: &Selector, inserted: Option<&ObjectKey>) -> Vec<ObjectKey> {
        match selector {
            Selector::Inserted => inserted.cloned().into_iter().collect(),
            Selector::Key(k) => {
                if self.contains(k) {
                    vec![k.clone()]
                } else {
                    Vec::new()
                }
            }
            Selector::All => self.merged(|order| Some(&order.access)),
            Selector::InTier(t) => self.keys_in(t),
            Selector::Dirty => self.merged(|order| Some(&order.dirty)),
            Selector::Tagged(tag) => {
                // Tags carry no index (they are rare, write-once classes):
                // scan each shard's side map, which holds them, then
                // merge the hits by stamp so the result is in access
                // order.
                let mut hits = Vec::new();
                for shard in self.ordered_shards() {
                    let order = shard.lists();
                    for (key, apart) in &shard.apart {
                        if apart.has_tag(tag) {
                            let node = shard.map[key].node();
                            hits.push((order.nodes[node as usize].stamp, key.clone()));
                        }
                    }
                }
                by_stamp(hits)
            }
            Selector::OldestIn(t) => self.oldest_in(t).into_iter().collect(),
            Selector::NewestIn(t) => self.newest_in(t).into_iter().collect(),
            Selector::And(a, b) => {
                // Evaluate the narrower side as a key set and the other as
                // a per-key predicate; this keeps hot-path conjunctions
                // like `Inserted && !Tagged(..)` O(1) instead of scanning
                // the registry.
                let (small, pred) =
                    if Self::is_narrow(a) || !Self::is_narrow(b) { (a, b) } else { (b, a) };
                self.select(small, inserted)
                    .into_iter()
                    .filter(|k| self.matches(pred, k, inserted))
                    .collect()
            }
            Selector::Not(inner) => {
                let excluded: FxHashSet<ObjectKey> =
                    self.select(inner, inserted).into_iter().collect();
                let base = self.select(&Selector::All, inserted);
                base.into_iter().filter(|k| !excluded.contains(k)).collect()
            }
        }
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
    ) -> bool {
        match selector {
            Selector::Inserted => inserted == Some(key),
            Selector::Key(k) => k == key,
            Selector::All => self.contains(key),
            Selector::InTier(t) => self.get(key).is_some_and(|m| m.in_tier(t)),
            Selector::Dirty => self.get(key).is_some_and(|m| m.dirty),
            Selector::Tagged(tag) => self.get(key).is_some_and(|m| m.has_tag(tag)),
            Selector::OldestIn(t) => self.oldest_in(t).as_ref() == Some(key),
            Selector::NewestIn(t) => self.newest_in(t).as_ref() == Some(key),
            Selector::And(a, b) => self.matches(a, key, inserted) && self.matches(b, key, inserted),
            Selector::Not(inner) => !self.matches(inner, key, inserted),
        }
    }

    // ---- storeOnce refcounts ----

    /// Adds a reference to the blob of `digest`; true when it is the
    /// first, and so the caller must store the blob.
    pub fn dedup_acquire(&self, digest: Digest) -> bool {
        self.dedup.lock().acquire(digest)
    }

    /// Drops a reference to the blob of `digest`; true when it was the
    /// last, and so the caller must delete the blob.
    pub fn dedup_release(&self, digest: &Digest) -> bool {
        self.dedup.lock().release(digest)
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
        /// How many shards have built their order indexes.
        fn built_shards(&self) -> usize {
            self.shards.iter().filter(|shard| shard.read().order.is_some()).count()
        }

        /// How many objects the shards keep something apart for.
        fn apart_entries(&self) -> usize {
            self.shards.iter().map(|shard| shard.read().apart.len()).sum()
        }

        /// In every shard, every object is on exactly the lists its
        /// metadata puts it on, its node names it in the slab, each list
        /// is in stamp order and the aggregates equal a recount.
        fn assert_lists_match_metadata(&self) {
            for shard in self.ordered_shards() {
                let order = shard.lists();
                let members = |list: &RecencyList| {
                    let stamped: Vec<(u64, ObjectKey)> = list
                        .iter()
                        .map(|node| {
                            let (stamp, key) = order.stamped(node).expect("a listed node is live");
                            (stamp, key.clone())
                        })
                        .collect();
                    assert!(stamped.windows(2).all(|w| w[0].0 < w[1].0), "a list in stamp order");
                    let mut keys: Vec<ObjectKey> =
                        stamped.into_iter().map(|(_, key)| key).collect();
                    keys.sort();
                    keys
                };
                let mut live: Vec<(&ObjectKey, ObjectMeta)> = shard
                    .map
                    .iter()
                    .map(|(key, entry)| (key, whole(&shard.apart, key, &entry.core)))
                    .collect();
                live.sort_by(|a, b| a.0.cmp(b.0));
                let expected = |on: &dyn Fn(&ObjectMeta) -> bool| -> Vec<ObjectKey> {
                    live.iter().filter(|o| on(&o.1)).map(|o| o.0.clone()).collect()
                };
                for (key, entry) in &shard.map {
                    assert_eq!(
                        order.stamped(entry.node()).map(|(_, k)| k),
                        Some(key),
                        "{key}'s node"
                    );
                    assert_eq!(
                        entry.core.has_apart(),
                        shard.apart.contains_key(key),
                        "{key}'s flag"
                    );
                }
                assert!(shard.apart.keys().all(|key| shard.map.contains_key(key)), "none stray");
                assert_eq!(members(&order.access), expected(&|_| true), "access");
                assert_eq!(members(&order.dirty), expected(&|m| m.dirty), "dirty");
                let mut tiers: Vec<TierId> = order.tiers.keys().copied().collect();
                tiers.extend(live.iter().flat_map(|o| o.1.locations.iter().copied()));
                tiers.sort_by_key(|t| t.to_string());
                tiers.dedup();
                for tier in tiers {
                    let list = order.tiers.get(&tier).expect("a list for every tier in use");
                    let located = expected(&|m| m.locations.contains_id(tier));
                    assert_eq!(members(list), located, "tier {tier}");
                    let mut recount = TierAggregates::default();
                    for (_, meta) in live.iter().filter(|o| o.1.locations.contains_id(tier)) {
                        recount.objects += 1;
                        if meta.dirty {
                            recount.dirty_bytes += meta.stored_size();
                        }
                    }
                    let kept = shard.aggregates.get(&tier).copied().unwrap_or_default();
                    assert_eq!(kept, recount, "tier {tier}'s aggregates");
                }
            }
        }

        /// Everything an ordered read says about the registry at `now`.
        fn ordered_view(&self) -> Vec<Vec<ObjectKey>> {
            let mut selectors =
                vec![Selector::All, Selector::Dirty, Selector::Tagged(Tag::new("tmp"))];
            for tier in TIERS {
                selectors.push(Selector::InTier(tier.into()));
                selectors.push(Selector::OldestIn(tier.into()));
                selectors.push(Selector::NewestIn(tier.into()));
            }
            let mut view: Vec<_> = selectors.iter().map(|s| self.select(s, None)).collect();
            view.extend(TIERS.map(|tier| self.keys_in(tier)));
            view
        }
    }

    fn counted(count: u32, created: SimTime) -> ObjectMeta {
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

        assert_eq!(r.select(&Selector::All, None).len(), 2);
        assert_eq!(r.select(&Selector::Dirty, None).len(), 1);
        assert_eq!(r.select(&Selector::Tagged(Tag::new("tmp")), None)[0].as_str(), "a");
        assert_eq!(r.select(&Selector::InTier("t2".into()), None).len(), 1);
        let conj = Selector::InTier("t1".into()).and(Selector::Dirty);
        assert_eq!(r.select(&conj, None).len(), 1);
        let conj_empty = Selector::InTier("t2".into()).and(Selector::Dirty);
        assert!(r.select(&conj_empty, None).is_empty());
        // Inserted resolves through the context argument.
        let k = ObjectKey::new("a");
        assert_eq!(r.select(&Selector::Inserted, Some(&k)), vec![k]);
        assert!(r.select(&Selector::Inserted, None).is_empty());
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
        let hits = r.select(&not_tmp, None);
        assert_eq!(hits, vec![ObjectKey::new("plain")]);
        // Inserted && !tagged resolves against the inserted object.
        let sel = Selector::Inserted.and(Selector::Tagged(Tag::new("tmp")).negate());
        assert_eq!(r.select(&sel, Some(&ObjectKey::new("plain"))).len(), 1);
        assert!(r.select(&sel, Some(&ObjectKey::new("tmp-obj"))).is_empty());
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
        let all: Vec<String> =
            r.select(&Selector::All, None).iter().map(|k| k.as_str().to_string()).collect();
        assert_eq!(all, vec!["b", "c", "a"], "oldest access first");
        let dirty = r.select(&Selector::Dirty, None);
        assert_eq!(dirty.len(), 3);
        assert_eq!(dirty[0].as_str(), "b");
    }

    #[test]
    fn keys_in_lists_a_tier_in_lru_order() {
        let r = Registry::in_memory();
        for name in ["a", "b", "c"] {
            r.upsert(ObjectKey::new(name), meta_in("t1", 1, SimTime::ZERO));
        }
        r.touch(&ObjectKey::new("b"), SimTime::from_secs(1));
        let keys = r.keys_in("t1");
        assert_eq!(keys.iter().map(ObjectKey::as_str).collect::<Vec<_>>(), ["a", "c", "b"]);
        assert!(r.keys_in("no-such-tier").is_empty());
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
        /// Replays the operation on `order`, the keys of live objects by
        /// their last mutation, oldest first.
        fn track(&self, order: &mut Vec<ObjectKey>) {
            let (key, live) = match self {
                Op::Upsert(key, _) => (key, true),
                Op::Update(key, ..) | Op::Touch(key, _) => (key, order.contains(key)),
                Op::Remove(key) => (key, false),
            };
            order.retain(|k| k != key);
            if live {
                order.push(key.clone());
            }
        }

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
                        meta.access_count = gen::u64_in(rng, 0..40) as u32;
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
            let midway = gen::usize_in(rng, 0..ops.len());
            // Read before the first operation, after the last, and once
            // in between.
            let eager = Registry::in_memory();
            assert!(eager.select(&Selector::All, None).is_empty());
            let (lazy, midway_built) = (Registry::in_memory(), Registry::in_memory());
            // The one access order the stamp merge must reproduce.
            let mut reference = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                if step == midway {
                    midway_built.keys_in("t1");
                }
                op.apply(&eager);
                op.apply(&lazy);
                op.apply(&midway_built);
                op.track(&mut reference);
                assert_eq!(eager.select(&Selector::All, None), reference, "step {step}");
            }
            assert_eq!(lazy.built_shards(), 0, "no ordered read yet");
            assert_eq!(lazy.ordered_view(), eager.ordered_view());
            assert_eq!(midway_built.ordered_view(), eager.ordered_view());
            let members = |on: &dyn Fn(&ObjectMeta) -> bool| -> Vec<ObjectKey> {
                reference.iter().filter(|k| on(&eager.get(k).unwrap())).cloned().collect()
            };
            assert_eq!(eager.select(&Selector::Dirty, None), members(&|m| m.dirty));
            for tier in TIERS {
                let located = members(&|m| m.in_tier(tier));
                assert_eq!(eager.keys_in(tier), located, "{tier}");
                assert_eq!(eager.oldest_in(tier).as_ref(), located.first(), "{tier}");
                assert_eq!(eager.newest_in(tier).as_ref(), located.last(), "{tier}");
            }
            lazy.assert_lists_match_metadata();
            eager.assert_lists_match_metadata();
            midway_built.assert_lists_match_metadata();
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
            // One store shard: its log order is then the writer's order of
            // last writes, the stamp order of the lists it kept.
            let opts = MetaStoreOptions { shards: 1, ..MetaStoreOptions::default() };
            let writer = Registry::over(MetaStore::open_with(&dir, opts).unwrap()).unwrap();
            for op in &ops {
                op.apply(&writer);
            }
            writer.sync().unwrap();
            let written = writer.ordered_view();
            drop(writer);
            let reopened = Registry::persistent(&dir).unwrap();
            assert_eq!(reopened.built_shards(), 0, "recovery makes no ordered read");
            assert_eq!(reopened.ordered_view(), written);
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
        assert_eq!(r.built_shards(), SHARD_COUNT);
        r.assert_lists_match_metadata();
        for tier in TIERS {
            assert_eq!(r.aggregates(tier), r.recount_aggregates(tier), "{tier}");
        }
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
        let counts = [0u32, 1, 2, 3, 4, 7, 8, 1 << 30, u32::MAX];
        let expected = |count: u32| if count % 2 == 1 && count < 8 { count + 1 } else { count };
        {
            let r = Registry::persistent(&dir).unwrap();
            for count in counts {
                let key = ObjectKey::new(format!("c{count}"));
                r.upsert(key.clone(), counted(count, SimTime::from_secs(u64::from(count % 5))));
                if expected(count) != count {
                    r.touch(&key, SimTime::from_secs(10));
                }
            }
            r.remove(&ObjectKey::new("c4"));
            r.sync().unwrap();
        }
        let r = Registry::persistent(&dir).unwrap();
        assert_eq!(r.len(), counts.len() - 1);
        assert!(r.get(&ObjectKey::new("c4")).is_none());
        for count in counts.into_iter().filter(|&count| count != 4) {
            let meta = r.get(&ObjectKey::new(format!("c{count}"))).expect("recovered");
            assert_eq!(meta.access_count, expected(count), "c{count}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_metadata_writes_are_counted_and_fail_the_next_sync_once() {
        use tiera_metastore::{KillSite, MetaStoreOptions};
        let dir = std::env::temp_dir().join(format!("tiera-reg-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = MetaStoreOptions { sync_every_append: true, ..MetaStoreOptions::default() };
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
    fn rare_attributes_survive_every_mutation_and_a_reopen() {
        let dir = std::env::temp_dir().join(format!("tiera-reg-rare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (rare, plain) = (ObjectKey::new("rare"), ObjectKey::new("plain"));
        let digest = Digest::of(b"payload");
        let has_all = |m: &ObjectMeta, step: &str| {
            assert!(m.has_tag(&Tag::new("tmp")), "{step}: tag");
            assert_eq!(m.digest(), Some(digest), "{step}: digest");
            assert_eq!(m.encryption_key_id(), Some("k1"), "{step}: key id");
            assert_eq!((m.size, m.stored_size()), (10, 7), "{step}: stored size");
        };
        {
            let r = Registry::persistent(&dir).unwrap();
            let mut m = meta_in("t1", 10, SimTime::ZERO);
            m.set_tags([Tag::new("tmp")]);
            m.set_digest(Some(digest));
            m.set_encryption_key_id(Some("k1".into()));
            m.set_stored_size(7);
            r.upsert(rare.clone(), m);
            r.upsert(plain.clone(), meta_in("t1", 3, SimTime::ZERO));
            assert_eq!(r.apart_entries(), 1, "only the object with rare attributes");
            has_all(&r.get(&rare).unwrap(), "upsert");

            has_all(&r.update(&rare, |m| m.dirty = true).unwrap(), "update");
            assert_eq!(r.aggregates("t1").dirty_bytes, 7, "the stored size, read apart");
            let published = r.publish_at(&rare, 0, false, |m| m.locations.insert("t2".into()));
            assert_eq!(published, Some(true));
            has_all(&r.get(&rare).unwrap(), "publish_at");
            has_all(&r.touch(&rare, SimTime::from_secs(1)).unwrap(), "touch");

            let (prior, version) = r.replace_locked(&rare, None, |p| p.unwrap().clone()).unwrap();
            has_all(&prior.unwrap(), "the replaced record");
            assert!(r.get(&rare).unwrap().placing);
            r.settle(&rare, version);
            let settled = r.get(&rare).unwrap();
            assert!(!settled.placing);
            has_all(&settled, "settle");
            assert!(r.remove_if(&rare, |_| false).is_none());
            has_all(&r.get(&rare).unwrap(), "a declined remove_if");
            assert_eq!(
                r.select(&Selector::Tagged(Tag::new("tmp")), None),
                std::slice::from_ref(&rare)
            );
            r.assert_lists_match_metadata();
            r.sync().unwrap();
        }
        let r = Registry::persistent(&dir).unwrap();
        has_all(&r.get(&rare).unwrap(), "reopen");
        assert_eq!(r.apart_entries(), 1);
        // An update that clears every rare attribute empties the side map,
        // and one that sets one fills it again.
        r.update(&plain, |m| m.set_digest(Some(digest)));
        assert_eq!(r.apart_entries(), 2);
        r.update(&plain, |m| m.set_digest(None));
        assert_eq!(r.apart_entries(), 1);
        has_all(&r.remove_if(&rare, |_| true).unwrap(), "remove_if");
        assert_eq!(r.apart_entries(), 0, "the last key with rare attributes is gone");
        assert!(r.get(&plain).unwrap().digest().is_none());
        r.assert_lists_match_metadata();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fifth_location_is_kept_apart_until_the_set_shrinks() {
        let r = Registry::in_memory();
        let (wide, other) = (ObjectKey::new("wide"), ObjectKey::new("other"));
        let five = ["w1", "w2", "w3", "w4", "w5"];
        r.upsert(wide.clone(), meta_in("w1", 1, SimTime::ZERO));
        r.upsert(other.clone(), meta_in("w5", 1, SimTime::ZERO));
        assert_eq!(r.oldest_in("w5"), Some(other.clone()), "the indexes are built");
        r.update(&wide, |m| five.iter().for_each(|t| _ = m.locations.insert(t.to_string())));
        assert_eq!(r.apart_entries(), 1, "five locations do not fit the entry");
        assert_eq!(r.get(&wide).unwrap().locations.len(), 5);
        r.touch(&other, SimTime::from_secs(1));
        assert_eq!(r.newest_in("w5"), Some(other.clone()));
        // A touch reads the locations kept apart to refresh every list.
        r.touch(&wide, SimTime::from_secs(2));
        assert_eq!(r.newest_in("w5"), Some(wide.clone()));
        assert_eq!(r.aggregates("w5").objects, 2);
        r.assert_lists_match_metadata();
        r.update(&wide, |m| _ = m.locations.remove("w3"));
        assert_eq!(r.apart_entries(), 0, "four fit again");
        let names: Vec<&str> = r.get(&wide).unwrap().locations.iter().map(|id| id.name()).collect();
        assert_eq!(names, ["w1", "w2", "w4", "w5"]);
        r.assert_lists_match_metadata();
        for tier in five {
            assert_eq!(r.aggregates(tier), r.recount_aggregates(tier), "{tier}");
        }
    }

    #[test]
    fn update_missing_returns_none() {
        let r = Registry::in_memory();
        assert!(r.update(&ObjectKey::new("nope"), |m| m.dirty = true).is_none());
        assert!(r.touch(&ObjectKey::new("nope"), SimTime::ZERO).is_none());
    }
}

//! Non-poisoning lock wrappers over `std::sync`, with an optional
//! lock-order sanitizer.
//!
//! Drop-in for the `parking_lot` API subset Tiera uses: `Mutex::lock`,
//! `RwLock::read` / `RwLock::write` returning guards directly rather than
//! `Result`s. Where `parking_lot` never poisons by construction, these
//! wrappers recover from std's poisoning: a panic while holding a guard
//! leaves the protected data in whatever state the panicking section
//! reached, and subsequent lockers proceed — exactly the semantics the
//! seed was written against.
//!
//! ## Named, ranked locks
//!
//! A lock constructed with [`Mutex::named`] / [`RwLock::named`] carries a
//! `&'static str` name and a `u16` rank from the workspace [`rank`] table.
//! Names make the lock visible to the `tiera-analyze` static pass (which
//! extracts per-function acquisition sequences and checks them against the
//! declared ranks), and they arm the runtime sanitizer below. `new()` stays
//! available for anonymous leaf locks in single-lock modules.
//!
//! ## The `lockcheck` sanitizer
//!
//! With the `lockcheck` cargo feature enabled, every acquisition of a
//! *named* lock is checked against a per-thread held-lock stack and a
//! global acquired-while-held edge set:
//!
//! * acquiring a lock of **strictly lower rank** than any lock the thread
//!   already holds panics (order inversion), naming both acquisition
//!   sites;
//! * acquiring a lock with the **same name** as one already held panics
//!   (self-cycle — this is what enforces "never two registry shards at
//!   once": all shards share one name);
//! * recording an acquired-while-held edge that **closes a cycle** in the
//!   global edge graph panics, again with both sites.
//!
//! Checks run *before* blocking on the underlying lock, so a potential
//! deadlock is reported even on interleavings where it would not have
//! deadlocked. With the feature disabled (the default, and the only
//! configuration benchmarks may use) the name/rank metadata is not even
//! stored and every hook compiles to nothing.
//!
//! The sanitizer also keeps a per-thread **tally** of acquisitions by lock
//! name: [`reset_tally`] zeroes the calling thread's counts and [`tally`]
//! reads them, so a test can state how many locks, and which, one
//! operation takes. Without the feature nothing is counted and [`tally`]
//! is always empty.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// The workspace lock-rank table: the single source of truth shared by the
/// runtime sanitizer and the `tiera-analyze` static pass.
///
/// Rank increases "inward": a thread may only acquire locks of equal or
/// higher rank than everything it already holds (equal-rank acquisitions
/// of *differently named* locks are ordered by the dynamic edge set
/// instead). The tiers of the table, outermost first:
///
/// 1. facade crates that call into an [`Instance`] while holding their own
///    state (`tiera-db`, `tiera-fs`), and the cluster plane above them
///    (documented order **ring → meta → node**; node state is never
///    held across a call into the node's backing instance, ring/meta
///    never across node IO — see `crates/cluster/src/coordinator/`);
/// 2. instance-level state: the configuration cell (`config`, held only
///    to load the current snapshot or to publish a new one, with nothing
///    acquired under it), then `keyring`, `background`;
/// 3. the registry: its key shards (never two at once; each holds its
///    keys' order indexes and aggregates, so no registry lock spans the
///    shards; a copy holds its key's shard across its tier writes, so the
///    instance's `retry_rng` and `alerts` leaves rank under it) and
///    `dedup`, an independent leaf — see `crates/core/src/registry.rs`;
/// 4. the metastore shards (documented order **commit → queue → index**;
///    every shard of a kind shares one name, so two shards' same-kind
///    locks can never be held together);
/// 5. tier internals: one lock per tier, then the fault plane and the
///    serial resource (a shared-bandwidth schedule) an op takes under it;
/// 6. the stats stripes (pure leaves).
///
/// The RPC server holds no locks of its own — its worker and writer
/// threads synchronize exclusively through `tiera_support::channel`, whose
/// internal queue lock is below every name here and never held across a
/// call into ranked code.
///
/// [`Instance`]: ../../tiera_core/instance/struct.Instance.html
pub mod rank {
    /// `tiera-db` engine shared state (buffer pool, journal); held across
    /// page faults into the backing instance.
    pub const DB_SHARED: u16 = 10;
    /// `tiera-db` in-memory table rows.
    pub const DB_ROWS: u16 = 12;
    /// `tiera-fs` path → length table; held across instance IO on the
    /// manifest path.
    pub const FS_FILES: u16 = 16;
    /// The cluster hash ring + rebalance plan (`tiera-cluster`); snapshot
    /// owners out and drop before any node IO.
    pub const CLUSTER_RING: u16 = 17;
    /// The coordinator's authoritative per-key metadata (write version,
    /// tombstones); never held across node IO.
    pub const CLUSTER_META: u16 = 18;
    /// One cluster node's local state (fault flags, idempotency table).
    /// All nodes share the name: holding two nodes' state locks at once
    /// is a self-cycle and panics under lockcheck.
    pub const CLUSTER_NODE: u16 = 19;
    /// The instance's configuration cell, `RwLock<Arc<Config>>`: tiers,
    /// rules, retry policy and the control-layer switch. An operation holds
    /// it shared just long enough to clone the `Arc`; a publish holds it
    /// exclusively while it builds the next `Config`. Nothing is acquired
    /// under it.
    pub const INSTANCE_CONFIG: u16 = 30;
    /// The instance's encryption keyring.
    pub const INSTANCE_KEYRING: u16 = 32;
    /// The background work queue.
    pub const INSTANCE_BACKGROUND: u16 = 34;
    /// One registry key shard: its keys' metadata, order indexes and
    /// per-tier aggregates. All [`SHARD_COUNT`] shards share this name:
    /// holding two at once is a self-cycle and panics under lockcheck, so
    /// a cross-shard read takes them one at a time. A copy or re-store
    /// holds its key's shard across its tier writes (and their retries and
    /// failure alerts), so they land before any later PUT's.
    ///
    /// [`SHARD_COUNT`]: ../../tiera_core/registry/constant.SHARD_COUNT.html
    pub const REGISTRY_SHARD: u16 = 50;
    /// The instance's retry-jitter RNG (leaf).
    pub const INSTANCE_RETRY_RNG: u16 = 52;
    /// The instance's failure-alert buffer (leaf).
    pub const INSTANCE_ALERTS: u16 = 54;
    /// The `storeOnce` dedup digest table (leaf: never held together with
    /// a registry shard).
    pub const REGISTRY_DEDUP: u16 = 56;
    /// A metastore shard's durability state (log writer, segment chain);
    /// held across file IO by design (the log write *is* the critical
    /// section). All shards share the name, so holding two shards' commit
    /// locks at once is itself a violation.
    pub const METASTORE_COMMIT: u16 = 58;
    /// A metastore shard's read index (`RwLock`; readers never touch the
    /// commit lock, and writers take it under the commit lock).
    pub const METASTORE_INDEX: u16 = 62;
    /// `DedupTier` wrapper state (key→digest map, refcounted blob table).
    /// Held across inner-tier IO by design, so it must rank below every
    /// inner tier lock (`SIMTIER_STATE`, `MEMTIER_STATE`) *and* below
    /// `TIERX_COMPRESS`: the canonical wrapper stack is
    /// `Dedup(Compressed(inner))`, dedup outermost.
    pub const TIERX_DEDUP: u16 = 64;
    /// `CompressedTier` wrapper state (per-key logical/physical byte
    /// ledger). Held across inner-tier IO; ranks above `TIERX_DEDUP`
    /// (compress is the inner wrapper) and below the tier locks proper.
    pub const TIERX_COMPRESS: u16 = 66;
    /// Simulated tier: the whole tier — object map, usage counters,
    /// provisioner, latency-model RNG, last observed capacity. One op is
    /// one critical section under it.
    pub const SIMTIER_STATE: u16 = 78;
    /// In-memory test tier: object map, usage counters and capacity.
    pub const MEMTIER_STATE: u16 = 80;
    /// Fault injector: windows, fault specs and their seeded draw stream
    /// (acquired under `SIMTIER_STATE` for each op's verdict).
    pub const FAILURE_PLANE: u16 = 86;
    /// Serial-resource reservation map (also the schedule of every
    /// `SharedBandwidth`).
    pub const SERIAL_BUSY: u16 = 94;
    /// One stats stripe (leaf; stripes are never nested).
    pub const STATS_STRIPE: u16 = 96;

    /// Every named lock in the workspace with its declared rank, sorted by
    /// rank. `tiera-analyze` checks static acquisition sequences against
    /// this table; the lockcheck sanitizer asserts each `named()` site
    /// passes the rank declared here.
    pub const RANK_TABLE: &[(&str, u16)] = &[
        ("db.shared", DB_SHARED),
        ("db.rows", DB_ROWS),
        ("fs.files", FS_FILES),
        ("cluster.ring", CLUSTER_RING),
        ("cluster.meta", CLUSTER_META),
        ("cluster.node", CLUSTER_NODE),
        ("instance.config", INSTANCE_CONFIG),
        ("instance.keyring", INSTANCE_KEYRING),
        ("instance.background", INSTANCE_BACKGROUND),
        ("registry.shard", REGISTRY_SHARD),
        ("instance.retry_rng", INSTANCE_RETRY_RNG),
        ("instance.alerts", INSTANCE_ALERTS),
        ("registry.dedup", REGISTRY_DEDUP),
        ("metastore.commit", METASTORE_COMMIT),
        ("metastore.index", METASTORE_INDEX),
        ("tierx.dedup", TIERX_DEDUP),
        ("tierx.compress", TIERX_COMPRESS),
        ("simtier.state", SIMTIER_STATE),
        ("memtier.state", MEMTIER_STATE),
        ("failure.plane", FAILURE_PLANE),
        ("serial.busy", SERIAL_BUSY),
        ("stats.stripe", STATS_STRIPE),
    ];

    /// The declared rank of a lock name, if it is in the table.
    pub fn of(name: &str) -> Option<u16> {
        RANK_TABLE.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
    }
}

/// Whether this build of `tiera-support` carries the lockcheck sanitizer.
/// `tiera-benchmark` refuses to run when this is `true`:
/// sanitized numbers are not comparable to unsanitized ones.
pub const LOCKCHECK: bool = cfg!(feature = "lockcheck");

#[cfg(feature = "lockcheck")]
mod lockcheck {
    //! The runtime lock-order sanitizer (see the module docs above).
    //!
    //! A per-thread stack records every named lock the thread holds, with
    //! the `#[track_caller]` acquisition site. A process-global edge set
    //! records, for every ordered pair of names, the first acquisition
    //! sites that established "B acquired while A held". Rank inversions
    //! and cycle-closing edges panic before the underlying lock is even
    //! attempted, so the report fires deterministically — not just on the
    //! interleaving that happens to deadlock.

    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, HashMap, HashSet};
    use std::panic::Location;
    use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};

    /// A held named lock.
    struct Held {
        id: u64,
        name: &'static str,
        rank: u16,
        at: &'static Location<'static>,
    }

    /// Handle identifying one acquisition on the holding thread's stack;
    /// returned by [`acquire`], consumed by [`release`] from guard `Drop`.
    pub(super) struct Token(u64);

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
        /// Acquisitions since the last [`reset_tally`], by lock name.
        static TALLY: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
    }

    /// See [`super::reset_tally`].
    pub(super) fn reset_tally() {
        let _ = TALLY.try_with(|tally| tally.borrow_mut().clear());
    }

    /// See [`super::tally`].
    pub(super) fn tally() -> BTreeMap<&'static str, u64> {
        TALLY.try_with(|tally| tally.borrow().clone()).unwrap_or_default()
    }

    /// `held name → (acquired name → (holding site, acquiring site))`.
    type EdgeMap = HashMap<
        &'static str,
        HashMap<&'static str, (&'static Location<'static>, &'static Location<'static>)>,
    >;

    fn edges() -> &'static StdMutex<EdgeMap> {
        static EDGES: OnceLock<StdMutex<EdgeMap>> = OnceLock::new();
        EDGES.get_or_init(|| StdMutex::new(HashMap::new()))
    }

    /// Whether `to` is reachable from `from` in the edge graph.
    fn reaches(map: &EdgeMap, from: &'static str, to: &'static str) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = map.get(n) {
                stack.extend(next.keys().copied());
            }
        }
        false
    }

    /// Checks and records the acquisition of `(name, rank)` at `at`.
    pub(super) fn acquire(
        meta: Option<(&'static str, u16)>,
        at: &'static Location<'static>,
    ) -> Option<Token> {
        let (name, rank) = meta?;
        debug_assert!(
            super::rank::of(name).is_none_or(|declared| declared == rank),
            "lock `{name}` constructed with rank {rank}, but the rank table \
             declares {:?}",
            super::rank::of(name)
        );
        // `try_with`: guards dropped during thread teardown (after TLS
        // destruction) silently skip the bookkeeping rather than abort.
        HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            for h in held.iter() {
                if rank < h.rank {
                    panic!(
                        "lockcheck: order inversion — acquiring `{name}` (rank {rank}) \
                         at {at} while holding `{}` (rank {}) acquired at {}",
                        h.name, h.rank, h.at
                    );
                }
                if h.name == name {
                    panic!(
                        "lockcheck: cycle — re-acquiring `{name}` at {at} while \
                         already holding it (acquired at {})",
                        h.at
                    );
                }
            }
            if !held.is_empty() {
                let mut edges = edges().lock().unwrap_or_else(PoisonError::into_inner);
                for h in held.iter() {
                    if edges.get(h.name).is_some_and(|m| m.contains_key(name)) {
                        continue; // edge already known (and acyclic)
                    }
                    if reaches(&edges, name, h.name) {
                        let (prior_hold, prior_acq) = edges
                            .get(name)
                            .and_then(|m| m.values().next())
                            .map(|&(a, b)| (a, b))
                            .unwrap_or((at, at));
                        panic!(
                            "lockcheck: cycle — acquiring `{name}` at {at} while \
                             holding `{}` (acquired at {}) closes a cycle: `{name}` \
                             was previously held first (e.g. held at {prior_hold}, \
                             acquiring at {prior_acq})",
                            h.name, h.at
                        );
                    }
                    edges.entry(h.name).or_default().insert(name, (h.at, at));
                }
            }
            let _ = TALLY.try_with(|tally| *tally.borrow_mut().entry(name).or_default() += 1);
            let id = NEXT_ID.with(|n| {
                let id = n.get();
                n.set(id + 1);
                id
            });
            held.push(Held { id, name, rank, at });
            Token(id)
        })
        .ok()
    }

    /// Pops the acquisition identified by `token` off the holder's stack.
    pub(super) fn release(token: Token) {
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.id == token.0) {
                held.remove(pos);
            }
        });
    }
}

/// Zeroes the calling thread's lock tally (see the module docs).
pub fn reset_tally() {
    #[cfg(feature = "lockcheck")]
    lockcheck::reset_tally();
}

/// The named-lock acquisitions the calling thread made since its last
/// [`reset_tally`], by lock name. Counted only under the `lockcheck`
/// feature ([`LOCKCHECK`]); empty without it.
pub fn tally() -> std::collections::BTreeMap<&'static str, u64> {
    #[cfg(feature = "lockcheck")]
    return lockcheck::tally();
    #[cfg(not(feature = "lockcheck"))]
    std::collections::BTreeMap::new()
}

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    meta: Option<(&'static str, u16)>,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    token: Option<lockcheck::Token>,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new anonymous mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lockcheck")]
            meta: None,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Creates a named mutex with a declared rank (see [`rank`]). The name
    /// makes the lock visible to `tiera-analyze` and to the lockcheck
    /// sanitizer; with the `lockcheck` feature disabled the metadata is
    /// not stored at all.
    pub const fn named(name: &'static str, rank: u16, value: T) -> Self {
        #[cfg(not(feature = "lockcheck"))]
        let _ = (name, rank);
        Self {
            #[cfg(feature = "lockcheck")]
            meta: Some((name, rank)),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Never poisons.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        let token = lockcheck::acquire(self.meta, std::panic::Location::caller());
        MutexGuard {
            #[cfg(feature = "lockcheck")]
            token,
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            lockcheck::release(token);
        }
    }
}

/// A reader-writer lock whose `read()`/`write()` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    meta: Option<(&'static str, u16)>,
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    token: Option<lockcheck::Token>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    token: Option<lockcheck::Token>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new anonymous lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lockcheck")]
            meta: None,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Creates a named lock with a declared rank (see [`rank`] and
    /// [`Mutex::named`]). Read acquisitions participate in order checking
    /// exactly like writes: reader/writer inversions deadlock too.
    pub const fn named(name: &'static str, rank: u16, value: T) -> Self {
        #[cfg(not(feature = "lockcheck"))]
        let _ = (name, rank);
        Self {
            #[cfg(feature = "lockcheck")]
            meta: Some((name, rank)),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access. Never poisons.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        let token = lockcheck::acquire(self.meta, std::panic::Location::caller());
        RwLockReadGuard {
            #[cfg(feature = "lockcheck")]
            token,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access. Never poisons.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        let token = lockcheck::acquire(self.meta, std::panic::Location::caller());
        RwLockWriteGuard {
            #[cfg(feature = "lockcheck")]
            token,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            lockcheck::release(token);
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            lockcheck::release(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        // std would poison here; the wrapper must recover.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_survives_panicking_writer() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("die holding the write lock");
        })
        .join();
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn named_locks_behave_like_anonymous_ones() {
        let m = Mutex::named("test.sync.basic_m", 1, 5u32);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 6);
        let l = RwLock::named("test.sync.basic_l", 2, vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn rank_table_is_sorted_and_unique() {
        for pair in rank::RANK_TABLE.windows(2) {
            assert!(
                pair[0].1 < pair[1].1,
                "rank table must be strictly increasing: {:?} then {:?}",
                pair[0],
                pair[1]
            );
            assert_ne!(pair[0].0, pair[1].0);
        }
        assert_eq!(rank::of("registry.shard"), Some(rank::REGISTRY_SHARD));
        assert_eq!(rank::of("no.such.lock"), None);
    }

    #[test]
    fn registry_rank_order_matches_documented_comment() {
        // crates/core/src/registry.rs documents one registry-wide lock
        // kind, the shard, with dedup a leaf no registry lock ranks below.
        // The table must agree, and hold no other registry lock.
        const _: () = assert!(rank::REGISTRY_SHARD < rank::REGISTRY_DEDUP);
        let registry: Vec<&str> = rank::RANK_TABLE
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| name.starts_with("registry."))
            .collect();
        assert_eq!(registry, ["registry.shard", "registry.dedup"]);
    }
}

//! The metadata store proper: hash-sharded segment chains, snapshots, and
//! O(delta) recovery. This file is the API (`MetaStore`, its options,
//! errors and [`Stats`]); the machinery behind it is split four ways:
//! `index` (the locator table and the reads), `commit` (the write buffer
//! and the one commit path), `compact` (rotation and snapshots) and
//! `recover` (file names, `metastore.meta` and the parallel open).
//!
//! ## Architecture
//!
//! Keys are partitioned by FxHash across `N` independent shards (default
//! 8, fixed at creation and persisted in `metastore.meta`). Each shard
//! owns two named locks, acquired in rank order **commit → index** (see
//! `tiera_support::sync::rank`):
//!
//! * `metastore.commit` — the shard's active segment and durability state;
//!   held across file IO by design (the log write *is* the critical
//!   section). Every mutation commits under it, on the calling thread;
//!   under `sync_every_append` that includes the record's own fsync. All
//!   shards share the name, so holding two shards' commit locks at once
//!   is a lockcheck self-cycle.
//! * `metastore.index` — the shard's read index. `get` and `for_each` take
//!   only this lock, so reads never wait on an in-flight append; writers
//!   update it briefly after their records are accepted.
//!
//! ## The index is a locator table
//!
//! Keys and values live only in the log. What a shard keeps in memory per
//! live key is one slot of a hash table: the 64-bit key hash (the one the
//! shard pick already computed) and a locator — which file, at what
//! offset, how many bytes. Bitcask's keydir, minus the keys: ≈ 33 bytes a
//! key, whatever the key and value sizes.
//!
//! * **A hash hit is confirmed against the log.** A slot names a record;
//!   whether that record is *this* key's is settled by reading its key.
//!   Two live keys with one hash cannot share a slot, so the later comer's
//!   locator goes to a small exact-key overflow map: the store behaves the
//!   same for every input, colliding or not.
//! * **What an operation reads.** A `put` or `delete` of a key whose hash
//!   is in the table reads that record's header and key (one positional
//!   read of a few dozen bytes, from the page cache unless the record is
//!   still in the write buffer); a `put` of a key whose hash is new reads
//!   nothing. `get` reads the whole record and checks its crc. Nothing in
//!   an `Instance` calls `get`: the registry holds every record decoded
//!   and is the read cache; the store's values are read back only at
//!   reopen and compaction.
//! * **Acknowledged means visible.** Appends are buffered, 8 KiB a shard,
//!   and a frame enters the buffer whole (see `commit`), so every record
//!   is wholly in its file or wholly in the buffer. The buffer sits under
//!   the index lock, and a read of a record that has not reached its file
//!   yet is served from it.
//! * **Dead bytes** are counted from the locator's length, which is
//!   [`encoded_record_len`](crate::encoded_record_len) of the record it
//!   names — the same number on the live path and on replay, so
//!   compaction triggers where it always did.
//! * **Order.** [`MetaStore::for_each`] and the snapshots compaction
//!   writes are in *log order*: shard by shard, each shard's live records
//!   by their last write, oldest first. Nothing is ever produced in table
//!   order.
//! * One open file handle per live segment and snapshot serves the reads.
//!
//! ## Durability
//!
//! Without `sync_every_append` a record is durable once
//! [`MetaStore::sync`] returns. With it, an operation acknowledges **only
//! after its record is fsynced**, including a `put` that rewrites an
//! identical value (the record is still appended; durability is not
//! elided).
//!
//! ## Snapshots and recovery
//!
//! Compaction reads the files it is about to retire — the previous
//! snapshot, then the segments — and copies every record a locator still
//! points at, byte for byte, into `sNN-snap.tmp`, then a
//! [`RecordKind::Seal`] footer carrying the entry count; it fsyncs the
//! file, renames it to `sNN-snap-<seq>.log`, and only then removes the
//! superseded files and repoints the locators. On open, each shard loads
//! its newest *valid* snapshot (seal present, count matching) and replays
//! only the segments numbered after it, making restart O(delta since last
//! compaction) instead of O(full history); torn or corrupt snapshots fall
//! back to the next older one and ultimately to full replay. Shards
//! recover in parallel across threads. Record framing, file names and the
//! seal/rename protocol are those of the store that kept its values in
//! memory: either reads the other's directories.
//!
//! Crash safety is testable deterministically: see [`crate::kill`] and
//! [`MetaStore::crash_image`].

mod commit;
mod compact;
mod index;
mod recover;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_support::collections::fx_hash_one;

use crate::kill::KillPoints;
use crate::log::{RecordKind, MAX_RECORD};
use commit::{Op, Shard};
use recover::seg_path;

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum MetaStoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The directory contains segment files with unparsable names.
    BadSegmentName(PathBuf),
    /// A deterministic kill point fired (crash-test harness only).
    Killed(&'static str),
    /// Invalid store configuration or metadata.
    Config(String),
}

impl std::fmt::Display for MetaStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaStoreError::Io(e) => write!(f, "metastore io error: {e}"),
            MetaStoreError::BadSegmentName(p) => {
                write!(f, "unrecognized segment file name: {}", p.display())
            }
            MetaStoreError::Killed(site) => {
                write!(f, "metastore kill point fired: {site}")
            }
            MetaStoreError::Config(msg) => write!(f, "metastore config error: {msg}"),
        }
    }
}

impl std::error::Error for MetaStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MetaStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MetaStoreError {
    fn from(e: io::Error) -> Self {
        MetaStoreError::Io(e)
    }
}

/// Tuning knobs for the store.
#[derive(Debug, Clone)]
pub struct MetaStoreOptions {
    /// Rotate a shard's active segment after this many bytes.
    pub segment_max_bytes: u64,
    /// Trigger auto-compaction (snapshot) when a shard's dead bytes exceed
    /// this fraction of its total on-disk footprint (checked on rotation).
    /// `1.0` disables auto-compaction.
    pub compact_garbage_ratio: f64,
    /// fsync before acknowledging every mutation (strongest durability).
    pub sync_every_append: bool,
    /// Number of hash shards (a power of two, `1..=64`). Fixed when the
    /// directory is created; reopening uses the persisted count and
    /// ignores this field.
    pub shards: usize,
}

impl Default for MetaStoreOptions {
    fn default() -> Self {
        Self {
            segment_max_bytes: 8 * 1024 * 1024,
            compact_garbage_ratio: 0.5,
            sync_every_append: false,
            shards: 8,
        }
    }
}

/// Counters describing the store's state, aggregated across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Live keys.
    pub live_keys: u64,
    /// Total bytes across all suffix segments (excludes snapshots).
    pub log_bytes: u64,
    /// Bytes across each shard's newest snapshot.
    pub snapshot_bytes: u64,
    /// Bytes belonging to superseded or deleted records (exact encoded
    /// record lengths; identical math on the live path and on replay).
    pub dead_bytes: u64,
    /// Number of segment files.
    pub segments: u64,
    /// Number of snapshot files.
    pub snapshots: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// fsync calls issued since open.
    pub fsyncs: u64,
    /// Shard count.
    pub shards: u64,
    /// Bytes of memory the index holds: each shard's locator table at its
    /// current capacity, plus the overflow entries with their keys.
    pub index_bytes: u64,
    /// Superseded files (stale snapshots, covered segments, snapshot temp
    /// files) whose removal failed for a reason other than their being
    /// gone already, since open. The operation that met one still
    /// succeeded; the debris is retried at the next open.
    pub cleanup_failures: u64,
}

/// How a key becomes a table slot and a shard. One function in shipped
/// stores; a parameter so that tests can make every key collide.
type KeyHash = fn(&[u8]) -> u64;

fn fx_key_hash(key: &[u8]) -> u64 {
    fx_hash_one(key)
}

/// The shard a hash selects among `shard_count` (a power of two).
fn shard_index(hash: u64, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    // Top bits: FxHash mixes best into the high half of the word.
    (hash >> (64 - shard_count.trailing_zeros())) as usize
}

/// A crash-safe embedded key-value store for Tiera metadata (see the
/// module docs for the sharding, durability, and snapshot design).
pub struct MetaStore {
    dir: PathBuf,
    shards: Vec<Shard>,
    opts: MetaStoreOptions,
    kill: Arc<KillPoints>,
    hash: KeyHash,
    cleanup_failures: AtomicU64,
}

impl MetaStore {
    /// Opens (or creates) a store in `dir`, recovering existing state.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, MetaStoreError> {
        Self::open_with(dir, MetaStoreOptions::default())
    }

    /// Opens with explicit options. Shards recover in parallel: each loads
    /// its newest valid snapshot and replays only the segments after it.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: MetaStoreOptions,
    ) -> Result<Self, MetaStoreError> {
        Self::open_hashed(dir.as_ref(), opts, fx_key_hash)
    }

    fn note_debris(&self, failures: u64) {
        self.cleanup_failures.fetch_add(failures, Ordering::Relaxed);
    }

    /// The shard index `key` maps to in a store with `shard_count` shards
    /// (public so tests and tools can partition keys exactly as the store
    /// does).
    pub fn shard_of(key: &[u8], shard_count: usize) -> usize {
        shard_index(fx_key_hash(key), shard_count)
    }

    /// `key`'s shard and its hash — the shard pick and the table slot are
    /// one computation.
    fn locate(&self, key: &[u8]) -> (&Shard, u64) {
        let hash = (self.hash)(key);
        (&self.shards[shard_index(hash, self.shards.len())], hash)
    }

    /// Inserts or overwrites a key. Under `sync` durability the call
    /// acknowledges only after the record is fsynced — even when the value
    /// is identical to the current one (the record is still appended).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MetaStoreError> {
        if key.len().saturating_add(value.len()) > MAX_RECORD {
            return Err(MetaStoreError::Config(format!(
                "a record of {} + {} bytes is beyond the {MAX_RECORD} a frame holds",
                key.len(),
                value.len()
            )));
        }
        let (shard, hash) = self.locate(key);
        self.mutate(shard, Op { kind: RecordKind::Put, hash, key, value }).map(|_| ())
    }

    /// Deletes a key; returns whether it existed.
    ///
    /// **Contract:** deleting a missing key writes nothing — no tombstone
    /// reaches the log and dead-byte accounting does not drift. (Under
    /// concurrent deleters a lost race can still append a tombstone whose
    /// key the winner already removed; replay tolerates it and both paths
    /// count it identically.)
    pub fn delete(&self, key: &[u8]) -> Result<bool, MetaStoreError> {
        let (shard, hash) = self.locate(key);
        let present = {
            let idx = shard.index.read();
            idx.slot(hash, key)?.current.is_some()
        };
        if !present {
            return Ok(false);
        }
        self.mutate(shard, Op { kind: RecordKind::Delete, hash, key, value: &[] })
    }

    /// Fetches a key's value: one read of its record from the log (or from
    /// the write buffer, if the record has not left it). Takes only the
    /// shard's index lock — never waits on an in-flight append.
    ///
    /// # Panics
    ///
    /// If the log cannot be read, or the record no longer verifies.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (shard, hash) = self.locate(key);
        let idx = shard.index.read();
        idx.value_of(hash, key).unwrap_or_else(|e| panic!("metastore: reading {:?}: {e}", self.dir))
    }

    /// Visits every live key and value in **log order**: shard by shard,
    /// and within a shard by each key's last write, oldest first — an
    /// order that depends on the history of writes alone, not on when
    /// compactions ran. Streams from the log; nothing is materialised.
    ///
    /// The visitor runs under one shard's index read lock at a time, which
    /// holds that shard's writers up: it must not call back into the
    /// store, nor take a lock ranked before `metastore.index`.
    pub fn for_each(&self, mut visit: impl FnMut(&[u8], &[u8])) -> Result<(), MetaStoreError> {
        for shard in &self.shards {
            let idx = shard.index.read();
            idx.walk(self.hash, |frame, _, _| {
                visit(frame.key, frame.value);
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Flushes and fsyncs every shard's active segment (the durability
    /// boundary for non-`sync_every_append` stores).
    pub fn sync(&self) -> Result<(), MetaStoreError> {
        for shard in &self.shards {
            let mut c = shard.commit.lock();
            if c.unsynced() {
                shard.sync_active(&mut c)?;
            }
        }
        Ok(())
    }

    /// Current statistics, aggregated across shards.
    pub fn stats(&self) -> Stats {
        let mut s = Stats {
            shards: self.shards.len() as u64,
            cleanup_failures: self.cleanup_failures.load(Ordering::Relaxed),
            ..Stats::default()
        };
        for shard in &self.shards {
            {
                let c = shard.commit.lock();
                s.log_bytes += c.sealed_bytes + c.len;
                s.dead_bytes += c.dead_bytes;
                s.segments += c.segments.len() as u64;
                if let Some((_, bytes)) = c.snapshot {
                    s.snapshots += 1;
                    s.snapshot_bytes += bytes;
                }
                s.compactions += c.compactions;
                s.fsyncs += c.fsyncs;
            }
            let idx = shard.index.read();
            s.live_keys += idx.live() as u64;
            s.index_bytes += idx.heap_bytes();
        }
        s
    }

    /// Compacts every shard: copies each shard's live records into a
    /// snapshot and removes the superseded files (see the module docs for
    /// the crash protocol).
    pub fn compact(&self) -> Result<(), MetaStoreError> {
        for shard in &self.shards {
            let mut c = shard.commit.lock();
            self.snapshot_shard(shard, &mut c)?;
        }
        Ok(())
    }

    /// The kill-point handle for crash testing (disarmed by default; see
    /// [`crate::kill`]).
    pub fn kill_points(&self) -> Arc<KillPoints> {
        Arc::clone(&self.kill)
    }

    /// For each shard, the active segment's path and the byte count known
    /// to have reached stable storage. A crash harness truncates each file
    /// to that length (after dropping the store) to simulate losing
    /// everything the OS had not persisted, then reopens and checks that
    /// every acknowledged durable write survived. Sealed segments and
    /// renamed snapshots are always fully synced and need no truncation.
    pub fn crash_image(&self) -> Vec<(PathBuf, u64)> {
        self.shards
            .iter()
            .map(|shard| {
                let c = shard.commit.lock();
                (seg_path(&self.dir, shard.id, c.active_seg), c.synced_len)
            })
            .collect()
    }
}

impl Drop for MetaStore {
    /// Hands the OS what the write buffers hold. An error has nowhere to
    /// go from here; [`sync`](MetaStore::sync) is the call that reports
    /// one.
    fn drop(&mut self) {
        for shard in &self.shards {
            let mut c = shard.commit.lock();
            // A008: `Drop` has nowhere to report to; `sync` does (above).
            let _ = shard.flush_tail(&mut c);
        }
    }
}

impl std::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("MetaStore")
            .field("shards", &s.shards)
            .field("live_keys", &s.live_keys)
            .field("segments", &s.segments)
            .field("snapshots", &s.snapshots)
            .field("log_bytes", &s.log_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::index::write_all_at;
    use super::recover::{parse_name, snap_path, ScanFile, ShardFiles};
    use super::*;
    use crate::log::{encode_frame, encoded_record_len, seal_count, LogReader, Record, HEADER};
    use commit::TAIL_CAP;
    use std::collections::BTreeMap;
    use std::fs::{self, File, OpenOptions};
    use tiera_support::prop::gen;
    use tiera_support::prop_check;
    use tiera_support::rng::SimRng;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("tiera-store-{}-{}-{}", std::process::id(), tag, n));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn one_shard(dir: &Path) -> MetaStore {
        MetaStore::open_with(dir, MetaStoreOptions { shards: 1, ..MetaStoreOptions::default() })
            .unwrap()
    }

    /// What the store holds, sorted by key, read through `for_each`.
    fn contents(s: &MetaStore) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = Vec::new();
        s.for_each(|k, v| all.push((k.to_vec(), v.to_vec()))).unwrap();
        all.sort_unstable();
        all
    }

    /// Writes a log file holding `records`, framed one after another.
    fn write_log(path: &Path, records: &[(RecordKind, &[u8], &[u8])]) {
        let mut log = Vec::new();
        for (kind, key, value) in records {
            encode_frame(&mut log, *kind, key, value);
        }
        fs::write(path, log).unwrap();
    }

    #[test]
    fn put_get_delete() {
        let dir = temp_dir("pgd");
        let s = MetaStore::open(&dir).unwrap();
        s.put(b"k1", b"v1").unwrap();
        s.put(b"k2", b"v2").unwrap();
        assert_eq!(s.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(s.get(b"k2"), Some(b"v2".to_vec()));
        assert!(s.delete(b"k1").unwrap());
        assert!(!s.delete(b"k1").unwrap(), "double delete is false");
        assert_eq!(s.get(b"k1"), None);
        assert_eq!(s.stats().live_keys, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_state() {
        let dir = temp_dir("reopen");
        {
            let s = MetaStore::open(&dir).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.put(b"a", b"3").unwrap(); // overwrite
            s.delete(b"b").unwrap();
            s.sync().unwrap();
        }
        let s = MetaStore::open(&dir).unwrap();
        assert_eq!(s.get(b"a"), Some(b"3".to_vec()));
        assert_eq!(s.get(b"b"), None);
        assert_eq!(s.stats().live_keys, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_persists_across_reopen() {
        let dir = temp_dir("meta");
        {
            let s = MetaStore::open_with(
                &dir,
                MetaStoreOptions { shards: 4, ..MetaStoreOptions::default() },
            )
            .unwrap();
            assert_eq!(s.stats().shards, 4);
            s.put(b"k", b"v").unwrap();
            s.sync().unwrap();
        }
        // Reopening with a different requested count uses the persisted one.
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions { shards: 16, ..MetaStoreOptions::default() },
        )
        .unwrap();
        assert_eq!(s.stats().shards, 4);
        assert_eq!(s.get(b"k"), Some(b"v".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_shard_count_rejected() {
        let dir = temp_dir("badshards");
        let err = MetaStore::open_with(
            &dir,
            MetaStoreOptions { shards: 3, ..MetaStoreOptions::default() },
        )
        .unwrap_err();
        assert!(matches!(err, MetaStoreError::Config(_)), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_spread_across_shards() {
        let dir = temp_dir("spread");
        let s = MetaStore::open(&dir).unwrap();
        let mut hit = [false; 8];
        for i in 0..256 {
            let key = format!("key-{i}");
            hit[MetaStore::shard_of(key.as_bytes(), 8)] = true;
            s.put(key.as_bytes(), b"v").unwrap();
        }
        assert!(hit.iter().all(|&h| h), "256 keys left a shard empty: {hit:?}");
        assert_eq!(s.stats().live_keys, 256);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_with_torn_tail_recovers_prefix() {
        let dir = temp_dir("torn");
        {
            let s = one_shard(&dir);
            s.put(b"good", b"yes").unwrap();
            s.put(b"maybe", b"cut").unwrap();
            s.sync().unwrap();
        }
        // Chop bytes off the active segment, as an interrupted write would.
        let seg = seg_path(&dir, 0, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let s = one_shard(&dir);
        assert_eq!(s.get(b"good"), Some(b"yes".to_vec()));
        assert_eq!(s.get(b"maybe"), None);
        // The store keeps working after recovery.
        s.put(b"after", b"crash").unwrap();
        s.sync().unwrap();
        drop(s);
        let s = one_shard(&dir);
        assert_eq!(s.get(b"after"), Some(b"crash".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_creates_segments() {
        let dir = temp_dir("rotate");
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                segment_max_bytes: 512,
                compact_garbage_ratio: 1.0, // never auto-compact
                shards: 1,
                ..MetaStoreOptions::default()
            },
        )
        .unwrap();
        for i in 0..100 {
            s.put(format!("key-{i}").as_bytes(), &[0u8; 32]).unwrap();
        }
        assert!(s.stats().segments > 1, "{:?}", s.stats());
        s.sync().unwrap();
        drop(s);
        let s = one_shard(&dir);
        assert_eq!(s.stats().live_keys, 100);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_snapshots_and_preserves_data() {
        let dir = temp_dir("compact");
        let s = MetaStore::open(&dir).unwrap();
        for round in 0..10 {
            for i in 0..50 {
                s.put(format!("key-{i}").as_bytes(), format!("v{round}").as_bytes()).unwrap();
            }
        }
        let before = s.stats().log_bytes;
        s.compact().unwrap();
        let after = s.stats();
        assert_eq!(after.snapshots, after.shards);
        assert_eq!(after.dead_bytes, 0);
        assert!(
            after.snapshot_bytes + after.log_bytes < before / 2,
            "{before} -> snap {} + log {}",
            after.snapshot_bytes,
            after.log_bytes
        );
        assert_eq!(s.get(b"key-7"), Some(b"v9".to_vec()));
        drop(s);
        // Reopen recovers from the snapshots (the pre-compaction segments
        // are gone).
        let s = MetaStore::open(&dir).unwrap();
        assert_eq!(s.stats().live_keys, 50);
        assert_eq!(s.get(b"key-49"), Some(b"v9".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_plus_suffix_replay() {
        let dir = temp_dir("delta");
        {
            let s = one_shard(&dir);
            for i in 0..40 {
                s.put(format!("base-{i}").as_bytes(), b"old").unwrap();
            }
            s.compact().unwrap();
            // Delta after the snapshot: overwrites, fresh keys, a delete.
            s.put(b"base-0", b"new").unwrap();
            s.put(b"extra", b"delta").unwrap();
            s.delete(b"base-1").unwrap();
            s.sync().unwrap();
        }
        let s = one_shard(&dir);
        assert_eq!(s.stats().live_keys, 40); // 40 - 1 deleted + 1 extra
        assert_eq!(s.get(b"base-0"), Some(b"new".to_vec()));
        assert_eq!(s.get(b"base-1"), None);
        assert_eq!(s.get(b"extra"), Some(b"delta".to_vec()));
        assert_eq!(s.get(b"base-39"), Some(b"old".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_falls_back_to_full_replay() {
        let dir = temp_dir("tornsnap");
        {
            let s = one_shard(&dir);
            for i in 0..30 {
                s.put(format!("k-{i}").as_bytes(), b"v").unwrap();
            }
            s.sync().unwrap();
        }
        // Plant a newest "snapshot" with entries but no seal record, as a
        // crash between rename and durability ordering bugs would.
        write_log(&snap_path(&dir, 0, 99), &[(RecordKind::Put, b"phantom", b"x")]);
        let s = one_shard(&dir);
        assert_eq!(s.stats().live_keys, 30, "torn snapshot must be rejected");
        assert_eq!(s.get(b"phantom"), None, "no phantom keys from a torn snapshot");
        assert!(
            !snap_path(&dir, 0, 99).exists(),
            "invalid snapshot is crash debris and gets removed"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn miscounted_snapshot_falls_back() {
        let dir = temp_dir("badcount");
        {
            let s = one_shard(&dir);
            s.put(b"real", b"v").unwrap();
            s.sync().unwrap();
        }
        // A sealed snapshot whose count disagrees with its entries.
        write_log(
            &snap_path(&dir, 0, 50),
            &[(RecordKind::Put, b"phantom", b"x"), (RecordKind::Seal, b"", &7u64.to_le_bytes())],
        );
        let s = one_shard(&dir);
        assert_eq!(s.get(b"real"), Some(b"v".to_vec()));
        assert_eq!(s.get(b"phantom"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_garbage() {
        let dir = temp_dir("autocompact");
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                segment_max_bytes: 2048,
                compact_garbage_ratio: 0.5,
                shards: 1,
                ..MetaStoreOptions::default()
            },
        )
        .unwrap();
        // Hammer one key: almost everything is garbage.
        for i in 0..500 {
            s.put(b"hot", format!("value-{i}").as_bytes()).unwrap();
        }
        let st = s.stats();
        assert!(st.compactions >= 1, "{st:?}");
        assert_eq!(s.get(b"hot"), Some(b"value-499".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    // Satellite: replay and the live write path must account dead bytes
    // identically (the old code counted `old.len()` on replay but
    // `HEADER + key + old` live, so a reopened store compacted on a
    // different schedule).
    #[test]
    fn dead_bytes_identical_after_reopen() {
        let dir = temp_dir("deadbytes");
        let live = {
            let s = MetaStore::open(&dir).unwrap();
            for i in 0..60 {
                s.put(format!("k-{i}").as_bytes(), &vec![7u8; i]).unwrap();
            }
            for i in 0..60 {
                // Overwrites with a different length + some deletes.
                if i % 3 == 0 {
                    s.delete(format!("k-{i}").as_bytes()).unwrap();
                } else {
                    s.put(format!("k-{i}").as_bytes(), &vec![9u8; 2 * i]).unwrap();
                }
            }
            s.sync().unwrap();
            s.stats()
        };
        let reopened = MetaStore::open(&dir).unwrap().stats();
        assert!(live.dead_bytes > 0);
        assert_eq!(live.dead_bytes, reopened.dead_bytes, "live {live:?} vs reopened {reopened:?}");
        assert_eq!(live.live_keys, reopened.live_keys);
        assert_eq!(live.log_bytes, reopened.log_bytes);
        fs::remove_dir_all(&dir).ok();
    }

    // Satellite: deleting a missing key writes nothing — no tombstone in
    // the log, no dead-bytes drift.
    #[test]
    fn delete_of_missing_key_writes_nothing() {
        let dir = temp_dir("delmissing");
        let s = MetaStore::open(&dir).unwrap();
        s.put(b"present", b"v").unwrap();
        let before = s.stats();
        for _ in 0..10 {
            assert!(!s.delete(b"absent").unwrap());
        }
        let after = s.stats();
        assert_eq!(before.log_bytes, after.log_bytes, "no tombstone appended");
        assert_eq!(before.dead_bytes, after.dead_bytes, "no dead-bytes drift");
        fs::remove_dir_all(&dir).ok();
    }

    // Satellite: a put of an identical value is still a durable append —
    // the record lands in the log (and in sync mode acks only after its
    // fsync; the crash matrix exercises that half).
    #[test]
    fn identical_put_still_appends_durably() {
        let dir = temp_dir("identput");
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions { sync_every_append: true, shards: 1, ..MetaStoreOptions::default() },
        )
        .unwrap();
        s.put(b"k", b"same").unwrap();
        let before = s.stats();
        s.put(b"k", b"same").unwrap();
        let after = s.stats();
        assert_eq!(
            after.log_bytes - before.log_bytes,
            encoded_record_len(1, 4),
            "identical put must append its record"
        );
        assert!(after.fsyncs > before.fsyncs, "and fsync before acking");
        // The overwritten (identical) record is garbage like any other.
        assert_eq!(after.dead_bytes - before.dead_bytes, encoded_record_len(1, 4));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pre_sharding_segment_is_refused_and_left_in_place() {
        let dir = temp_dir("flat");
        // The flat `seg-*.log` chain of a store from before sharding.
        let flat = dir.join("seg-0000000000.log");
        write_log(&flat, &[(RecordKind::Put, b"old", b"1")]);
        let before = fs::read(&flat).unwrap();
        let err = MetaStore::open(&dir).unwrap_err();
        assert!(matches!(&err, MetaStoreError::BadSegmentName(p) if *p == flat), "{err}");
        assert_eq!(fs::read(&flat).unwrap(), before, "the file is left as it was");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_do_not_take_the_commit_lock() {
        // A reader landing while a writer holds the commit lock must not
        // block: get and for_each take only the index RwLock.
        let dir = temp_dir("rwsplit");
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions { shards: 1, ..MetaStoreOptions::default() },
        )
        .unwrap();
        s.put(b"k", b"v").unwrap();
        let c = s.shards[0].commit.lock();
        assert_eq!(s.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(contents(&s).len(), 1);
        drop(c);
        fs::remove_dir_all(&dir).ok();
    }

    /// Every key in one slot: each key after the first lives in the
    /// overflow map, and every lookup goes through the read that tells
    /// colliding keys apart.
    fn colliding(_: &[u8]) -> u64 {
        0
    }

    /// The shipped hash, and the one under which every key collides.
    const HASHES: [(&str, KeyHash); 2] = [("fx", fx_key_hash), ("colliding", colliding)];

    #[test]
    fn prop_reopen_matches_model() {
        for (name, hash) in HASHES {
            prop_check!(cases = 12, |rng| {
                let dir = temp_dir("prop");
                let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                {
                    let s = MetaStore::open_hashed(
                        &dir,
                        MetaStoreOptions {
                            segment_max_bytes: 1024,
                            compact_garbage_ratio: 0.6,
                            shards: 4,
                            ..MetaStoreOptions::default()
                        },
                        hash,
                    )
                    .unwrap();
                    let ops = gen::usize_in(rng, 20..200);
                    for _ in 0..ops {
                        let key = format!("key-{}", gen::usize_in(rng, 0..30)).into_bytes();
                        if rng.chance(0.25) {
                            let existed = s.delete(&key).unwrap();
                            assert_eq!(existed, model.remove(&key).is_some(), "{name}");
                        } else {
                            let value = gen::byte_vec(rng, 0..64);
                            s.put(&key, &value).unwrap();
                            model.insert(key, value);
                        }
                    }
                    if rng.chance(0.3) {
                        s.compact().unwrap();
                    }
                    s.sync().unwrap();
                }
                let s = MetaStore::open_hashed(&dir, MetaStoreOptions::default(), hash).unwrap();
                assert_eq!(s.stats().live_keys, model.len() as u64, "{name}");
                for (k, v) in &model {
                    assert_eq!(s.get(k).as_ref(), Some(v), "{name}");
                }
                fs::remove_dir_all(&dir).ok();
            });
        }
    }

    #[test]
    fn prop_every_operation_matches_model() {
        // The whole surface against a map, step by step: what an operation
        // returns, what a read sees right after it, and — across compactions
        // and reopens — what the store holds and counts.
        for (name, hash) in HASHES {
            prop_check!(cases = 10, |rng| {
                let dir = temp_dir("model");
                let opts = MetaStoreOptions {
                    segment_max_bytes: 700,
                    compact_garbage_ratio: 0.6,
                    shards: 2,
                    ..MetaStoreOptions::default()
                };
                let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let mut s = MetaStore::open_hashed(&dir, opts.clone(), hash).unwrap();
                for _ in 0..gen::usize_in(rng, 30..160) {
                    let key =
                        format!("{}/{}", gen::pick(rng, &["a", "b"]), gen::usize_in(rng, 0..20))
                            .into_bytes();
                    match gen::usize_in(rng, 0..20) {
                        0..=9 => {
                            // Puts take every path into the log: into the
                            // write buffer, a flush first and then into it,
                            // and straight to the file (frames of `TAIL_CAP`
                            // bytes or more).
                            let len = match gen::usize_in(rng, 0..40) {
                                0..=1 => 9_000,
                                2..=3 => TAIL_CAP - HEADER - key.len() - gen::usize_in(rng, 0..3),
                                _ => gen::usize_in(rng, 0..48),
                            };
                            let value = gen::bytes(rng, len);
                            s.put(&key, &value).unwrap();
                            model.insert(key, value);
                        }
                        10..=13 => {
                            assert_eq!(
                                s.delete(&key).unwrap(),
                                model.remove(&key).is_some(),
                                "{name}"
                            );
                        }
                        14..=15 => {
                            assert_eq!(s.get(&key).as_ref(), model.get(&key), "{name}");
                        }
                        16 => {
                            let expect: Vec<_> = model.clone().into_iter().collect();
                            assert_eq!(contents(&s), expect, "{name}");
                        }
                        17 => s.compact().unwrap(),
                        _ => {
                            s.sync().unwrap();
                            let before = s.stats();
                            drop(s);
                            s = MetaStore::open_hashed(&dir, opts.clone(), hash).unwrap();
                            let after = s.stats();
                            assert_eq!(before.dead_bytes, after.dead_bytes, "{name}");
                            assert_eq!(before.log_bytes, after.log_bytes, "{name}");
                        }
                    }
                    assert_eq!(s.stats().live_keys, model.len() as u64, "{name}");
                }
                assert_eq!(contents(&s), model.into_iter().collect::<Vec<_>>(), "{name}");
                drop(s);
                fs::remove_dir_all(&dir).ok();
            });
        }
    }

    #[test]
    fn colliding_keys_keep_their_own_records() {
        let dir = temp_dir("collide");
        let s = MetaStore::open_hashed(&dir, MetaStoreOptions::default(), colliding).unwrap();
        s.put(b"first", b"1").unwrap();
        s.put(b"second", b"2").unwrap();
        s.put(b"first", b"1b").unwrap();
        assert_eq!(s.stats().live_keys, 2);
        assert_eq!(s.get(b"first"), Some(b"1b".to_vec()));
        assert_eq!(s.get(b"second"), Some(b"2".to_vec()));
        assert_eq!(s.get(b"third"), None, "a hash hit on another key's record is a miss");
        assert!(!s.delete(b"third").unwrap());
        // The slot's owner leaves; the overflow key stays findable, and a
        // newcomer may take the slot.
        assert!(s.delete(b"first").unwrap());
        assert_eq!(s.get(b"second"), Some(b"2".to_vec()));
        s.put(b"third", b"3").unwrap();
        assert_eq!(s.stats().live_keys, 2);
        s.compact().unwrap();
        assert_eq!(
            contents(&s),
            [(b"second".to_vec(), b"2".to_vec()), (b"third".to_vec(), b"3".to_vec())]
        );
        drop(s);
        let s = MetaStore::open_hashed(&dir, MetaStoreOptions::default(), colliding).unwrap();
        assert_eq!(s.get(b"second"), Some(b"2".to_vec()));
        assert_eq!(s.get(b"third"), Some(b"3".to_vec()));
        assert_eq!(s.get(b"first"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_sees_an_acknowledged_put_in_every_durability_mode() {
        for sync_every_append in [false, true] {
            let dir = temp_dir("ackvisible");
            let s = MetaStore::open_with(
                &dir,
                MetaStoreOptions { sync_every_append, shards: 1, ..MetaStoreOptions::default() },
            )
            .unwrap();
            s.put(b"k", b"v1").unwrap();
            assert_eq!(s.get(b"k"), Some(b"v1".to_vec()));
            s.put(b"k", b"v2").unwrap();
            assert_eq!(s.get(b"k"), Some(b"v2".to_vec()));
            assert_eq!(contents(&s), [(b"k".to_vec(), b"v2".to_vec())]);
            let on_disk = fs::metadata(seg_path(&dir, 0, 0)).unwrap().len();
            if sync_every_append {
                assert_eq!(on_disk, s.stats().log_bytes);
            } else {
                assert_eq!(on_disk, 0, "nothing was flushed: the reads came from the buffer");
            }
            assert!(s.delete(b"k").unwrap());
            assert_eq!(s.get(b"k"), None);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_put_that_does_not_fit_flushes_whole_frames_only() {
        // A frame enters the write buffer whole: one that does not fit in
        // what is left of it flushes the frames before it, and none of its
        // own bytes.
        let dir = temp_dir("wholeframe");
        let s = one_shard(&dir);
        let filler = vec![1u8; TAIL_CAP - 6 - HEADER - 1];
        s.put(b"a", &filler).unwrap();
        let seg = seg_path(&dir, 0, 0);
        assert_eq!(fs::metadata(&seg).unwrap().len(), 0);
        s.put(b"b", b"overflowing").unwrap();
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            encoded_record_len(1, filler.len()),
            "the flush carried a's frame and nothing of b's"
        );
        assert_eq!(s.get(b"b"), Some(b"overflowing".to_vec()), "read from the buffer");
        assert_eq!(s.get(b"a"), Some(filler.clone()));
        drop(s);
        let s = one_shard(&dir);
        assert_eq!(s.get(b"b"), Some(b"overflowing".to_vec()));
        assert_eq!(s.get(b"a"), Some(filler));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn for_each_visits_in_log_order_whenever_compaction_ran() {
        let visit = |compact_at: Option<usize>| {
            let dir = temp_dir("logorder");
            let s = one_shard(&dir);
            let writes = ["c", "a", "d", "b", "a", "e", "c"];
            for (i, key) in writes.iter().enumerate() {
                s.put(key.as_bytes(), format!("{i}").as_bytes()).unwrap();
                if compact_at == Some(i) {
                    s.compact().unwrap();
                }
            }
            s.delete(b"d").unwrap();
            let mut seen = Vec::new();
            s.for_each(|k, v| {
                seen.push(format!("{}={}", String::from_utf8_lossy(k), String::from_utf8_lossy(v)))
            })
            .unwrap();
            fs::remove_dir_all(&dir).ok();
            seen
        };
        let by_last_write = ["b=3", "a=4", "e=5", "c=6"];
        assert_eq!(visit(None), by_last_write);
        assert_eq!(visit(Some(2)), by_last_write);
        assert_eq!(visit(Some(6)), by_last_write);
    }

    #[test]
    fn unremovable_debris_is_counted_and_does_not_fail_the_open() {
        let dir = temp_dir("debris");
        {
            let s = one_shard(&dir);
            s.put(b"k", b"v").unwrap();
            s.compact().unwrap();
            assert_eq!(s.stats().cleanup_failures, 0);
        }
        // A segment the snapshot covers, which `remove_file` cannot remove.
        fs::create_dir(seg_path(&dir, 0, 0)).unwrap();
        let s = one_shard(&dir);
        assert_eq!(s.stats().cleanup_failures, 1);
        assert_eq!(s.get(b"k"), Some(b"v".to_vec()));
        s.put(b"k2", b"v2").unwrap();
        drop(s);
        assert_eq!(one_shard(&dir).stats().cleanup_failures, 1, "found, and tried, again");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_costs_a_slot_a_key_whatever_the_record_size() {
        let dir = temp_dir("indexbytes");
        let s = MetaStore::open(&dir).unwrap();
        for i in 0..10_000 {
            s.put(format!("a-rather-long-object-name/{i:08}").as_bytes(), &[7u8; 200]).unwrap();
        }
        let per_key = s.stats().index_bytes as f64 / 10_000.0;
        assert!((25.0..=60.0).contains(&per_key), "{per_key} B/key");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cut_that_fails_is_owed_before_any_later_write_or_sync() {
        let dir = temp_dir("owedcut");
        // Every append writes through, so a refused one is refused by its
        // own write, not by the flush of a tail before it.
        let opts =
            MetaStoreOptions { shards: 1, sync_every_append: true, ..MetaStoreOptions::default() };
        let s = MetaStore::open_with(&dir, opts).unwrap();
        s.put(b"a", b"1").unwrap();
        let shard = &s.shards[0];
        let (writable, len) = {
            let c = shard.commit.lock();
            (Arc::clone(&c.active), c.len)
        };
        // A refused write left bytes past `len` that read as two whole
        // frames (a value may hold such bytes); the first is as long as the
        // record written after the refusal.
        let mut landed = Vec::new();
        encode_frame(&mut landed, RecordKind::Put, b"x", b"22");
        encode_frame(&mut landed, RecordKind::Put, b"ghost", b"unacked");
        write_all_at(&writable, &landed, len).unwrap();
        // A handle that can neither write nor cut: the next write-through
        // is refused, and so is its cut.
        let seg = seg_path(&dir, 0, 0);
        shard.commit.lock().active = Arc::new(File::open(&seg).unwrap());
        assert!(s.put(b"big", b"refused").is_err());
        assert!(s.sync().is_err(), "nothing new to sync, but the cut is owed");
        shard.commit.lock().active = writable;
        s.put(b"b", b"22").unwrap();
        s.sync().unwrap();
        let want = len + encoded_record_len(1, 2);
        assert_eq!(fs::metadata(&seg).unwrap().len(), want, "the owed cut ran before b's write");
        drop(s);
        let s = one_shard(&dir);
        assert_eq!(s.get(b"ghost"), None, "an unacked record replayed after b");
        assert_eq!(
            (s.get(b"a"), s.get(b"b"), s.get(b"big")),
            (Some(b"1".to_vec()), Some(b"22".to_vec()), None)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_too_large_to_frame_is_refused() {
        let dir = temp_dir("toolarge");
        let s = one_shard(&dir);
        let err = s.put(b"k", &vec![0u8; MAX_RECORD]).unwrap_err();
        assert!(matches!(err, MetaStoreError::Config(_)), "{err}");
        assert_eq!(s.stats().live_keys, 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// The recovery of the store that kept its values in memory (the
    /// parent of the locator table), as it stood: newest valid snapshot,
    /// then the segments after it, through its `apply_record`. The
    /// reference for "the format did not change": what this store writes,
    /// that code reads.
    mod parent {
        use super::*;

        fn apply_record(map: &mut BTreeMap<Vec<u8>, Vec<u8>>, dead_bytes: &mut u64, rec: &Record) {
            match rec.kind {
                RecordKind::Put => {
                    if let Some(old) = map.insert(rec.key.clone(), rec.value.clone()) {
                        *dead_bytes += encoded_record_len(rec.key.len(), old.len());
                    }
                }
                RecordKind::Delete => {
                    if let Some(old) = map.remove(&rec.key) {
                        *dead_bytes += encoded_record_len(rec.key.len(), old.len());
                    }
                    *dead_bytes += encoded_record_len(rec.key.len(), 0);
                }
                RecordKind::Seal => {}
            }
        }

        fn load_snapshot(path: &Path) -> Option<BTreeMap<Vec<u8>, Vec<u8>>> {
            let mut reader = LogReader::new(File::open(path).ok()?);
            let mut map = BTreeMap::new();
            loop {
                let rec = reader.next_record().unwrap()?;
                match rec.kind {
                    RecordKind::Put => {
                        map.insert(rec.key, rec.value);
                    }
                    RecordKind::Delete => return None,
                    RecordKind::Seal => {
                        return (seal_count(&rec.value) == Some(map.len() as u64)).then_some(map)
                    }
                }
            }
        }

        /// Every shard's map merged, and the dead bytes replay counted.
        pub fn replay(dir: &Path) -> (BTreeMap<Vec<u8>, Vec<u8>>, u64) {
            let mut files: BTreeMap<usize, ShardFiles> = BTreeMap::new();
            for entry in fs::read_dir(dir).unwrap() {
                match parse_name(&entry.unwrap().path()).unwrap() {
                    Some(ScanFile::Seg(shard, n)) => files.entry(shard).or_default().segs.push(n),
                    Some(ScanFile::Snap(shard, n)) => files.entry(shard).or_default().snaps.push(n),
                    _ => {}
                }
            }
            let (mut all, mut dead_bytes) = (BTreeMap::new(), 0);
            for (shard, mut files) in files {
                files.snaps.sort_unstable();
                files.segs.sort_unstable();
                let base = files
                    .snaps
                    .iter()
                    .rev()
                    .find_map(|&n| Some((n, load_snapshot(&snap_path(dir, shard, n))?)));
                let (floor, mut map) = match base {
                    Some((n, map)) => (Some(n), map),
                    None => (None, BTreeMap::new()),
                };
                for &n in files.segs.iter().filter(|&&n| Some(n) > floor) {
                    let mut reader = LogReader::new(File::open(seg_path(dir, shard, n)).unwrap());
                    while let Some(rec) = reader.next_record().unwrap() {
                        apply_record(&mut map, &mut dead_bytes, &rec);
                    }
                }
                all.extend(map);
            }
            (all, dead_bytes)
        }
    }

    #[test]
    fn the_parents_recovery_reads_what_this_store_writes() {
        for (name, hash) in HASHES {
            prop_check!(cases = 8, |rng| {
                let dir = temp_dir("format");
                let s = MetaStore::open_hashed(
                    &dir,
                    MetaStoreOptions {
                        segment_max_bytes: 900,
                        compact_garbage_ratio: 0.55,
                        // The reference picks shards with the shipped hash;
                        // one shard keeps every hash in agreement with it.
                        shards: 1,
                        ..MetaStoreOptions::default()
                    },
                    hash,
                )
                .unwrap();
                for _ in 0..gen::usize_in(rng, 50..400) {
                    let key = format!("key-{}", gen::usize_in(rng, 0..40)).into_bytes();
                    if rng.chance(0.2) {
                        s.delete(&key).unwrap();
                    } else {
                        s.put(&key, &gen::byte_vec(rng, 0..80)).unwrap();
                    }
                }
                if rng.chance(0.5) {
                    s.compact().unwrap();
                    s.put(b"after", b"the snapshot").unwrap();
                }
                s.sync().unwrap();
                let (held, dead_bytes) = parent::replay(&dir);
                assert_eq!(contents(&s), held.into_iter().collect::<Vec<_>>(), "{name}");
                assert_eq!(s.stats().dead_bytes, dead_bytes, "{name}");
                drop(s);
                fs::remove_dir_all(&dir).ok();
            });
        }
    }

    #[test]
    fn debug_format_mentions_shards() {
        let dir = temp_dir("dbg");
        let s = MetaStore::open(&dir).unwrap();
        let text = format!("{s:?}");
        assert!(text.contains("shards"), "{text}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let mut rng = SimRng::new(42);
        for _ in 0..200 {
            let key = gen::byte_vec(&mut rng, 0..40);
            for count in [1usize, 2, 8, 64] {
                let a = MetaStore::shard_of(&key, count);
                assert!(a < count);
                assert_eq!(a, MetaStore::shard_of(&key, count), "deterministic");
            }
        }
    }
}

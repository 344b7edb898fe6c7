//! The metadata store proper: hash-sharded segment chains, snapshots, and
//! O(delta) recovery.
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
//! * `metastore.index` — the shard's read index. `get`/`contains`/
//!   `scan_prefix` take only this lock, so reads never wait on an
//!   in-flight append; writers update it briefly after their records are
//!   durable.
//!
//! ## The index is a locator table
//!
//! Keys and values live only in the log. What a shard keeps in memory per
//! live key is one slot of a hash table: the 64-bit key hash (the one the
//! shard pick already computed) and a [`Locator`] — which file, at what
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
//! * **Acknowledged means visible.** Appends are buffered as before (8
//!   KiB, the discipline of the `BufWriter` this replaces, so files grow on
//!   disk exactly as they did); the buffer sits under the index lock, and
//!   a read of a record that has not reached its file yet is served from
//!   it.
//! * **Dead bytes** are counted from the locator's length, which is
//!   [`encoded_record_len`] of the record it names — the same number on
//!   the live path and on replay, so compaction triggers where it always
//!   did.
//! * **Order.** [`MetaStore::for_each`] and the snapshots compaction
//!   writes are in *log order*: shard by shard, each shard's live records
//!   by their last write, oldest first. [`MetaStore::scan_prefix`] sorts
//!   what it collects by key. Nothing is ever produced in table order.
//! * One open file handle per live segment and snapshot serves the reads.
//!
//! ## Durability
//!
//! Without `sync_every_append` a record is durable once
//! [`MetaStore::sync`] returns. With it, an operation acknowledges **only
//! after its record is fsynced**, including a `put` that rewrites an
//! identical value (the record is still appended; durability is not
//! elided). [`MetaStore::put_many`] commits each shard's records as one
//! batch with one fsync.
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

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_support::collections::{fx_hash_one, FxHashMap};
use tiera_support::sync::{rank, Mutex, RwLock};

use crate::kill::{KillPoints, KillSite};
use crate::log::{
    encode_frame, encoded_record_len, header_lens, parse_frame, seal_count, Frame, LogReader,
    LogWriter, Record, RecordKind, CRC_LEN, HEADER, MAX_RECORD,
};

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

/// One mutation on its way into the log: borrowed parts, and the key hash
/// the shard pick computed.
#[derive(Clone, Copy)]
struct Op<'a> {
    kind: RecordKind,
    hash: u64,
    key: &'a [u8],
    value: &'a [u8],
}

impl Op<'_> {
    fn encoded_len(&self) -> u64 {
        encoded_record_len(self.key.len(), self.value.len())
    }
}

/// Where a live record sits in its shard's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Locator {
    /// Where the frame starts in its file.
    offset: u64,
    /// The segment or snapshot number (a shard numbers both in one series).
    file: u32,
    /// The frame's length: [`encoded_record_len`] of the record, which is
    /// what turns into dead bytes when the record is superseded.
    len: u32,
}

// A frame is a header and at most `MAX_RECORD` bytes, so its length fits.
const _: () = assert!(MAX_RECORD + HEADER <= u32::MAX as usize);

/// A file's number as locators carry it.
fn file_no(n: u64) -> Result<u32, MetaStoreError> {
    u32::try_from(n).map_err(|_| {
        MetaStoreError::Config(format!("segment number {n} is beyond what a locator addresses"))
    })
}

/// An open log file that locators may point into.
struct LogFile {
    no: u32,
    file: Arc<File>,
}

/// Which of the index's two maps holds (or would hold) a key's locator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// The hash table: the slot for the key's hash is this key's, or free.
    Table,
    /// The exact-key map: another live key owns the slot for this hash.
    Overflow,
}

/// Where a key's locator lives, and the locator if the key is present.
#[derive(Clone, Copy)]
struct Slot {
    home: Home,
    current: Option<Locator>,
}

/// The active segment's write buffer holds this much, as the `BufWriter`
/// it replaces did.
const TAIL_CAP: usize = 8 * 1024;

/// One shard's read index (see the module docs): the locator table, the
/// files its locators point into, and the bytes of the active segment that
/// have not been written to its file yet.
struct Index {
    table: FxHashMap<u64, Locator>,
    overflow: BTreeMap<Vec<u8>, Locator>,
    /// Ascending by number: the newest snapshot if any, the sealed
    /// segments, and last the active segment.
    files: Vec<LogFile>,
    /// Accepted into the active segment, not yet written to its file.
    tail: Vec<u8>,
    /// Where `tail[0]` belongs in the active segment: the length of what
    /// the file holds.
    tail_start: u64,
}

fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Index {
    /// An index to replay a shard's files into: no tail, so every byte is
    /// looked for in the files.
    fn recovering() -> Self {
        Self {
            table: FxHashMap::default(),
            overflow: BTreeMap::new(),
            files: Vec::new(),
            tail: Vec::with_capacity(TAIL_CAP),
            tail_start: u64::MAX,
        }
    }

    fn live(&self) -> usize {
        self.table.len() + self.overflow.len()
    }

    fn file(&self, no: u32) -> io::Result<&Arc<File>> {
        self.files
            .binary_search_by_key(&no, |f| f.no)
            .map(|at| &self.files[at].file)
            .map_err(|_| corrupt(format!("a locator names file {no}, which the shard does not hold")))
    }

    /// Fills `buf` with the first bytes of the record at `loc`: from its
    /// file, from the tail, or — a frame whose crc was flushed ahead of
    /// its body — from both.
    fn read_exact(&self, loc: Locator, buf: &mut [u8]) -> io::Result<()> {
        let active = self.files.last().map(|f| f.no);
        let in_file = if Some(loc.file) == active {
            self.tail_start.saturating_sub(loc.offset).min(buf.len() as u64) as usize
        } else {
            buf.len()
        };
        let (head, rest) = buf.split_at_mut(in_file);
        if !head.is_empty() {
            read_exact_at(self.file(loc.file)?, head, loc.offset)?;
        }
        if !rest.is_empty() {
            let from = (loc.offset + in_file as u64 - self.tail_start) as usize;
            let held = self.tail.get(from..from + rest.len()).ok_or_else(|| {
                corrupt(format!("a locator reaches past the end of segment {}", loc.file))
            })?;
            rest.copy_from_slice(held);
        }
        Ok(())
    }

    /// Whether the record at `loc` is `key`'s: the read that confirms a
    /// hash hit.
    fn key_at(&self, loc: Locator, key: &[u8]) -> io::Result<bool> {
        let want = HEADER + key.len();
        if (loc.len as usize) < want {
            return Ok(false);
        }
        let mut inline = [0u8; 256];
        let mut spilled = Vec::new();
        let buf = match inline.get_mut(..want) {
            Some(buf) => buf,
            None => {
                spilled.resize(want, 0);
                &mut spilled[..]
            }
        };
        self.read_exact(loc, buf)?;
        Ok(header_lens(buf).is_some_and(|(klen, _)| klen == key.len()) && buf.get(HEADER..) == Some(key))
    }

    /// Where `key`'s locator lives and what it is now.
    fn slot(&self, hash: u64, key: &[u8]) -> io::Result<Slot> {
        if let Some(loc) = self.overflow.get(key) {
            return Ok(Slot { home: Home::Overflow, current: Some(*loc) });
        }
        Ok(match self.table.get(&hash) {
            None => Slot { home: Home::Table, current: None },
            Some(loc) if self.key_at(*loc, key)? => Slot { home: Home::Table, current: Some(*loc) },
            Some(_) => Slot { home: Home::Overflow, current: None },
        })
    }

    /// Applies one log record, now at `loc`, with exact dead-byte
    /// accounting — the single routine shared by segment replay and the
    /// live write path, so compaction-trigger math is identical whether
    /// the store was just opened or long-running. `slot` is what
    /// [`slot`](Self::slot) returned for the key with the index as it is.
    /// Returns whether the key was present (a put makes it so).
    fn apply(
        &mut self,
        slot: Slot,
        kind: RecordKind,
        hash: u64,
        key: &[u8],
        loc: Locator,
        dead_bytes: &mut u64,
    ) -> bool {
        match kind {
            RecordKind::Put => {
                match slot.home {
                    Home::Table => {
                        self.table.insert(hash, loc);
                    }
                    Home::Overflow => match self.overflow.get_mut(key) {
                        Some(held) => *held = loc,
                        None => {
                            self.overflow.insert(key.to_vec(), loc);
                        }
                    },
                }
                *dead_bytes += slot.current.map_or(0, |old| u64::from(old.len));
                true
            }
            RecordKind::Delete => {
                if slot.current.is_some() {
                    match slot.home {
                        Home::Table => self.table.remove(&hash),
                        Home::Overflow => self.overflow.remove(key),
                    };
                }
                *dead_bytes += slot.current.map_or(0, |old| u64::from(old.len));
                // The tombstone itself is dead weight the moment it lands.
                *dead_bytes += encoded_record_len(key.len(), 0);
                slot.current.is_some()
            }
            // Seal records only belong in snapshots; tolerate one in a
            // segment rather than halting replay.
            RecordKind::Seal => false,
        }
    }

    /// Which map holds `loc` as `key`'s locator, if the record there is
    /// live. Exact without reading the key: a locator is a position, and
    /// no two records share one.
    fn home_of(&self, hash: u64, key: &[u8], loc: Locator) -> Option<Home> {
        if self.table.get(&hash) == Some(&loc) {
            Some(Home::Table)
        } else if self.overflow.get(key) == Some(&loc) {
            Some(Home::Overflow)
        } else {
            None
        }
    }

    /// `key`'s value, read from the log.
    fn value_of(&self, hash: u64, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let Some(loc) = self.overflow.get(key).or_else(|| self.table.get(&hash)) else {
            return Ok(None);
        };
        let mut raw = vec![0; loc.len as usize];
        self.read_exact(*loc, &mut raw)?;
        let held = parse_frame(&raw, loc.offset)
            .ok_or_else(|| corrupt(format!("the record at {loc:?} does not verify")))?
            .key;
        if held != key {
            return Ok(None);
        }
        raw.drain(..HEADER + key.len());
        Ok(Some(raw))
    }

    /// Replays file `no` (already in `files`) into the index. A segment
    /// yields its valid length. A snapshot yields its length only when it
    /// is whole — puts, then a seal whose count is the entries loaded —
    /// and `None` when it is torn or malformed and recovery should fall
    /// back.
    fn replay(
        &mut self,
        no: u32,
        key_hash: KeyHash,
        dead_bytes: &mut u64,
        snapshot: bool,
    ) -> io::Result<Option<u64>> {
        let file = Arc::clone(self.file(no)?);
        let mut log = LogReader::over(ReadAt::new(&file, u64::MAX));
        while let Some(frame) = log.next_frame()? {
            match frame.kind {
                RecordKind::Seal if snapshot => {
                    let whole = seal_count(frame.value) == Some(self.live() as u64);
                    return Ok(whole.then_some(log.valid_len));
                }
                RecordKind::Delete if snapshot => return Ok(None),
                kind => {
                    let loc = Locator {
                        offset: frame.offset,
                        file: no,
                        len: frame.raw.len() as u32,
                    };
                    let hash = key_hash(frame.key);
                    let slot = self.slot(hash, frame.key)?;
                    self.apply(slot, kind, hash, frame.key, loc, dead_bytes);
                }
            }
        }
        // A snapshot that ends before its seal is torn.
        Ok((!snapshot).then_some(log.valid_len))
    }

    /// Visits every live record in log order (file by file, each front to
    /// back, the tail last) with its key hash and the map its locator is
    /// in.
    fn walk(
        &self,
        key_hash: KeyHash,
        mut visit: impl FnMut(&Frame<'_>, u64, Home) -> Result<(), MetaStoreError>,
    ) -> Result<(), MetaStoreError> {
        let active = self.files.last().map(|f| f.no);
        for log_file in &self.files {
            // What the active segment's file does not hold yet, the tail does.
            let (end, tail) = if Some(log_file.no) == active {
                (self.tail_start, &self.tail[..])
            } else {
                (u64::MAX, &[][..])
            };
            let mut log = LogReader::over(ReadAt::new(&log_file.file, end).chain(tail));
            while let Some(frame) = log.next_frame()? {
                if frame.kind != RecordKind::Put {
                    continue;
                }
                let loc = Locator {
                    offset: frame.offset,
                    file: log_file.no,
                    len: frame.raw.len() as u32,
                };
                let hash = key_hash(frame.key);
                if let Some(home) = self.home_of(hash, frame.key, loc) {
                    visit(&frame, hash, home)?;
                }
            }
        }
        Ok(())
    }

    /// Bytes of memory the table and the overflow map hold.
    fn heap_bytes(&self) -> u64 {
        // std's table: a power of two of buckets, filled to 7/8, one
        // control byte beside each.
        let buckets = match self.table.capacity() {
            0 => 0,
            cap => (cap * 8 / 7).next_power_of_two(),
        };
        let table = buckets * (std::mem::size_of::<(u64, Locator)>() + 1);
        let overflow: usize = self
            .overflow
            .keys()
            .map(|k| k.len() + std::mem::size_of::<(Vec<u8>, Locator)>())
            .sum();
        (table + overflow) as u64
    }
}

#[cfg(unix)]
use std::os::unix::fs::FileExt;
#[cfg(windows)]
use std::os::windows::fs::FileExt;

/// One positional read: the handle's own cursor is neither used nor moved,
/// so readers share a handle.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    #[cfg(unix)]
    return file.read_at(buf, offset);
    #[cfg(windows)]
    return file.seek_read(buf, offset);
}

fn write_at(file: &File, buf: &[u8], offset: u64) -> io::Result<usize> {
    #[cfg(unix)]
    return file.write_at(buf, offset);
    #[cfg(windows)]
    return file.seek_write(buf, offset);
}

fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    while !buf.is_empty() {
        match read_at(file, buf, offset) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes all of `buf` at `offset`. Writing the same bytes to the same
/// place again is harmless, so a failed flush can simply be retried.
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> io::Result<()> {
    while !buf.is_empty() {
        match write_at(file, buf, offset) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf = &buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads a shared file handle front to back, up to `end`.
struct ReadAt<'a> {
    file: &'a File,
    pos: u64,
    end: u64,
}

impl<'a> ReadAt<'a> {
    fn new(file: &'a File, end: u64) -> Self {
        Self { file, pos: 0, end }
    }
}

impl Read for ReadAt<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = (self.end - self.pos).min(buf.len() as u64) as usize;
        let n = read_at(self.file, &mut buf[..want], self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Per-shard durability state, guarded by the `metastore.commit` lock.
struct CommitState {
    /// The active segment; the index's last file is the same handle.
    active: Arc<File>,
    active_seg: u64,
    /// Bytes accepted into the active segment: what its file holds plus
    /// the index's tail.
    len: u64,
    /// How much of `len` the file holds (the index's `tail_start`).
    flushed_len: u64,
    /// How much of `len` is known to have reached stable storage.
    synced_len: u64,
    /// A refused write may have left frames past `flushed_len`, and cutting
    /// them off failed too. Until a cut succeeds, no write and no sync may:
    /// a later, shorter write would leave them to be replayed after it.
    cut_owed: bool,
    /// The batch being committed, framed; reused from commit to commit.
    staging: Vec<u8>,
    sealed_bytes: u64,
    dead_bytes: u64,
    /// Live segment numbers (ascending; the last is active).
    segments: Vec<u64>,
    /// Newest snapshot `(number, bytes)`, if any.
    snapshot: Option<(u64, u64)>,
    compactions: u64,
    fsyncs: u64,
}

impl CommitState {
    /// Whether a sync has work: accepted bytes not yet on stable storage,
    /// or an owed cut.
    fn unsynced(&self) -> bool {
        self.len > self.synced_len || self.cut_owed
    }

    /// Room left in the tail.
    fn spare(&self) -> usize {
        TAIL_CAP.saturating_sub((self.len - self.flushed_len) as usize)
    }

    /// Makes `file`, empty, the active segment.
    fn activate(&mut self, seg: u64, file: &Arc<File>) {
        self.active = Arc::clone(file);
        self.active_seg = seg;
        self.len = 0;
        self.flushed_len = 0;
        self.synced_len = 0;
    }
}

/// One hash shard: its own log chain and read index.
struct Shard {
    id: usize,
    commit: Mutex<CommitState>,
    index: RwLock<Index>,
}

impl Shard {
    /// Writes the tail to the active segment's file. Readers are not held
    /// up and never lose sight of the bytes: the write runs under the
    /// index *read* lock, and the tail is emptied, under the write lock,
    /// only once the file holds it.
    fn flush_tail(&self, c: &mut CommitState) -> io::Result<()> {
        if c.cut_owed {
            c.active.set_len(c.flushed_len)?;
            c.cut_owed = false;
        }
        if c.len == c.flushed_len {
            return Ok(());
        }
        {
            let idx = self.index.read();
            write_all_at(&c.active, &idx.tail, c.flushed_len)?;
        }
        let mut idx = self.index.write();
        idx.tail.clear();
        idx.tail_start = c.len;
        c.flushed_len = c.len;
        Ok(())
    }

    /// Appends `bytes` to the active segment's file, behind everything
    /// accepted before them.
    fn write_through(&self, c: &mut CommitState, bytes: &[u8]) -> io::Result<()> {
        self.flush_tail(c)?;
        if let Err(e) = write_all_at(&c.active, bytes, c.len) {
            // Whole frames of the refused batch may have landed. Cut them
            // off, or a later batch that happens to end where one of them
            // starts would be followed, at replay, by records older than it.
            // A cut that fails is owed: `flush_tail`, which every later
            // write and sync goes through, makes it first.
            c.cut_owed = c.active.set_len(c.len).is_err();
            return Err(e);
        }
        c.len += bytes.len() as u64;
        c.flushed_len = c.len;
        let mut idx = self.index.write();
        idx.tail_start = c.len;
        Ok(())
    }

    /// Accepts one piece of a frame into the active segment the way a
    /// `BufWriter` of [`TAIL_CAP`] bytes accepts one `write_all`: flushing
    /// first if the piece does not fit in what is left, passing a piece
    /// that would fill the buffer straight through.
    fn accept(&self, c: &mut CommitState, piece: &[u8]) -> io::Result<()> {
        if piece.len() >= TAIL_CAP {
            return self.write_through(c, piece);
        }
        if piece.len() > c.spare() {
            self.flush_tail(c)?;
        }
        let mut idx = self.index.write();
        idx.tail.extend_from_slice(piece);
        c.len += piece.len() as u64;
        Ok(())
    }

    /// Takes back the crc of a frame whose body was then refused, so that
    /// the next frame does not follow half of one.
    fn retract_crc(&self, c: &mut CommitState) {
        let mut idx = self.index.write();
        let keep = idx.tail.len().saturating_sub(CRC_LEN);
        idx.tail.truncate(keep);
        c.len -= CRC_LEN as u64;
        if c.flushed_len > c.len {
            // It had reached the file; the next write lands on top of it.
            c.flushed_len = c.len;
            idx.tail_start = c.len;
        }
    }

    /// Flushes and fsyncs the active segment.
    fn sync_active(&self, c: &mut CommitState) -> io::Result<()> {
        self.flush_tail(c)?;
        c.active.sync_data()?;
        c.synced_len = c.len;
        c.fsyncs += 1;
        Ok(())
    }
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

const META_FILE: &str = "metastore.meta";

fn seg_path(dir: &Path, shard: usize, n: u64) -> PathBuf {
    dir.join(format!("s{shard:02}-seg-{n:010}.log"))
}

fn snap_path(dir: &Path, shard: usize, n: u64) -> PathBuf {
    dir.join(format!("s{shard:02}-snap-{n:010}.log"))
}

fn snap_tmp_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("s{shard:02}-snap.tmp"))
}

/// fsyncs the directory itself, making renames and file creations durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Opens (creating it if need be) segment `n` for appending and reading.
fn open_segment(dir: &Path, shard: usize, n: u64) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(seg_path(dir, shard, n))
}

/// Creates segment `n`, empty, and makes its directory entry durable.
fn create_segment(dir: &Path, shard: usize, n: u64) -> io::Result<Arc<File>> {
    let file = open_segment(dir, shard, n)?;
    file.set_len(0)?;
    sync_dir(dir)?;
    Ok(Arc::new(file))
}

/// Removes a file that is no longer part of the store; returns how many
/// removals failed (0 or 1). A file already gone is the goal reached. Any
/// other failure leaves debris that the next open finds and removes again,
/// so it is counted ([`Stats::cleanup_failures`]), not returned.
fn remove_debris(path: &Path) -> u64 {
    match fs::remove_file(path) {
        Ok(()) => 0,
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(_) => 1,
    }
}

/// A directory entry the scanner recognized.
enum ScanFile {
    Seg(usize, u64),
    Snap(usize, u64),
    SnapTmp(PathBuf),
}

fn parse_name(path: &Path) -> Result<Option<ScanFile>, MetaStoreError> {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Ok(None);
    };
    if name == META_FILE {
        return Ok(None);
    }
    if let Some(rest) = name.strip_prefix('s') {
        // sNN-seg-XXXXXXXXXX.log | sNN-snap-XXXXXXXXXX.log | sNN-snap.tmp
        if let Some((shard, tail)) = rest.split_once('-') {
            if let Ok(shard) = shard.parse::<usize>() {
                if tail == "snap.tmp" {
                    return Ok(Some(ScanFile::SnapTmp(path.to_path_buf())));
                }
                for (prefix, seg) in [("seg-", true), ("snap-", false)] {
                    if let Some(num) = tail
                        .strip_prefix(prefix)
                        .and_then(|t| t.strip_suffix(".log"))
                    {
                        if let Ok(n) = num.parse::<u64>() {
                            return Ok(Some(if seg {
                                ScanFile::Seg(shard, n)
                            } else {
                                ScanFile::Snap(shard, n)
                            }));
                        }
                    }
                }
            }
        }
    }
    if path.extension().map(|e| e == "log").unwrap_or(false) {
        return Err(MetaStoreError::BadSegmentName(path.to_path_buf()));
    }
    Ok(None)
}

/// Segment and snapshot numbers belonging to one shard.
#[derive(Default, Clone)]
struct ShardFiles {
    segs: Vec<u64>,
    snaps: Vec<u64>,
}

fn read_meta(dir: &Path) -> Result<Option<usize>, MetaStoreError> {
    let path = dir.join(META_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    for line in text.lines() {
        if let Some(n) = line.strip_prefix("shards=") {
            if let Ok(n) = n.trim().parse::<usize>() {
                if valid_shard_count(n) {
                    return Ok(Some(n));
                }
            }
        }
    }
    Err(MetaStoreError::Config(format!(
        "unreadable meta file {}",
        path.display()
    )))
}

fn write_meta(dir: &Path, shards: usize) -> Result<(), MetaStoreError> {
    use io::Write as _;
    let mut f = File::create(dir.join(META_FILE))?;
    writeln!(f, "shards={shards}")?;
    f.sync_all()?;
    sync_dir(dir)?;
    Ok(())
}

fn valid_shard_count(n: usize) -> bool {
    n.is_power_of_two() && (1..=64).contains(&n)
}

/// What recovering one shard yields: its durability state, its index, and
/// how many pieces of crash debris could not be removed.
type Recovered = (CommitState, Index, u64);

/// Recovers one shard: newest valid snapshot + suffix-segment replay,
/// deleting crash debris (stale snapshots, covered segments) as it goes.
fn recover_shard(
    dir: &Path,
    id: usize,
    files: &ShardFiles,
    hash: KeyHash,
) -> Result<Recovered, MetaStoreError> {
    let mut snaps = files.snaps.clone();
    snaps.sort_unstable();
    let mut idx = Index::recovering();
    let mut snapshot = None;
    for &n in snaps.iter().rev() {
        let file = match File::open(snap_path(dir, id, n)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        let no = file_no(n)?;
        idx.files.push(LogFile { no, file: Arc::new(file) });
        if let Some(bytes) = idx.replay(no, hash, &mut 0, true)? {
            snapshot = Some((n, bytes));
            break;
        }
        idx = Index::recovering();
    }
    let floor = snapshot.map(|(n, _)| n);
    let mut cleanup_failures = 0;
    for &n in snaps.iter().filter(|&&n| Some(n) != floor) {
        cleanup_failures += remove_debris(&snap_path(dir, id, n));
    }
    let mut segs: Vec<u64> = files.segs.clone();
    segs.sort_unstable();
    if let Some(f) = floor {
        for &n in segs.iter().filter(|&&n| n <= f) {
            cleanup_failures += remove_debris(&seg_path(dir, id, n));
        }
        segs.retain(|&n| n > f);
    }
    if segs.is_empty() {
        segs.push(floor.map_or(0, |f| f + 1));
    }
    let active_seg = *segs.last().expect("at least the active segment");
    let mut sealed_bytes = 0u64;
    let mut dead_bytes = 0u64;
    let mut last_valid = 0u64;
    for &n in &segs {
        let file = if n == active_seg {
            open_segment(dir, id, n)?
        } else {
            File::open(seg_path(dir, id, n))?
        };
        let no = file_no(n)?;
        idx.files.push(LogFile { no, file: Arc::new(file) });
        let valid = idx
            .replay(no, hash, &mut dead_bytes, false)?
            .expect("a segment always yields its valid length");
        if n == active_seg {
            last_valid = valid;
        } else {
            sealed_bytes += valid;
        }
    }
    let active = Arc::clone(&idx.files.last().expect("the active segment").file);
    // Anything beyond the last whole record is a torn tail.
    active.set_len(last_valid)?;
    idx.tail_start = last_valid;
    Ok((
        CommitState {
            active,
            active_seg,
            len: last_valid,
            flushed_len: last_valid,
            // Pre-existing bytes came from a previous process life, so as
            // far as *this* process's crash image is concerned they are
            // already on disk.
            synced_len: last_valid,
            cut_owed: false,
            staging: Vec::new(),
            sealed_bytes,
            dead_bytes,
            segments: segs,
            snapshot,
            compactions: 0,
            fsyncs: 0,
        },
        idx,
        cleanup_failures,
    ))
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

    /// [`open_with`](Self::open_with), with the key hash a parameter: the
    /// seam through which tests make every key collide.
    fn open_hashed(
        dir: &Path,
        opts: MetaStoreOptions,
        hash: KeyHash,
    ) -> Result<Self, MetaStoreError> {
        let dir = dir.to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut tmps: Vec<PathBuf> = Vec::new();
        let mut seen: Vec<ScanFile> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            match parse_name(&path)? {
                Some(ScanFile::SnapTmp(p)) => tmps.push(p),
                Some(f) => seen.push(f),
                None => {}
            }
        }

        let shard_count = match read_meta(&dir)? {
            Some(n) => n,
            None => {
                if !seen.is_empty() {
                    return Err(MetaStoreError::Config(format!(
                        "sharded files present but {META_FILE} is missing in {}",
                        dir.display()
                    )));
                }
                if !valid_shard_count(opts.shards) {
                    return Err(MetaStoreError::Config(format!(
                        "shard count must be a power of two in 1..=64, got {}",
                        opts.shards
                    )));
                }
                write_meta(&dir, opts.shards)?;
                opts.shards
            }
        };

        // A crash mid-snapshot leaves its temp file behind; it was never
        // renamed, so it is not part of the store.
        let mut cleanup_failures: u64 = tmps.iter().map(|tmp| remove_debris(tmp)).sum();

        let mut per_shard = vec![ShardFiles::default(); shard_count];
        for f in seen {
            let (shard, n, is_seg) = match f {
                ScanFile::Seg(s, n) => (s, n, true),
                ScanFile::Snap(s, n) => (s, n, false),
                ScanFile::SnapTmp(_) => unreachable!("routed above"),
            };
            if shard >= shard_count {
                return Err(MetaStoreError::Config(format!(
                    "file for shard {shard} but the store has {shard_count} shards"
                )));
            }
            if is_seg {
                per_shard[shard].segs.push(n);
            } else {
                per_shard[shard].snaps.push(n);
            }
        }

        // Recover shards in parallel across threads.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(shard_count)
            .max(1);
        let chunk = shard_count.div_ceil(workers);
        let mut slots: Vec<Option<Result<Recovered, MetaStoreError>>> =
            (0..shard_count).map(|_| None).collect();
        {
            let dir = &dir;
            let per_shard = &per_shard;
            std::thread::scope(|scope| {
                for (c, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                    scope.spawn(move || {
                        for (off, slot) in slot_chunk.iter_mut().enumerate() {
                            let id = c * chunk + off;
                            *slot = Some(recover_shard(dir, id, &per_shard[id], hash));
                        }
                    });
                }
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        for (id, slot) in slots.into_iter().enumerate() {
            let (commit, index, unremoved) = slot.expect("every shard recovered")?;
            cleanup_failures += unremoved;
            shards.push(Shard {
                id,
                commit: Mutex::named("metastore.commit", rank::METASTORE_COMMIT, commit),
                index: RwLock::named("metastore.index", rank::METASTORE_INDEX, index),
            });
        }
        sync_dir(&dir)?;

        Ok(Self {
            dir,
            shards,
            opts,
            kill: Arc::new(KillPoints::new()),
            hash,
            cleanup_failures: AtomicU64::new(cleanup_failures),
        })
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

    /// This store's shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `key`'s shard and its hash — the shard pick and the table slot are
    /// one computation.
    fn locate(&self, key: &[u8]) -> (&Shard, u64) {
        let hash = (self.hash)(key);
        (&self.shards[shard_index(hash, self.shards.len())], hash)
    }

    /// A put of these parts as the commit path takes it, or why they
    /// cannot be framed.
    fn put_op<'a>(hash: u64, key: &'a [u8], value: &'a [u8]) -> Result<Op<'a>, MetaStoreError> {
        if key.len().saturating_add(value.len()) > MAX_RECORD {
            return Err(MetaStoreError::Config(format!(
                "a record of {} + {} bytes is beyond the {MAX_RECORD} a frame holds",
                key.len(),
                value.len()
            )));
        }
        Ok(Op { kind: RecordKind::Put, hash, key, value })
    }

    /// Inserts or overwrites a key. Under `sync` durability the call
    /// acknowledges only after the record is fsynced — even when the value
    /// is identical to the current one (the record is still appended).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MetaStoreError> {
        let (shard, hash) = self.locate(key);
        self.mutate(shard, Self::put_op(hash, key, value)?).map(|_| ())
    }

    /// Inserts a batch of pairs, partitioned across shards; each shard's
    /// records commit as **one** batch (a single fsync under `sync`
    /// durability), in the given order.
    pub fn put_many(&self, items: &[(&[u8], &[u8])]) -> Result<(), MetaStoreError> {
        let mut per_shard: Vec<Vec<Op<'_>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (k, v) in items {
            let hash = (self.hash)(k);
            per_shard[shard_index(hash, self.shards.len())].push(Self::put_op(hash, k, v)?);
        }
        for (shard, ops) in self.shards.iter().zip(&per_shard) {
            if ops.is_empty() {
                continue;
            }
            let mut c = shard.commit.lock();
            self.commit(shard, &mut c, ops, |_, _| {})?;
            self.maybe_rotate(shard, &mut c)?;
        }
        Ok(())
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
        if !self.present(shard, hash, key)? {
            return Ok(false);
        }
        self.mutate(shard, Op { kind: RecordKind::Delete, hash, key, value: &[] })
    }

    fn present(&self, shard: &Shard, hash: u64, key: &[u8]) -> Result<bool, MetaStoreError> {
        let idx = shard.index.read();
        Ok(idx.slot(hash, key)?.current.is_some())
    }

    /// Commits one record on the calling thread (fsynced before it returns
    /// under `sync_every_append`); returns whether its key was present.
    fn mutate(&self, shard: &Shard, op: Op<'_>) -> Result<bool, MetaStoreError> {
        let mut c = shard.commit.lock();
        let mut existed = false;
        self.commit(shard, &mut c, &[op], |_, was| existed = was)?;
        self.maybe_rotate(shard, &mut c)?;
        Ok(existed)
    }

    /// Appends `ops` to the shard log (caller holds the commit lock),
    /// fsyncs under `sync_every_append`, then applies the index updates,
    /// reporting to `applied` for each whether its key was present. On
    /// failure nothing further is applied — though bytes already accepted
    /// may still become durable later, the usual "failed write may yet have
    /// happened" storage semantics.
    fn commit(
        &self,
        shard: &Shard,
        c: &mut CommitState,
        ops: &[Op<'_>],
        applied: impl FnMut(usize, bool),
    ) -> Result<(), MetaStoreError> {
        let mut staging = std::mem::take(&mut c.staging);
        let result = self.commit_framed(shard, c, ops, &mut staging, applied);
        c.staging = staging;
        result
    }

    /// [`commit`](Self::commit), framing into `staging` (the commit
    /// state's own buffer, lent out so that the state can be borrowed
    /// beside it).
    fn commit_framed(
        &self,
        shard: &Shard,
        c: &mut CommitState,
        ops: &[Op<'_>],
        staging: &mut Vec<u8>,
        mut applied: impl FnMut(usize, bool),
    ) -> Result<(), MetaStoreError> {
        let Some(first) = ops.first() else {
            return Ok(());
        };
        staging.clear();
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                self.kill.check(KillSite::BatchMidAppend)?;
            }
            encode_frame(staging, op.kind, op.key, op.value);
        }
        let file = file_no(c.active_seg)?;
        // The first record's slot cannot depend on this batch: settle it
        // (the read that confirms a hash hit) before anything is accepted.
        let mut slot = {
            let idx = shard.index.read();
            idx.slot(first.hash, first.key)?
        };

        // The bytes. `held_back` is what the first index update below
        // still has to put in the tail.
        let mut at = c.len;
        let mut held_back: &[u8] = &[];
        if self.opts.sync_every_append {
            self.kill.check(KillSite::BatchBeforeSync)?;
            shard.write_through(c, staging)?;
            shard.sync_active(c)?;
            self.kill.check(KillSite::BatchAfterSync)?;
        } else if staging.len() < c.spare() {
            // Every piece fits with room to spare: no flush falls inside
            // this batch, and its bytes can appear with its first locator.
            held_back = staging;
        } else {
            // Frame by frame, crc then body — the two writes per record
            // whose flush points files on disk have always followed.
            let mut rest = &staging[..];
            for op in ops {
                let (frame, after) = rest.split_at(op.encoded_len() as usize);
                let (crc, body) = frame.split_at(CRC_LEN);
                shard.accept(c, crc)?;
                if let Err(e) = shard.accept(c, body) {
                    shard.retract_crc(c);
                    return Err(e.into());
                }
                rest = after;
            }
        }

        // The index.
        for (i, op) in ops.iter().enumerate() {
            let len = op.encoded_len();
            let loc = Locator { offset: at, file, len: len as u32 };
            at += len;
            if i > 0 {
                let idx = shard.index.read();
                slot = idx.slot(op.hash, op.key)?;
            }
            let mut idx = shard.index.write();
            if !held_back.is_empty() {
                idx.tail.extend_from_slice(held_back);
                c.len += held_back.len() as u64;
                held_back = &[];
            }
            applied(i, idx.apply(slot, op.kind, op.hash, op.key, loc, &mut c.dead_bytes));
        }
        Ok(())
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
        idx.value_of(hash, key)
            .unwrap_or_else(|e| panic!("metastore: reading {:?}: {e}", self.dir))
    }

    /// Whether the key exists (index lock only; a hash hit reads the
    /// record's key).
    ///
    /// # Panics
    ///
    /// If the log cannot be read.
    pub fn contains(&self, key: &[u8]) -> bool {
        let (shard, hash) = self.locate(key);
        self.present(shard, hash, key)
            .unwrap_or_else(|e| panic!("metastore: reading {:?}: {e}", self.dir))
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

    /// Returns keys with the given prefix, merged across shards in sorted
    /// order (deterministic: keys are unique across shards). Reads every
    /// shard's log through.
    ///
    /// # Panics
    ///
    /// If the log cannot be read.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut hits = Vec::new();
        self.for_each(|k, v| {
            if k.starts_with(prefix) {
                hits.push((k.to_vec(), v.to_vec()));
            }
        })
        .unwrap_or_else(|e| panic!("metastore: reading {:?}: {e}", self.dir));
        hits.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        hits
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let idx = s.index.read();
                idx.live()
            })
            .sum()
    }

    /// Whether the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    fn snapshot_shard(&self, shard: &Shard, c: &mut CommitState) -> Result<(), MetaStoreError> {
        // Everything applied to the index is in the log; make it durable
        // so the snapshot is a subset of synced history — and so that the
        // files hold all of it to copy from.
        if c.unsynced() {
            shard.sync_active(c)?;
        }
        let snap_num = c.active_seg + 1;
        let active = snap_num + 1;
        let (snap_no, active_no) = (file_no(snap_num)?, file_no(active)?);
        let tmp = snap_tmp_path(&self.dir, shard.id);
        // Where each live record lands in the snapshot.
        let mut moved: Vec<(u64, u64)> = Vec::new();
        let mut moved_overflow: Vec<(Vec<u8>, u64)> = Vec::new();
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(&tmp)?;
            let mut w = LogWriter::new(file, 0)?;
            let idx = shard.index.read();
            idx.walk(self.hash, |frame, hash, home| {
                if !(moved.is_empty() && moved_overflow.is_empty()) {
                    self.kill.check(KillSite::SnapMidWrite)?;
                }
                let at = w.append_frame(frame.raw)?;
                match home {
                    Home::Table => moved.push((hash, at)),
                    Home::Overflow => moved_overflow.push((frame.key.to_vec(), at)),
                }
                Ok(())
            })?;
            let count = moved.len() + moved_overflow.len();
            if count != idx.live() {
                // A record the index points at no longer reads back whole.
                // The temp file is debris; the store stands as it was.
                return Err(corrupt(format!(
                    "shard {}: the log yields {count} of {} live records",
                    shard.id,
                    idx.live()
                ))
                .into());
            }
            w.append(&Record::seal(count as u64))?;
            self.kill.check(KillSite::SnapBeforeSync)?;
            w.sync()?;
            c.fsyncs += 1;
        }
        // The rename moves the name, not the file: this handle reads the
        // snapshot from now on.
        let snap_file = Arc::new(File::open(&tmp)?);
        self.kill.check(KillSite::SnapBeforeRename)?;
        let final_path = snap_path(&self.dir, shard.id, snap_num);
        fs::rename(&tmp, &final_path)?;
        sync_dir(&self.dir)?;
        self.kill.check(KillSite::SnapAfterRename)?;
        // The snapshot is durable and committed; everything before it is
        // garbage.
        let old_segs = std::mem::take(&mut c.segments);
        for n in old_segs {
            self.note_debris(remove_debris(&seg_path(&self.dir, shard.id, n)));
        }
        if let Some((old_snap, _)) = c.snapshot {
            self.note_debris(remove_debris(&snap_path(&self.dir, shard.id, old_snap)));
        }
        self.kill.check(KillSite::SnapAfterCleanup)?;
        let snap_bytes = fs::metadata(&final_path)?.len();
        let file = create_segment(&self.dir, shard.id, active)?;
        c.snapshot = Some((snap_num, snap_bytes));
        c.segments = vec![active];
        c.sealed_bytes = 0;
        c.dead_bytes = 0;
        c.compactions += 1;
        c.activate(active, &file);
        // Repoint the locators; readers have been served from the retired
        // files, whose handles stay good until this drops them.
        let mut idx = shard.index.write();
        for (hash, at) in moved {
            let loc = idx.table.get_mut(&hash).expect("live under the commit lock");
            (loc.file, loc.offset) = (snap_no, at);
        }
        for (key, at) in moved_overflow {
            let loc = idx.overflow.get_mut(&key).expect("live under the commit lock");
            (loc.file, loc.offset) = (snap_no, at);
        }
        idx.files = vec![
            LogFile { no: snap_no, file: snap_file },
            LogFile { no: active_no, file },
        ];
        idx.tail_start = 0;
        Ok(())
    }

    fn maybe_rotate(&self, shard: &Shard, c: &mut CommitState) -> Result<(), MetaStoreError> {
        if c.len < self.opts.segment_max_bytes {
            return Ok(());
        }
        let snap_bytes = c.snapshot.map_or(0, |(_, b)| b);
        let total = snap_bytes + c.sealed_bytes + c.len;
        let garbage = c.dead_bytes as f64 / total.max(1) as f64;
        if garbage >= self.opts.compact_garbage_ratio {
            return self.snapshot_shard(shard, c);
        }
        // Seal the active segment and start a new one.
        self.kill.check(KillSite::RotateBeforeSealSync)?;
        shard.sync_active(c)?;
        self.kill.check(KillSite::RotateAfterSeal)?;
        c.sealed_bytes += c.len;
        let next = c.active_seg + 1;
        let no = file_no(next)?;
        let file = create_segment(&self.dir, shard.id, next)?;
        c.segments.push(next);
        c.activate(next, &file);
        let mut idx = shard.index.write();
        idx.files.push(LogFile { no, file });
        idx.tail_start = 0;
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
    /// Hands the OS what the write buffers hold, as dropping the
    /// `BufWriter`s they replace did. An error has nowhere to go from
    /// here; [`sync`](MetaStore::sync) is the call that reports one.
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
    use super::*;
    use tiera_support::prop::gen;
    use tiera_support::prop_check;
    use tiera_support::rng::SimRng;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "tiera-store-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn one_shard(dir: &Path) -> MetaStore {
        MetaStore::open_with(
            dir,
            MetaStoreOptions {
                shards: 1,
                ..MetaStoreOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn put_get_delete() {
        let dir = temp_dir("pgd");
        let s = MetaStore::open(&dir).unwrap();
        s.put(b"k1", b"v1").unwrap();
        s.put(b"k2", b"v2").unwrap();
        assert_eq!(s.get(b"k1"), Some(b"v1".to_vec()));
        assert!(s.contains(b"k2"));
        assert!(s.delete(b"k1").unwrap());
        assert!(!s.delete(b"k1").unwrap(), "double delete is false");
        assert_eq!(s.get(b"k1"), None);
        assert_eq!(s.len(), 1);
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
        assert_eq!(s.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_persists_across_reopen() {
        let dir = temp_dir("meta");
        {
            let s = MetaStore::open_with(
                &dir,
                MetaStoreOptions {
                    shards: 4,
                    ..MetaStoreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(s.shard_count(), 4);
            s.put(b"k", b"v").unwrap();
            s.sync().unwrap();
        }
        // Reopening with a different requested count uses the persisted one.
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                shards: 16,
                ..MetaStoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.get(b"k"), Some(b"v".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_shard_count_rejected() {
        let dir = temp_dir("badshards");
        let err = MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                shards: 3,
                ..MetaStoreOptions::default()
            },
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
        assert_eq!(s.len(), 256);
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
        assert_eq!(s.len(), 100);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_snapshots_and_preserves_data() {
        let dir = temp_dir("compact");
        let s = MetaStore::open(&dir).unwrap();
        for round in 0..10 {
            for i in 0..50 {
                s.put(format!("key-{i}").as_bytes(), format!("v{round}").as_bytes())
                    .unwrap();
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
        assert_eq!(s.len(), 50);
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
        assert_eq!(s.len(), 40); // 40 - 1 deleted + 1 extra
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
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(snap_path(&dir, 0, 99))
                .unwrap();
            let mut w = LogWriter::new(file, 0).unwrap();
            w.append(&Record::put(b"phantom".as_slice(), b"x".as_slice()))
                .unwrap();
            w.sync().unwrap();
        }
        let s = one_shard(&dir);
        assert_eq!(s.len(), 30, "torn snapshot must be rejected");
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
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(snap_path(&dir, 0, 50))
                .unwrap();
            let mut w = LogWriter::new(file, 0).unwrap();
            w.append(&Record::put(b"phantom".as_slice(), b"x".as_slice()))
                .unwrap();
            w.append(&Record::seal(7)).unwrap();
            w.sync().unwrap();
        }
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
        assert_eq!(
            live.dead_bytes, reopened.dead_bytes,
            "live {live:?} vs reopened {reopened:?}"
        );
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
            MetaStoreOptions {
                sync_every_append: true,
                shards: 1,
                ..MetaStoreOptions::default()
            },
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
    fn scan_prefix_merges_shards_in_order() {
        let dir = temp_dir("scan");
        let s = MetaStore::open(&dir).unwrap();
        for i in (0..50).rev() {
            s.put(format!("obj/{i:03}").as_bytes(), format!("{i}").as_bytes())
                .unwrap();
        }
        s.put(b"other/x", b"1").unwrap();
        let hits = s.scan_prefix(b"obj/");
        assert_eq!(hits.len(), 50);
        let keys: Vec<_> = hits.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "scan output is sorted across shards");
        assert_eq!(hits[7].0, b"obj/007".to_vec());
        assert!(s.scan_prefix(b"zzz").is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_many_commits_per_shard_batches() {
        let dir = temp_dir("putmany");
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                sync_every_append: true,
                ..MetaStoreOptions::default()
            },
        )
        .unwrap();
        let keys: Vec<String> = (0..100).map(|i| format!("bulk-{i}")).collect();
        let items: Vec<(&[u8], &[u8])> = keys
            .iter()
            .map(|k| (k.as_bytes(), b"v".as_slice()))
            .collect();
        s.put_many(&items).unwrap();
        let st = s.stats();
        assert_eq!(st.live_keys, 100);
        // One fsync per non-empty shard batch, not one per record.
        assert!(st.fsyncs <= st.shards, "{st:?}");
        drop(s);
        let s = MetaStore::open(&dir).unwrap();
        assert_eq!(s.len(), 100);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pre_sharding_segment_is_refused_and_left_in_place() {
        let dir = temp_dir("flat");
        // The flat `seg-*.log` chain of a store from before sharding.
        let flat = dir.join("seg-0000000000.log");
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(&flat)
                .unwrap();
            let mut w = LogWriter::new(file, 0).unwrap();
            w.append(&Record::put(b"old".as_slice(), b"1".as_slice())).unwrap();
            w.sync().unwrap();
        }
        let before = fs::read(&flat).unwrap();
        let err = MetaStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, MetaStoreError::BadSegmentName(p) if *p == flat),
            "{err}"
        );
        assert_eq!(fs::read(&flat).unwrap(), before, "the file is left as it was");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_do_not_take_the_commit_lock() {
        // A reader landing while a writer holds the commit lock must not
        // block: get/contains/scan take only the index RwLock.
        let dir = temp_dir("rwsplit");
        let s = MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                shards: 1,
                ..MetaStoreOptions::default()
            },
        )
        .unwrap();
        s.put(b"k", b"v").unwrap();
        let c = s.shards[0].commit.lock();
        assert_eq!(s.get(b"k"), Some(b"v".to_vec()));
        assert!(s.contains(b"k"));
        assert_eq!(s.scan_prefix(b"k").len(), 1);
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
                assert_eq!(s.len(), model.len(), "{name}");
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
                    let key = format!("{}/{}", gen::pick(rng, &["a", "b"]), gen::usize_in(rng, 0..20))
                        .into_bytes();
                    match gen::usize_in(rng, 0..20) {
                        0..=9 => {
                            // Some values outgrow the write buffer.
                            let len = if rng.chance(0.05) { 9_000 } else { gen::usize_in(rng, 0..48) };
                            let value = gen::bytes(rng, len);
                            s.put(&key, &value).unwrap();
                            model.insert(key, value);
                        }
                        10..=13 => {
                            assert_eq!(s.delete(&key).unwrap(), model.remove(&key).is_some(), "{name}");
                        }
                        14..=15 => {
                            assert_eq!(s.get(&key).as_ref(), model.get(&key), "{name}");
                            assert_eq!(s.contains(&key), model.contains_key(&key), "{name}");
                        }
                        16 => {
                            const PREFIXES: [&[u8]; 4] = [b"a/", b"b/1", b"", b"c"];
                            let prefix = *gen::pick(rng, &PREFIXES);
                            let expect: Vec<_> = model
                                .iter()
                                .filter(|(k, _)| k.starts_with(prefix))
                                .map(|(k, v)| (k.clone(), v.clone()))
                                .collect();
                            assert_eq!(s.scan_prefix(prefix), expect, "{name}");
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
                    assert_eq!(s.len(), model.len(), "{name}");
                }
                let held: Vec<_> = model.into_iter().collect();
                assert_eq!(s.scan_prefix(b""), held, "{name}");
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
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b"first"), Some(b"1b".to_vec()));
        assert_eq!(s.get(b"second"), Some(b"2".to_vec()));
        assert_eq!(s.get(b"third"), None, "a hash hit on another key's record is a miss");
        assert!(!s.delete(b"third").unwrap());
        // The slot's owner leaves; the overflow key stays findable, and a
        // newcomer may take the slot.
        assert!(s.delete(b"first").unwrap());
        assert_eq!(s.get(b"second"), Some(b"2".to_vec()));
        s.put(b"third", b"3").unwrap();
        assert_eq!(s.len(), 2);
        s.compact().unwrap();
        assert_eq!(s.scan_prefix(b""), [(b"second".to_vec(), b"2".to_vec()), (b"third".to_vec(), b"3".to_vec())]);
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
                MetaStoreOptions {
                    sync_every_append,
                    shards: 1,
                    ..MetaStoreOptions::default()
                },
            )
            .unwrap();
            s.put(b"k", b"v1").unwrap();
            assert_eq!(s.get(b"k"), Some(b"v1".to_vec()));
            s.put(b"k", b"v2").unwrap();
            assert_eq!(s.get(b"k"), Some(b"v2".to_vec()));
            assert!(s.contains(b"k"));
            assert_eq!(s.scan_prefix(b""), [(b"k".to_vec(), b"v2".to_vec())]);
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
    fn a_record_flushed_in_two_halves_reads_back_whole() {
        // The write buffer keeps the `BufWriter` discipline: a flush falls
        // wherever the next piece — crc, or the rest — does not fit, so a
        // record's crc can reach the file while its body is still buffered.
        let dir = temp_dir("straddle");
        let s = one_shard(&dir);
        let filler = vec![1u8; TAIL_CAP - 6 - HEADER - 1];
        s.put(b"a", &filler).unwrap();
        let seg = seg_path(&dir, 0, 0);
        assert_eq!(fs::metadata(&seg).unwrap().len(), 0);
        s.put(b"b", b"straddling").unwrap();
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            encoded_record_len(1, filler.len()) + CRC_LEN as u64,
            "the flush carried b's crc and nothing else of it"
        );
        assert_eq!(s.get(b"b"), Some(b"straddling".to_vec()));
        assert_eq!(s.get(b"a"), Some(filler.clone()));
        assert_eq!(s.scan_prefix(b"b"), [(b"b".to_vec(), b"straddling".to_vec())]);
        // An overwrite confirms its hash hit against that record.
        s.put(b"b", b"again").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().dead_bytes, encoded_record_len(1, 10));
        drop(s);
        let s = one_shard(&dir);
        assert_eq!(s.get(b"b"), Some(b"again".to_vec()));
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
            s.for_each(|k, v| seen.push(format!("{}={}", String::from_utf8_lossy(k), String::from_utf8_lossy(v))))
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
            s.put(format!("a-rather-long-object-name/{i:08}").as_bytes(), &[7u8; 200])
                .unwrap();
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
        let opts = MetaStoreOptions {
            shards: 1,
            sync_every_append: true,
            ..MetaStoreOptions::default()
        };
        let s = MetaStore::open_with(&dir, opts).unwrap();
        s.put(b"a", b"1").unwrap();
        let shard = &s.shards[0];
        let (writable, len) = {
            let c = shard.commit.lock();
            (Arc::clone(&c.active), c.len)
        };
        // Two whole frames of a refused batch reached the file past `len`;
        // the first is as long as the record written after the refusal.
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
        assert_eq!((s.get(b"a"), s.get(b"b"), s.get(b"big")), (Some(b"1".to_vec()), Some(b"22".to_vec()), None));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_too_large_to_frame_is_refused() {
        let dir = temp_dir("toolarge");
        let s = one_shard(&dir);
        let err = s.put(b"k", &vec![0u8; MAX_RECORD]).unwrap_err();
        assert!(matches!(err, MetaStoreError::Config(_)), "{err}");
        assert!(s.is_empty());
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
                        return (rec.seal_count() == Some(map.len() as u64)).then_some(map)
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
                assert_eq!(s.scan_prefix(b""), held.into_iter().collect::<Vec<_>>(), "{name}");
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

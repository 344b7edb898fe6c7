//! The commit path: a shard's durability state, its write buffer, and the
//! one routine through which every mutation reaches the log.
//!
//! A record is framed whole into the commit state's staging buffer and
//! then goes one of two ways. Under `sync_every_append`, or when the frame
//! is [`TAIL_CAP`] bytes or more, it is written to the active segment's
//! file at once (behind a flush of the buffer). Otherwise it enters the
//! write buffer, which is flushed first if the frame does not fit in what
//! is left of it. So a flush writes whole frames only, and every record is
//! either wholly in its file or wholly in the buffer.

use std::fs::File;
use std::io;
use std::sync::Arc;

use tiera_support::sync::{Mutex, RwLock};

use super::index::{file_no, write_all_at, Index, Locator};
use super::{MetaStore, MetaStoreError};
use crate::kill::KillSite;
use crate::log::{encode_frame, RecordKind};

/// One mutation on its way into the log: borrowed parts, and the key hash
/// the shard pick computed.
pub(super) struct Op<'a> {
    pub(super) kind: RecordKind,
    pub(super) hash: u64,
    pub(super) key: &'a [u8],
    pub(super) value: &'a [u8],
}

/// A shard's write buffer holds at most this much; a frame this long or
/// longer goes straight to the file.
pub(super) const TAIL_CAP: usize = 8 * 1024;

/// Per-shard durability state, guarded by the `metastore.commit` lock.
pub(super) struct CommitState {
    /// The active segment; the index's last file is the same handle.
    pub(super) active: Arc<File>,
    pub(super) active_seg: u64,
    /// Bytes accepted into the active segment: what its file holds plus
    /// the index's tail.
    pub(super) len: u64,
    /// How much of `len` the file holds (the index's `tail_start`).
    pub(super) flushed_len: u64,
    /// How much of `len` is known to have reached stable storage.
    pub(super) synced_len: u64,
    /// A refused write may have left bytes past `flushed_len`, and cutting
    /// them off failed too. Until a cut succeeds, no write and no sync may:
    /// a later, shorter write would leave them to be replayed after it.
    pub(super) cut_owed: bool,
    /// The record being committed, framed; reused from commit to commit.
    pub(super) staging: Vec<u8>,
    pub(super) sealed_bytes: u64,
    pub(super) dead_bytes: u64,
    /// Live segment numbers (ascending; the last is active).
    pub(super) segments: Vec<u64>,
    /// Newest snapshot `(number, bytes)`, if any.
    pub(super) snapshot: Option<(u64, u64)>,
    pub(super) compactions: u64,
    pub(super) fsyncs: u64,
}

impl CommitState {
    /// Whether a sync has work: accepted bytes not yet on stable storage,
    /// or an owed cut.
    pub(super) fn unsynced(&self) -> bool {
        self.len > self.synced_len || self.cut_owed
    }

    /// Room left in the tail.
    fn spare(&self) -> usize {
        TAIL_CAP.saturating_sub((self.len - self.flushed_len) as usize)
    }

    /// Makes `file`, empty, the active segment.
    pub(super) fn activate(&mut self, seg: u64, file: &Arc<File>) {
        self.active = Arc::clone(file);
        self.active_seg = seg;
        self.len = 0;
        self.flushed_len = 0;
        self.synced_len = 0;
    }
}

/// One hash shard: its own log chain and read index.
pub(super) struct Shard {
    pub(super) id: usize,
    pub(super) commit: Mutex<CommitState>,
    pub(super) index: RwLock<Index>,
}

impl Shard {
    /// Writes the tail to the active segment's file. Readers are not held
    /// up and never lose sight of the bytes: the write runs under the
    /// index *read* lock, and the tail is emptied, under the write lock,
    /// only once the file holds it.
    pub(super) fn flush_tail(&self, c: &mut CommitState) -> io::Result<()> {
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

    /// Writes the staged frame to the active segment's file, behind
    /// everything accepted before it.
    fn write_through(&self, c: &mut CommitState) -> io::Result<()> {
        self.flush_tail(c)?;
        if let Err(e) = write_all_at(&c.active, &c.staging, c.len) {
            // Part of the frame may have landed, and its value may hold
            // bytes that read as frames. Cut it off, or a later, shorter
            // frame written over its start would be followed, at replay, by
            // what is left of it. A cut that fails is owed: `flush_tail`,
            // which every later write and sync goes through, makes it first.
            c.cut_owed = c.active.set_len(c.len).is_err();
            return Err(e);
        }
        c.len += c.staging.len() as u64;
        c.flushed_len = c.len;
        let mut idx = self.index.write();
        idx.tail_start = c.len;
        Ok(())
    }

    /// Flushes and fsyncs the active segment.
    pub(super) fn sync_active(&self, c: &mut CommitState) -> io::Result<()> {
        self.flush_tail(c)?;
        c.active.sync_data()?;
        c.synced_len = c.len;
        c.fsyncs += 1;
        Ok(())
    }
}

impl MetaStore {
    /// Commits one record on the calling thread (fsynced before it returns
    /// under `sync_every_append`); returns whether its key was present.
    pub(super) fn mutate(&self, shard: &Shard, op: Op<'_>) -> Result<bool, MetaStoreError> {
        let mut c = shard.commit.lock();
        let existed = self.commit(shard, &mut c, op)?;
        self.maybe_rotate(shard, &mut c)?;
        Ok(existed)
    }

    /// Appends `op`'s record to the shard log (caller holds the commit
    /// lock), fsyncs it under `sync_every_append`, then applies it to the
    /// index; returns whether its key was present. On failure nothing is
    /// applied, though bytes already written may still become durable
    /// later: the usual "a failed write may yet have happened".
    fn commit(
        &self,
        shard: &Shard,
        c: &mut CommitState,
        op: Op<'_>,
    ) -> Result<bool, MetaStoreError> {
        let file = file_no(c.active_seg)?;
        // The slot cannot move while the commit lock is held: settle it (the
        // read that confirms a hash hit) before anything is accepted.
        let slot = {
            let idx = shard.index.read();
            idx.slot(op.hash, op.key)?
        };
        c.staging.clear();
        encode_frame(&mut c.staging, op.kind, op.key, op.value);
        let loc = Locator { offset: c.len, file, len: c.staging.len() as u32 };
        // A frame enters the write buffer whole, or goes to the file whole.
        let buffered = !self.opts.sync_every_append && c.staging.len() < TAIL_CAP;
        if self.opts.sync_every_append {
            self.kill.check(KillSite::BatchBeforeSync)?;
            shard.write_through(c)?;
            shard.sync_active(c)?;
            self.kill.check(KillSite::BatchAfterSync)?;
        } else if !buffered {
            shard.write_through(c)?;
        } else if c.staging.len() > c.spare() {
            shard.flush_tail(c)?;
        }
        let mut idx = shard.index.write();
        if buffered {
            // The bytes appear together with their locator.
            idx.tail.extend_from_slice(&c.staging);
            c.len += c.staging.len() as u64;
        }
        Ok(idx.apply(slot, op.kind, op.hash, op.key, loc, &mut c.dead_bytes))
    }
}

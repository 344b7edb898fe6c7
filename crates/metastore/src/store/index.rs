//! One shard's read index: the locator table that says where each live
//! record sits in the log, and the positional reads that serve `get`, the
//! confirming read of a hash hit, replay and the log-order walk.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read};
use std::sync::Arc;

use tiera_support::collections::FxHashMap;

use super::commit::TAIL_CAP;
use super::{KeyHash, MetaStoreError};
use crate::log::{
    encoded_record_len, header_lens, parse_frame, seal_count, Frame, LogReader, RecordKind, HEADER,
    MAX_RECORD,
};

/// Where a live record sits in its shard's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Locator {
    /// Where the frame starts in its file.
    pub(super) offset: u64,
    /// The segment or snapshot number (a shard numbers both in one series).
    pub(super) file: u32,
    /// The frame's length: [`encoded_record_len`] of the record, which is
    /// what turns into dead bytes when the record is superseded.
    pub(super) len: u32,
}

// A frame is a header and at most `MAX_RECORD` bytes, so its length fits.
const _: () = assert!(MAX_RECORD + HEADER <= u32::MAX as usize);

/// A file's number as locators carry it.
pub(super) fn file_no(n: u64) -> Result<u32, MetaStoreError> {
    u32::try_from(n).map_err(|_| {
        MetaStoreError::Config(format!("segment number {n} is beyond what a locator addresses"))
    })
}

/// An open log file that locators may point into.
pub(super) struct LogFile {
    pub(super) no: u32,
    pub(super) file: Arc<File>,
}

/// Which of the index's two maps holds (or would hold) a key's locator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Home {
    /// The hash table: the slot for the key's hash is this key's, or free.
    Table,
    /// The exact-key map: another live key owns the slot for this hash.
    Overflow,
}

/// Where a key's locator lives, and the locator if the key is present.
#[derive(Clone, Copy)]
pub(super) struct Slot {
    home: Home,
    pub(super) current: Option<Locator>,
}

/// One shard's read index (see the module docs): the locator table, the
/// files its locators point into, and the bytes of the active segment that
/// have not been written to its file yet.
pub(super) struct Index {
    pub(super) table: FxHashMap<u64, Locator>,
    pub(super) overflow: BTreeMap<Vec<u8>, Locator>,
    /// Ascending by number: the newest snapshot if any, the sealed
    /// segments, and last the active segment.
    pub(super) files: Vec<LogFile>,
    /// Accepted into the active segment, not yet written to its file.
    pub(super) tail: Vec<u8>,
    /// Where `tail[0]` belongs in the active segment: the length of what
    /// the file holds.
    pub(super) tail_start: u64,
}

pub(super) fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Index {
    /// An index to replay a shard's files into: no tail, so every byte is
    /// looked for in the files.
    pub(super) fn recovering() -> Self {
        Self {
            table: FxHashMap::default(),
            overflow: BTreeMap::new(),
            files: Vec::new(),
            tail: Vec::with_capacity(TAIL_CAP),
            tail_start: u64::MAX,
        }
    }

    pub(super) fn live(&self) -> usize {
        self.table.len() + self.overflow.len()
    }

    fn file(&self, no: u32) -> io::Result<&Arc<File>> {
        self.files.binary_search_by_key(&no, |f| f.no).map(|at| &self.files[at].file).map_err(
            |_| corrupt(format!("a locator names file {no}, which the shard does not hold")),
        )
    }

    /// Fills `buf` with the first bytes of the record at `loc`, from its
    /// file or from the tail: a record is wholly in one or the other.
    fn read_exact(&self, loc: Locator, buf: &mut [u8]) -> io::Result<()> {
        let active = self.files.last().map(|f| f.no);
        if Some(loc.file) != active || loc.offset < self.tail_start {
            return read_exact_at(self.file(loc.file)?, buf, loc.offset);
        }
        let from = (loc.offset - self.tail_start) as usize;
        let held = self.tail.get(from..from + buf.len()).ok_or_else(|| {
            corrupt(format!("a locator reaches past the end of segment {}", loc.file))
        })?;
        buf.copy_from_slice(held);
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
        Ok(header_lens(buf).is_some_and(|(klen, _)| klen == key.len())
            && buf.get(HEADER..) == Some(key))
    }

    /// Where `key`'s locator lives and what it is now.
    pub(super) fn slot(&self, hash: u64, key: &[u8]) -> io::Result<Slot> {
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
    pub(super) fn apply(
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
    pub(super) fn value_of(&self, hash: u64, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
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
    pub(super) fn replay(
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
                    let loc =
                        Locator { offset: frame.offset, file: no, len: frame.raw.len() as u32 };
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
    pub(super) fn walk(
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
    pub(super) fn heap_bytes(&self) -> u64 {
        // std's table: a power of two of buckets, filled to 7/8, one
        // control byte beside each.
        let buckets = match self.table.capacity() {
            0 => 0,
            cap => (cap * 8 / 7).next_power_of_two(),
        };
        let table = buckets * (std::mem::size_of::<(u64, Locator)>() + 1);
        let overflow: usize =
            self.overflow.keys().map(|k| k.len() + std::mem::size_of::<(Vec<u8>, Locator)>()).sum();
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
pub(super) fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> io::Result<()> {
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
    pub(super) file: &'a File,
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

//! On-disk log record framing.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! +--------+--------+----------+---------+-----------+------------+
//! | crc32  | klen   | vlen     | kind    | key bytes | value bytes|
//! | u32    | u32    | u32      | u8      | klen      | vlen       |
//! +--------+--------+----------+---------+-----------+------------+
//! ```
//!
//! The CRC covers `klen | vlen | kind | key | value`. A record whose CRC
//! does not verify — or that extends past the end of the file — is treated
//! as a torn tail: replay stops there and the file is truncated to the last
//! good boundary on the next append.

use std::fs::File;
use std::io::{self, BufReader, Read};

use tiera_codec::crc32;
use tiera_support::wire::{put_u32, Reader};

/// Kind tag of a log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// An insert/overwrite of a key.
    Put,
    /// A tombstone marking the key deleted.
    Delete,
    /// Snapshot seal: the final record of a snapshot file, whose value is
    /// the little-endian `u64` count of entries preceding it. A snapshot
    /// without a matching seal is torn and is rejected at recovery.
    Seal,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Put => 0,
            RecordKind::Delete => 1,
            RecordKind::Seal => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(RecordKind::Put),
            1 => Some(RecordKind::Delete),
            2 => Some(RecordKind::Seal),
            _ => None,
        }
    }
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record kind.
    pub kind: RecordKind,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

/// The entry count in a seal record's value, if it is well formed.
pub(crate) fn seal_count(value: &[u8]) -> Option<u64> {
    let mut r = Reader::new(value);
    r.u64().ok().filter(|_| r.finished())
}

/// Exact on-disk size of a record with the given key and value lengths —
/// the single source of truth for dead-byte accounting, shared by the
/// write path and segment replay so the compaction-trigger math is the
/// same whether the store was just opened or long-running.
pub fn encoded_record_len(key_len: usize, value_len: usize) -> u64 {
    HEADER as u64 + key_len as u64 + value_len as u64
}

/// crc(4) + klen(4) + vlen(4) + kind(1).
pub(crate) const HEADER: usize = 13;

/// The crc comes first in a frame and covers everything after it.
const CRC_LEN: usize = 4;

/// Largest `klen + vlen` a reader accepts (a longer claim is a torn or
/// garbage header, not something to allocate for) and so the largest a
/// writer may frame.
pub(crate) const MAX_RECORD: usize = 256 * 1024 * 1024;

/// Appends one framed record to `out` — no allocation once `out` has
/// grown to the largest frame it has held.
pub(crate) fn encode_frame(out: &mut Vec<u8>, kind: RecordKind, key: &[u8], value: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&[0; CRC_LEN]);
    put_u32(out, key.len() as u32);
    put_u32(out, value.len() as u32);
    out.push(kind.to_byte());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32::checksum(&out[start + CRC_LEN..]);
    out[start..start + CRC_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// The key and value lengths the header at the front of `frame` claims;
/// `None` when `frame` is too short to hold them.
pub(crate) fn header_lens(frame: &[u8]) -> Option<(usize, usize)> {
    let mut r = Reader::new(frame.get(CRC_LEN..)?);
    Some((r.u32().ok()? as usize, r.u32().ok()? as usize))
}

/// One framed record borrowed from a [`LogReader`]'s buffer.
pub(crate) struct Frame<'a> {
    pub kind: RecordKind,
    pub key: &'a [u8],
    pub value: &'a [u8],
    /// The whole frame as it sits in the log, crc first.
    pub raw: &'a [u8],
    /// Where the frame starts in what the reader has read.
    pub offset: u64,
}

/// Checks and splits a whole frame (`raw` is exactly one record's bytes);
/// `None` when the lengths, the crc or the kind do not hold.
pub(crate) fn parse_frame(raw: &[u8], offset: u64) -> Option<Frame<'_>> {
    let mut r = Reader::new(raw);
    let crc = r.u32().ok()?;
    let (klen, vlen) = (r.u32().ok()? as usize, r.u32().ok()? as usize);
    let kind = RecordKind::from_byte(r.u8().ok()?)?;
    let (key, value) = (r.take(klen).ok()?, r.take(vlen).ok()?);
    if !r.finished() || crc32::checksum(&raw[CRC_LEN..]) != crc {
        return None;
    }
    Some(Frame { kind, key, value, raw, offset })
}

/// Replays framed records from a log, stopping at the first torn or
/// corrupt record.
#[derive(Debug)]
pub struct LogReader<R = File> {
    input: BufReader<R>,
    /// The frame last read; reused from record to record.
    frame: Vec<u8>,
    /// Offset of the byte after the last successfully decoded record.
    pub valid_len: u64,
}

impl LogReader<File> {
    /// Wraps a file opened for reading (positioned at the start).
    pub fn new(file: File) -> Self {
        Self::over(file)
    }
}

impl<R: Read> LogReader<R> {
    /// Reads frames from any byte source, from its current position.
    pub(crate) fn over(input: R) -> Self {
        Self {
            // A log is read front to back; fewer, larger reads.
            input: BufReader::with_capacity(64 * 1024, input),
            frame: Vec::new(),
            valid_len: 0,
        }
    }

    /// Reads the next record; `Ok(None)` at clean EOF *or* on a torn/corrupt
    /// tail (recovery treats both as end-of-log).
    pub fn next_record(&mut self) -> io::Result<Option<Record>> {
        Ok(self.next_frame()?.map(|f| Record {
            kind: f.kind,
            key: f.key.to_vec(),
            value: f.value.to_vec(),
        }))
    }

    /// [`next_record`](Self::next_record) without the copies: the record
    /// borrowed from the reader's buffer, valid until the next call.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Frame<'_>>> {
        let mut header = [0u8; HEADER];
        if !read_whole(&mut self.input, &mut header)? {
            return Ok(None); // end of log, or a torn header
        }
        // Guard against garbage lengths before allocating.
        let body = match header_lens(&header) {
            Some((klen, vlen)) if klen.saturating_add(vlen) <= MAX_RECORD => klen + vlen,
            _ => return Ok(None),
        };
        self.frame.clear();
        self.frame.extend_from_slice(&header);
        self.frame.resize(HEADER + body, 0);
        if !read_whole(&mut self.input, &mut self.frame[HEADER..])? {
            return Ok(None); // torn body
        }
        // A crc or kind that does not hold is a corrupt record: replay stops here.
        let frame = parse_frame(&self.frame, self.valid_len);
        if frame.is_some() {
            self.valid_len += self.frame.len() as u64;
        }
        Ok(frame)
    }
}

/// Fills `buf`; `false` if the input ends first.
fn read_whole<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("tiera-log-{}-{}-{}.log", std::process::id(), tag, n))
    }

    /// `records`, framed one after another.
    fn framed(records: &[(RecordKind, &str, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, key, value) in records {
            encode_frame(&mut out, *kind, key.as_bytes(), value.as_bytes());
        }
        out
    }

    fn replay(path: &PathBuf) -> (Vec<Record>, u64) {
        let mut r = LogReader::new(File::open(path).unwrap());
        let recs = std::iter::from_fn(|| r.next_record().unwrap()).collect();
        (recs, r.valid_len)
    }

    #[test]
    fn write_then_replay() {
        let path = temp_path("replay");
        let log = framed(&[
            (RecordKind::Put, "alpha", "1"),
            (RecordKind::Put, "beta", "2"),
            (RecordKind::Delete, "alpha", ""),
        ]);
        std::fs::write(&path, &log).unwrap();
        let (recs, valid_len) = replay(&path);
        assert_eq!(recs.len(), 3);
        let alpha =
            |kind, value: &str| Record { kind, key: b"alpha".to_vec(), value: value.into() };
        assert_eq!(recs[0], alpha(RecordKind::Put, "1"));
        assert_eq!(recs[2], alpha(RecordKind::Delete, ""));
        assert_eq!(valid_len, log.len() as u64);
        let lens = [(5, 1), (4, 1), (5, 0)].map(|(k, v)| encoded_record_len(k, v));
        assert_eq!(valid_len, lens.iter().sum::<u64>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_path("torn");
        let log = framed(&[
            (RecordKind::Put, "good", "value"),
            (RecordKind::Put, "torn", "this-will-be-cut"),
        ]);
        // Simulate a crash mid-write: cut 5 bytes off the final record.
        std::fs::write(&path, &log[..log.len() - 5]).unwrap();
        let (recs, _) = replay(&path);
        assert_eq!(recs.len(), 1, "only the intact record survives");
        assert_eq!(recs[0].key, b"good");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = temp_path("corrupt");
        let mut log = framed(&[(RecordKind::Put, "one", "1")]);
        let first_end = log.len();
        encode_frame(&mut log, RecordKind::Put, b"two", b"2");
        // Flip a payload byte in the second record.
        log[first_end + HEADER + 1] ^= 0xFF;
        std::fs::write(&path, &log).unwrap();
        let (recs, valid_len) = replay(&path);
        assert_eq!(recs.len(), 1);
        assert_eq!(valid_len, first_end as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_recovery_truncates_garbage() {
        let path = temp_path("truncate");
        let mut log = framed(&[(RecordKind::Put, "keep", "k")]);
        // Garbage tail.
        log.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &log).unwrap();
        let (_, good) = replay(&path);
        // Cut the file at the recovered length and append: the garbage
        // must be gone.
        let mut kept = std::fs::read(&path).unwrap();
        kept.truncate(good as usize);
        encode_frame(&mut kept, RecordKind::Put, b"new", b"n");
        std::fs::write(&path, &kept).unwrap();
        let (recs, _) = replay(&path);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].key, b"new");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_value_and_binary_keys() {
        let path = temp_path("binary");
        let key: Vec<u8> = (0..=255u8).collect();
        let mut log = Vec::new();
        encode_frame(&mut log, RecordKind::Put, &key, &[]);
        std::fs::write(&path, &log).unwrap();
        let mut r = LogReader::new(File::open(&path).unwrap());
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.key, key);
        assert!(rec.value.is_empty());
        std::fs::remove_file(&path).ok();
    }
}

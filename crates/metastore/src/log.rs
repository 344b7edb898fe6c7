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
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};

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

impl Record {
    /// A put record.
    pub fn put(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        Record {
            kind: RecordKind::Put,
            key: key.into(),
            value: value.into(),
        }
    }

    /// A delete tombstone.
    pub fn delete(key: impl Into<Vec<u8>>) -> Self {
        Record {
            kind: RecordKind::Delete,
            key: key.into(),
            value: Vec::new(),
        }
    }

    /// A snapshot seal over `count` preceding entries.
    pub fn seal(count: u64) -> Self {
        Record {
            kind: RecordKind::Seal,
            key: Vec::new(),
            value: count.to_le_bytes().to_vec(),
        }
    }

    /// The entry count carried by a [`RecordKind::Seal`] record, if this
    /// is a well-formed one.
    pub fn seal_count(&self) -> Option<u64> {
        if self.kind != RecordKind::Seal {
            return None;
        }
        seal_count(&self.value)
    }

    /// Encoded size on disk.
    pub fn encoded_len(&self) -> u64 {
        encoded_record_len(self.key.len(), self.value.len())
    }
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
pub(crate) const CRC_LEN: usize = 4;

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

/// Appends framed records to a log file of its own (a snapshot being
/// written; a shard's active segment is appended to by the store, whose
/// buffer readers can see).
#[derive(Debug)]
pub struct LogWriter {
    out: BufWriter<File>,
    /// The frame being encoded; reused from record to record.
    frame: Vec<u8>,
    len: u64,
    synced_len: u64,
}

impl LogWriter {
    /// Opens `file` for appending; `existing_len` is the current valid
    /// length (the writer truncates anything beyond it, discarding a
    /// previously detected torn tail).
    pub fn new(mut file: File, existing_len: u64) -> io::Result<Self> {
        file.set_len(existing_len)?;
        file.seek(SeekFrom::Start(existing_len))?;
        Ok(Self {
            out: BufWriter::new(file),
            frame: Vec::new(),
            len: existing_len,
            // Pre-existing bytes came from a previous process life, so as
            // far as *this* writer's crash image is concerned they are
            // already on disk.
            synced_len: existing_len,
        })
    }

    /// Appends one record; returns its starting offset.
    pub fn append(&mut self, rec: &Record) -> io::Result<u64> {
        self.frame.clear();
        encode_frame(&mut self.frame, rec.kind, &rec.key, &rec.value);
        let offset = self.len;
        self.out.write_all(&self.frame)?;
        self.len += self.frame.len() as u64;
        Ok(offset)
    }

    /// Appends a record already framed (copied from another log); returns
    /// its starting offset.
    pub(crate) fn append_frame(&mut self, raw: &[u8]) -> io::Result<u64> {
        let offset = self.len;
        self.out.write_all(raw)?;
        self.len += raw.len() as u64;
        Ok(offset)
    }

    /// Flushes buffered data to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.synced_len = self.len;
        Ok(())
    }

    /// Bytes written so far (valid log length).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Bytes known to have reached stable storage (length as of the last
    /// [`sync`](Self::sync)).
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
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
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tiera-log-{}-{}-{}.log",
            std::process::id(),
            tag,
            n
        ))
    }

    fn open_rw(path: &PathBuf) -> File {
        OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .unwrap()
    }

    #[test]
    fn write_then_replay() {
        let path = temp_path("replay");
        let mut w = LogWriter::new(open_rw(&path), 0).unwrap();
        w.append(&Record::put("alpha", "1")).unwrap();
        w.append(&Record::put("beta", "2")).unwrap();
        w.append(&Record::delete("alpha")).unwrap();
        w.sync().unwrap();

        let mut r = LogReader::new(File::open(&path).unwrap());
        let recs: Vec<Record> = std::iter::from_fn(|| r.next_record().unwrap()).collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], Record::put("alpha", "1"));
        assert_eq!(recs[2], Record::delete("alpha"));
        assert_eq!(r.valid_len, w.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_path("torn");
        let mut w = LogWriter::new(open_rw(&path), 0).unwrap();
        w.append(&Record::put("good", "value")).unwrap();
        w.append(&Record::put("torn", "this-will-be-cut")).unwrap();
        w.sync().unwrap();
        let full = w.len();
        drop(w);
        // Simulate a crash mid-write: cut 5 bytes off the final record.
        let f = open_rw(&path);
        f.set_len(full - 5).unwrap();
        drop(f);

        let mut r = LogReader::new(File::open(&path).unwrap());
        let recs: Vec<Record> = std::iter::from_fn(|| r.next_record().unwrap()).collect();
        assert_eq!(recs.len(), 1, "only the intact record survives");
        assert_eq!(recs[0].key, b"good");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = temp_path("corrupt");
        let mut w = LogWriter::new(open_rw(&path), 0).unwrap();
        let first_end = {
            w.append(&Record::put("one", "1")).unwrap();
            w.len()
        };
        w.append(&Record::put("two", "2")).unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a payload byte in the second record.
        let data = std::fs::read(&path).unwrap();
        let mut data = data;
        let idx = first_end as usize + HEADER + 1;
        data[idx] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let mut r = LogReader::new(File::open(&path).unwrap());
        let recs: Vec<Record> = std::iter::from_fn(|| r.next_record().unwrap()).collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(r.valid_len, first_end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_recovery_truncates_garbage() {
        let path = temp_path("truncate");
        let mut w = LogWriter::new(open_rw(&path), 0).unwrap();
        w.append(&Record::put("keep", "k")).unwrap();
        w.sync().unwrap();
        let good = w.len();
        drop(w);
        // Garbage tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 7]).unwrap();
        }
        // Re-open at the recovered length; garbage must be dropped.
        let mut w = LogWriter::new(open_rw(&path), good).unwrap();
        w.append(&Record::put("new", "n")).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut r = LogReader::new(File::open(&path).unwrap());
        let recs: Vec<Record> = std::iter::from_fn(|| r.next_record().unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].key, b"new");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_value_and_binary_keys() {
        let path = temp_path("binary");
        let mut w = LogWriter::new(open_rw(&path), 0).unwrap();
        let key: Vec<u8> = (0..=255u8).collect();
        w.append(&Record::put(key.clone(), Vec::<u8>::new())).unwrap();
        w.sync().unwrap();
        let mut r = LogReader::new(File::open(&path).unwrap());
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.key, key);
        assert!(rec.value.is_empty());
        std::fs::remove_file(&path).ok();
    }
}

//! # tiera-fs — a POSIX-style file layer over Tiera
//!
//! Paper §3/§4.1.1: "Since we need to provide a POSIX interface to MySQL,
//! we used the FUSE filesystem interface we developed to interface MySQL
//! with the Tiera instances. The FUSE filesystem we developed splits the
//! database files into 4 KB objects (OS page size) and stores them in
//! Tiera."
//!
//! [`TieraFs`] is that layer, minus the kernel: byte-addressed files are
//! chunked into fixed-size objects (`<path>#<chunk>`), reads and writes do
//! the chunk-aligned read-modify-write dance, and every chunk access goes
//! through the instance's PUT/GET path — so the instance's policy (caching,
//! write-back, dedup) transparently applies to file data, exactly as it did
//! for MySQL in the paper.
//!
//! Like the paper's driver, file lengths live in a local table (the FUSE
//! process's in-memory inode map) that can be persisted as a manifest
//! object ([`TieraFs::flush_manifest`] / [`TieraFs::recover`], the role of
//! S3FS's bucket-resident metadata); object data is entirely in the
//! instance. When the instance's policy stores via `storeOnce`, chunk
//! writes deduplicate transparently (the S3FS-like setup of Figure 12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, RwLock};
use tiera_support::wire::{self, put_str, put_u32, put_u64, Reader};
use tiera_support::Bytes;

use tiera_core::error::{Result, TieraError};
use tiera_core::instance::Instance;
use tiera_sim::{SimDuration, SimTime};

/// Default chunk size: the OS page size the paper used.
pub const DEFAULT_CHUNK: usize = 4096;

/// Key of the manifest object holding the serialized file table.
pub const MANIFEST_KEY: &str = "__tierafs_manifest";

/// A manifest that does not decode.
fn codec(e: wire::Error) -> TieraError {
    TieraError::Codec(format!("manifest: {e}"))
}

/// A chunking filesystem facade over a Tiera instance.
pub struct TieraFs {
    instance: Arc<Instance>,
    chunk_size: usize,
    files: RwLock<FxHashMap<String, u64>>, // path → length in bytes
}

/// Result of a filesystem operation: payload plus charged virtual latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsReceipt<T> {
    /// Operation result.
    pub value: T,
    /// Total storage latency charged.
    pub latency: SimDuration,
}

impl TieraFs {
    /// Creates a filesystem over `instance` with 4 KB chunks.
    pub fn new(instance: Arc<Instance>) -> Self {
        Self::with_chunk_size(instance, DEFAULT_CHUNK)
    }

    /// Creates a filesystem with an explicit chunk size.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(instance: Arc<Instance>, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            instance,
            chunk_size,
            files: RwLock::named("fs.files", rank::FS_FILES, FxHashMap::default()),
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Arc<Instance> {
        &self.instance
    }

    /// The chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn chunk_key(path: &str, idx: u64) -> String {
        format!("{path}#{idx}")
    }

    /// Creates an empty file (truncates if it exists).
    pub fn create(&self, path: &str, now: SimTime) -> Result<FsReceipt<()>> {
        let mut latency = SimDuration::ZERO;
        if let Some(len) = self.files.read().get(path).copied() {
            latency += self.remove_chunks(path, len, now)?;
        }
        self.files.write().insert(path.to_string(), 0);
        Ok(FsReceipt { value: (), latency })
    }

    /// Whether the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// File length in bytes.
    pub fn len(&self, path: &str) -> Result<u64> {
        self.files
            .read()
            .get(path)
            .copied()
            .ok_or_else(|| TieraError::NoSuchObject(path.to_string()))
    }

    /// Lists files whose paths start with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> =
            self.files.read().keys().filter(|p| p.starts_with(prefix)).cloned().collect();
        v.sort_unstable();
        v
    }

    /// Writes `data` at `offset`, extending the file as needed
    /// (chunk-aligned read-modify-write).
    pub fn write(
        &self,
        path: &str,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<FsReceipt<usize>> {
        if !self.exists(path) {
            self.files.write().entry(path.to_string()).or_insert(0);
        }
        let old_len = self.len(path)?;
        let mut latency = SimDuration::ZERO;
        let cs = self.chunk_size as u64;
        let mut pos = 0usize;
        let mut t = now;

        while pos < data.len() {
            let abs = offset + pos as u64;
            let chunk_idx = abs / cs;
            let within = (abs % cs) as usize;
            let take = (self.chunk_size - within).min(data.len() - pos);
            let key = Self::chunk_key(path, chunk_idx);

            let full_overwrite = within == 0 && take == self.chunk_size;
            let chunk_exists = chunk_idx * cs < old_len;
            let payload: Bytes = if full_overwrite || !chunk_exists {
                if within == 0 && take == self.chunk_size {
                    Bytes::copy_from_slice(&data[pos..pos + take])
                } else {
                    // New chunk written at an offset: zero-fill the gap.
                    let mut buf = vec![0u8; within + take];
                    buf[within..].copy_from_slice(&data[pos..pos + take]);
                    Bytes::from(buf)
                }
            } else {
                // Read-modify-write of an existing chunk. A hole in a
                // sparse file reads as a zero chunk.
                let mut buf = match self.instance.get(key.as_str(), t) {
                    Ok((old, receipt)) => {
                        t += receipt.latency;
                        latency += receipt.latency;
                        old.to_vec()
                    }
                    Err(TieraError::NoSuchObject(_)) => Vec::new(),
                    Err(e) => return Err(e),
                };
                if buf.len() < within + take {
                    buf.resize(within + take, 0);
                }
                buf[within..within + take].copy_from_slice(&data[pos..pos + take]);
                Bytes::from(buf)
            };

            let receipt = self.instance.put(key.as_str(), payload, t)?;
            t += receipt.latency;
            latency += receipt.latency;
            pos += take;
        }

        let end = offset + data.len() as u64;
        {
            let mut files = self.files.write();
            let len = files.get_mut(path).expect("file created above");
            if end > *len {
                *len = end;
            }
        }
        Ok(FsReceipt { value: data.len(), latency })
    }

    /// Appends `data` to the end of the file.
    pub fn append(&self, path: &str, data: &[u8], now: SimTime) -> Result<FsReceipt<usize>> {
        let offset = self.files.read().get(path).copied().unwrap_or(0);
        self.write(path, offset, data, now)
    }

    /// Reads up to `len` bytes from `offset`. Short reads happen only at
    /// end-of-file.
    pub fn read(
        &self,
        path: &str,
        offset: u64,
        len: usize,
        now: SimTime,
    ) -> Result<FsReceipt<Vec<u8>>> {
        let file_len = self.len(path)?;
        if offset >= file_len {
            return Ok(FsReceipt { value: Vec::new(), latency: SimDuration::ZERO });
        }
        let want = len.min((file_len - offset) as usize);
        let cs = self.chunk_size as u64;
        let mut out = Vec::with_capacity(want);
        let mut latency = SimDuration::ZERO;
        let mut t = now;
        let mut pos = 0usize;
        while pos < want {
            let abs = offset + pos as u64;
            let chunk_idx = abs / cs;
            let within = (abs % cs) as usize;
            let take = (self.chunk_size - within).min(want - pos);
            let key = Self::chunk_key(path, chunk_idx);
            match self.instance.get(key.as_str(), t) {
                Ok((chunk, receipt)) => {
                    t += receipt.latency;
                    latency += receipt.latency;
                    let end = (within + take).min(chunk.len());
                    if within < chunk.len() {
                        out.extend_from_slice(&chunk[within..end]);
                    }
                    // Sparse region beyond stored chunk bytes reads as zeros.
                    out.resize(pos + take, 0);
                }
                Err(TieraError::NoSuchObject(_)) => {
                    // Hole in a sparse file.
                    out.resize(pos + take, 0);
                }
                Err(e) => return Err(e),
            }
            pos += take;
        }
        Ok(FsReceipt { value: out, latency })
    }

    /// Reads the whole file.
    pub fn read_all(&self, path: &str, now: SimTime) -> Result<FsReceipt<Vec<u8>>> {
        let len = self.len(path)? as usize;
        self.read(path, 0, len, now)
    }

    /// Removes a file and its chunks.
    pub fn unlink(&self, path: &str, now: SimTime) -> Result<FsReceipt<()>> {
        let len = self
            .files
            .write()
            .remove(path)
            .ok_or_else(|| TieraError::NoSuchObject(path.to_string()))?;
        let latency = self.remove_chunks(path, len, now)?;
        Ok(FsReceipt { value: (), latency })
    }

    /// Renames a file (metadata-only: chunks are re-keyed through the
    /// instance, charging copy latency — renames of big files are not free,
    /// matching object-store semantics).
    pub fn rename(&self, from: &str, to: &str, now: SimTime) -> Result<FsReceipt<()>> {
        let len = self.len(from)?;
        let data = self.read_all(from, now)?;
        let mut latency = data.latency;
        let mut t = now + latency;
        if self.exists(to) {
            let r = self.unlink(to, t)?;
            latency += r.latency;
            t += r.latency;
        }
        self.create(to, t)?;
        let w = self.write(to, 0, &data.value, t)?;
        latency += w.latency;
        t += w.latency;
        let u = self.unlink(from, t)?;
        latency += u.latency;
        debug_assert_eq!(self.len(to)?, len);
        Ok(FsReceipt { value: (), latency })
    }

    /// Truncates the file to `new_len` bytes.
    pub fn truncate(&self, path: &str, new_len: u64, now: SimTime) -> Result<FsReceipt<()>> {
        let old_len = self.len(path)?;
        let mut latency = SimDuration::ZERO;
        if new_len < old_len {
            let cs = self.chunk_size as u64;
            let first_dead = new_len.div_ceil(cs);
            let last = old_len.div_ceil(cs);
            let mut t = now;
            for idx in first_dead..last {
                let key = Self::chunk_key(path, idx);
                if self.instance.contains(key.as_str()) {
                    let d = self.instance.delete(key.as_str(), t)?;
                    t += d;
                    latency += d;
                }
            }
        }
        self.files.write().insert(path.to_string(), new_len);
        Ok(FsReceipt { value: (), latency })
    }

    /// Persists the file table as a manifest object in the instance, so a
    /// new `TieraFs` over the same (durable) tiers can recover it — the
    /// role S3FS's bucket-resident metadata plays.
    pub fn flush_manifest(&self, now: SimTime) -> Result<SimDuration> {
        let files = self.files.read();
        let mut buf = Vec::with_capacity(files.len() * 32);
        put_u32(&mut buf, files.len() as u32);
        let mut entries: Vec<(&String, &u64)> = files.iter().collect();
        entries.sort_unstable();
        for (path, len) in entries {
            put_str(&mut buf, path);
            put_u64(&mut buf, *len);
        }
        drop(files);
        let receipt = self.instance.put(MANIFEST_KEY, buf, now)?;
        Ok(receipt.latency)
    }

    /// Builds a filesystem over `instance`, recovering the file table from
    /// a previously flushed manifest.
    pub fn recover(instance: Arc<Instance>, now: SimTime) -> Result<Self> {
        let fs = Self::new(Arc::clone(&instance));
        let (data, _) = instance.get(MANIFEST_KEY, now)?;
        let mut r = Reader::new(&data);
        let count = r.u32().map_err(codec)? as usize;
        // Sized by what the bytes can hold (an entry is at least 12), not
        // by the stored count, which a corrupt manifest sets at will.
        let mut files =
            FxHashMap::with_capacity_and_hasher(count.min(r.remaining() / 12), Default::default());
        for _ in 0..count {
            let path = r.str().map_err(codec)?;
            files.insert(path.to_owned(), r.u64().map_err(codec)?);
        }
        *fs.files.write() = files;
        Ok(fs)
    }

    fn remove_chunks(&self, path: &str, len: u64, now: SimTime) -> Result<SimDuration> {
        let cs = self.chunk_size as u64;
        let chunks = len.div_ceil(cs);
        let mut latency = SimDuration::ZERO;
        let mut t = now;
        for idx in 0..chunks {
            let key = Self::chunk_key(path, idx);
            if self.instance.contains(key.as_str()) {
                let d = self.instance.delete(key.as_str(), t)?;
                t += d;
                latency += d;
            }
        }
        Ok(latency)
    }
}

/// A POSIX-style file handle: a cursor over a [`TieraFs`] file, tracking
/// its own virtual time so sequential IO charges accumulate naturally.
pub struct File<'fs> {
    fs: &'fs TieraFs,
    path: String,
    pos: u64,
    now: SimTime,
}

/// Seek origins (a miniature `std::io::SeekFrom`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekFrom {
    /// From the start of the file.
    Start(u64),
    /// From the end of the file (negative offsets seek backwards).
    End(i64),
    /// From the current position.
    Current(i64),
}

impl TieraFs {
    /// Opens an existing file at `path`, positioned at the start.
    pub fn open(&self, path: &str, now: SimTime) -> Result<File<'_>> {
        if !self.exists(path) {
            return Err(TieraError::NoSuchObject(path.to_string()));
        }
        Ok(File { fs: self, path: path.to_string(), pos: 0, now })
    }

    /// Creates (truncating) and opens a file.
    pub fn create_open(&self, path: &str, now: SimTime) -> Result<File<'_>> {
        let r = self.create(path, now)?;
        Ok(File { fs: self, path: path.to_string(), pos: 0, now: now + r.latency })
    }
}

impl File<'_> {
    /// Current cursor position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// The handle's current virtual time (start time + charged IO).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the cursor; returns the new position.
    pub fn seek(&mut self, from: SeekFrom) -> Result<u64> {
        let len = self.fs.len(&self.path)? as i64;
        let target = match from {
            SeekFrom::Start(n) => n as i64,
            SeekFrom::End(off) => len + off,
            SeekFrom::Current(off) => self.pos as i64 + off,
        };
        if target < 0 {
            return Err(TieraError::InvalidConfig(format!("seek before start of {}", self.path)));
        }
        self.pos = target as u64;
        Ok(self.pos)
    }

    /// Reads up to `len` bytes at the cursor, advancing it.
    pub fn read(&mut self, len: usize) -> Result<Vec<u8>> {
        let r = self.fs.read(&self.path, self.pos, len, self.now)?;
        self.pos += r.value.len() as u64;
        self.now += r.latency;
        Ok(r.value)
    }

    /// Writes at the cursor, advancing it.
    pub fn write(&mut self, data: &[u8]) -> Result<usize> {
        let r = self.fs.write(&self.path, self.pos, data, self.now)?;
        self.pos += r.value as u64;
        self.now += r.latency;
        Ok(r.value)
    }

    /// Reads from the cursor to end-of-file.
    pub fn read_to_end(&mut self) -> Result<Vec<u8>> {
        let len = self.fs.len(&self.path)?.saturating_sub(self.pos) as usize;
        self.read(len)
    }
}

impl std::fmt::Debug for File<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("File").field("path", &self.path).field("pos", &self.pos).finish()
    }
}

impl std::fmt::Debug for TieraFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieraFs")
            .field("files", &self.files.read().len())
            .field("chunk_size", &self.chunk_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    const T0: SimTime = SimTime::ZERO;

    fn fs() -> TieraFs {
        let inst = InstanceBuilder::new("fs", SimEnv::new(9))
            .tier(MemTier::with_capacity("t1", 64 << 20))
            .build()
            .unwrap();
        TieraFs::new(inst)
    }

    #[test]
    fn write_read_roundtrip_within_chunk() {
        let fs = fs();
        fs.create("/db/file", T0).unwrap();
        fs.write("/db/file", 0, b"hello world", T0).unwrap();
        let r = fs.read("/db/file", 0, 11, T0).unwrap();
        assert_eq!(r.value, b"hello world");
        assert_eq!(fs.len("/db/file").unwrap(), 11);
    }

    #[test]
    fn write_spanning_chunk_boundaries() {
        let fs = fs();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.create("/big", T0).unwrap();
        // Write at an unaligned offset spanning three chunks.
        fs.write("/big", 3000, &data, T0).unwrap();
        let r = fs.read("/big", 3000, data.len(), T0).unwrap();
        assert_eq!(r.value, data);
        // The zero-filled prefix reads back as zeros.
        let prefix = fs.read("/big", 0, 3000, T0).unwrap();
        assert!(prefix.value.iter().all(|&b| b == 0));
        assert_eq!(fs.len("/big").unwrap(), 13_000);
    }

    #[test]
    fn partial_overwrite_preserves_neighbors() {
        let fs = fs();
        fs.create("/f", T0).unwrap();
        fs.write("/f", 0, &[0xAA; 8192], T0).unwrap();
        fs.write("/f", 4000, &[0xBB; 200], T0).unwrap();
        let r = fs.read_all("/f", T0).unwrap().value;
        assert_eq!(r.len(), 8192);
        assert!(r[..4000].iter().all(|&b| b == 0xAA));
        assert!(r[4000..4200].iter().all(|&b| b == 0xBB));
        assert!(r[4200..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn append_grows_file() {
        let fs = fs();
        fs.create("/log", T0).unwrap();
        for i in 0..100u32 {
            fs.append("/log", format!("entry-{i};").as_bytes(), T0).unwrap();
        }
        let content = String::from_utf8(fs.read_all("/log", T0).unwrap().value).unwrap();
        assert!(content.starts_with("entry-0;entry-1;"));
        assert!(content.ends_with("entry-99;"));
    }

    #[test]
    fn reads_past_eof_are_short() {
        let fs = fs();
        fs.create("/s", T0).unwrap();
        fs.write("/s", 0, b"abc", T0).unwrap();
        assert_eq!(fs.read("/s", 1, 100, T0).unwrap().value, b"bc");
        assert!(fs.read("/s", 10, 4, T0).unwrap().value.is_empty());
    }

    #[test]
    fn unlink_removes_chunks_from_instance() {
        let fs = fs();
        fs.create("/gone", T0).unwrap();
        fs.write("/gone", 0, &[1u8; 12_000], T0).unwrap();
        assert!(fs.instance().contains("/gone#0"));
        fs.unlink("/gone", T0).unwrap();
        assert!(!fs.exists("/gone"));
        for idx in 0..3 {
            assert!(
                !fs.instance().contains(format!("/gone#{idx}").as_str()),
                "chunk {idx} must be deleted"
            );
        }
        assert!(fs.unlink("/gone", T0).is_err());
    }

    #[test]
    fn rename_moves_content() {
        let fs = fs();
        fs.create("/old", T0).unwrap();
        fs.write("/old", 0, b"content", T0).unwrap();
        fs.rename("/old", "/new", T0).unwrap();
        assert!(!fs.exists("/old"));
        assert_eq!(fs.read_all("/new", T0).unwrap().value, b"content");
    }

    #[test]
    fn truncate_shrinks_and_frees() {
        let fs = fs();
        fs.create("/t", T0).unwrap();
        fs.write("/t", 0, &[7u8; 10_000], T0).unwrap();
        fs.truncate("/t", 4096, T0).unwrap();
        assert_eq!(fs.len("/t").unwrap(), 4096);
        assert!(!fs.instance().contains("/t#1"));
        assert!(!fs.instance().contains("/t#2"));
        let r = fs.read_all("/t", T0).unwrap().value;
        assert_eq!(r.len(), 4096);
        assert!(r.iter().all(|&b| b == 7));
    }

    #[test]
    fn list_by_prefix() {
        let fs = fs();
        for p in ["/db/a", "/db/b", "/tmp/x"] {
            fs.create(p, T0).unwrap();
        }
        assert_eq!(fs.list("/db/"), vec!["/db/a", "/db/b"]);
    }

    #[test]
    fn create_truncates_existing() {
        let fs = fs();
        fs.create("/f", T0).unwrap();
        fs.write("/f", 0, &[1u8; 5000], T0).unwrap();
        fs.create("/f", T0).unwrap();
        assert_eq!(fs.len("/f").unwrap(), 0);
        assert!(!fs.instance().contains("/f#0"));
    }

    #[test]
    fn file_handle_seek_read_write() {
        let fs = fs();
        let mut f = fs.create_open("/h", T0).unwrap();
        f.write(b"hello world").unwrap();
        assert_eq!(f.position(), 11);
        f.seek(SeekFrom::Start(6)).unwrap();
        assert_eq!(f.read(5).unwrap(), b"world");
        f.seek(SeekFrom::End(-5)).unwrap();
        f.write(b"earth").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        assert_eq!(f.read_to_end().unwrap(), b"hello earth");
        // Relative seeks and bounds.
        f.seek(SeekFrom::Start(2)).unwrap();
        f.seek(SeekFrom::Current(3)).unwrap();
        assert_eq!(f.position(), 5);
        assert!(f.seek(SeekFrom::Current(-100)).is_err());
        // Opening a missing file fails; opening an existing one works.
        assert!(fs.open("/missing", T0).is_err());
        let mut g = fs.open("/h", T0).unwrap();
        assert_eq!(g.read(5).unwrap(), b"hello");
    }

    #[test]
    fn manifest_flush_and_recover() {
        let inst = InstanceBuilder::new("fs-manifest", SimEnv::new(10))
            .tier(MemTier::with_capacity("t1", 64 << 20))
            .build()
            .unwrap();
        let fs = TieraFs::new(Arc::clone(&inst));
        fs.create("/a", T0).unwrap();
        fs.write("/a", 0, b"hello", T0).unwrap();
        fs.create("/b/nested", T0).unwrap();
        fs.write("/b/nested", 0, &[7u8; 9000], T0).unwrap();
        fs.flush_manifest(T0).unwrap();

        // A fresh filesystem over the same instance recovers everything.
        let fs2 = TieraFs::recover(Arc::clone(&inst), T0).unwrap();
        assert_eq!(fs2.len("/a").unwrap(), 5);
        assert_eq!(fs2.len("/b/nested").unwrap(), 9000);
        assert_eq!(fs2.read_all("/a", T0).unwrap().value, b"hello");
        assert_eq!(fs2.list("/"), vec!["/a", "/b/nested"]);
        // Without a manifest, recovery reports the missing object.
        let empty = InstanceBuilder::new("no-manifest", SimEnv::new(11))
            .tier(MemTier::with_capacity("t1", 1 << 20))
            .build()
            .unwrap();
        assert!(TieraFs::recover(empty, T0).is_err());
    }

    #[test]
    fn a_corrupt_manifest_is_a_codec_error_not_an_abort() {
        let inst = InstanceBuilder::new("fs-corrupt", SimEnv::new(12))
            .tier(MemTier::with_capacity("t1", 1 << 20))
            .build()
            .unwrap();
        let fs = TieraFs::new(Arc::clone(&inst));
        fs.create("/a", T0).unwrap();
        fs.write("/a", 0, b"hello", T0).unwrap();
        fs.flush_manifest(T0).unwrap();
        let (real, _) = inst.get(MANIFEST_KEY, T0).unwrap();
        // A stored count of u32::MAX must not size the table: that is a
        // 283 GB allocation, which aborts the process.
        for stored in [vec![0xff; 4], real[..real.len() - 1].to_vec()] {
            inst.put(MANIFEST_KEY, stored, T0).unwrap();
            let err = TieraFs::recover(Arc::clone(&inst), T0).unwrap_err();
            assert!(matches!(err, TieraError::Codec(_)), "{err:?}");
        }
    }

    #[test]
    fn latency_accumulates_across_chunks() {
        // With a latency-free MemTier latency is zero; use the receipt shape
        // to confirm accounting plumbs through.
        let fs = fs();
        fs.create("/f", T0).unwrap();
        let w = fs.write("/f", 0, &[0u8; 8192], T0).unwrap();
        assert_eq!(w.value, 8192);
        assert_eq!(w.latency, SimDuration::ZERO);
    }

    #[test]
    fn prop_random_writes_match_model() {
        use tiera_support::prop::gen;
        tiera_support::prop_check!(cases = 16, |rng| {
            let ops = gen::vec_of(rng, 1..25, |rng| {
                (rng.next_below(20_000), gen::byte_vec(rng, 1..3000))
            });
            let fs = fs();
            fs.create("/m", T0).unwrap();
            let mut model: Vec<u8> = Vec::new();
            for (offset, data) in &ops {
                fs.write("/m", *offset, data, T0).unwrap();
                let end = *offset as usize + data.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[*offset as usize..end].copy_from_slice(data);
            }
            let got = fs.read_all("/m", T0).unwrap().value;
            assert_eq!(got, model);
        });
    }
}

//! Opening a directory: file names, `metastore.meta`, the recovery of one
//! shard (newest valid snapshot, then the segments after it), and the open
//! that recovers every shard in parallel.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use tiera_support::sync::{rank, Mutex, RwLock};

use super::commit::{CommitState, Shard};
use super::index::{file_no, Index, LogFile};
use super::{KeyHash, MetaStore, MetaStoreError, MetaStoreOptions};
use crate::kill::KillPoints;

const META_FILE: &str = "metastore.meta";

pub(super) fn seg_path(dir: &Path, shard: usize, n: u64) -> PathBuf {
    dir.join(format!("s{shard:02}-seg-{n:010}.log"))
}

pub(super) fn snap_path(dir: &Path, shard: usize, n: u64) -> PathBuf {
    dir.join(format!("s{shard:02}-snap-{n:010}.log"))
}

pub(super) fn snap_tmp_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("s{shard:02}-snap.tmp"))
}

/// fsyncs the directory itself, making renames and file creations durable.
pub(super) fn sync_dir(dir: &Path) -> io::Result<()> {
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
pub(super) fn create_segment(dir: &Path, shard: usize, n: u64) -> io::Result<Arc<File>> {
    let file = open_segment(dir, shard, n)?;
    file.set_len(0)?;
    sync_dir(dir)?;
    Ok(Arc::new(file))
}

/// Removes a file that is no longer part of the store; returns how many
/// removals failed (0 or 1). A file already gone is the goal reached. Any
/// other failure leaves debris that the next open finds and removes again,
/// so it is counted ([`Stats::cleanup_failures`]), not returned.
///
/// [`Stats::cleanup_failures`]: super::Stats::cleanup_failures
pub(super) fn remove_debris(path: &Path) -> u64 {
    match fs::remove_file(path) {
        Ok(()) => 0,
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(_) => 1,
    }
}

/// A directory entry the scanner recognized.
pub(super) enum ScanFile {
    Seg(usize, u64),
    Snap(usize, u64),
    SnapTmp(PathBuf),
}

pub(super) fn parse_name(path: &Path) -> Result<Option<ScanFile>, MetaStoreError> {
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
                    if let Some(num) =
                        tail.strip_prefix(prefix).and_then(|t| t.strip_suffix(".log"))
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
pub(super) struct ShardFiles {
    pub(super) segs: Vec<u64>,
    pub(super) snaps: Vec<u64>,
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
    Err(MetaStoreError::Config(format!("unreadable meta file {}", path.display())))
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
    /// [`open_with`](Self::open_with), with the key hash a parameter: the
    /// seam through which tests make every key collide.
    pub(super) fn open_hashed(
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
}

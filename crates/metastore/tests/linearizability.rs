//! Concurrent-writer linearizability for the sharded metastore.
//!
//! The contract: whatever interleaving the threads
//! produce, the store's final state must equal a **sequential replay of
//! the per-shard logs** — the log is the linearization. A second property
//! pins recovery: truncating the log suffix at any record boundary yields
//! a state that is a prefix of the acked history.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tiera_metastore::{
    encoded_record_len, LogReader, MetaStore, MetaStoreOptions, RecordKind,
};
use tiera_support::prop::gen;
use tiera_support::prop_check;
use tiera_support::rng::SimRng;

fn temp_dir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "tiera-linz-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

/// Replays every shard's segment chain sequentially (file-name order
/// carries both the shard and the segment sequence) into one map —
/// the ground truth the live index must match.
fn replay_all_segments(dir: &Path) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut seg_files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.contains("-seg-") && n.ends_with(".log"))
                .unwrap_or(false)
        })
        .collect();
    seg_files.sort();
    let mut map = BTreeMap::new();
    for path in seg_files {
        let mut reader = LogReader::new(File::open(&path).unwrap());
        while let Some(rec) = reader.next_record().unwrap() {
            match rec.kind {
                RecordKind::Put => {
                    map.insert(rec.key, rec.value);
                }
                RecordKind::Delete => {
                    map.remove(&rec.key);
                }
                RecordKind::Seal => panic!("seal record in a segment"),
            }
        }
    }
    map
}

/// 4 threads hammer one store (mixed put/delete/get, every record fsynced
/// by its own writer under the shard's commit lock); afterwards the
/// in-memory state, a sequential replay of the per-shard logs, and a fresh
/// reopen must all agree.
#[test]
fn hammer_matches_sequential_log_replay() {
    let dir = temp_dir("hammer");
    let store = Arc::new(
        MetaStore::open_with(
            &dir,
            MetaStoreOptions {
                sync_every_append: true,
                shards: 4,
                compact_garbage_ratio: 1.0, // keep every segment for replay
                ..MetaStoreOptions::default()
            },
        )
        .unwrap(),
    );
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let mut rng = SimRng::new(0x5eed_0000 + t);
            for i in 0..120u64 {
                // Overlapping keyspace so threads contend on shards.
                let key = format!("key-{:02}", rng.next_below(40));
                if rng.chance(0.2) {
                    store.delete(key.as_bytes()).unwrap();
                } else {
                    let value = format!("t{t}-i{i}");
                    store.put(key.as_bytes(), value.as_bytes()).unwrap();
                }
                if rng.chance(0.3) {
                    let _ = store.get(key.as_bytes());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let live: BTreeMap<Vec<u8>, Vec<u8>> = store.scan_prefix(b"").into_iter().collect();
    let replayed = replay_all_segments(&dir);
    assert_eq!(live, replayed, "live index != sequential log replay");

    drop(store);
    let reopened: BTreeMap<Vec<u8>, Vec<u8>> = MetaStore::open(&dir)
        .unwrap()
        .scan_prefix(b"")
        .into_iter()
        .collect();
    assert_eq!(reopened, replayed, "recovery != sequential log replay");
    fs::remove_dir_all(&dir).ok();
}

/// Reopen after truncating the (single-shard) log at **any** record
/// boundary yields exactly the first `j` acked operations — a prefix of
/// acked state, never a subset with holes and never phantom keys.
#[test]
fn prop_truncation_yields_acked_prefix() {
    prop_check!(cases = 16, |rng| {
        let dir = temp_dir("prefix");
        // Distinct keys + per-op values so every state change is visible.
        let ops = gen::usize_in(rng, 5..60);
        let mut lens: Vec<u64> = Vec::new(); // cumulative boundary offsets
        {
            let s = MetaStore::open_with(
                &dir,
                MetaStoreOptions {
                    sync_every_append: true,
                    shards: 1,
                    ..MetaStoreOptions::default()
                },
            )
            .unwrap();
            let mut at = 0u64;
            for i in 0..ops {
                let key = format!("key-{i:04}");
                s.put(key.as_bytes(), format!("v{i}").as_bytes()).unwrap();
                at += encoded_record_len(key.len(), format!("v{i}").len());
                lens.push(at);
            }
        }
        let seg: PathBuf = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.contains("-seg-"))
                    .unwrap_or(false)
            })
            .unwrap();
        assert_eq!(fs::metadata(&seg).unwrap().len(), *lens.last().unwrap());
        // Truncate at a random record boundary (0 = empty log).
        let j = gen::usize_in(rng, 0..ops + 1);
        let cut = if j == 0 { 0 } else { lens[j - 1] };
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let s = MetaStore::open(&dir).unwrap();
        assert_eq!(s.len(), j, "state must be exactly the first {j} acked ops");
        for i in 0..ops {
            let key = format!("key-{i:04}");
            if i < j {
                assert_eq!(s.get(key.as_bytes()), Some(format!("v{i}").into_bytes()));
            } else {
                assert_eq!(s.get(key.as_bytes()), None, "phantom key after cut");
            }
        }
        fs::remove_dir_all(&dir).ok();
    });
}

/// Same property off a record boundary: the torn record (and only it)
/// disappears; everything before the tear survives.
#[test]
fn prop_mid_record_truncation_drops_only_the_torn_tail() {
    prop_check!(cases = 12, |rng| {
        let dir = temp_dir("tear");
        let ops = gen::usize_in(rng, 2..40);
        let mut lens: Vec<u64> = Vec::new();
        {
            let s = MetaStore::open_with(
                &dir,
                MetaStoreOptions {
                    sync_every_append: true,
                    shards: 1,
                    ..MetaStoreOptions::default()
                },
            )
            .unwrap();
            let mut at = 0u64;
            for i in 0..ops {
                let key = format!("key-{i:04}");
                s.put(key.as_bytes(), b"vv").unwrap();
                at += encoded_record_len(key.len(), 2);
                lens.push(at);
            }
        }
        let seg: PathBuf = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.contains("-seg-"))
                    .unwrap_or(false)
            })
            .unwrap();
        // Cut strictly inside record j (not at either boundary).
        let j = gen::usize_in(rng, 0..ops);
        let lo = if j == 0 { 0 } else { lens[j - 1] };
        let cut = gen::u64_in(rng, lo + 1..lens[j]);
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let s = MetaStore::open(&dir).unwrap();
        assert_eq!(s.len(), j, "exactly the records before the tear survive");
        fs::remove_dir_all(&dir).ok();
    });
}

//! Deterministic kill-point crash testing for the sharded metastore.
//!
//! The metastore plants [`KillSite`]s at every durability transition
//! (either side of a record's fsync, both halves of a rotation, and the
//! whole snapshot protocol). This harness drives one store
//! per-site through a seeded workload, arms the site, lets it fire,
//! simulates the crash — truncating each shard's active segment to its
//! last-fsynced length per [`MetaStore::crash_image`], exactly what a
//! power cut leaves behind — reopens the directory, and checks the
//! recovery invariant:
//!
//! > **Every acknowledged durable mutation survives reopen, and no
//! > phantom keys appear.**
//!
//! Formally, per shard: the reopened state must equal the acknowledged
//! model extended by some *prefix* of the records the killed operation
//! had attempted (a killed-but-already-fsynced record may legitimately
//! surface — the usual "a failed write may still have happened" storage
//! semantics — but an unsynced one must not, and nothing acknowledged may
//! vanish).
//!
//! Every case is a pure function of `(site, seed)`: the workload, the
//! kill, the truncation, and the report replay byte-identically.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::Path;

use tiera_metastore::{KillSite, MetaStore, MetaStoreError, MetaStoreOptions};
use tiera_support::rng::SimRng;

/// Shards used by every crash case (small enough that both see traffic).
const SHARDS: usize = 2;
/// Small segments so rotation sites are reachable within the op budget.
const SEG_BYTES: u64 = 600;

/// One mutation, as the workload model tracks it.
#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

impl Op {
    fn key(&self) -> &[u8] {
        match self {
            Op::Put(k, _) | Op::Delete(k) => k,
        }
    }

    fn apply(&self, map: &mut BTreeMap<Vec<u8>, Vec<u8>>) {
        match self {
            Op::Put(k, v) => {
                map.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                map.remove(k);
            }
        }
    }
}

/// Outcome of one crash case — deterministic per `(site, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCaseReport {
    /// The site that fired ([`KillSite::name`]).
    pub site: &'static str,
    /// Acknowledged mutations before the kill (warmup + kill phase).
    pub acked_ops: usize,
    /// Records the killed operation had attempted (unacknowledged).
    pub attempted_records: usize,
    /// Live keys after reopen.
    pub recovered_keys: usize,
    /// Per shard, how many of the attempted records surfaced on reopen
    /// (always a prefix; indexed by shard).
    pub surfaced_prefix: Vec<usize>,
}

fn gen_key(rng: &mut SimRng) -> Vec<u8> {
    format!("k{:03}", rng.next_below(64)).into_bytes()
}

fn gen_value(rng: &mut SimRng) -> Vec<u8> {
    format!("v{:04}", rng.next_below(10_000)).into_bytes()
}

fn is_killed(err: &MetaStoreError) -> bool {
    matches!(err, MetaStoreError::Killed(_))
}

/// Runs one crash case in `dir` (which must be empty). Returns the report
/// or a description of the violated invariant.
pub fn run_crash_case(dir: &Path, site: KillSite, seed: u64) -> Result<CrashCaseReport, String> {
    let mut rng = SimRng::new(seed ^ 0xC4A5_4000);
    let opts = MetaStoreOptions {
        segment_max_bytes: SEG_BYTES,
        compact_garbage_ratio: 1.0, // rotation, never auto-snapshot
        sync_every_append: true,
        shards: SHARDS,
    };
    let store = MetaStore::open_with(dir, opts).map_err(|e| format!("open failed: {e}"))?;

    // Acked mutations per shard, in commit order (single-threaded driver,
    // so issue order is commit order).
    let mut acked: Vec<Vec<Op>> = vec![Vec::new(); SHARDS];
    let mut ack_op = |op: Op| {
        let s = MetaStore::shard_of(op.key(), SHARDS);
        acked[s].push(op);
    };

    // Warmup: seeded puts and deletes, all acknowledged.
    for _ in 0..20 {
        let key = gen_key(&mut rng);
        if rng.chance(0.2) {
            store.delete(&key).map_err(|e| format!("warmup delete failed: {e}"))?;
            ack_op(Op::Delete(key));
        } else {
            let value = gen_value(&mut rng);
            store.put(&key, &value).map_err(|e| format!("warmup put failed: {e}"))?;
            ack_op(Op::Put(key, value));
        }
    }

    // Kill phase: arm the site, then drive the operation shape that
    // reaches it until it fires. Records the killed op had attempted are
    // tracked per shard — they may surface as a prefix, never beyond.
    store.kill_points().arm(site, 0);
    let mut attempted: Vec<Vec<Op>> = vec![Vec::new(); SHARDS];
    let mut fired = false;
    match site {
        KillSite::SnapMidWrite
        | KillSite::SnapBeforeSync
        | KillSite::SnapBeforeRename
        | KillSite::SnapAfterRename
        | KillSite::SnapAfterCleanup => {
            // Snapshots mutate nothing: a kill anywhere in the protocol
            // must lose nothing acknowledged.
            match store.compact() {
                Err(e) if is_killed(&e) => fired = true,
                Err(e) => return Err(format!("unexpected error: {e}")),
                Ok(()) => {}
            }
        }
        _ => {
            // Record-sync and rotation sites: single puts until the site
            // fires (rotation needs enough bytes to cross a segment).
            for _ in 0..400 {
                let key = gen_key(&mut rng);
                let value = gen_value(&mut rng);
                match store.put(&key, &value) {
                    Ok(()) => ack_op(Op::Put(key, value)),
                    Err(e) if is_killed(&e) => {
                        fired = true;
                        let s = MetaStore::shard_of(&key, SHARDS);
                        attempted[s].push(Op::Put(key, value));
                        break;
                    }
                    Err(e) => return Err(format!("unexpected error: {e}")),
                }
            }
        }
    }
    if !fired {
        return Err(format!("kill site {} never fired", site.name()));
    }

    // The crash: forget the process, keep only what the disk had fsynced.
    let image = store.crash_image();
    drop(store);
    for (path, synced) in image {
        // A site that fired mid-rotation may leave the active segment
        // already removed (snapshot cleanup) — nothing to truncate then.
        if path.exists() {
            OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(synced))
                .map_err(|e| format!("truncate {} failed: {e}", path.display()))?;
        }
    }

    // Reopen and check the invariant shard by shard.
    let store = MetaStore::open(dir).map_err(|e| format!("reopen failed: {e}"))?;
    let mut recovered: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    store
        .for_each(|k, v| {
            recovered.insert(k.to_vec(), v.to_vec());
        })
        .map_err(|e| format!("reading the reopened store failed: {e}"))?;
    let mut shard_maps: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = vec![BTreeMap::new(); SHARDS];
    for (k, v) in &recovered {
        shard_maps[MetaStore::shard_of(k, SHARDS)].insert(k.clone(), v.clone());
    }
    let mut surfaced_prefix = vec![0usize; SHARDS];
    for shard in 0..SHARDS {
        let mut model = BTreeMap::new();
        for op in &acked[shard] {
            op.apply(&mut model);
        }
        // Candidate states: acked model extended by each prefix of the
        // attempted records.
        let mut matched = false;
        for cut in 0..=attempted[shard].len() {
            let mut candidate = model.clone();
            for op in &attempted[shard][..cut] {
                op.apply(&mut candidate);
            }
            if shard_maps[shard] == candidate {
                surfaced_prefix[shard] = cut;
                matched = true;
                break;
            }
        }
        if !matched {
            let missing: Vec<String> = model
                .keys()
                .filter(|k| !shard_maps[shard].contains_key(*k))
                .map(|k| String::from_utf8_lossy(k).into_owned())
                .collect();
            let phantom: Vec<String> = shard_maps[shard]
                .keys()
                .filter(|k| !model.contains_key(*k))
                .filter(|k| !attempted[shard].iter().any(|op| op.key() == k.as_slice()))
                .map(|k| String::from_utf8_lossy(k).into_owned())
                .collect();
            return Err(format!(
                "site {} seed {seed} shard {shard}: recovered state is not \
                 acked-model + attempted-prefix (lost acked: {missing:?}; \
                 phantom: {phantom:?})",
                site.name()
            ));
        }
    }

    // The reopened store must be fully operational.
    store.put(b"post-crash", b"alive").map_err(|e| format!("post-crash put failed: {e}"))?;
    if store.get(b"post-crash").as_deref() != Some(b"alive".as_slice()) {
        return Err("post-crash put not readable".into());
    }

    Ok(CrashCaseReport {
        site: site.name(),
        acked_ops: acked.iter().map(Vec::len).sum(),
        attempted_records: attempted.iter().map(Vec::len).sum(),
        recovered_keys: recovered.len(),
        surfaced_prefix,
    })
}

/// Runs the whole matrix — every [`KillSite`] once under `seed` — in
/// subdirectories of `base`. Returns per-site results in site order.
pub fn run_crash_matrix(
    base: &Path,
    seed: u64,
) -> Vec<(KillSite, Result<CrashCaseReport, String>)> {
    KillSite::ALL
        .iter()
        .map(|&site| {
            let dir = base.join(format!("site-{}", site.name().replace('.', "-")));
            fs::create_dir_all(&dir).ok();
            let result = run_crash_case(&dir, site, seed);
            fs::remove_dir_all(&dir).ok();
            (site, result)
        })
        .collect()
}

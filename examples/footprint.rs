//! Bytes of resident memory per stored object, layer by layer.
//!
//! Builds the registry alone, a memory tier alone, a bare instance, an
//! instance with a metadata directory, a three-node cluster, the backup
//! stack and a write-back stack over the same keys and prints how much
//! anonymous resident memory (`RssAnon`) each added per object — the numbers behind DESIGN.md's
//! per-object memory budget. Each row runs in a process of its own (the
//! example runs itself again with `--row <name>`), so no row reuses heap
//! chunks an earlier row freed, nor pays for chunks it left. Then the
//! served-overwrite probes behind DESIGN.md's payload byte budget, each in
//! a process of its own too: one thread loads 4 KiB values, or 128-byte
//! ones that settle into the memory tier's slab, another overwrites them,
//! and the peak resident set should not grow.
//!
//! ```bash
//! cargo run --release --example footprint            # 100 000 keys
//! cargo run --release --example footprint -- --check # ... and fail if over the budget
//! cargo run --release --example footprint -- --quick # 2 000 keys: only checks it runs
//! cargo run --release --example footprint -- --row tier # one row's figure alone
//! ```
//!
//! The budget `--check` holds the metadata plane to, at 100 000 keys: the
//! registry alone costs at most [`REGISTRY_BUDGET`] bytes an object, and
//! [`INDEXED_REGISTRY_BUDGET`] once an ordered read has built its order
//! indexes; a memory tier alone at most [`MEMORY_TIER_BUDGET`]; a bare
//! instance at most [`BARE_INSTANCE_BUDGET`], an instance with a
//! `metadata_dir` at most [`INSTANCE_META_BUDGET`], of which the metastore
//! — that row less the bare instance's — at most [`METASTORE_BUDGET`],
//! a key under a coordinator replicating it to three nodes at most
//! [`COORDINATOR_BUDGET`], and an object of the backup stack (an
//! lzss-compressed cache written back to a dedup volume, 8 192 keys) at
//! most [`BACKUP_BUDGET`], and one of a Memcached cache written back to
//! EBS (8 192 keys) at most [`WRITEBACK_BUDGET`]. Only the indexed
//! registry row and the two written-back rows, whose timers select by
//! list, make an ordered read: the others keep no order indexes, so a
//! change that brings eager index upkeep back fails their budgets. Each served-overwrite probe may
//! raise the peak resident set by at most [`OVERWRITE_GROWTH_BUDGET`] ×
//! the bytes stored: a tier that drops replaced values where the payload
//! pool cannot see them fails it at ≈ 1.0, and so would a slab that did not
//! reuse the cells overwrites free.

use std::process::Command;
use std::sync::Arc;

use tiera::cluster::{ClusterNode, Coordinator};
use tiera::core::meta::ObjectMeta;
use tiera::core::registry::Registry;
use tiera::core::tier::Tier;
use tiera::prelude::*;
use tiera::spec::{Compiler, ParamValue};
use tiera::tiers::MemoryTier;

const PAYLOAD: usize = 128;
/// Keys of the backup row: the benchmark's `backup-write-heavy` count.
const BACKUP_KEYS: usize = 8_192;
/// The backup row's stack: an lzss-compressed Memcached cache written back
/// by a timer to a `dedup: sha256` EBS volume.
const BACKUP_SPEC: &str = include_str!("../specs/compressed_cache.tiera");
/// Keys of the write-back row: as many as the volume takes in one tick of
/// the timer.
const WRITEBACK_KEYS: usize = 8_192;
/// The write-back row's stack: a Memcached cache written back by a timer to
/// an EBS volume (the paper's Figure 3).
const WRITEBACK_SPEC: &str = include_str!("../specs/low_latency.tiera");

// Every figure below is anonymous memory (`RssAnon`), which repeats to
// ± 0.05 B an object; the "before" figures were read as `VmRSS`, which
// also counted the binary's code pages and swung ± 1 B with its load
// address, unless they say otherwise.

/// Bytes an object may cost the registry alone, which keeps no order
/// indexes: 100.8 measured, + 2 % (157 before keys of up to 22 bytes were
/// held inline and the entry shrank to 48 bytes; 219 while it kept the
/// indexes eagerly).
const REGISTRY_BUDGET: f64 = 103.0;
/// Bytes an object may cost a registry whose order indexes are built:
/// three recency lists' link pairs and a slab node (167.2 measured, + 2 %;
/// 203 before).
const INDEXED_REGISTRY_BUDGET: f64 = 171.0;
/// Bytes an object may cost a memory tier alone, less the payload: the
/// 40-byte map slot, its key inline, at load 1/1.31 (54), and the slab
/// cell's rounding up to 16 B, which is none at 128 B. 54.6 measured, plus
/// 2 % (85.8 while every value was a buffer of its own with a 16-byte
/// header and 16 B of chunk rounding; 123 while the key was a shared
/// string with a 48-byte chunk).
const MEMORY_TIER_BUDGET: f64 = 56.0;
/// Bytes an object may cost a bare instance (153.3 measured, + 2 %; 183.3
/// before the slab, 234–236 before the inline keys).
const BARE_INSTANCE_BUDGET: f64 = 157.0;
/// Bytes an object may cost an instance with a `metadata_dir` (189.4
/// measured, + 2 %; 218.7 before the slab, 271–273 before the inline
/// keys).
const INSTANCE_META_BUDGET: f64 = 194.0;
/// Bytes of that which may be the metastore's: its locator table (≈ 33)
/// and what growing the table left in the allocator (36.1 measured, + 2 %:
/// the difference of two rows, so the tightest of the budgets; 35.4 before
/// the slab).
const METASTORE_BUDGET: f64 = 37.0;
/// Bytes a key may cost a `Coordinator` replicating it to three bare
/// instances: three registry and tier entries, the coordinator's record
/// and the key, inline in all four maps (539.9 measured, + 2 %, with or
/// without the slab, since the replicas share the payload's buffer and it
/// never enters one; 581 before, when the four shared one key string). A
/// key string per replica again would cost a long key about 3 × 48 more.
const COORDINATOR_BUDGET: f64 = 551.0;
/// Bytes an object may cost the backup stack (lzss-compressed Memcached
/// over a dedup EBS volume, every object written back), less the bytes
/// its two tiers store: 983.1 measured at 8 192 keys, + 2 %, its compressed
/// values and blobs in the slabs (1 023.5 before the slab). It read
/// 1 016–1 028 as `VmRSS` while keys were shared strings: this stack holds
/// a key in more maps than inline keys save (DESIGN.md, "Inline keys are a
/// trade").
const BACKUP_BUDGET: f64 = 1003.0;
/// Bytes an object may cost Memcached written back to EBS, less one copy
/// of the payload: 678.0–678.5 measured at 8 192 keys, + 2 %. 598 before
/// the slab, when the two tiers shared one buffer: the value settles into
/// the cache's slab long before the timer copies it, so the copy is a
/// buffer of its own, which settles into the volume's slab, and the two
/// cells cost 80 B more than one shared buffer (DESIGN.md, "Small values
/// in a slab").
const WRITEBACK_BUDGET: f64 = 693.0;
/// Peak resident set growth a served-overwrite probe may show, per byte
/// stored (0.00–0.03 measured, 4 KiB or 128-byte values; ≈ 1.0 when
/// replaced values are freed rather than recycled).
const OVERWRITE_GROWTH_BUDGET: f64 = 0.05;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("{field} line"));
    kb * 1024
}

/// Anonymous resident memory in bytes: the heap and anonymous maps, not
/// the pages of the binary's code a build faults in, which depend on where
/// the loader put it and moved `VmRSS` rows by ± 1 B an object run to run.
fn rss() -> u64 {
    status_bytes("RssAnon:")
}

/// What `build` adds to the resident set per key, less `payload` bytes of
/// user data. What it built stays alive until that is read.
fn measure<T>(keys: usize, payload: usize, build: impl FnOnce() -> T) -> f64 {
    measure_stored(keys, || (build(), (keys * payload) as u64))
}

/// [`measure`] for a build that reports the bytes its tiers store, which
/// are subtracted instead of a fixed payload.
fn measure_stored<T>(keys: usize, build: impl FnOnce() -> (T, u64)) -> f64 {
    let before = rss();
    let (built, stored) = build();
    let per_key = rss().saturating_sub(before).saturating_sub(stored) as f64 / keys as f64;
    drop(built);
    per_key
}

fn memory_tier(env: &SimEnv) -> Arc<MemoryTier> {
    Arc::new(MemoryTier::same_az("mem", 1 << 30, env))
}

fn load(inst: &Instance, names: &[String]) {
    for name in names {
        inst.put(name, vec![7u8; PAYLOAD], SimTime::ZERO).expect("put");
    }
}

/// Loads `keys` values of `value` bytes on this thread, overwrites each of
/// them [`ROUNDS`] times from a second one — a connection worker's side of a
/// served instance — and returns how far the peak resident set (`VmHWM`)
/// rose during the overwrites, per byte stored. An overwrite that
/// allocates its value afresh fills the second thread's malloc arena with a
/// second copy of the store while the first thread's, emptied, stays
/// resident (≈ 1.0); one that recycles the buffer or the slab cell it
/// replaced adds nothing (≈ 0). Values of 256 bytes or less settle into the
/// memory tier's slab; larger ones stay buffers.
fn served_overwrite(env: &SimEnv, keys: usize, value: usize) -> f64 {
    let names: Vec<String> = (0..keys).map(|k| format!("block{k:08}")).collect();
    let inst = InstanceBuilder::new("served", env.clone())
        .tier(memory_tier(env))
        .build()
        .expect("served instance");
    for name in &names {
        inst.put(name, vec![0u8; value], SimTime::ZERO).expect("load");
    }
    let loaded = status_bytes("VmHWM:");
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                for name in &names {
                    inst.put(name, vec![round; value], SimTime::ZERO).expect("overwrite");
                }
            }
        });
    });
    status_bytes("VmHWM:").saturating_sub(loaded) as f64 / (keys * value) as f64
}

/// Times the served-overwrite probe overwrites each key.
const ROUNDS: u8 = 8;

/// The served-overwrite probes, each run as a row of its own (a peak
/// resident set is a process's whole past): the name `--row` takes, the
/// value size, and the probe's keys as a share (1 in n) of the rows'.
const PROBES: [(&str, usize, usize); 2] =
    [("overwrite", 4096, 10), ("overwrite-small", PAYLOAD, 1)];

/// The rows, in the order they print: the name `--row` takes and the label.
const ROWS: [(&str, &str); 8] = [
    ("registry", "Registry (one location, clean)"),
    ("indexed", "Registry after its first ordered read"),
    ("tier", "MemoryTier"),
    ("bare", "Instance, no rules (registry + tier)"),
    ("meta", "Instance with metadata_dir (+ metastore index)"),
    ("coordinator", "Coordinator R=3 over 3 nodes (per key)"),
    ("backup", "lzss cache over dedup EBS, 8 192 keys"),
    ("writeback", "Memcached over EBS, written back (per key)"),
];

/// Builds row `name` over `keys` keys and returns its bytes per object;
/// `None` for a name [`ROWS`] does not list.
fn row(name: &str, keys: usize) -> Option<f64> {
    let names: Vec<String> = (0..keys).map(|k| format!("user{k:012}")).collect();
    let env = SimEnv::new(7);
    let load_registry = |registry: &Registry| {
        for name in &names {
            let mut meta = ObjectMeta::new(PAYLOAD as u64, SimTime::ZERO);
            meta.locations.insert("mem".to_string());
            registry.upsert(ObjectKey::new(name), meta);
        }
    };
    let per_key = match name {
        "registry" => measure(keys, 0, || {
            let registry = Registry::in_memory();
            load_registry(&registry);
            registry
        }),
        "indexed" => measure(keys, 0, || {
            let registry = Registry::in_memory();
            assert_eq!(registry.oldest_in("mem"), None);
            load_registry(&registry);
            registry
        }),
        "tier" => measure(keys, PAYLOAD, || {
            let tier = memory_tier(&env);
            for name in &names {
                tier.put(&ObjectKey::new(name), vec![7u8; PAYLOAD].into(), SimTime::ZERO)
                    .expect("tier put");
            }
            tier
        }),
        "bare" => measure(keys, PAYLOAD, || {
            let inst = InstanceBuilder::new("bare", env.clone())
                .tier(memory_tier(&env))
                .build()
                .expect("bare instance");
            load(&inst, &names);
            inst
        }),
        "meta" => {
            let dir = std::env::temp_dir().join(format!("tiera-footprint-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let per_key = measure(keys, PAYLOAD, || {
                let inst = InstanceBuilder::new("meta", env.clone())
                    .tier(memory_tier(&env))
                    .metadata_dir(&dir)
                    .build()
                    .expect("instance with metadata_dir");
                load(&inst, &names);
                inst
            });
            std::fs::remove_dir_all(&dir).ok();
            per_key
        }
        "coordinator" => measure(keys, PAYLOAD, || {
            let coord = Coordinator::new(3, 2);
            for i in 0..3 {
                let name = format!("node-{i}");
                let inst = InstanceBuilder::new(name.as_str(), env.clone())
                    .tier(memory_tier(&env))
                    .build()
                    .expect("replica instance");
                coord.add_node(ClusterNode::new(name, inst)).expect("distinct node names");
            }
            for name in &names {
                // One payload, which the three replicas share.
                coord.put(name, vec![7u8; PAYLOAD].into(), SimTime::ZERO).expect("routed put");
            }
            coord
        }),
        "backup" => {
            let keys = keys.min(BACKUP_KEYS);
            measure_stored(keys, || {
                let spec = tiera::spec::parse(BACKUP_SPEC).expect("the spec parses");
                let inst = Compiler::new(&tiera::tiers::default_catalog(&env), env.clone())
                    .bind("t", ParamValue::Duration(SimDuration::from_secs(1)))
                    .compile(&spec)
                    .expect("the spec compiles");
                for (k, name) in names.iter().take(keys).enumerate() {
                    // Distinct and compressible, as a backup's blocks are.
                    let value = format!("{k:016}").repeat(PAYLOAD / 16);
                    inst.put(name, value.into_bytes(), SimTime::ZERO).expect("put");
                }
                // The timer writes every dirty object back to tier2.
                inst.pump(SimTime::from_secs(2)).expect("write-back");
                let tier2 = inst.tier("tier2").expect("tier2");
                assert_eq!(tier2.request_counts().puts, keys as u64, "every object written back");
                let stored = ["tier1", "tier2"].map(|t| inst.tier(t).expect("a tier").used());
                (inst, stored.iter().sum())
            })
        }
        "writeback" => {
            let keys = keys.min(WRITEBACK_KEYS);
            measure(keys, PAYLOAD, || {
                let spec = tiera::spec::parse(WRITEBACK_SPEC).expect("the spec parses");
                let inst = Compiler::new(&tiera::tiers::default_catalog(&env), env.clone())
                    .bind("t", ParamValue::Duration(SimDuration::from_secs(1)))
                    .compile(&spec)
                    .expect("the spec compiles");
                load(&inst, &names[..keys]);
                // The timer copies every dirty object to tier2.
                inst.pump(SimTime::from_secs(2)).expect("write-back");
                let tier2 = inst.tier("tier2").expect("tier2");
                assert_eq!(tier2.request_counts().puts, keys as u64, "every object written back");
                inst
            })
        }
        _ => {
            let &(_, value, share) = PROBES.iter().find(|(probe, ..)| *probe == name)?;
            served_overwrite(&env, keys / share, value)
        }
    };
    Some(per_key)
}

/// Row `name`'s figure (bytes per object, or a probe's growth), measured by
/// this example run again in a child process with `--row`: a fresh heap,
/// which no other row has grown or freed chunks in.
fn in_child(name: &str, quick: bool) -> f64 {
    let mut child = Command::new(std::env::current_exe().expect("the example's own path"));
    child.args(["--row", name]);
    if quick {
        child.arg("--quick");
    }
    let out = child.output().expect("run a row in a child process");
    let figure = std::str::from_utf8(&out.stdout).ok().and_then(|s| s.trim().parse().ok());
    match figure {
        Some(per_key) if out.status.success() => per_key,
        _ => {
            eprintln!("footprint: row {name} failed: {}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let keys = if quick { 2_000 } else { 100_000 };
    if let Some(at) = args.iter().position(|a| a == "--row") {
        let name = args.get(at + 1).map_or("", String::as_str);
        let Some(per_key) = row(name, keys) else {
            let rows = ROWS.iter().map(|(name, _)| *name);
            let names: Vec<&str> = rows.chain(PROBES.iter().map(|(name, ..)| *name)).collect();
            eprintln!("footprint: --row takes one of {}", names.join(", "));
            std::process::exit(2);
        };
        println!("{per_key}");
        return;
    }
    if quick && check {
        eprintln!("footprint: the budget --check holds is stated at 100 000 keys; drop --quick");
        std::process::exit(2);
    }
    println!("{keys} keys, {PAYLOAD}-byte payloads; payload bytes excluded; one process a row\n");
    let mut figures = [0.0; ROWS.len()];
    for ((name, label), figure) in ROWS.iter().zip(&mut figures) {
        *figure = in_child(name, quick);
        println!("{label:<46} {figure:>7.0} B/object");
    }
    let [registry, indexed, tier, bare, with_meta, coordinator, backup, writeback] = figures;

    let mut growths = [0.0; PROBES.len()];
    for ((name, value, share), growth) in PROBES.iter().zip(&mut growths) {
        *growth = in_child(name, quick);
        let probe_keys = keys / share;
        println!("\nserved overwrite: {probe_keys} x {value} B, overwritten {ROUNDS}x from a second thread");
        println!("{:<46} {growth:>7.2} x bytes stored", "peak resident set growth");
    }
    let [growth, small_growth] = growths;

    if check {
        let metastore = with_meta - bare;
        println!(
            "\nbudget: registry {registry:.0} of {REGISTRY_BUDGET} B/object, \
             indexed registry {indexed:.0} of {INDEXED_REGISTRY_BUDGET}, \
             memory tier {tier:.0} of {MEMORY_TIER_BUDGET}, \
             bare instance {bare:.0} of {BARE_INSTANCE_BUDGET}, \
             instance with metadata_dir {with_meta:.0} of {INSTANCE_META_BUDGET}, \
             metastore {metastore:.0} of {METASTORE_BUDGET}, \
             coordinator R=3 {coordinator:.0} of {COORDINATOR_BUDGET}, \
             backup stack {backup:.0} of {BACKUP_BUDGET}, \
             write-back stack {writeback:.0} of {WRITEBACK_BUDGET}, \
             overwrite growth {growth:.2} (4 KiB) and {small_growth:.2} ({PAYLOAD} B) \
             of {OVERWRITE_GROWTH_BUDGET} x bytes stored"
        );
        if registry > REGISTRY_BUDGET
            || indexed > INDEXED_REGISTRY_BUDGET
            || tier > MEMORY_TIER_BUDGET
            || bare > BARE_INSTANCE_BUDGET
            || with_meta > INSTANCE_META_BUDGET
            || metastore > METASTORE_BUDGET
            || coordinator > COORDINATOR_BUDGET
            || backup > BACKUP_BUDGET
            || writeback > WRITEBACK_BUDGET
            || growth > OVERWRITE_GROWTH_BUDGET
            || small_growth > OVERWRITE_GROWTH_BUDGET
        {
            eprintln!("footprint: over the per-object memory budget");
            std::process::exit(1);
        }
    }
}

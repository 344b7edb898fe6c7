//! Bytes of resident memory per stored object, layer by layer.
//!
//! Builds the registry alone, a memory tier alone, a bare instance, an
//! instance with a metadata directory and a three-node cluster over the
//! same keys and prints how much `VmRSS` each added per object — the
//! numbers behind DESIGN.md's per-object memory budget. Each row runs in a
//! process of its own (the example runs itself again with `--row <name>`),
//! so no row reuses heap chunks an earlier row freed, nor pays for chunks
//! it left. Then the served-overwrite probe behind
//! DESIGN.md's payload byte budget: one thread loads 4 KiB values, another
//! overwrites them, and the peak resident set should not grow.
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
//! — that row less the bare instance's — at most [`METASTORE_BUDGET`], and
//! a key under a coordinator replicating it to three nodes at most
//! [`COORDINATOR_BUDGET`]. Only the indexed registry row makes an ordered
//! read: the others keep no order indexes, so a change that brings eager
//! index upkeep back fails their budgets. The served-overwrite probe may
//! raise the peak resident set by at most [`OVERWRITE_GROWTH_BUDGET`] ×
//! the bytes stored: a tier that drops replaced values where the payload
//! pool cannot see them fails it at ≈ 1.0.

use std::process::Command;
use std::sync::Arc;

use tiera::cluster::{ClusterNode, Coordinator};
use tiera::core::meta::ObjectMeta;
use tiera::core::registry::Registry;
use tiera::core::tier::Tier;
use tiera::prelude::*;
use tiera::tiers::MemoryTier;

const PAYLOAD: usize = 128;

/// Bytes an object may cost the registry alone, which keeps no order
/// indexes (157 measured, + 2 %; 219 while it kept them eagerly).
const REGISTRY_BUDGET: f64 = 161.0;
/// Bytes an object may cost a registry whose order indexes are built:
/// three recency lists' link pairs and a slab node (203 measured, + 2 %).
const INDEXED_REGISTRY_BUDGET: f64 = 207.0;
/// Bytes an object may cost a memory tier alone, less the payload: the
/// key's 48-byte chunk, the payload buffer's header and chunk rounding
/// (32) and the map slot at load 1/1.31 (43): 123 measured, + 2 %. It
/// read 118 (budget 121) while the rows shared one process, on heap
/// chunks the row before it had freed.
const MEMORY_TIER_BUDGET: f64 = 126.0;
/// Bytes an object may cost a bare instance (232 measured, + 2 %, while
/// the rows shared one process; 234–235 in a process of its own).
const BARE_INSTANCE_BUDGET: f64 = 237.0;
/// Bytes an object may cost an instance with a `metadata_dir` (270
/// measured, + 2 %, while the rows shared one process; 271–273 alone).
const INSTANCE_META_BUDGET: f64 = 276.0;
/// Bytes of that which may be the metastore's: its locator table (≈ 33)
/// and what growing the table left in the allocator.
const METASTORE_BUDGET: f64 = 48.0;
/// Bytes a key may cost a `Coordinator` replicating it to three bare
/// instances: three registry and tier entries, the coordinator's record,
/// and one key string the four share (588 measured, + 2 %, while the rows
/// shared one process; 591–592 alone). A key string per replica again
/// would cost about 3 × 48 more.
const COORDINATOR_BUDGET: f64 = 600.0;
/// Peak resident set growth the served-overwrite probe may show, per
/// byte stored (0.00 measured; ≈ 1.0 when replaced values are freed
/// rather than recycled).
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

/// Resident set size in bytes.
fn rss() -> u64 {
    status_bytes("VmRSS:")
}

/// What `build` adds to the resident set per key, less `payload` bytes of
/// user data. What it built stays alive until that is read.
fn measure<T>(keys: usize, payload: usize, build: impl FnOnce() -> T) -> f64 {
    let before = rss();
    let built = build();
    let per_key = rss().saturating_sub(before) as f64 / keys as f64 - payload as f64;
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

/// Loads `keys` 4 KiB values on this thread, overwrites each of them
/// eight times from a second one — a connection worker's side of a served
/// instance — and prints and returns how far the peak resident set
/// (`VmHWM`) rose during the overwrites, per byte stored. An overwrite that allocates its
/// value afresh fills the second thread's malloc arena with a second copy
/// of the store while the first thread's, emptied, stays resident (≈ 1.0);
/// one that recycles the buffer it replaced adds nothing (≈ 0).
fn served_overwrite(env: &SimEnv, keys: usize) -> f64 {
    const VALUE: usize = 4096;
    const ROUNDS: u8 = 8;
    let names: Vec<String> = (0..keys).map(|k| format!("block{k:08}")).collect();
    let inst = InstanceBuilder::new("served", env.clone())
        .tier(memory_tier(env))
        .build()
        .expect("served instance");
    for name in &names {
        inst.put(name, vec![0u8; VALUE], SimTime::ZERO).expect("load");
    }
    let loaded = status_bytes("VmHWM:");
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                for name in &names {
                    inst.put(name, vec![round; VALUE], SimTime::ZERO).expect("overwrite");
                }
            }
        });
    });
    let growth = status_bytes("VmHWM:").saturating_sub(loaded) as f64 / (keys * VALUE) as f64;
    println!("\nserved overwrite: {keys} x {VALUE} B, overwritten {ROUNDS}x from a second thread");
    println!("{:<46} {growth:>7.2} x bytes stored", "peak resident set growth");
    growth
}

/// The rows, in the order they print: the name `--row` takes and the label.
const ROWS: [(&str, &str); 6] = [
    ("registry", "Registry (one location, clean)"),
    ("indexed", "Registry after its first ordered read"),
    ("tier", "MemoryTier"),
    ("bare", "Instance, no rules (registry + tier)"),
    ("meta", "Instance with metadata_dir (+ metastore index)"),
    ("coordinator", "Coordinator R=3 over 3 nodes (per key)"),
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
        _ => return None,
    };
    Some(per_key)
}

/// Row `name`'s bytes per object, measured by this example run again in a
/// child process with `--row`: a fresh heap, which no other row has grown
/// or freed chunks in.
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
            let names: Vec<&str> = ROWS.iter().map(|(name, _)| *name).collect();
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
    let [registry, indexed, tier, bare, with_meta, coordinator] = figures;

    let growth = served_overwrite(&SimEnv::new(7), if quick { 500 } else { 10_000 });

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
             overwrite growth {growth:.2} of {OVERWRITE_GROWTH_BUDGET} x bytes stored"
        );
        if registry > REGISTRY_BUDGET
            || indexed > INDEXED_REGISTRY_BUDGET
            || tier > MEMORY_TIER_BUDGET
            || bare > BARE_INSTANCE_BUDGET
            || with_meta > INSTANCE_META_BUDGET
            || metastore > METASTORE_BUDGET
            || coordinator > COORDINATOR_BUDGET
            || growth > OVERWRITE_GROWTH_BUDGET
        {
            eprintln!("footprint: over the per-object memory budget");
            std::process::exit(1);
        }
    }
}

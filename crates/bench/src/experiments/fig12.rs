//! Figure 12: deduplication via `storeOnce` (the modified S3FS of §4.2.1).
//!
//! "We populate the Tiera instance with data having a varying percentage of
//! redundancy (from 0 to 75%). We use fio to generate read requests
//! following a Zipfian distribution (with default θ = 1.2)... with a
//! decreasing percentage of unique data, more data can be cached in the
//! same amount of Memcached tier resulting in better read latencies" and
//! fewer (billed) requests to S3.

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_fs::TieraFs;
use tiera_sim::{SimEnv, SimTime};
use tiera_tiers::{MemoryTier, ObjectStoreTier};
use tiera_workloads::fio::{self, FioConfig};

use crate::deployments::{GB, MB};
use crate::table::Table;

const FILE_MB: u64 = 64;
const BLOCKS: u64 = FILE_MB * MB / 4096;

fn measure(duplicate_pct: u64, seed: u64) -> (f64, u64, u64) {
    let env = SimEnv::new(seed);
    // 20% Memcached / 80% S3, the paper's S3FS-backed instance.
    let instance = InstanceBuilder::new("s3fs", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", FILE_MB * MB / 5, &env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 8 * GB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::evict_lru("memcached", "s3"))
                .respond(ResponseSpec::store_once(Selector::Inserted, ["memcached"])),
        )
        // LRU cache on access: reads promote the (physical) block into
        // Memcached, evicting colder blocks to S3.
        .rule(
            Rule::on(EventKind::action(ActionOp::Get))
                .respond(ResponseSpec::evict_lru("memcached", "s3"))
                .respond(ResponseSpec::copy(Selector::Inserted, ["memcached"])),
        )
        .build()
        .expect("builds");
    let fs = Arc::new(TieraFs::new(Arc::clone(&instance)));

    // Build the file with the requested redundancy: `duplicate_pct` percent
    // of blocks repeat one of a small set of "template" blocks.
    fs.create("/data", SimTime::ZERO).unwrap();
    let mut rng = env.rng_for("fill");
    let mut t = SimTime::ZERO;
    for b in 0..BLOCKS {
        instance.pump(t).expect("pump");
        let block: Vec<u8> = if rng.chance(duplicate_pct as f64 / 100.0) {
            let template = rng.next_below(8);
            vec![template as u8; 4096]
        } else {
            // Unique content: the block index tags the first bytes so no
            // two "unique" blocks dedup against each other.
            let mut v: Vec<u8> =
                (0..4096).map(|i| ((b as usize * 131 + i * 7) % 251) as u8).collect();
            v[..8].copy_from_slice(&b.to_le_bytes());
            v
        };
        let r = fs.write("/data", b * 4096, &block, t).unwrap();
        t += r.latency;
    }
    instance.pump(t).expect("pump");
    let s3 = instance.tier("s3").unwrap();
    let puts_after_fill = s3.request_counts().puts;

    // fio-style zipfian(θ=1.2) reads.
    let cfg = FioConfig::zipfian(BLOCKS, 1.2, 20_000);
    let report = fio::run(&fs, "/data", &cfg, t);
    let counts = s3.request_counts();
    (report.reads.mean().as_millis_f64(), puts_after_fill, counts.gets)
}

/// Runs the Figure 12 sweep.
pub fn run() {
    println!(
        "S3FS-style file ({FILE_MB} MB) over 20% Memcached + S3 with storeOnce;\nfio zipfian(θ=1.2) reads\n"
    );
    let mut t = Table::new([
        "% duplicates",
        "read latency (ms)",
        "S3 PUT requests (fill)",
        "S3 GET requests (reads)",
    ]);
    for (i, dup) in [0u64, 25, 50, 75].into_iter().enumerate() {
        let (lat, puts, gets) = measure(dup, 1200 + i as u64);
        t.row([dup.to_string(), format!("{lat:.2}"), puts.to_string(), gets.to_string()]);
    }
    t.print();
    println!(
        "\n(paper: both latency and the number of requests to S3 fall monotonically\n as the duplicate share grows)"
    );
}

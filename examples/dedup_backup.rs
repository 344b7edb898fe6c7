//! Deduplicated cloud backup (the paper's §4.2.1 storeOnce scenario,
//! Figure 12): an S3FS-style file backend over a Memcached+S3 instance
//! whose policy stores chunks via `storeOnce`. Duplicate content costs no
//! extra S3 requests and leaves more room in the cache tier.
//!
//! Run with: `cargo run -p tiera --example dedup_backup`

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::{InstanceBuilder, Rule};
use tiera::fs::TieraFs;
use tiera::prelude::*;
use tiera::tiers::{MemoryTier, ObjectStoreTier};

const MB: u64 = 1024 * 1024;

fn main() {
    let env = SimEnv::new(12);
    let instance = InstanceBuilder::new("s3fs-dedup", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 8 * MB, &env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 1024 * MB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::evict_lru("memcached", "s3"))
                .respond(ResponseSpec::store_once(Selector::Inserted, ["memcached", "s3"])),
        )
        .build()
        .unwrap();
    let fs = Arc::new(TieraFs::new(Arc::clone(&instance)));

    // Back up 64 "documents" of 64 KB each; half of them are identical
    // boilerplate (think templated reports).
    let mut now = SimTime::ZERO;
    let boilerplate = vec![0x42u8; 64 * 1024];
    for doc in 0..64 {
        let path = format!("/backup/doc-{doc:03}");
        fs.create(&path, now).unwrap();
        let body: Vec<u8> = if doc % 2 == 0 {
            boilerplate.clone()
        } else {
            (0..64 * 1024).map(|i| ((doc * 31 + i * 7) % 251) as u8).collect()
        };
        let r = fs.write(&path, 0, &body, now).unwrap();
        now += r.latency;
        let _ = instance.pump(now);
    }

    let s3 = instance.tier("s3").unwrap();
    let counts = s3.request_counts();
    let logical_bytes: u64 = 64 * 64 * 1024;
    println!("logical data backed up : {} KB", logical_bytes / 1024);
    println!("bytes held in S3       : {} KB", s3.used() / 1024);
    println!("S3 PUT requests        : {}", counts.puts);
    println!("S3 GET requests        : {}", counts.gets);
    println!("dedup ratio            : {:.2}x", logical_bytes as f64 / s3.used().max(1) as f64);

    // Every file reads back correctly despite the shared physical chunks.
    let sample = fs.read_all("/backup/doc-002", now).unwrap();
    assert!(sample.value.iter().all(|&b| b == 0x42));
    let sample = fs.read_all("/backup/doc-003", now).unwrap();
    assert!(!sample.value.iter().all(|&b| b == 0x42));
    println!("\nverification reads OK — duplicates share physical chunks");

    // Monthly cost: request billing is what dedup saves on S3 (Fig 12b).
    let plan = tiera::sim::PricePlan::for_class(tiera::sim::StorageClass::ObjectStore);
    println!("request cost this run  : ${:.5}", plan.request_cost(counts.puts, counts.gets));
}

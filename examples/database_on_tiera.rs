//! The paper's §4.1.1 case study in miniature: run the (unmodified) minidb
//! engine over three deployments — plain EBS, the MemcachedEBS Tiera
//! instance, and the MemcachedReplicated Tiera instance — and compare OLTP
//! throughput, exactly the comparison of Figures 7–8.
//!
//! Run with: `cargo run --release -p tiera --example database_on_tiera`

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::{InstanceBuilder, Rule};
use tiera::db::{DbConfig, MiniDb};
use tiera::fs::TieraFs;
use tiera::prelude::*;
use tiera::tiers::{BlockTier, MemoryTier};
use tiera::workloads::oltp::{self, OltpConfig};

const MB: u64 = 1024 * 1024;

/// Builds the three §4.1.1 deployments on demand.
fn deployment(name: &str, env: &SimEnv) -> Arc<tiera::core::Instance> {
    match name {
        // Standard deployment: everything on one EBS volume.
        "mysql-on-ebs" => InstanceBuilder::new(name, env.clone())
            .tier(Arc::new(BlockTier::ebs("ebs", 4096 * MB, env)))
            .build()
            .unwrap(),
        // Tiera MemcachedEBS: write to both, serve reads from Memcached.
        "memcached-ebs" => InstanceBuilder::new(name, env.clone())
            .tier(Arc::new(MemoryTier::same_az("memcached", 4096 * MB, env)))
            .tier(Arc::new(BlockTier::ebs("ebs", 4096 * MB, env)))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
            )
            .build()
            .unwrap(),
        // Tiera MemcachedReplicated: two Memcached tiers in different AZs.
        "memcached-replicated" => InstanceBuilder::new(name, env.clone())
            .tier(Arc::new(MemoryTier::same_az("mem-a", 4096 * MB, env)))
            .tier(Arc::new(MemoryTier::cross_az("mem-b", 4096 * MB, env)))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["mem-a", "mem-b"])),
            )
            .build()
            .unwrap(),
        other => panic!("unknown deployment {other}"),
    }
}

fn main() {
    println!("deployment             read-only TPS    read-write TPS");
    println!("---------------------  -------------    --------------");
    for name in ["mysql-on-ebs", "memcached-ebs", "memcached-replicated"] {
        let mut tps = Vec::new();
        for read_only in [true, false] {
            let env = SimEnv::new(2014);
            let instance = deployment(name, &env);
            let fs = Arc::new(TieraFs::new(instance));
            let db_cfg = DbConfig {
                rows: 40_000,
                buffer_pool_pages: 256, // 1 MB of DB cache
                // The plain deployment benefits from the EC2 buffer cache;
                // FUSE-based Tiera deployments do not (paper §4.1.1).
                os_cache_pages: if name == "mysql-on-ebs" { 1024 } else { 0 },
                ..DbConfig::default()
            };
            let (db, load_latency) = MiniDb::create(fs, db_cfg, SimTime::ZERO).unwrap();
            let db = Arc::new(db);
            let mut cfg = OltpConfig::paper(40_000, 0.10, read_only);
            cfg.txns_per_thread = 60;
            let start = SimTime::ZERO + load_latency;
            let report = oltp::run(&db, &cfg, start);
            tps.push(report.throughput());
        }
        println!("{:<22} {:>12.1}     {:>12.1}", name, tps[0], tps[1]);
    }
    println!("\n(shape matches paper Figs 7-8: replicated > memcached-ebs > ebs,");
    println!(" with the read-write gap larger than the read-only gap)");
}

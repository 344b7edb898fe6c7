//! Ablations: isolating the design choices behind the paper's policies.
//!
//! Not figures from the paper — these quantify *why* the paper's default
//! choices look the way they do, using the same simulated substrate:
//!
//! 1. LRU vs MRU eviction under a skewed workload (why Figure 5's LRU is
//!    the default cache policy);
//! 2. cache-tier sizing (the continuous version of Table 2's three
//!    points);
//! 3. placement policy (write-through vs write-back vs zone-replication)
//!    against write latency and the worst-case loss window;
//! 4. `storeOnce` on/off at a fixed duplicate ratio (what dedup buys in
//!    bytes and billable requests).

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::instance::Instance;
use tiera_core::response::{EvictOrder, ResponseSpec};
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::{SimDuration, SimEnv, SimTime};
use tiera_tiers::{BlockTier, MemoryTier, ObjectStoreTier};
use tiera_workloads::dist::KeyChooser;
use tiera_workloads::ycsb::{self, YcsbConfig};

use crate::deployments::MB;
use crate::table::Table;

/// Runs all ablations.
pub fn run() {
    lru_vs_mru();
    cache_size_sweep();
    placement_policies();
    dedup_on_off();
}

fn cache_instance(env: &SimEnv, order: EvictOrder, cache_mb: u64) -> Arc<Instance> {
    InstanceBuilder::new("cache", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", cache_mb * MB, env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 2048 * MB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::EvictUntilFit {
                    from: "memcached".into(),
                    to: "ebs".into(),
                    order,
                })
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
        )
        .rule(
            Rule::on(EventKind::action(ActionOp::Get))
                .respond(ResponseSpec::EvictUntilFit {
                    from: "memcached".into(),
                    to: "ebs".into(),
                    order,
                })
                .respond(ResponseSpec::copy(Selector::Inserted, ["memcached"])),
        )
        .build()
        .expect("builds")
}

/// Ablation 1: the Figure 5 choice.
fn lru_vs_mru() {
    println!("--- ablation 1: LRU vs MRU eviction (zipfian reads, 64 MB cache over 256 MB) ---\n");
    let mut t = Table::new(["eviction", "cache hit rate", "mean read latency (ms)"]);
    for (label, order) in
        [("LRU (tier.oldest)", EvictOrder::Lru), ("MRU (tier.newest)", EvictOrder::Mru)]
    {
        let env = SimEnv::new(2000);
        let instance = cache_instance(&env, order, 64);
        let mut cfg = YcsbConfig::new(65_536); // 256 MB of 4 KB records
        cfg.read_proportion = 1.0;
        cfg.dist = KeyChooser::zipfian(65_536);
        let start = ycsb::preload(&instance, &cfg, SimTime::ZERO).expect("preload");
        // Warm to steady state (the one-time demotion of preload residents
        // must not be billed to the measured policy).
        cfg.ops_per_thread = 30_000;
        cfg.seed_tag = "warmup".into();
        let warm = ycsb::run(&instance, &cfg, start);
        instance.stats().reset();
        cfg.ops_per_thread = 20_000;
        cfg.seed_tag = "measure".into();
        let report = ycsb::run(&instance, &cfg, start + warm.elapsed);
        let hits = instance.stats().tier_read_hits();
        let mem_hits = *hits.get("memcached").unwrap_or(&0);
        let total: u64 = hits.values().sum();
        t.row([
            label.to_string(),
            format!("{:.1}%", mem_hits as f64 / total.max(1) as f64 * 100.0),
            format!("{:.2}", report.reads.mean().as_millis_f64()),
        ]);
    }
    t.print();
    println!();
}

/// Ablation 2: the Table 2 tradeoff as a curve.
fn cache_size_sweep() {
    println!("--- ablation 2: cache-tier sizing (zipfian reads over 256 MB of data) ---\n");
    let mut t = Table::new(["memcached share", "mean read latency (ms)", "monthly cost ($)"]);
    for pct in [10u64, 25, 50, 75, 90] {
        let env = SimEnv::new(2001);
        let cache_mb = 256 * pct / 100;
        let instance = cache_instance(&env, EvictOrder::Lru, cache_mb.max(1));
        let mut cfg = YcsbConfig::new(65_536);
        cfg.read_proportion = 1.0;
        cfg.dist = KeyChooser::zipfian(65_536);
        cfg.ops_per_thread = 10_000;
        let start = ycsb::preload(&instance, &cfg, SimTime::ZERO).expect("preload");
        let report = ycsb::run(&instance, &cfg, start);
        t.row([
            format!("{pct}%"),
            format!("{:.2}", report.reads.mean().as_millis_f64()),
            format!("{:.2}", instance.monthly_cost(start).total()),
        ]);
    }
    t.print();
    println!("\n(diminishing returns past the working set: the paper's TI:1-3 pick\n points on this curve)\n");
}

/// Ablation 3: placement policy vs write latency and loss window.
fn placement_policies() {
    println!("--- ablation 3: placement policies (write-only 4 KB) ---\n");
    let mut t = Table::new(["policy", "mean write latency (ms)", "worst-case loss window"]);
    type Setup = (&'static str, &'static str, fn(&SimEnv) -> Arc<Instance>);
    let setups: [Setup; 3] = [
        ("write-back (30 s timer)", "30 s of updates", |env| {
            InstanceBuilder::new("wb", env.clone())
                .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, env)))
                .tier(Arc::new(BlockTier::ebs("ebs", 512 * MB, env)))
                .rule(
                    Rule::on(EventKind::action(ActionOp::Put))
                        .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
                )
                .rule(Rule::on(EventKind::timer(SimDuration::from_secs(30))).respond(
                    ResponseSpec::copy(
                        Selector::InTier("memcached".into()).and(Selector::Dirty),
                        ["ebs"],
                    ),
                ))
                .build()
                .unwrap()
        }),
        ("write-through to EBS", "none", |env| {
            InstanceBuilder::new("wt", env.clone())
                .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, env)))
                .tier(Arc::new(BlockTier::ebs("ebs", 512 * MB, env)))
                .rule(
                    Rule::on(EventKind::action(ActionOp::Put))
                        .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
                )
                .build()
                .unwrap()
        }),
        ("replicate across zones", "single-zone failure only", |env| {
            InstanceBuilder::new("repl", env.clone())
                .tier(Arc::new(MemoryTier::same_az("mem-a", 512 * MB, env)))
                .tier(Arc::new(MemoryTier::cross_az("mem-b", 512 * MB, env)))
                .rule(
                    Rule::on(EventKind::action(ActionOp::Put))
                        .respond(ResponseSpec::store(Selector::Inserted, ["mem-a", "mem-b"])),
                )
                .build()
                .unwrap()
        }),
    ];
    for (label, loss, build) in setups {
        let env = SimEnv::new(2002);
        let instance = build(&env);
        let mut cfg = YcsbConfig::new(20_000);
        cfg.read_proportion = 0.0;
        cfg.ops_per_thread = 5_000;
        let report = ycsb::run(&instance, &cfg, SimTime::ZERO);
        t.row([
            label.to_string(),
            format!("{:.2}", report.writes.mean().as_millis_f64()),
            loss.to_string(),
        ]);
    }
    t.print();
    println!("\n(the paper's Figures 13/15 pick points on this latency-durability axis)\n");
}

/// Ablation 4: what storeOnce buys.
fn dedup_on_off() {
    println!("--- ablation 4: storeOnce on/off (50% duplicate payloads to S3) ---\n");
    let mut t =
        Table::new(["placement", "S3 bytes stored (MB)", "S3 PUT requests", "request cost ($)"]);
    for (label, dedup) in [("store", false), ("storeOnce", true)] {
        let env = SimEnv::new(2003);
        let store_resp = if dedup {
            ResponseSpec::store_once(Selector::Inserted, ["s3"])
        } else {
            ResponseSpec::store(Selector::Inserted, ["s3"])
        };
        let instance = InstanceBuilder::new("dd", env.clone())
            .tier(Arc::new(ObjectStoreTier::s3("s3", 4096 * MB, &env)))
            .rule(Rule::on(EventKind::action(ActionOp::Put)).respond(store_resp))
            .build()
            .unwrap();
        let mut rng = env.rng_for("fill");
        let mut now = SimTime::ZERO;
        for i in 0..8192u64 {
            let body: Vec<u8> = if rng.chance(0.5) {
                vec![(rng.next_below(4)) as u8; 4096]
            } else {
                let mut v = vec![0u8; 4096];
                v[..8].copy_from_slice(&i.to_le_bytes());
                v
            };
            let r = instance.put(format!("blk-{i}").as_str(), body, now).unwrap();
            now += r.latency;
        }
        let s3 = instance.tier("s3").unwrap();
        let counts = s3.request_counts();
        let plan = tiera_sim::PricePlan::for_class(tiera_sim::StorageClass::ObjectStore);
        t.row([
            label.to_string(),
            format!("{:.1}", s3.used() as f64 / MB as f64),
            counts.puts.to_string(),
            format!("{:.4}", plan.request_cost(counts.puts, counts.gets)),
        ]);
    }
    t.print();
    println!();
}

//! Table 3 / Figure 13: durability tradeoffs.
//!
//! * **High durability**: 100 MB Memcached + 100 MB EBS + 100 MB S3;
//!   "immediately backup data to EBS, and push to S3 every 2 mins".
//! * **Low durability**: 100 MB Memcached + 100 MB S3; "backup data in
//!   Memcached to S3 every 2 mins" — worst case, the most recent 2-minute
//!   window of updates is lost.
//!
//! YCSB mixed workload (50/50 reads/writes of 4 KB, uniform).

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::instance::Instance;
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::{SimDuration, SimEnv, SimTime};
use tiera_tiers::{BlockTier, MemoryTier, ObjectStoreTier};
use tiera_workloads::ycsb::{self, YcsbConfig};

use crate::deployments::MB;
use crate::table::Table;

fn high_durability(env: &SimEnv) -> Arc<Instance> {
    InstanceBuilder::new("HighDurability", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 100 * MB, env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 100 * MB, env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 100 * MB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached"]))
                .respond(ResponseSpec::copy(Selector::Inserted, ["ebs"])),
        )
        .rule(
            Rule::on(EventKind::timer(SimDuration::from_secs(120)))
                .respond(ResponseSpec::copy(Selector::InTier("ebs".into()), ["s3"])),
        )
        .build()
        .expect("builds")
}

fn low_durability(env: &SimEnv) -> Arc<Instance> {
    InstanceBuilder::new("LowDurability", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 100 * MB, env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 100 * MB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
        )
        .rule(Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(ResponseSpec::copy(
            Selector::InTier("memcached".into()).and(Selector::Dirty),
            ["s3"],
        )))
        .build()
        .expect("builds")
}

fn measure(instance: Arc<Instance>) -> (f64, f64, f64) {
    let mut cfg = YcsbConfig::new(10_000); // ~40 MB working set
    cfg.read_proportion = 0.5;
    cfg.threads = 4;
    cfg.ops_per_thread = 1500;
    let t = ycsb::preload(&instance, &cfg, SimTime::ZERO).expect("preload");
    let report = ycsb::run(&instance, &cfg, t);
    let cost = instance.monthly_cost(t).total();
    (report.reads.mean().as_millis_f64(), report.writes.mean().as_millis_f64(), cost)
}

/// Runs the Table 3 / Figure 13 comparison.
pub fn run() {
    println!("YCSB 50/50 uniform 4 KB, 4 clients\n");
    let mut t = Table::new([
        "instance",
        "read latency (ms)",
        "write latency (ms)",
        "cost ($/month)",
        "worst-case data loss",
    ]);
    let envs = (SimEnv::new(1300), SimEnv::new(1301));
    let (hr, hw, hc) = measure(high_durability(&envs.0));
    let (lr, lw, lc) = measure(low_durability(&envs.1));
    t.row([
        "High Durability".to_string(),
        format!("{hr:.2}"),
        format!("{hw:.2}"),
        format!("{hc:.2}"),
        "none past EBS ack".to_string(),
    ]);
    t.row([
        "Low Durability".to_string(),
        format!("{lr:.2}"),
        format!("{lw:.2}"),
        format!("{lc:.2}"),
        "last 2-minute window".to_string(),
    ]);
    t.print();
    println!(
        "\n(paper: the high-durability instance keeps reads fast but pays a\n synchronous EBS copy on every write and a higher monthly bill)"
    );
}

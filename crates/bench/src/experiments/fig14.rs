//! Figure 14: throttling background replication.
//!
//! Two EBS volumes; the instance copies data from the first to the second
//! "after 50 MB of new data had been written into the first volume". The
//! paper observed foreground latency rising ≈ 50 % during uncapped
//! replication, and the spike disappearing with a 40 KB/s bandwidth cap
//! (at the price of a much longer backup).

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind, Metric};
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::bandwidth::BandwidthCap;
use tiera_sim::SimEnv;
use tiera_workloads::ycsb::{self, YcsbConfig};

use crate::deployments::MB;
use crate::table::Table;

const TRIGGER_MB: u64 = 50;

/// Mean read and write latency, and the reads that failed: the run has no
/// preload, so a read of a key no PUT has written yet fails (no write
/// does), and only the reads that found their key are in the mean.
fn measure(replicate: bool, cap: Option<BandwidthCap>, seed: u64) -> (f64, f64, u64) {
    let env = SimEnv::new(seed);
    let builder = InstanceBuilder::new("dual-ebs", env.clone())
        .tier(Arc::new(tiera_tiers::BlockTier::ebs("ebs1", 512 * MB, &env)))
        .tier(Arc::new(tiera_tiers::BlockTier::ebs("ebs2", 512 * MB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["ebs1"])),
        );
    let builder = if replicate {
        builder.rule(
            Rule::on(
                EventKind::threshold_at_least(
                    Metric::TierUsedBytes("ebs1".into()),
                    (TRIGGER_MB * MB) as f64,
                )
                .background(),
            )
            .respond(ResponseSpec::Copy {
                what: Selector::InTier("ebs1".into()),
                to: vec!["ebs2".into()],
                bandwidth: cap,
            }),
        )
    } else {
        builder
    };
    let instance = builder.build().expect("builds");
    let mut cfg = YcsbConfig::new(40_000);
    cfg.read_proportion = 0.3;
    cfg.threads = 2;
    cfg.ops_per_thread = 12_000; // ≈ 67 MB of writes: crosses the trigger
    let report = ycsb::run(&instance, &cfg, tiera_sim::SimTime::ZERO);
    (report.reads.mean().as_millis_f64(), report.writes.mean().as_millis_f64(), report.failures)
}

/// Runs the Figure 14 comparison.
pub fn run() {
    println!(
        "Two EBS volumes; replication of the first volume triggers after\n{TRIGGER_MB} MB of new data; client: 70/30 write/read 4 KB\n"
    );
    let mut t =
        Table::new(["configuration", "read latency (ms)", "write latency (ms)", "failed reads"]);
    let (r0, w0, f0) = measure(false, None, 1400);
    let (r1, w1, f1) = measure(true, None, 1400);
    let (r2, w2, f2) = measure(true, Some(BandwidthCap::kb_per_sec(40.0)), 1400);
    t.row(["no replication".to_string(), format!("{r0:.2}"), format!("{w0:.2}"), f0.to_string()]);
    t.row([
        "replication, no cap".to_string(),
        format!("{r1:.2}"),
        format!("{w1:.2}"),
        f1.to_string(),
    ]);
    t.row([
        "replication, 40 KB/s cap".to_string(),
        format!("{r2:.2}"),
        format!("{w2:.2}"),
        f2.to_string(),
    ]);
    t.print();
    println!(
        "\n(no preload: a read of a key not yet written fails, and the read\n latency is the mean of the reads that found their key)"
    );
    println!(
        "\nforeground write inflation: uncapped {:+.0}% vs capped {:+.0}%",
        (w1 / w0 - 1.0) * 100.0,
        (w2 / w0 - 1.0) * 100.0
    );
    println!("(paper: ≈ +50% uncapped; the cap removes the interference but\n lengthens the backup — lower durability during the copy)");
}

//! Scenario tests tracing the paper's evaluation narratives end to end.
//! Each test is a miniature version of one experiment; the full-size
//! parameterizations live in `tiera-bench`'s `experiments` binary.

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind, Metric};
use tiera::core::monitor::FailureMonitor;
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::{InstanceBuilder, Rule};
use tiera::prelude::*;
use tiera::sim::bandwidth::BandwidthCap;
use tiera::sim::FailureWindow;
use tiera::tiers::{BlockTier, EphemeralTier, MemoryTier, ObjectStoreTier};
use tiera::workloads::ycsb::{self, YcsbConfig};

const MB: u64 = 1024 * 1024;

/// §4.2.2 / Figure 15: larger write-back intervals lower write latency
/// (write-through at 0 s → pure cache writes at large t).
#[test]
fn fig15_writeback_interval_lowers_write_latency() {
    let write_latency_for = |interval_secs: u64| -> f64 {
        let env = SimEnv::new(300 + interval_secs);
        let builder = InstanceBuilder::new("wb", env.clone())
            .tier(Arc::new(MemoryTier::same_az("memcached", 256 * MB, &env)))
            .tier(Arc::new(BlockTier::ebs("ebs", 256 * MB, &env)));
        let builder = if interval_secs == 0 {
            // Write-through: the client pays the EBS write.
            builder.rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
            )
        } else {
            builder
                .rule(
                    Rule::on(EventKind::action(ActionOp::Put))
                        .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
                )
                .rule(Rule::on(EventKind::timer(SimDuration::from_secs(interval_secs))).respond(
                    ResponseSpec::copy(
                        Selector::InTier("memcached".into()).and(Selector::Dirty),
                        ["ebs"],
                    ),
                ))
        };
        let instance = builder.build().unwrap();
        let mut cfg = YcsbConfig::new(200);
        cfg.read_proportion = 0.0; // write-only, as the paper
        cfg.ops_per_thread = 300;
        let report = ycsb::run(&instance, &cfg, SimTime::ZERO);
        report.writes.mean().as_millis_f64()
    };
    let wt = write_latency_for(0);
    let wb_short = write_latency_for(10);
    let wb_long = write_latency_for(100);
    assert!(wt > 2.0 * wb_long, "write-through {wt}ms must far exceed write-back {wb_long}ms");
    assert!(wb_short <= wt && wb_long <= wb_short * 1.5);
}

/// §4.2.2 / Figure 14: background replication without a cap inflates
/// foreground latency; a 40 KB/s cap removes the interference.
#[test]
fn fig14_bandwidth_cap_protects_foreground() {
    let run = |replicate: bool, cap: Option<BandwidthCap>| -> f64 {
        let env = SimEnv::new(301);
        let builder = InstanceBuilder::new("repl", env.clone())
            .tier(Arc::new(BlockTier::ebs("ebs1", 512 * MB, &env)))
            .tier(Arc::new(BlockTier::ebs("ebs2", 512 * MB, &env)));
        let builder = if replicate {
            builder.rule(
                Rule::on(
                    // 6000 writes over 8000 keys leave 16.3 MB of distinct
                    // data: a 16 MB trigger fires in the last 3 % of the
                    // run, when few ops are left for the copy to slow
                    // down. 8 MB is crossed about 40 % of the way in.
                    EventKind::threshold_at_least(
                        Metric::TierUsedBytes("ebs1".into()),
                        (8 * MB) as f64,
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
        let instance = builder.build().unwrap();
        let mut cfg = YcsbConfig::new(8000);
        cfg.read_proportion = 0.0;
        cfg.threads = 2;
        cfg.ops_per_thread = 3000;
        let report = ycsb::run(&instance, &cfg, SimTime::ZERO);
        report.writes.mean().as_millis_f64()
    };
    let baseline = run(false, None);
    let uncapped = run(true, None);
    let capped = run(true, Some(BandwidthCap::kb_per_sec(40.0)));
    assert!(
        uncapped > baseline * 1.08,
        "uncapped replication must visibly hurt: {baseline} vs {uncapped}"
    );
    assert!(capped < uncapped, "cap must reduce interference: {capped} vs {uncapped}");
    assert!(
        capped < baseline * 1.03,
        "capped replication must be nearly invisible: {baseline} vs {capped}"
    );
}

/// §4.2.3 / Figure 16: the growing instance doubles capacity at 75 % fill
/// after a one-minute provisioning delay.
#[test]
fn fig16_growing_instance_timeline() {
    let env = SimEnv::new(302);
    let mem = Arc::new(MemoryTier::same_az("memcached", 200 * MB, &env));
    let instance = InstanceBuilder::new("growing", env.clone())
        .tier(Arc::clone(&mem))
        .tier(Arc::new(BlockTier::ebs("ebs", 2048 * MB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
        )
        .rule(
            Rule::on(EventKind::threshold_at_least(
                Metric::TierFillFraction("memcached".into()),
                0.75,
            ))
            .respond(ResponseSpec::Grow { tier: "memcached".into(), percent: 100.0 }),
        )
        .build()
        .unwrap();

    // Write 4 KB objects until the 150 MB threshold trips.
    let mut now = SimTime::ZERO;
    let mut i = 0u64;
    while mem.used() < 151 * MB {
        let r = instance.put(format!("w-{i}").as_str(), vec![0u8; 4096], now).unwrap();
        now += r.latency;
        i += 1;
    }
    // Grow fired but capacity is unchanged during provisioning...
    assert_eq!(mem.capacity(now), 200 * MB);
    // ...and doubles once the (60 s) spawn completes.
    let after = now + SimDuration::from_secs(61);
    assert_eq!(mem.capacity(after), 400 * MB);
}

/// §4.2.3 / Figure 17: outage → monitor detection → reconfiguration →
/// recovery, on the paper's timeline.
#[test]
fn fig17_failover_restores_throughput() {
    let env = SimEnv::new(303);
    let ebs = Arc::new(BlockTier::ebs("ebs", 512 * MB, &env));
    let instance = InstanceBuilder::new("failover", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, &env)))
        .tier(Arc::clone(&ebs))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
        )
        .build()
        .unwrap();
    // The outage begins just after the monitor's t = 4 min probe, so
    // detection lands on the t = 6 min probe — the paper's timeline.
    ebs.failures().schedule(FailureWindow::write_outage(SimTime::from_secs(245)));

    let env2 = env.clone();
    let mut monitor = FailureMonitor::every_two_minutes(Arc::clone(&instance), move |inst| {
        inst.detach_tier("ebs").unwrap();
        inst.attach_tier(Arc::new(EphemeralTier::new("ephemeral", 512 * MB, &env2))).unwrap();
        inst.attach_tier(Arc::new(ObjectStoreTier::s3("s3", 2048 * MB, &env2))).unwrap();
        inst.policy().replace_all([
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ephemeral"])),
            Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(ResponseSpec::copy(
                Selector::InTier("ephemeral".into()).and(Selector::Dirty),
                ["s3"],
            )),
        ]);
    });

    // Closed-loop writer over 10 minutes, bucketed per minute.
    let mut t = SimTime::ZERO;
    let mut buckets = vec![0u64; 10];
    let mut seq = 0u64;
    while t < SimTime::from_secs(600) {
        seq += 1;
        let minute = (t.as_nanos() / 60_000_000_000).min(9) as usize;
        match instance.put(format!("k-{}", seq % 10_000).as_str(), vec![0u8; 4096], t) {
            Ok(r) => {
                t += r.latency;
                buckets[minute] += 1;
            }
            Err(_) => t += SimDuration::from_secs(5),
        }
        monitor.tick(t);
        let _ = instance.pump(t);
    }

    let healthy_before = buckets[2];
    let fully_down = buckets[5]; // minute 5 lies entirely inside the outage
    let after_recovery = buckets[8];
    assert!(healthy_before > 100, "healthy rate: {buckets:?}");
    assert!(fully_down < healthy_before / 20, "outage collapses throughput: {buckets:?}");
    assert!(after_recovery > healthy_before / 2, "throughput restored after reconfig: {buckets:?}");
    assert!(monitor.has_reconfigured());
    assert!(instance.tier_names().contains(&"ephemeral".to_string()));
}

/// §4.2.2 / Figure 13: High- vs Low-durability instances trade write
/// latency and cost exactly as Table 3 describes.
#[test]
fn fig13_durability_tradeoff() {
    let env = SimEnv::new(304);
    // High durability: Memcached + immediate EBS copy + periodic S3 push.
    let high = InstanceBuilder::new("high", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 100 * MB, &env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 100 * MB, &env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 100 * MB, &env)))
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
        .unwrap();
    // Low durability: Memcached only, S3 backup every 2 minutes.
    let low = InstanceBuilder::new("low", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 100 * MB, &env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 100 * MB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
        )
        .rule(Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(ResponseSpec::copy(
            Selector::InTier("memcached".into()).and(Selector::Dirty),
            ["s3"],
        )))
        .build()
        .unwrap();

    let mut cfg = YcsbConfig::new(500);
    cfg.read_proportion = 0.5;
    cfg.ops_per_thread = 600;
    let t = ycsb::preload(&high, &cfg, SimTime::ZERO).unwrap();
    let high_report = ycsb::run(&high, &cfg, t);
    let t = ycsb::preload(&low, &cfg, SimTime::ZERO).unwrap();
    let low_report = ycsb::run(&low, &cfg, t);

    // Writes: high durability pays the synchronous EBS copy.
    assert!(
        high_report.writes.mean() > low_report.writes.mean().mul_f64(2.0),
        "high {:?} vs low {:?}",
        high_report.writes.mean(),
        low_report.writes.mean()
    );
    // Reads: both serve from Memcached.
    assert!(high_report.reads.mean() < SimDuration::from_millis(1));
    assert!(low_report.reads.mean() < SimDuration::from_millis(1));
    // Cost: the EBS tier makes the high-durability instance dearer.
    assert!(high.monthly_cost(SimTime::ZERO).total() > low.monthly_cost(SimTime::ZERO).total());
}

//! The paper's §4.2.3 "Adapting to Failures" scenario (Figure 17): a
//! write-through Memcached+EBS instance suffers a simulated EBS outage at
//! t = 4 min; a monitoring application detects it on its 2-minute probe
//! schedule and reconfigures the instance to Ephemeral + S3; throughput
//! recovers.
//!
//! Run with: `cargo run -p tiera --example failover`

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::monitor::FailureMonitor;
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::{InstanceBuilder, Rule};
use tiera::prelude::*;
use tiera::sim::{FailureWindow, SimRng};
use tiera::tiers::{BlockTier, EphemeralTier, MemoryTier, ObjectStoreTier};

const MB: u64 = 1024 * 1024;

fn main() {
    let env = SimEnv::new(17);
    let ebs = Arc::new(BlockTier::ebs("ebs", 512 * MB, &env));

    let instance = InstanceBuilder::new("failover-demo", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, &env)))
        .tier(Arc::clone(&ebs))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
        )
        .build()
        .unwrap();

    // Schedule the outage: EBS writes start timing out just after t = 4 min
    // (right after the monitor's 4-minute probe, as in the paper's timeline).
    ebs.failures().schedule(FailureWindow::write_outage(SimTime::from_secs(245)));

    // The external monitor probes every 2 minutes; on failure it swaps the
    // failed tier for EphemeralStorage + S3 and installs the new policy.
    let env2 = env.clone();
    let mut monitor = FailureMonitor::every_two_minutes(Arc::clone(&instance), move |inst| {
        println!("  [monitor] failure detected — reconfiguring instance");
        inst.detach_tier("ebs").expect("detach failed tier");
        inst.attach_tier(Arc::new(EphemeralTier::new("ephemeral", 512 * MB, &env2))).unwrap();
        inst.attach_tier(Arc::new(ObjectStoreTier::s3("s3", 4096 * MB, &env2))).unwrap();
        inst.policy().replace_all([
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ephemeral"])),
            Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(ResponseSpec::copy(
                Selector::InTier("ephemeral".into()).and(Selector::Dirty),
                ["s3"],
            )),
        ]);
    });

    // Closed-loop write-only client over a 10-minute window; report ops/s
    // per 30 s bucket, the Figure 17 timeline.
    let mut rng = SimRng::new(3);
    let mut t = SimTime::ZERO;
    let deadline = SimTime::from_secs(600);
    let bucket = SimDuration::from_secs(30);
    let mut next_bucket = SimTime::ZERO + bucket;
    let mut ok_in_bucket = 0u64;
    let mut seq = 0u64;

    println!("time(min)  throughput(ops/s)");
    while t < deadline {
        seq += 1;
        let key = format!("w-{}", seq % 20_000);
        let payload = vec![(rng.next_u64() & 0xFF) as u8; 4096];
        match instance.put(key.as_str(), payload, t) {
            Ok(r) => {
                t += r.latency;
                ok_in_bucket += 1;
            }
            Err(_) => {
                // Failed write: the client retries after the timeout it
                // already paid (5 s), which is what drives throughput to 0.
                t += SimDuration::from_secs(5);
            }
        }
        env.clock().advance_to(t);
        monitor.tick(t);
        let _ = instance.pump(t);
        while t >= next_bucket {
            println!(
                "{:>8.1}  {:>10.1}",
                next_bucket.as_nanos().saturating_sub(bucket.as_nanos()) as f64 / 60e9,
                ok_in_bucket as f64 / bucket.as_secs_f64()
            );
            ok_in_bucket = 0;
            next_bucket += bucket;
        }
    }
    println!(
        "\nmonitor reconfigured: {} | final tiers: {:?}",
        monitor.has_reconfigured(),
        instance.tier_names()
    );
}

//! Figure 17: adapting to a storage-service failure.
//!
//! "We simulate a failure in EBS by timing out writes around t = 4 mins.
//! The monitoring application discovers the failure at around t = 6 mins
//! and requests instance reconfiguration [to Ephemeral Storage + S3]...
//! throughput drops to zero between t = 4 mins to t = 6 mins \[and\] is
//! subsequently restored back to its original value by t = 7 mins."
//!
//! The outage is expressed through the chaos harness's declarative
//! [`Schedule`] (an open-ended EBS write outage at t = 245 s), so the
//! figure and the chaos suite exercise the same fault plane. The rendered
//! output is deterministic and golden-tested against
//! `experiments_output.txt`.

use std::fmt::Write as _;
use std::sync::Arc;

use tiera_chaos::schedule::Schedule;
use tiera_core::event::{ActionOp, EventKind};
use tiera_core::monitor::FailureMonitor;
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::{FailureKind, SimDuration, SimEnv, SimTime};
use tiera_tiers::{BlockTier, EphemeralTier, MemoryTier, ObjectStoreTier};

use crate::deployments::{GB, MB};
use crate::table::Table;

/// Runs the Figure 17 timeline and renders the full, deterministic output.
pub fn render() -> String {
    let env = SimEnv::new(1700);
    let ebs = Arc::new(BlockTier::ebs("ebs", 512 * MB, &env));
    let instance = InstanceBuilder::new("failover", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, &env)))
        .tier(Arc::clone(&ebs))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
        )
        .build()
        .expect("builds");
    // Outage just after the monitor's 4-minute probe, via the fault
    // schedule (equivalent to `FailureWindow::write_outage(245 s)`).
    Schedule::new(1700)
        .outage("ebs", SimTime::from_secs(245), None, FailureKind::Writes)
        .apply(&[("ebs", ebs.failures())]);

    let env2 = env.clone();
    let mut monitor = FailureMonitor::every_two_minutes(Arc::clone(&instance), move |inst| {
        inst.detach_tier("ebs").unwrap();
        inst.attach_tier(Arc::new(EphemeralTier::new("ephemeral", 512 * MB, &env2))).unwrap();
        inst.attach_tier(Arc::new(ObjectStoreTier::s3("s3", 4 * GB, &env2))).unwrap();
        inst.policy().replace_all([
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ephemeral"])),
            Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(ResponseSpec::copy(
                Selector::InTier("ephemeral".into()).and(Selector::Dirty),
                ["s3"],
            )),
        ]);
    });

    let mut out = String::new();
    out.push_str("YCSB-style write-only 4 KB client over a 10-minute window\n\n");
    let mut table = Table::new(["time (min)", "throughput (ops/s)", "event"]);
    let deadline = SimTime::from_secs(600);
    let bucket = SimDuration::from_secs(30);
    let mut next_bucket = SimTime::ZERO + bucket;
    let mut t = SimTime::ZERO;
    let mut ok = 0u64;
    let mut seq = 0u64;
    let mut reconfigured_at: Option<SimTime> = None;
    while t < deadline {
        seq += 1;
        match instance.put(format!("k-{}", seq % 20_000).as_str(), vec![0u8; 4096], t) {
            Ok(r) => {
                t += r.latency;
                ok += 1;
            }
            Err(_) => t += SimDuration::from_secs(5), // client timeout + retry
        }
        let was = monitor.has_reconfigured();
        monitor.tick(t);
        if !was && monitor.has_reconfigured() {
            reconfigured_at = Some(t);
        }
        instance.pump(t).expect("pump");
        while t >= next_bucket {
            let minute = (next_bucket.as_nanos() as f64 - bucket.as_nanos() as f64) / 60e9;
            let event = if (3.9..4.4).contains(&minute) {
                "EBS outage begins"
            } else if reconfigured_at
                .map(|r| {
                    let m = r.as_secs_f64() / 60.0;
                    (minute..minute + 0.5).contains(&m)
                })
                .unwrap_or(false)
            {
                "monitor reconfigures → ephemeral+S3"
            } else {
                ""
            };
            table.row([
                format!("{minute:.1}"),
                format!("{:.1}", ok as f64 / bucket.as_secs_f64()),
                event.to_string(),
            ]);
            ok = 0;
            next_bucket += bucket;
        }
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nreconfigured at t = {:.1} min; final tiers: {:?}",
        reconfigured_at.map(|r| r.as_secs_f64() / 60.0).unwrap_or(f64::NAN),
        instance.tier_names()
    );
    out.push_str("(paper: throughput 0 between ~4 and ~6 min, restored by ~7 min)\n");
    out
}

/// Runs the Figure 17 timeline, printing the rendered output.
pub fn run() {
    print!("{}", render());
}

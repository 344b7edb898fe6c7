//! Figure 16: the GrowingInstance adapting to its workload.
//!
//! "The instance is subjected to a write heavy workload inserting 4KB
//! objects for a period of 14 minutes. The instance expands the Memcached
//! tier \[when\] the space consumed reaches the threshold set in the policy
//! i.e. 150 MB. At this time a new EC2 instance was spawned, which took
//! approximately 1 minute... the read latency goes up and remains high
//! \[then\] settles down to its original value once the cache is warmed up."

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind, Metric};
use tiera_core::response::{Guard, ResponseSpec};
use tiera_core::selector::Selector;
use tiera_core::tier::Tier as _;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::{Histogram, SimDuration, SimEnv, SimTime};
use tiera_tiers::{BlockTier, MemoryTier};
use tiera_workloads::dist::KeyChooser;

use crate::deployments::{GB, MB};
use crate::table::Table;

/// Runs the Figure 16 timeline.
pub fn run() {
    let env = SimEnv::new(1600);
    let mem = Arc::new(MemoryTier::same_az("memcached", 200 * MB, &env));
    let instance = InstanceBuilder::new("GrowingInstance", env.clone())
        .tier(Arc::clone(&mem))
        .tier(Arc::new(BlockTier::ebs("ebs", 2 * GB, &env)))
        // Placement: Memcached while it fits; overflow lands on EBS (the
        // cache-miss pain the paper's latency spike shows).
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::If {
                    guard: Guard::tier_filled("memcached"),
                    then: vec![ResponseSpec::store(Selector::Inserted, ["ebs"])],
                })
                .respond(ResponseSpec::If {
                    guard: Guard::tier_filled("memcached").not(),
                    then: vec![ResponseSpec::store(Selector::Inserted, ["memcached"])],
                }),
        )
        // Figure 6: grow by 100% when 75% full (150 MB).
        .rule(
            Rule::on(EventKind::threshold_at_least(
                Metric::TierFillFraction("memcached".into()),
                0.75,
            ))
            .respond(ResponseSpec::Grow { tier: "memcached".into(), percent: 100.0 }),
        )
        // Figure 6's write-back: dirty data drains to EBS periodically, so
        // entries remapped by the cache reshard still have a durable copy.
        .rule(Rule::on(EventKind::timer(SimDuration::from_secs(10))).respond(ResponseSpec::copy(
            Selector::InTier("memcached".into()).and(Selector::Dirty),
            ["ebs"],
        )))
        .build()
        .expect("builds");

    println!("write-heavy 4 KB inserts + reads of recent objects, 14 minutes\n");
    let mut table = Table::new([
        "time (min)",
        "tier capacity (MB)",
        "space consumed (MB)",
        "avg read latency (ms)",
    ]);

    let deadline = SimTime::from_secs(14 * 60);
    let mut t = SimTime::ZERO;
    let mut rng = env.rng_for("fig16");
    let mut written = 0u64;
    let mut minute_hist = Histogram::new();
    let mut next_report = SimTime::from_secs(60);
    // Writers insert ~420 KB/s (the paper's ~150 MB in ~6 minutes); each
    // insert is followed by a read of a recently-written object.
    while t < deadline {
        let key = format!("obj-{written}");
        if let Ok(r) = instance.put(key.as_str(), vec![0u8; 4096], t) {
            t += r.latency;
        }
        written += 1;
        // Read a recent object (the workload's working set).
        let lookback = KeyChooser::zipfian_theta(written.min(20_000), 0.9);
        let idx = written - 1 - lookback.next(&mut rng);
        match instance.get(format!("obj-{idx}").as_str(), t) {
            Ok((_, receipt)) => {
                t += receipt.latency;
                minute_hist.record(receipt.latency);
            }
            Err(_) => {
                // A reshard-lost entry not yet drained to EBS: the
                // application re-fetches from its source at EBS-read cost.
                let miss = SimDuration::from_millis(9);
                t += miss;
                minute_hist.record(miss);
            }
        }
        // Pace to ~100 inserts/s so the run covers 14 virtual minutes.
        t += SimDuration::from_millis(9);
        instance.pump(t).expect("pump");
        while t >= next_report {
            table.row([
                format!("{:.0}", next_report.as_secs_f64() / 60.0),
                format!("{}", mem.capacity(next_report) / MB),
                format!("{}", mem.used() / MB),
                format!("{:.2}", minute_hist.mean().as_millis_f64()),
            ]);
            minute_hist.reset();
            next_report += SimDuration::from_secs(60);
        }
    }
    table.print();
    println!(
        "\n(paper: capacity doubles one minute after the 150 MB threshold; read\n latency spikes during provisioning/warm-up, then settles back)"
    );
}

//! Figure 15: write latency vs the write-back interval.
//!
//! "The Memcached tier behaves as a write-through cache when this time
//! interval is zero... and write-back cache when this time interval is set
//! to a large value. We see that the write latencies decrease as the value
//! of this time interval increases."
//!
//! YCSB write-only workload over the Figure 3 instance shape.

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::{SimDuration, SimEnv};
use tiera_tiers::{BlockTier, MemoryTier};
use tiera_workloads::ycsb::{self, YcsbConfig};

use crate::deployments::MB;
use crate::table::Table;

fn measure(interval_secs: u64, seed: u64) -> f64 {
    let env = SimEnv::new(seed);
    let builder = InstanceBuilder::new("wb", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, &env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 512 * MB, &env)));
    let builder = if interval_secs == 0 {
        // Interval zero = write-through: the client pays the EBS write.
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
    let instance = builder.build().expect("builds");
    let mut cfg = YcsbConfig::new(20_000);
    cfg.read_proportion = 0.0; // write-only, as the paper
    cfg.threads = 2;
    cfg.ops_per_thread = 4000;
    let report = ycsb::run(&instance, &cfg, tiera_sim::SimTime::ZERO);
    report.writes.mean().as_millis_f64()
}

/// Runs the Figure 15 sweep.
pub fn run() {
    println!("YCSB write-only 4 KB; Memcached + EBS with a timer write-back\n");
    let mut t = Table::new(["persist interval (s)", "avg write latency (ms)"]);
    for (i, interval) in [0u64, 10, 20, 40, 60, 80, 100].into_iter().enumerate() {
        let lat = measure(interval, 1500 + i as u64);
        t.row([interval.to_string(), format!("{lat:.2}")]);
    }
    t.print();
    println!(
        "\n(paper: latency falls from synchronous-EBS levels at t=0 toward pure\n Memcached latency as the interval grows; durability falls with it)"
    );
}

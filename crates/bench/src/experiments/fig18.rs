//! Figure 18: the overhead of the control layer.
//!
//! "We compared two setups..., one with the Tiera control layer enabled,
//! and one without (where the application directly accessed each of the
//! storage tiers)... the performance overhead introduced by Tiera is very
//! low (under 2%)."
//!
//! The overhead is *compute* (evaluating and executing the action event
//! that decides placement), so this experiment measures real CPU time per
//! operation with and without the control layer while sweeping the event
//! rate, and reports the effective latency increase over the same
//! simulated write-through instance.

use std::sync::Arc;
use std::time::Instant;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::instance::Instance;
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_sim::{SimEnv, SimTime};
use tiera_tiers::{BlockTier, MemoryTier};
use tiera_workloads::dist::KeyChooser;

use crate::deployments::MB;
use crate::table::Table;

fn build(env: &SimEnv, control_layer: bool) -> Arc<Instance> {
    let inst = InstanceBuilder::new("overhead", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 512 * MB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put)).respond(ResponseSpec::store(
                Selector::Inserted,
                ["memcached", "ebs"],
            )),
        )
        .build()
        .expect("builds");
    inst.set_control_layer(control_layer);
    inst
}

struct Sample {
    /// Mean *virtual* latency per op (ms).
    virtual_ms: f64,
    /// Mean *real* CPU time per op (µs) — the middleware's own cost.
    real_us: f64,
}

fn measure(env_seed: u64, control_layer: bool, ops: u64) -> Sample {
    let env = SimEnv::new(env_seed);
    let instance = build(&env, true);
    let dist = KeyChooser::zipfian(5_000);
    let mut rng = env.rng_for("fig18");
    // Preload so GETs hit.
    let mut t = SimTime::ZERO;
    for i in 0..5_000u64 {
        let r = instance
            .put(format!("user{i:012}").as_str(), vec![0u8; 4096], t)
            .unwrap();
        t += r.latency;
    }
    // The "without control layer" baseline is the paper's: the application
    // talks to each storage tier directly and implements the write-through
    // itself — same storage work, no event evaluation or metadata.
    let tiers: Vec<_> = ["memcached", "ebs"]
        .iter()
        .map(|n| instance.tier(n).unwrap())
        .collect();
    let started = Instant::now();
    let mut virt_total = 0.0f64;
    for _ in 0..ops {
        let key = format!("user{:012}", dist.next(&mut rng));
        if control_layer {
            if rng.chance(0.5) {
                let (_, r) = instance.get(key.as_str(), t).unwrap();
                t += r.latency;
                virt_total += r.latency.as_millis_f64();
            } else {
                let r = instance.put(key.as_str(), vec![0u8; 4096], t).unwrap();
                t += r.latency;
                virt_total += r.latency.as_millis_f64();
            }
        } else {
            use tiera_core::object::ObjectKey;
            let okey = ObjectKey::new(&key);
            if rng.chance(0.5) {
                let (_, r) = tiers[0].get(&okey, t).unwrap();
                t += r.latency;
                virt_total += r.latency.as_millis_f64();
            } else {
                let data = tiera_support::Bytes::from(vec![0u8; 4096]);
                let mut slowest = tiera_sim::SimDuration::ZERO;
                for tier in &tiers {
                    let r = tier.put(&okey, data.clone(), t).unwrap();
                    slowest = slowest.max(r.latency);
                }
                t += slowest;
                virt_total += slowest.as_millis_f64();
            }
        }
    }
    let real = started.elapsed();
    Sample {
        virtual_ms: virt_total / ops as f64,
        real_us: real.as_secs_f64() * 1e6 / ops as f64,
    }
}

/// Runs the Figure 18 overhead sweep.
pub fn run() {
    println!(
        "write-through instance; 50/50 zipfian PUT/GET; control layer on vs off\n(real CPU per middleware operation + virtual latency)\n"
    );
    let mut table = Table::new([
        "events/sec (nominal)",
        "direct CPU µs/op",
        "via Tiera CPU µs/op",
        "request latency (ms)",
        "overhead vs request",
    ]);
    // The paper sweeps the event-firing rate by adding clients; the
    // per-event cost is rate-independent, so we sweep op volume and report
    // the equivalent rate axis. Overhead is the added compute relative to
    // the (storage-dominated) request latency — the paper's <2% metric.
    for (i, rate) in [400u64, 800, 1200, 1600, 2000].into_iter().enumerate() {
        let ops = rate * 10;
        let off = measure(1800 + i as u64, false, ops);
        let on = measure(1800 + i as u64, true, ops);
        let added_us = (on.real_us - off.real_us).max(0.0);
        table.row([
            rate.to_string(),
            format!("{:.2}", off.real_us),
            format!("{:.2}", on.real_us),
            format!("{:.3}", on.virtual_ms),
            format!("{:+.3}%", added_us / (on.virtual_ms * 1000.0) * 100.0),
        ]);
    }
    table.print();
    println!(
        "\n(paper: the control layer adds under 2% to request latency; the\n added compute above is microseconds against multi-millisecond\n storage requests)"
    );
}

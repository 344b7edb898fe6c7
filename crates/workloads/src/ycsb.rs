//! YCSB-style load against a Tiera instance.
//!
//! Drives PUT/GET operations with configurable read proportion, value size,
//! and key distribution, from N closed-loop virtual clients stepped by
//! [`tiera_sim::exec::run_clients`]. Used by the experiments behind Figures
//! 11, 13, 14, 15 and the ablations.

use std::sync::Arc;

use tiera_support::Bytes;
use tiera_core::instance::Instance;
use tiera_core::Result;
use tiera_sim::exec::run_clients;
use tiera_sim::SimTime;

use crate::dist::KeyChooser;
use crate::report::LoadReport;

/// YCSB-style workload configuration.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of records preloaded and addressed.
    pub records: u64,
    /// Value size in bytes (the paper uses 4 KB).
    pub value_size: usize,
    /// Fraction of operations that are reads (1.0 = read-only, 0.0 =
    /// write-only).
    pub read_proportion: f64,
    /// Key distribution.
    pub dist: KeyChooser,
    /// Virtual clients.
    pub threads: usize,
    /// Operations per client.
    pub ops_per_thread: u64,
    /// Pump the instance's timers/background queue every this many ops
    /// (client 0 only).
    pub pump_every: u64,
    /// Distinguishes RNG streams between runs over the same instance
    /// (warm-up vs measurement).
    pub seed_tag: String,
}

impl YcsbConfig {
    /// A 4 KB, read-heavy default over `records` keys.
    pub fn new(records: u64) -> Self {
        Self {
            records,
            value_size: 4096,
            read_proportion: 0.5,
            dist: KeyChooser::uniform(records),
            threads: 1,
            ops_per_thread: 1000,
            pump_every: 16,
            seed_tag: String::new(),
        }
    }
}

/// Preloads `records` values into the instance, returning the virtual time
/// after loading (load latency excluded from measurements), or the first
/// error of a PUT or a pump: a run must not measure a half-loaded store.
pub fn preload(instance: &Arc<Instance>, cfg: &YcsbConfig, start: SimTime) -> Result<SimTime> {
    let mut t = start;
    for i in 0..cfg.records {
        let key = record_key(i);
        let value = record_value(i, cfg.value_size);
        t += instance.put(key.as_str(), value, t)?.latency;
        // Keep background machinery from backing up during the load.
        if i % 256 == 0 {
            instance.pump(t)?;
        }
    }
    instance.pump(t)?;
    Ok(t)
}

/// Record key for index `i`.
pub fn record_key(i: u64) -> String {
    format!("user{i:012}")
}

/// Deterministic record payload.
pub fn record_value(i: u64, size: usize) -> Bytes {
    let mut v = vec![0u8; size];
    let seed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (j, b) in v.iter_mut().enumerate() {
        *b = ((seed as usize).wrapping_add(j * 31) % 251) as u8;
    }
    Bytes::from(v)
}

/// Runs the workload from `cfg.threads` closed-loop virtual clients
/// starting at virtual time `start`; a step is one operation.
pub fn run(instance: &Instance, cfg: &YcsbConfig, start: SimTime) -> LoadReport {
    let env = instance.env();
    let clock = env.clock();
    let mut rngs: Vec<_> = (0..cfg.threads)
        .map(|id| env.rng_for(&format!("ycsb-thread-{id}-{}", cfg.seed_tag)))
        .collect();
    let mut done = vec![0u64; cfg.threads];
    let mut report = LoadReport::new();
    run_clients(cfg.threads, start, |id, mut t| {
        let op = done[id];
        if op == cfg.ops_per_thread {
            report.finish(start, t);
            return None;
        }
        let rng = &mut rngs[id];
        let key_idx = cfg.dist.next(rng);
        let key = record_key(key_idx);
        if rng.chance(cfg.read_proportion) {
            match instance.get(key.as_str(), t) {
                Ok((_, receipt)) => {
                    t += receipt.latency;
                    report.reads.record(receipt.latency);
                    report.ops += 1;
                }
                Err(_) => report.failures += 1,
            }
        } else {
            let value = record_value(key_idx, cfg.value_size);
            match instance.put(key.as_str(), value, t) {
                Ok(receipt) => {
                    t += receipt.latency;
                    report.writes.record(receipt.latency);
                    report.ops += 1;
                }
                Err(_) => report.failures += 1,
            }
        }
        clock.advance_to(t);
        if id == 0 && op.is_multiple_of(cfg.pump_every) {
            report.pumped(instance.pump(clock.now()));
        }
        done[id] += 1;
        Some(t)
    });
    report.pumped(instance.pump(clock.now()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    fn instance() -> Arc<Instance> {
        InstanceBuilder::new("ycsb", SimEnv::new(21))
            .tier(MemTier::with_capacity("t1", 1 << 30))
            .build()
            .unwrap()
    }

    #[test]
    fn preload_then_read_only_run() {
        let inst = instance();
        let mut cfg = YcsbConfig::new(100);
        cfg.read_proportion = 1.0;
        cfg.ops_per_thread = 500;
        let t = preload(&inst, &cfg, SimTime::ZERO).unwrap();
        let report = run(&inst, &cfg, t);
        assert_eq!(report.ops, 500);
        assert_eq!(report.failures, 0);
        assert_eq!(report.pump_failures, 0);
        assert_eq!(report.reads.count(), 500);
        assert_eq!(report.writes.count(), 0);
    }

    #[test]
    fn mixed_run_multithreaded() {
        let inst = instance();
        let mut cfg = YcsbConfig::new(200);
        cfg.read_proportion = 0.5;
        cfg.threads = 4;
        cfg.ops_per_thread = 250;
        let t = preload(&inst, &cfg, SimTime::ZERO).unwrap();
        let report = run(&inst, &cfg, t);
        assert_eq!(report.ops, 1000);
        assert_eq!(report.pump_failures, 0);
        assert!(report.reads.count() > 300);
        assert!(report.writes.count() > 300);
    }

    #[test]
    fn deterministic_given_seed() {
        let run_once = || {
            let inst = instance();
            let mut cfg = YcsbConfig::new(50);
            cfg.threads = 4;
            cfg.ops_per_thread = 200;
            let t = preload(&inst, &cfg, SimTime::ZERO).unwrap();
            let r = run(&inst, &cfg, t);
            let h = |h: &tiera_sim::Histogram| (h.count(), h.mean(), h.quantile(0.95));
            (r.ops, r.failures, r.elapsed, h(&r.reads), h(&r.writes))
        };
        assert_eq!(run_once(), run_once());
    }
}

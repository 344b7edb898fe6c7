//! YCSB-style load against a Tiera instance.
//!
//! Drives PUT/GET operations with configurable read proportion, value size,
//! and key distribution, from N closed-loop virtual clients stepped by
//! [`tiera_sim::exec::run_clients`]. Used by the experiments behind Figures
//! 11, 13, 14, 15 and the ablations.

use std::sync::Arc;

use tiera_core::instance::Instance;
use tiera_core::Result;
use tiera_sim::exec::run_clients;
use tiera_sim::SimTime;
use tiera_support::Bytes;

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
        instance.pump(t)?;
        let key = record_key(i);
        let value = record_value(i, cfg.value_size);
        t += instance.put(key.as_str(), value, t)?.latency;
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
/// starting at virtual time `start`; a step is one operation. Each step
/// first pumps the instance to its own start time, so a timer firing or a
/// queued item due by then runs before the op does, whichever client steps.
pub fn run(instance: &Instance, cfg: &YcsbConfig, start: SimTime) -> LoadReport {
    let env = instance.env();
    let mut rngs: Vec<_> = (0..cfg.threads)
        .map(|id| env.rng_for(&format!("ycsb-thread-{id}-{}", cfg.seed_tag)))
        .collect();
    let mut done = vec![0u64; cfg.threads];
    let mut report = LoadReport::new();
    run_clients(cfg.threads, start, |id, mut t| {
        report.pumped(instance.pump(t));
        if done[id] == cfg.ops_per_thread {
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
        done[id] += 1;
        Some(t)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_core::tier::RequestCounts;
    use tiera_sim::SimEnv;
    use tiera_support::sync::Mutex;
    use tiera_tiers::MemoryTier;

    fn instance() -> Arc<Instance> {
        InstanceBuilder::new("ycsb", SimEnv::new(21))
            .tier(MemTier::with_capacity("t1", 1 << 30))
            .build()
            .unwrap()
    }

    /// The tier ops the [`Recorded`] tiers of one instance saw, in call
    /// order: the tier, whether it was a PUT (else a GET), and its time.
    type Log = Arc<Mutex<Vec<(&'static str, bool, SimTime)>>>;

    fn log() -> Log {
        Arc::new(Mutex::new(Vec::new()))
    }

    /// A tier that logs its PUTs and GETs, then hands them on.
    struct Recorded {
        name: &'static str,
        inner: TierHandle,
        log: Log,
    }

    impl Tier for Recorded {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn tier_traits(&self) -> TierTraits {
            self.inner.tier_traits()
        }
        fn capacity(&self, now: SimTime) -> u64 {
            self.inner.capacity(now)
        }
        fn used(&self) -> u64 {
            self.inner.used()
        }
        fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
            self.log.lock().push((self.name, true, now));
            self.inner.put(key, data, now)
        }
        fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
            self.log.lock().push((self.name, false, now));
            self.inner.get(key, now)
        }
        fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
            self.inner.delete(key, now)
        }
        fn contains(&self, key: &ObjectKey) -> bool {
            self.inner.contains(key)
        }
        fn grow(&self, percent: f64, now: SimTime) -> SimTime {
            self.inner.grow(percent, now)
        }
        fn shrink(&self, percent: f64, now: SimTime) {
            self.inner.shrink(percent, now)
        }
        fn request_counts(&self) -> RequestCounts {
            self.inner.request_counts()
        }
    }

    /// A write-back instance over two recorded Memcached tiers: PUTs land
    /// on `t1`, a `period` timer copies `t1`'s dirty objects to `t2`, and
    /// (with `copy_inserts`) a background rule copies every insert there
    /// too.
    fn write_back(period: SimDuration, copy_inserts: bool, log: &Log) -> Arc<Instance> {
        let env = SimEnv::new(22);
        let recorded = |name: &'static str| -> TierHandle {
            Arc::new(Recorded {
                name,
                inner: Arc::new(MemoryTier::same_az(name, 1 << 30, &env)),
                log: Arc::clone(log),
            })
        };
        let builder = InstanceBuilder::new("ycsb-write-back", env.clone())
            .tier_handle(recorded("t1"))
            .tier_handle(recorded("t2"))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["t1"])),
            )
            .rule(Rule::on(EventKind::timer(period)).respond(ResponseSpec::copy(
                Selector::InTier("t1".into()).and(Selector::Dirty),
                ["t2"],
            )));
        let builder = if copy_inserts {
            builder.rule(
                Rule::on(EventKind::action(ActionOp::Put).background())
                    .respond(ResponseSpec::copy(Selector::Inserted, ["t2"])),
            )
        } else {
            builder
        };
        builder.build().unwrap()
    }

    /// Two clients over a write-back instance: whichever client steps
    /// next, a timer firing's copy runs before any op that starts after
    /// the firing's boundary, and each object of it before any op that
    /// starts after that object's copy is due.
    #[test]
    fn a_timer_firing_runs_before_every_op_past_its_boundary() {
        let period = SimDuration::from_millis(100);
        let log = log();
        let inst = write_back(period, false, &log);
        let mut cfg = YcsbConfig::new(16);
        cfg.read_proportion = 0.0;
        cfg.threads = 2;
        cfg.ops_per_thread = 2000;
        let report = run(&inst, &cfg, SimTime::ZERO);
        assert_eq!((report.failures, report.pump_failures), (0, 0));

        // Clients only write, so every `t1` GET is a copy reading its
        // source at the time it is due: a firing's first object at the
        // firing's boundary, each later one when the one before it is done.
        let mut latest_op = SimTime::ZERO;
        let mut copy_periods = std::collections::BTreeSet::new();
        for &(tier, put, at) in log.lock().iter() {
            match (tier, put) {
                ("t1", true) => latest_op = latest_op.max(at),
                ("t1", false) => {
                    assert!(latest_op <= at, "an op at {latest_op} ran before a copy due at {at}");
                    copy_periods.insert(at.as_nanos() / period.as_nanos());
                }
                _ => {}
            }
        }
        assert!(copy_periods.len() >= 3, "copies ran in periods {copy_periods:?}");
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
        // A bare instance, and one whose pumps fire a timer and run queued
        // copies.
        fn pumped() -> Arc<Instance> {
            write_back(SimDuration::from_millis(20), true, &log())
        }
        for (build, pumps_copy) in [(instance as fn() -> Arc<Instance>, false), (pumped, true)] {
            let run_once = || {
                let inst = build();
                let mut cfg = YcsbConfig::new(50);
                cfg.threads = 4;
                cfg.ops_per_thread = 200;
                let t = preload(&inst, &cfg, SimTime::ZERO).unwrap();
                let r = run(&inst, &cfg, t);
                let h = |h: &tiera_sim::Histogram| (h.count(), h.mean(), h.quantile(0.95));
                let copied = inst.tier("t2").map_or(0, |t2| t2.request_counts().puts);
                (r.ops, r.failures, r.elapsed, h(&r.reads), h(&r.writes), copied)
            };
            let first = run_once();
            assert_eq!(first, run_once());
            assert_eq!(first.5 > 0, pumps_copy, "objects copied to t2: {}", first.5);
        }
    }
}

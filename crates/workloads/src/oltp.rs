//! sysbench-style OLTP over minidb.
//!
//! Paper §4.1.1: "We generated OLTP workload using sysbench... The OLTP
//! workload followed the special distribution, that is a certain percentage
//! of the data is requested 80% of the time. We varied this percentage of
//! data requested from 1% to 30%. We also varied the concurrency of the
//! workload."
//!
//! A transaction mirrors sysbench's OLTP mix: `point_selects` point reads,
//! plus (read-write mode) `updates` row updates, committed with a journal
//! append. Read-only transactions still journal (the MySQL behaviour the
//! MemcachedEBS-vs-Replicated comparison hinges on).
//!
//! The concurrency the paper varies is N closed-loop virtual clients,
//! stepped one transaction at a time by [`tiera_sim::exec::run_clients`].

use tiera_db::{MiniDb, Op};
use tiera_sim::exec::run_clients;
use tiera_sim::SimTime;

use crate::dist::KeyChooser;
use crate::report::LoadReport;

/// OLTP mix configuration.
#[derive(Debug, Clone)]
pub struct OltpConfig {
    /// Point selects per transaction (sysbench default 10).
    pub point_selects: u32,
    /// Updates per transaction in read-write mode (sysbench ~4).
    pub updates: u32,
    /// Read-only (skip updates)?
    pub read_only: bool,
    /// Key distribution over the table's rows.
    pub dist: KeyChooser,
    /// Virtual clients (the paper plots 8 threads).
    pub threads: usize,
    /// Transactions per client.
    pub txns_per_thread: u64,
    /// Distinguishes RNG streams between runs over the same database
    /// (e.g. warm-up vs measurement) — otherwise a second run would replay
    /// the first run's exact key sequence into warmed caches.
    pub seed_tag: String,
}

impl OltpConfig {
    /// The paper's configuration: special distribution with `pct` hot
    /// fraction over `rows` rows, 8 threads.
    pub fn paper(rows: u64, pct: f64, read_only: bool) -> Self {
        Self {
            point_selects: 10,
            updates: 4,
            read_only,
            dist: KeyChooser::special(rows, pct),
            threads: 8,
            txns_per_thread: 100,
            seed_tag: String::new(),
        }
    }
}

/// Runs the OLTP load from `cfg.threads` closed-loop virtual clients; a
/// step is one transaction. Each step first pumps the Tiera instance's
/// timers and background queue to its own start time.
pub fn run(db: &MiniDb, cfg: &OltpConfig, start: SimTime) -> LoadReport {
    let instance = db.fs().instance();
    let env = instance.env();
    let mut rngs: Vec<_> = (0..cfg.threads)
        .map(|id| env.rng_for(&format!("oltp-thread-{id}-{}", cfg.seed_tag)))
        .collect();
    let mut done = vec![0u64; cfg.threads];
    let mut report = LoadReport::new();
    let mut ops: Vec<Op> = Vec::with_capacity((cfg.point_selects + cfg.updates) as usize);
    run_clients(cfg.threads, start, |id, mut t| {
        report.pumped(instance.pump(t));
        if done[id] == cfg.txns_per_thread {
            report.finish(start, t);
            return None;
        }
        let rng = &mut rngs[id];
        ops.clear();
        for _ in 0..cfg.point_selects {
            ops.push(Op::Select(cfg.dist.next(rng)));
        }
        if !cfg.read_only {
            for _ in 0..cfg.updates {
                ops.push(Op::Update(cfg.dist.next(rng)));
            }
        }
        match db.run_transaction(&ops, t) {
            Ok(receipt) => {
                t += receipt.latency;
                report.ops += 1;
                report.writes.record(receipt.latency); // txn latency
            }
            Err(_) => report.failures += 1,
        }
        done[id] += 1;
        Some(t)
    });
    report
}

/// Runs the same mix against the MySQL-Memory-engine model.
pub fn run_memory_engine(
    engine: &tiera_db::MemoryEngine,
    cfg: &OltpConfig,
    rows: u64,
    start: SimTime,
    seed: u64,
) -> LoadReport {
    let mut rngs: Vec<_> =
        (0..cfg.threads).map(|id| tiera_sim::SimRng::new(seed ^ (id as u64) << 32)).collect();
    let mut done = vec![0u64; cfg.threads];
    let mut report = LoadReport::new();
    let mut ops: Vec<Op> = Vec::with_capacity((cfg.point_selects + cfg.updates) as usize);
    run_clients(cfg.threads, start, |id, mut t| {
        if done[id] == cfg.txns_per_thread {
            report.finish(start, t);
            return None;
        }
        let rng = &mut rngs[id];
        ops.clear();
        for _ in 0..cfg.point_selects {
            ops.push(Op::Select(rng.next_below(rows)));
        }
        if !cfg.read_only {
            for _ in 0..cfg.updates {
                ops.push(Op::Update(rng.next_below(rows)));
            }
        }
        match engine.run_batch(&ops, t) {
            Ok(receipt) => {
                t += receipt.latency;
                report.ops += 1;
                report.writes.record(receipt.latency);
            }
            Err(_) => report.failures += 1,
        }
        done[id] += 1;
        Some(t)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tiera_core::prelude::*;
    use tiera_db::DbConfig;
    use tiera_fs::TieraFs;
    use tiera_sim::SimEnv;

    fn db(rows: u64) -> MiniDb {
        let inst = InstanceBuilder::new("oltp", SimEnv::new(31))
            .tier(MemTier::with_capacity("t1", 1 << 30))
            .build()
            .unwrap();
        db_over(inst, rows)
    }

    /// A database over a write-back instance whose pumps have work: a
    /// timer copies `t1`'s dirty objects to `t2`, and a background rule
    /// copies every insert there too.
    fn write_back_db(rows: u64) -> MiniDb {
        let inst = InstanceBuilder::new("oltp-write-back", SimEnv::new(32))
            .tier(MemTier::with_capacity("t1", 1 << 30))
            .tier(MemTier::with_capacity("t2", 1 << 30))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["t1"])),
            )
            .rule(
                Rule::on(EventKind::action(ActionOp::Put).background())
                    .respond(ResponseSpec::copy(Selector::Inserted, ["t2"])),
            )
            .rule(Rule::on(EventKind::timer(SimDuration::from_millis(50))).respond(
                ResponseSpec::copy(Selector::InTier("t1".into()).and(Selector::Dirty), ["t2"]),
            ))
            .build()
            .unwrap();
        db_over(inst, rows)
    }

    fn db_over(inst: Arc<Instance>, rows: u64) -> MiniDb {
        let fs = Arc::new(TieraFs::new(inst));
        let cfg = DbConfig { rows, buffer_pool_pages: 64, ..DbConfig::default() };
        MiniDb::create(fs, cfg, SimTime::ZERO).unwrap().0
    }

    #[test]
    fn read_only_run_completes() {
        let db = db(2000);
        let mut cfg = OltpConfig::paper(2000, 0.10, true);
        cfg.threads = 2;
        cfg.txns_per_thread = 50;
        let report = run(&db, &cfg, SimTime::ZERO);
        assert_eq!(report.ops, 100);
        assert_eq!(report.failures, 0);
        assert_eq!(report.pump_failures, 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn read_write_run_is_slower_than_read_only() {
        let rows = 2000;
        let mk = || db(rows);
        let mut ro = OltpConfig::paper(rows, 0.10, true);
        ro.threads = 2;
        ro.txns_per_thread = 50;
        let mut rw = ro.clone();
        rw.read_only = false;
        let ro_report = run(&mk(), &ro, SimTime::ZERO);
        let rw_report = run(&mk(), &rw, SimTime::ZERO);
        assert!(
            rw_report.writes.mean() > ro_report.writes.mean(),
            "rw {:?} vs ro {:?}",
            rw_report.writes.mean(),
            ro_report.writes.mean()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        // A bare instance, and one whose pumps fire a timer and run queued
        // copies.
        for (build, pumps_copy) in [(db as fn(u64) -> MiniDb, false), (write_back_db, true)] {
            let run_once = || {
                let mut cfg = OltpConfig::paper(500, 0.10, false);
                cfg.threads = 2;
                cfg.txns_per_thread = 40;
                let db = build(500);
                let r = run(&db, &cfg, SimTime::ZERO);
                let h = |h: &tiera_sim::Histogram| (h.count(), h.mean(), h.quantile(0.95));
                let copied = db.fs().instance().tier("t2").map_or(0, |t2| t2.request_counts().puts);
                (r.ops, r.failures, r.elapsed, h(&r.reads), h(&r.writes), copied)
            };
            let first = run_once();
            assert_eq!(first, run_once());
            assert_eq!(first.5 > 0, pumps_copy, "objects copied to t2: {}", first.5);
        }
    }

    #[test]
    fn memory_engine_collapses_under_concurrency() {
        let engine = tiera_db::MemoryEngine::new(1000, 200);
        let mut cfg = OltpConfig::paper(1000, 0.10, false);
        cfg.threads = 8;
        cfg.txns_per_thread = 5;
        let report = run_memory_engine(&engine, &cfg, 1000, SimTime::ZERO, 7);
        assert_eq!(report.ops, 40);
        // 14 statements × 60 ms each ≈ 840 ms per txn, fully serialized
        // across 8 clients → well under 2 TPS.
        assert!(report.throughput() < 2.0, "tps={}", report.throughput());
    }
}

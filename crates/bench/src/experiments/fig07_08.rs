//! Figures 7 & 8: MySQL on Tiera vs the standard EBS deployment.
//!
//! "We plot the throughput in terms of transactions per second and the 95
//! percentile response latency for read-only and read-write workloads with
//! 8 threads" across hot-data percentages {1, 10, 20, 30} (the sysbench
//! *special* distribution: that fraction of rows receives 80 % of
//! accesses).
//!
//! Also includes the §4.1.1 MySQL-Memory-Engine aside (≈ 0.15 TPS).

use tiera_db::MemoryEngine;
use tiera_sim::{SimDuration, SimEnv};
use tiera_workloads::oltp::{self, OltpConfig};

use crate::deployments;
use crate::table::Table;

const HOT_PCTS: [f64; 4] = [0.01, 0.10, 0.20, 0.30];

struct Point {
    tps: f64,
    p95_ms: f64,
}

fn measure(deployment: &str, pct: f64, read_only: bool, seed: u64) -> Point {
    let env = SimEnv::new(seed);
    let (instance, with_cache) = match deployment {
        "ebs" => (deployments::mysql_on_ebs(&env), true),
        "memcached-ebs" => (deployments::memcached_ebs(&env), false),
        "memcached-replicated" => (deployments::memcached_replicated(&env), false),
        other => panic!("unknown deployment {other}"),
    };
    let cfg = deployments::paper_db_config(with_cache);
    let rows = cfg.rows;
    let (db, start) = deployments::db_over(instance, cfg);
    let mut load = OltpConfig::paper(rows, pct, read_only);
    // Warm-up to steady state (sysbench runs measure steady state; the OS
    // page cache and buffer pool start cold after the bulk load, and the
    // cache needs tens of thousands of distinct page touches to fill).
    load.txns_per_thread = 400;
    load.seed_tag = "warmup".into();
    let warm = oltp::run(&db, &load, start);
    let start = start + warm.elapsed;
    load.txns_per_thread = 120;
    load.seed_tag = "measure".into();
    let report = oltp::run(&db, &load, start);
    Point { tps: report.throughput(), p95_ms: report.writes.quantile(0.95).as_millis_f64() }
}

fn run(read_only: bool) {
    let mode = if read_only { "read-only" } else { "read-write" };
    println!("sysbench-style OLTP, special distribution, 8 threads, {mode}\n");
    let mut tps = Table::new([
        "% data fetched 80% of time",
        "MemcachedReplicated TPS",
        "MemcachedEBS TPS",
        "MySQL-on-EBS TPS",
    ]);
    let mut p95 = Table::new([
        "% data fetched 80% of time",
        "MemcachedReplicated p95(ms)",
        "MemcachedEBS p95(ms)",
        "MySQL-on-EBS p95(ms)",
    ]);
    let mut summary: Vec<(f64, Point, Point, Point)> = Vec::new();
    for (i, pct) in HOT_PCTS.iter().enumerate() {
        let seed = 700 + i as u64;
        let repl = measure("memcached-replicated", *pct, read_only, seed);
        let memebs = measure("memcached-ebs", *pct, read_only, seed);
        let ebs = measure("ebs", *pct, read_only, seed);
        tps.row([
            format!("{:.0}", pct * 100.0),
            format!("{:.1}", repl.tps),
            format!("{:.1}", memebs.tps),
            format!("{:.1}", ebs.tps),
        ]);
        p95.row([
            format!("{:.0}", pct * 100.0),
            format!("{:.1}", repl.p95_ms),
            format!("{:.1}", memebs.p95_ms),
            format!("{:.1}", ebs.p95_ms),
        ]);
        summary.push((*pct, repl, memebs, ebs));
    }
    println!("(a) throughput");
    tps.print();
    println!("\n(b) 95th-percentile transaction latency");
    p95.print();

    // Headline ratios the paper quotes.
    let mid = &summary[1]; // 10 %
    println!(
        "\nTiera MemcachedReplicated vs MySQL-on-EBS at 10% hot data: {:+.0}% throughput",
        (mid.1.tps / mid.3.tps - 1.0) * 100.0
    );
    println!(
        "Tiera MemcachedEBS        vs MySQL-on-EBS at 10% hot data: {:+.0}% throughput",
        (mid.2.tps / mid.3.tps - 1.0) * 100.0
    );
}

/// Figure 7 (read-only).
pub fn run_read_only() {
    run(true);
    memory_engine_aside();
}

/// Figure 8 (read-write).
pub fn run_read_write() {
    run(false);
}

/// §4.1.1: "The experiment with MySQL Memory Engine yielded a throughput of
/// ≈ 0.15 TPS... doesn't support transactions and only supports table level
/// locks."
fn memory_engine_aside() {
    let mut engine = MemoryEngine::new(100_000, 200);
    // Table-level locking forces scan-scale statement costs on this table.
    engine.set_stmt_cost(SimDuration::from_millis(450));
    let mut cfg = OltpConfig::paper(100_000, 0.10, false);
    cfg.txns_per_thread = 4;
    let report = oltp::run_memory_engine(&engine, &cfg, 100_000, tiera_sim::SimTime::ZERO, 7);
    println!(
        "\nMySQL Memory Engine aside: {:.2} TPS under 8 threads (paper: ~0.15 TPS;\n  table locks serialize every transaction)",
        report.throughput()
    );
}

//! Table 2 / Figure 11: trading performance for cost with tier capacities.
//!
//! Three instances with growing Memcached share (50/60/70 % of the data
//! set) over an exclusive Memcached→EBS→S3 LRU hierarchy; 14 clients read
//! 4 KB objects under Uniform and Zipfian (θ = 0.99) distributions; the
//! plot shows average read latency and the monthly storage cost.

use tiera_sim::{SimEnv, SimTime};
use tiera_workloads::dist::KeyChooser;
use tiera_workloads::ycsb::{self, YcsbConfig};

use crate::deployments::{self, GB, MB};
use crate::table::Table;

const DATA_MB: u64 = 512; // total data set

struct Configured {
    name: &'static str,
    memcached_pct: u64,
    ebs_pct: u64,
}

const INSTANCES: [Configured; 3] = [
    Configured { name: "TI:1", memcached_pct: 50, ebs_pct: 30 },
    Configured { name: "TI:2", memcached_pct: 60, ebs_pct: 20 },
    Configured { name: "TI:3", memcached_pct: 70, ebs_pct: 10 },
];

fn measure(c: &Configured, zipfian: bool, seed: u64) -> (f64, f64) {
    let env = SimEnv::new(seed);
    let records = DATA_MB * MB / 4096;
    let instance = deployments::tiered_instance(
        &env,
        c.name,
        c.memcached_pct * DATA_MB / 100 * MB,
        c.ebs_pct * DATA_MB / 100 * MB,
        8 * GB, // S3 is elastic; sized generously, billed by use
    );
    // Preload newest-first so the hottest zipfian keys (low indexes) are
    // the most recently inserted and therefore cache-resident — the
    // steady-state the paper's LRU-managed instances reach. (Reads do not
    // promote in this policy; recency comes from insertion order.)
    let mut t = SimTime::ZERO;
    for i in (0..records).rev() {
        instance.pump(t).expect("pump");
        let r = instance
            .put(ycsb::record_key(i).as_str(), ycsb::record_value(i, 4096), t)
            .expect("preload");
        t += r.latency;
    }
    instance.pump(t).expect("pump");
    let mut cfg = YcsbConfig::new(records);
    cfg.read_proportion = 1.0;
    cfg.threads = 14; // the paper's 14 clients
    cfg.ops_per_thread = 400;
    cfg.dist = if zipfian { KeyChooser::zipfian(records) } else { KeyChooser::uniform(records) };
    let report = ycsb::run(&instance, &cfg, t);
    let cost = instance.monthly_cost(t).total();
    (report.reads.mean().as_millis_f64(), cost)
}

/// Runs the Table 2 / Figure 11 comparison.
pub fn run() {
    println!(
        "Exclusive Memcached/EBS/S3 hierarchy over {DATA_MB} MB of 4 KB objects, 14 clients\n"
    );
    let mut t = Table::new([
        "instance",
        "configuration",
        "uniform read latency (ms)",
        "zipfian read latency (ms)",
        "cost ($/month)",
    ]);
    for (i, c) in INSTANCES.iter().enumerate() {
        let seed = 1100 + i as u64;
        let (uniform_ms, cost) = measure(c, false, seed);
        let (zipf_ms, _) = measure(c, true, seed);
        t.row([
            c.name.to_string(),
            format!("{}% Memcached, {}% EBS, 20% S3", c.memcached_pct, c.ebs_pct),
            format!("{uniform_ms:.2}"),
            format!("{zipf_ms:.2}"),
            format!("{cost:.2}"),
        ]);
    }
    t.print();
    println!(
        "\n(paper: each configuration successively trades lower read latency for\n higher usage cost; zipfian below uniform at every point)"
    );
}

//! Figure 9: cost optimization with the `MemcachedS3` instance.
//!
//! "We see that the deployment on the Tiera instance costs a fraction of
//! the cost of deployment on EBS, and still provides comparable performance
//! for a read-only workload, while sacrificing performance for the
//! read-write workload." Workload: 10 % hot data, 8 threads.

use tiera_sim::{SimDuration, SimEnv};
use tiera_workloads::oltp::{self, OltpConfig};

use crate::deployments::{self, GB, MB};
use crate::table::Table;
#[allow(unused_imports)]
use tiera_sim::SimTime;

fn measure(use_tiera: bool, read_only: bool, seed: u64) -> (f64, f64) {
    let env = SimEnv::new(seed);
    let instance = if use_tiera {
        // Memcached deliberately smaller than the database: an LRU cache
        // over S3 (the cost-optimized configuration).
        deployments::memcached_s3(&env, 64 * MB)
    } else {
        deployments::mysql_on_ebs(&env)
    };
    let cfg = deployments::paper_db_config(!use_tiera);
    let rows = cfg.rows;
    let (db, start) = deployments::db_over(instance.clone(), cfg);
    let mut load = OltpConfig::paper(rows, 0.10, read_only);
    load.txns_per_thread = 400;
    load.seed_tag = "warmup".into();
    let warm = oltp::run(&db, &load, start);
    load.txns_per_thread = 60;
    load.seed_tag = "measure".into();
    let report = oltp::run(&db, &load, start + warm.elapsed);
    // Cost (computed after the run so S3 usage is populated):
    // * EBS: a database deployment provisions an io1-style volume (capacity
    //   + provisioned IOPS), the 2014-era production norm;
    // * Tiera: memcached capacity + S3 pay-per-use bytes.
    let cost = if use_tiera {
        instance.monthly_cost(SimTime::ZERO + SimDuration::from_secs(3600)).total()
    } else {
        tiera_sim::cost::provisioned_iops_monthly(8.0, 300.0)
    };
    (report.throughput(), cost)
}

/// Runs the Figure 9 comparison.
pub fn run() {
    println!("MemcachedS3 (64 MB LRU cache over S3) vs MySQL-on-EBS; 10% hot, 8 threads\n");
    let mut t = Table::new(["workload", "MySQL on EBS TPS", "MySQL on Tiera TPS"]);
    let mut costs = (0.0f64, 0.0f64);
    for (label, read_only) in [("R (read-only)", true), ("R/W (read-write)", false)] {
        let (ebs_tps, ebs_cost) = measure(false, read_only, 900);
        let (tiera_tps, tiera_cost) = measure(true, read_only, 900);
        costs = (ebs_cost, tiera_cost);
        t.row([label.to_string(), format!("{ebs_tps:.1}"), format!("{tiera_tps:.2}")]);
    }
    println!("(a) throughput (the paper plots this on a log scale)");
    t.print();

    let mut c = Table::new(["deployment", "storage cost per month"]);
    // Normalize per GB of database for the paper's per-GB framing.
    let db_gb = deployments::paper_db_config(false).data_bytes() as f64 / GB as f64;
    c.row(["MySQL on EBS".to_string(), format!("${:.2} (${:.2}/GB)", costs.0, costs.0 / db_gb)]);
    c.row([
        "MySQL on Tiera (MemcachedS3)".to_string(),
        format!("${:.2} (${:.2}/GB)", costs.1, costs.1 / db_gb),
    ]);
    println!("\n(b) total cost of storage");
    c.print();
}

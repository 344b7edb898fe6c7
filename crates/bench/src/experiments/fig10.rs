//! Figure 10: the TPC-W online bookstore, end to end.
//!
//! "We varied the numbers of emulated browser from 5 to 25 (in steps of 5)
//! and noted the WIPS over a period of 400 seconds... The increase in
//! throughput ranged from a minimum of 46% with 5 emulated browsers to a
//! maximum of 69% for 15 emulated browsers."
//!
//! Both deployments serve database records *and* the static HTML/images
//! through the same storage; the EC2 instance's memory is constrained (the
//! paper boots with 1 GB) so the plain deployment cannot cache everything.

use tiera_sim::{SimDuration, SimEnv};
use tiera_workloads::tpcw::{self, TpcwConfig};

use crate::deployments::{self};
use crate::table::Table;

fn wips(use_tiera: bool, browsers: usize, seed: u64) -> f64 {
    let env = SimEnv::new(seed);
    let instance =
        if use_tiera { deployments::memcached_ebs(&env) } else { deployments::mysql_on_ebs(&env) };
    // Paper: available memory reduced to 1 GB "to ensure both MySQL and
    // the web server performed sufficient IO" — the web server + MySQL
    // consume it, leaving no page cache to speak of in either deployment.
    let mut db_cfg = deployments::paper_db_config(false);
    db_cfg.rows = 2_500_000; // ≈ 500 MB: items + customers + orders
    db_cfg.os_cache_pages = 0;
    let rows = db_cfg.rows;
    let (db, start) = deployments::db_over(instance, db_cfg);
    let cfg = TpcwConfig {
        emulated_browsers: browsers,
        items: rows, // item/customer/order rows live inside the table
        static_objects: 2_000,
        static_size: 64 * 1024,
        think_time: SimDuration::from_millis(1200),
        window: SimDuration::from_secs(400),
        ramp_up: SimDuration::from_secs(100),
        write_fraction: 0.05,
        // Search / best-seller / order-display pages issue many queries.
        selects_per_interaction: 60,
        static_fetches: 4,
    };
    let t = tpcw::preload_static(db.fs().instance(), &cfg, start).expect("preload");
    tpcw::run(&db, &cfg, t).throughput()
}

/// Runs the Figure 10 sweep.
pub fn run() {
    println!("TPC-W shopping mix, 400 s window (100 s ramp-up), WIPS\n");
    let mut t =
        Table::new(["emulated browsers", "TPC-W on EBS (WIPS)", "TPC-W on Tiera (WIPS)", "uplift"]);
    for (i, browsers) in [5usize, 10, 15, 20, 25].into_iter().enumerate() {
        let seed = 1000 + i as u64;
        let ebs = wips(false, browsers, seed);
        let tiera = wips(true, browsers, seed);
        t.row([
            browsers.to_string(),
            format!("{ebs:.2}"),
            format!("{tiera:.2}"),
            format!("{:+.0}%", (tiera / ebs - 1.0) * 100.0),
        ]);
    }
    t.print();
    println!("\n(paper: uplift between +46% and +69% across browser counts)");
}

//! TPC-W-style emulated browsers (the online bookstore of paper §4.1.2).
//!
//! The paper runs the TPC-W bookstore (MySQL backend + static HTML/images
//! through Tomcat) and measures WIPS — web interactions per second — for 5
//! to 25 emulated browsers under the read-dominant *shopping mix*.
//!
//! Our emulated browser is a closed-loop virtual client stepped by
//! [`tiera_sim::exec::run_clients`]; it alternates think time with
//! interactions. An interaction is either:
//!
//! * a **static-content fetch** — a handful of page/image objects read
//!   through the instance (the HTML and images the paper stored on Tiera),
//!   or
//! * a **dynamic interaction** — a minidb transaction (catalog browsing is
//!   point selects; buy-path interactions also update).
//!
//! The shopping mix is read-dominant: ~95 % of interactions only read, ~5 %
//! write, matching TPC-W's published shopping-mix write ratio.

use std::sync::Arc;

use tiera_core::instance::Instance;
use tiera_core::Result;
use tiera_db::{MiniDb, Op};
use tiera_sim::exec::run_clients;
use tiera_sim::{SimDuration, SimTime};

use crate::dist::KeyChooser;
use crate::report::LoadReport;

/// Bookstore/TPC-W configuration.
#[derive(Debug, Clone)]
pub struct TpcwConfig {
    /// Emulated browsers (the paper sweeps 5..=25).
    pub emulated_browsers: usize,
    /// Items in the catalog (paper: 10,000 items).
    pub items: u64,
    /// Static objects (pages + images) on the instance.
    pub static_objects: u64,
    /// Static object size (HTML/thumbnail scale).
    pub static_size: usize,
    /// Mean think time between interactions.
    pub think_time: SimDuration,
    /// Measurement window (paper: 400 s steady state).
    pub window: SimDuration,
    /// Ramp-up excluded from measurement (paper: 100 s).
    pub ramp_up: SimDuration,
    /// Fraction of interactions that write (shopping mix ≈ 0.05).
    pub write_fraction: f64,
    /// Point selects per dynamic interaction (search/browse pages issue
    /// many).
    pub selects_per_interaction: u32,
    /// Objects fetched per static page view (HTML + images).
    pub static_fetches: u32,
}

impl Default for TpcwConfig {
    fn default() -> Self {
        Self {
            emulated_browsers: 5,
            items: 10_000,
            static_objects: 500,
            static_size: 8 * 1024,
            think_time: SimDuration::from_millis(1000),
            window: SimDuration::from_secs(400),
            ramp_up: SimDuration::from_secs(100),
            write_fraction: 0.05,
            selects_per_interaction: 5,
            static_fetches: 3,
        }
    }
}

/// Static object key.
pub fn static_key(i: u64) -> String {
    format!("static/page-{i:06}")
}

/// Preloads static content onto the instance, returning the virtual time
/// after loading, or the first error of a PUT or a pump: a run must not
/// fetch pages that were never stored.
pub fn preload_static(
    instance: &Arc<Instance>,
    cfg: &TpcwConfig,
    start: SimTime,
) -> Result<SimTime> {
    let mut t = start;
    for i in 0..cfg.static_objects {
        instance.pump(t)?;
        let body = crate::ycsb::record_value(i ^ 0xDEAD, cfg.static_size);
        t += instance.put(static_key(i).as_str(), body, t)?.latency;
    }
    instance.pump(t)?;
    Ok(t)
}

/// Runs the bookstore under `cfg.emulated_browsers` virtual clients, a step
/// being one think time plus one interaction, after a pump of the instance
/// to the step's start; returns the WIPS report measured over the
/// steady-state window.
pub fn run(db: &MiniDb, cfg: &TpcwConfig, start: SimTime) -> LoadReport {
    let instance = db.fs().instance();
    let measure_from = start + cfg.ramp_up;
    let deadline = measure_from + cfg.window;

    let mut rngs: Vec<_> = (0..cfg.emulated_browsers)
        .map(|eb| instance.env().rng_for(&format!("tpcw-eb-{eb}")))
        .collect();
    // Item popularity is skewed (best sellers); the tail is what defeats
    // the constrained-memory EBS deployment's caches.
    let item_dist = KeyChooser::zipfian(cfg.items);
    let mut report = LoadReport::new();
    run_clients(cfg.emulated_browsers, start, |eb, mut t| {
        report.pumped(instance.pump(t));
        if t >= deadline {
            return None;
        }
        let rng = &mut rngs[eb];
        // Think time (exponential-ish around the mean).
        let think = cfg.think_time.mul_f64(0.5 + rng.next_f64());
        t += think;

        let before = t;
        let interaction_ok = if rng.chance(0.45) {
            // Static page view: HTML + images.
            let mut ok = true;
            for _ in 0..cfg.static_fetches {
                let key = static_key(rng.next_below(cfg.static_objects));
                match instance.get(key.as_str(), t) {
                    Ok((_, receipt)) => t += receipt.latency,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            ok
        } else {
            // Dynamic interaction: catalog browse or buy path.
            let writes = rng.chance(cfg.write_fraction);
            let mut ops: Vec<Op> =
                (0..cfg.selects_per_interaction).map(|_| Op::Select(item_dist.next(rng))).collect();
            if writes {
                ops.push(Op::Update(item_dist.next(rng)));
                ops.push(Op::Update(item_dist.next(rng)));
            }
            match db.run_transaction(&ops, t) {
                Ok(receipt) => {
                    t += receipt.latency;
                    true
                }
                Err(_) => false,
            }
        };

        // Measure only interactions completing inside the window.
        if t >= measure_from && t < deadline {
            if interaction_ok {
                report.ops += 1;
                report.reads.record(t - before);
            } else {
                report.failures += 1;
            }
        }
        Some(t)
    });
    report.elapsed = cfg.window;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_db::DbConfig;
    use tiera_fs::TieraFs;
    use tiera_sim::SimEnv;

    fn setup() -> (Arc<MiniDb>, TpcwConfig) {
        let inst = InstanceBuilder::new("tpcw", SimEnv::new(41))
            .tier(MemTier::with_capacity("t1", 1 << 30))
            .build()
            .unwrap();
        let fs = Arc::new(TieraFs::new(inst));
        let db_cfg = DbConfig { rows: 10_000, buffer_pool_pages: 256, ..DbConfig::default() };
        let (db, _) = MiniDb::create(fs, db_cfg, SimTime::ZERO).unwrap();
        let cfg = TpcwConfig {
            emulated_browsers: 3,
            static_objects: 50,
            window: SimDuration::from_secs(30),
            ramp_up: SimDuration::from_secs(5),
            ..TpcwConfig::default()
        };
        (Arc::new(db), cfg)
    }

    #[test]
    fn browsers_produce_wips() {
        let (db, cfg) = setup();
        let t = preload_static(db.fs().instance(), &cfg, SimTime::ZERO).unwrap();
        let report = run(&db, &cfg, t);
        assert!(report.ops > 10, "interactions completed: {}", report.ops);
        assert_eq!(report.pump_failures, 0);
        let wips = report.throughput();
        // 3 browsers with ~1 s think time → WIPS in the low single digits.
        assert!(wips > 0.5 && wips < 10.0, "wips={wips}");
    }

    #[test]
    fn more_browsers_more_wips() {
        // Fresh database per run: the DB's CPU queue is stateful in virtual
        // time, so sequential runs over one engine would interfere.
        let wips_for = |browsers: usize| {
            let (db, mut cfg) = setup();
            cfg.emulated_browsers = browsers;
            let t = preload_static(db.fs().instance(), &cfg, SimTime::ZERO).unwrap();
            run(&db, &cfg, t).throughput()
        };
        let small = wips_for(2);
        let big = wips_for(6);
        assert!(big > small * 1.5, "{small} vs {big}");
    }
}

//! fio-style file readers over [`tiera_fs::TieraFs`].
//!
//! The Figure 12 experiment "use\[s\] fio to generate read requests following
//! a Zipfian distribution (with default θ = 1.2) on data stored in the
//! Tiera instance" through the modified S3FS. This driver reads 4 KB blocks
//! from a file set with a configurable distribution.

use std::sync::Arc;

use tiera_fs::TieraFs;
use tiera_sim::SimTime;

use crate::dist::KeyChooser;
use crate::report::LoadReport;

/// fio-style read workload configuration.
#[derive(Debug, Clone)]
pub struct FioConfig {
    /// Block size per read (fio default here: 4 KB).
    pub block_size: usize,
    /// Distribution over block indexes.
    pub dist: KeyChooser,
    /// Total reads to issue.
    pub reads: u64,
}

impl FioConfig {
    /// Zipfian(θ) reads over `blocks` blocks.
    pub fn zipfian(blocks: u64, theta: f64, reads: u64) -> Self {
        Self { block_size: 4096, dist: KeyChooser::zipfian_theta(blocks, theta), reads }
    }
}

/// Runs the reader against `path` on `fs` (single-threaded, as fio's
/// per-job loop).
pub fn run(fs: &Arc<TieraFs>, path: &str, cfg: &FioConfig, start: SimTime) -> LoadReport {
    let mut rng = fs.instance().env().rng_for("fio");
    let mut report = LoadReport::new();
    let mut t = start;
    for _ in 0..cfg.reads {
        report.pumped(fs.instance().pump(t));
        let block = cfg.dist.next(&mut rng);
        let offset = block * cfg.block_size as u64;
        match fs.read(path, offset, cfg.block_size, t) {
            Ok(r) => {
                t += r.latency;
                report.reads.record(r.latency);
                report.ops += 1;
            }
            Err(_) => report.failures += 1,
        }
    }
    report.pumped(fs.instance().pump(t));
    report.finish(start, t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    #[test]
    fn zipfian_reads_complete() {
        let inst = InstanceBuilder::new("fio", SimEnv::new(51))
            .tier(MemTier::with_capacity("t1", 64 << 20))
            .build()
            .unwrap();
        let fs = Arc::new(TieraFs::new(inst));
        fs.create("/data", SimTime::ZERO).unwrap();
        fs.write("/data", 0, &vec![7u8; 64 * 4096], SimTime::ZERO).unwrap();
        let cfg = FioConfig::zipfian(64, 1.2, 500);
        let report = run(&fs, "/data", &cfg, SimTime::ZERO);
        assert_eq!(report.ops, 500);
        assert_eq!(report.failures, 0);
        assert_eq!(report.pump_failures, 0);
        assert_eq!(report.reads.count(), 500);
    }
}

//! The metastore kill-point crash matrix: every deterministic crash site,
//! under multiple seeds, upholds "no acked durable write lost, no phantom
//! keys" on reopen — and each case replays byte-identically from its
//! `(site, seed)` pair.

use std::fs;
use std::path::PathBuf;

use tiera_chaos::metastore_crash::{run_crash_case, run_crash_matrix};
use tiera_metastore::KillSite;

fn temp_dir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("tiera-crash-{}-{}-{}", std::process::id(), tag, n));
    fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn full_matrix_passes_under_two_seeds() {
    for seed in [1u64, 0xDEAD_BEEF] {
        let base = temp_dir("matrix");
        let results = run_crash_matrix(&base, seed);
        assert_eq!(results.len(), KillSite::ALL.len());
        let failures: Vec<String> = results
            .iter()
            .filter_map(|(site, r)| r.as_ref().err().map(|e| format!("{}: {e}", site.name())))
            .collect();
        assert!(failures.is_empty(), "seed {seed}: {failures:#?}");
        // Every site actually produced a crash case (the matrix is the
        // acceptance criterion's ">= 6 deterministic sites").
        for (_, r) in &results {
            let report = r.as_ref().unwrap();
            assert!(report.acked_ops >= 20, "{report:?}");
            assert!(report.recovered_keys > 0, "{report:?}");
        }
        fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn cases_replay_identically_from_their_seed() {
    for site in [
        KillSite::BatchAfterSync,
        KillSite::BatchBeforeSync,
        KillSite::SnapBeforeRename,
        KillSite::RotateAfterSeal,
    ] {
        let d1 = temp_dir("replay1");
        let d2 = temp_dir("replay2");
        let a = run_crash_case(&d1, site, 7).unwrap();
        let b = run_crash_case(&d2, site, 7).unwrap();
        assert_eq!(a, b, "site {} is not seed-deterministic", site.name());
        fs::remove_dir_all(&d1).ok();
        fs::remove_dir_all(&d2).ok();
    }
}

/// A kill after the batch fsync may surface the records (they are
/// durable), but the invariant — acked-model + attempted-prefix — still
/// has to hold, and here the full batch must surface since it was synced.
#[test]
fn after_sync_kill_surfaces_the_whole_batch() {
    let dir = temp_dir("aftersync");
    let report = run_crash_case(&dir, KillSite::BatchAfterSync, 3).unwrap();
    assert_eq!(report.attempted_records, 1, "{report:?}");
    assert_eq!(
        report.surfaced_prefix.iter().sum::<usize>(),
        1,
        "fsynced record vanished after crash: {report:?}"
    );
    fs::remove_dir_all(&dir).ok();
}

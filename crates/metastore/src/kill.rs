//! Deterministic kill points for crash testing.
//!
//! A [`KillPoints`] handle is shared between a [`MetaStore`] and a crash
//! harness. The harness arms exactly one [`KillSite`]; when store execution
//! reaches that site the pending operation aborts with
//! [`MetaStoreError::Killed`], leaving the on-disk state exactly as a
//! process death at that instruction would. The harness then simulates the
//! loss of everything the OS had not persisted — truncating each shard's
//! active segment to its last-fsynced length (see
//! [`MetaStore::crash_image`]) — drops the store, reopens the directory,
//! and checks the recovery invariant: *every acknowledged durable write
//! survives, and no phantom keys appear*.
//!
//! Sites are checked with plain atomics (no locks), so arming them never
//! perturbs the store's lock order and a disarmed store pays two relaxed
//! loads per site.
//!
//! [`MetaStore`]: crate::MetaStore
//! [`MetaStore::crash_image`]: crate::MetaStore::crash_image
//! [`MetaStoreError::Killed`]: crate::MetaStoreError::Killed

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use crate::store::MetaStoreError;

/// A named crash site inside the store's mutation machinery.
///
/// The sites cover every durability transition: either side of a
/// record's fsync under `sync_every_append` (the `Batch` sites: a commit is
/// a batch of one record), both halves of a segment rotation, and the full
/// snapshot protocol (mid-write, pre-fsync, pre-rename, post-rename,
/// post-cleanup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSite {
    /// A record framed and about to be written and fsynced: nothing of it
    /// has reached the file.
    BatchBeforeSync,
    /// After the record's fsync, before the index update and the ack (the
    /// record is durable but unacknowledged — reopening may surface it;
    /// that is allowed).
    BatchAfterSync,
    /// Rotation decided, before the sealing fsync of the active segment.
    RotateBeforeSealSync,
    /// Active segment sealed and fsynced, before the new segment exists.
    RotateAfterSeal,
    /// Mid-way through writing the snapshot temp file (entries written,
    /// seal record absent — the snapshot must be rejected on reopen).
    SnapMidWrite,
    /// Snapshot temp file fully written, before its fsync.
    SnapBeforeSync,
    /// Snapshot temp file durable, before the rename that commits it.
    SnapBeforeRename,
    /// Snapshot renamed into place, before the old segments are removed.
    SnapAfterRename,
    /// Old segments removed, before the fresh active segment exists.
    SnapAfterCleanup,
}

impl KillSite {
    /// Every site, in protocol order — the crash matrix iterates this.
    pub const ALL: [KillSite; 9] = [
        KillSite::BatchBeforeSync,
        KillSite::BatchAfterSync,
        KillSite::RotateBeforeSealSync,
        KillSite::RotateAfterSeal,
        KillSite::SnapMidWrite,
        KillSite::SnapBeforeSync,
        KillSite::SnapBeforeRename,
        KillSite::SnapAfterRename,
        KillSite::SnapAfterCleanup,
    ];

    /// Stable site name (used in error text and crash-matrix reports).
    pub fn name(self) -> &'static str {
        match self {
            KillSite::BatchBeforeSync => "batch.before_sync",
            KillSite::BatchAfterSync => "batch.after_sync",
            KillSite::RotateBeforeSealSync => "rotate.before_seal_sync",
            KillSite::RotateAfterSeal => "rotate.after_seal",
            KillSite::SnapMidWrite => "snap.mid_write",
            KillSite::SnapBeforeSync => "snap.before_sync",
            KillSite::SnapBeforeRename => "snap.before_rename",
            KillSite::SnapAfterRename => "snap.after_rename",
            KillSite::SnapAfterCleanup => "snap.after_cleanup",
        }
    }

    fn index(self) -> usize {
        KillSite::ALL.iter().position(|&s| s == self).expect("site in ALL")
    }
}

/// Shared arming state for the store's kill sites (see the module docs).
#[derive(Debug, Default)]
pub struct KillPoints {
    /// Armed site index + 1; `0` means disarmed.
    armed: AtomicUsize,
    /// Hits of the armed site to let pass before firing (so a crash can be
    /// planted at the *n*-th rotation rather than the first).
    skip: AtomicU32,
}

impl KillPoints {
    /// A disarmed set of kill points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `site`, letting `skip` hits pass before it fires. Re-arming
    /// replaces any previously armed site.
    pub fn arm(&self, site: KillSite, skip: u32) {
        self.skip.store(skip, Ordering::SeqCst);
        self.armed.store(site.index() + 1, Ordering::SeqCst);
    }

    /// Disarms every site.
    pub fn disarm(&self) {
        self.armed.store(0, Ordering::SeqCst);
    }

    /// Store-side hook: fails with [`MetaStoreError::Killed`] when `site`
    /// is armed and its skip budget is exhausted. Fires at most once per
    /// arming (the site disarms itself as it fires).
    pub(crate) fn check(&self, site: KillSite) -> Result<(), MetaStoreError> {
        if self.armed.load(Ordering::Relaxed) != site.index() + 1 {
            return Ok(());
        }
        let passed = self
            .skip
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1))
            .is_ok();
        if passed {
            return Ok(());
        }
        self.armed.store(0, Ordering::SeqCst);
        Err(MetaStoreError::Killed(site.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_unique_and_stable() {
        let mut names: Vec<_> = KillSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KillSite::ALL.len());
        assert_eq!(KillSite::SnapBeforeRename.name(), "snap.before_rename");
    }

    #[test]
    fn armed_site_fires_once_after_skips() {
        let kp = KillPoints::new();
        kp.arm(KillSite::BatchBeforeSync, 2);
        // Other sites never fire.
        kp.check(KillSite::SnapMidWrite).unwrap();
        // Two skipped hits, then the kill, then disarmed.
        kp.check(KillSite::BatchBeforeSync).unwrap();
        kp.check(KillSite::BatchBeforeSync).unwrap();
        let err = kp.check(KillSite::BatchBeforeSync).unwrap_err();
        assert!(matches!(err, MetaStoreError::Killed("batch.before_sync")));
        kp.check(KillSite::BatchBeforeSync).unwrap();
    }

    #[test]
    fn disarm_clears_pending_kill() {
        let kp = KillPoints::new();
        kp.arm(KillSite::SnapAfterRename, 0);
        kp.disarm();
        kp.check(KillSite::SnapAfterRename).unwrap();
    }
}

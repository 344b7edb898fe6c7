//! Rotation and snapshots: sealing a full segment and starting the next,
//! and compaction, which copies a shard's live records into a sealed
//! snapshot and retires the files it covers.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::sync::Arc;

use super::commit::{CommitState, Shard};
use super::index::{corrupt, file_no, Home, LogFile};
use super::recover::{create_segment, remove_debris, seg_path, snap_path, snap_tmp_path, sync_dir};
use super::{MetaStore, MetaStoreError};
use crate::kill::KillSite;
use crate::log::{encode_frame, RecordKind};

impl MetaStore {
    pub(super) fn snapshot_shard(
        &self,
        shard: &Shard,
        c: &mut CommitState,
    ) -> Result<(), MetaStoreError> {
        // Everything applied to the index is in the log; make it durable
        // so the snapshot is a subset of synced history — and so that the
        // files hold all of it to copy from.
        if c.unsynced() {
            shard.sync_active(c)?;
        }
        let snap_num = c.active_seg + 1;
        let active = snap_num + 1;
        let (snap_no, active_no) = (file_no(snap_num)?, file_no(active)?);
        let tmp = snap_tmp_path(&self.dir, shard.id);
        // Where each live record lands in the snapshot.
        let mut moved: Vec<(u64, u64)> = Vec::new();
        let mut moved_overflow: Vec<(Vec<u8>, u64)> = Vec::new();
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            let mut at = 0u64;
            let idx = shard.index.read();
            idx.walk(self.hash, |frame, hash, home| {
                if at > 0 {
                    self.kill.check(KillSite::SnapMidWrite)?;
                }
                w.write_all(frame.raw)?;
                match home {
                    Home::Table => moved.push((hash, at)),
                    Home::Overflow => moved_overflow.push((frame.key.to_vec(), at)),
                }
                at += frame.raw.len() as u64;
                Ok(())
            })?;
            let count = moved.len() + moved_overflow.len();
            if count != idx.live() {
                // A record the index points at no longer reads back whole.
                // The temp file is debris; the store stands as it was.
                return Err(corrupt(format!(
                    "shard {}: the log yields {count} of {} live records",
                    shard.id,
                    idx.live()
                ))
                .into());
            }
            let mut seal = Vec::new();
            encode_frame(&mut seal, RecordKind::Seal, &[], &(count as u64).to_le_bytes());
            w.write_all(&seal)?;
            self.kill.check(KillSite::SnapBeforeSync)?;
            w.flush()?;
            w.get_ref().sync_data()?;
            c.fsyncs += 1;
        }
        // The rename moves the name, not the file: this handle reads the
        // snapshot from now on.
        let snap_file = Arc::new(File::open(&tmp)?);
        self.kill.check(KillSite::SnapBeforeRename)?;
        let final_path = snap_path(&self.dir, shard.id, snap_num);
        fs::rename(&tmp, &final_path)?;
        sync_dir(&self.dir)?;
        self.kill.check(KillSite::SnapAfterRename)?;
        // The snapshot is durable and committed; everything before it is
        // garbage.
        let old_segs = std::mem::take(&mut c.segments);
        for n in old_segs {
            self.note_debris(remove_debris(&seg_path(&self.dir, shard.id, n)));
        }
        if let Some((old_snap, _)) = c.snapshot {
            self.note_debris(remove_debris(&snap_path(&self.dir, shard.id, old_snap)));
        }
        self.kill.check(KillSite::SnapAfterCleanup)?;
        let snap_bytes = fs::metadata(&final_path)?.len();
        let file = create_segment(&self.dir, shard.id, active)?;
        c.snapshot = Some((snap_num, snap_bytes));
        c.segments = vec![active];
        c.sealed_bytes = 0;
        c.dead_bytes = 0;
        c.compactions += 1;
        c.activate(active, &file);
        // Repoint the locators; readers have been served from the retired
        // files, whose handles stay good until this drops them.
        let mut idx = shard.index.write();
        for (hash, at) in moved {
            let loc = idx.table.get_mut(&hash).expect("live under the commit lock");
            (loc.file, loc.offset) = (snap_no, at);
        }
        for (key, at) in moved_overflow {
            let loc = idx.overflow.get_mut(&key).expect("live under the commit lock");
            (loc.file, loc.offset) = (snap_no, at);
        }
        idx.files = vec![LogFile { no: snap_no, file: snap_file }, LogFile { no: active_no, file }];
        idx.tail_start = 0;
        Ok(())
    }

    pub(super) fn maybe_rotate(
        &self,
        shard: &Shard,
        c: &mut CommitState,
    ) -> Result<(), MetaStoreError> {
        if c.len < self.opts.segment_max_bytes {
            return Ok(());
        }
        let snap_bytes = c.snapshot.map_or(0, |(_, b)| b);
        let total = snap_bytes + c.sealed_bytes + c.len;
        let garbage = c.dead_bytes as f64 / total.max(1) as f64;
        if garbage >= self.opts.compact_garbage_ratio {
            return self.snapshot_shard(shard, c);
        }
        // Seal the active segment and start a new one.
        self.kill.check(KillSite::RotateBeforeSealSync)?;
        shard.sync_active(c)?;
        self.kill.check(KillSite::RotateAfterSeal)?;
        c.sealed_bytes += c.len;
        let next = c.active_seg + 1;
        let no = file_no(next)?;
        let file = create_segment(&self.dir, shard.id, next)?;
        c.segments.push(next);
        c.activate(next, &file);
        let mut idx = shard.index.write();
        idx.files.push(LogFile { no, file });
        idx.tail_start = 0;
        Ok(())
    }
}

//! Fixture: the same discards with their reasons, and calls A008 leaves
//! alone — a discarded non-durability call, a handled result, a
//! comment without a reason does not count.

use std::fs::File;

pub fn drive(instance: &Instance, log: &File, t: u64) -> std::io::Result<()> {
    // A008: the caller syncs the store itself right after the drive.
    let _ = instance.pump(t);
    // A008: best effort on a path that is about to be deleted.
    let _ =
        log.sync_all();
    let _ = instance.get("key", t);
    log.sync_all()?;
    Ok(())
}

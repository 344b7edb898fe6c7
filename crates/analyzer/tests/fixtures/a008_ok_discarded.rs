//! Fixture: `.ok();` throws a `Result` away just as `let _ =` does — a
//! file sync on one line and a pump split over three. Calls it leaves
//! alone: a non-durability call, a bound or returned `.ok()`, and a
//! discard whose reason is on the line above.

use std::fs::File;

pub fn drive(instance: &Instance, log: &File, t: u64) -> Option<()> {
    log.sync_all().ok();
    instance
        .pump(t)
        .ok();
    instance.get("key", t).ok();
    let synced = log.sync_data().ok();
    // A008: best effort on a path that is about to be deleted.
    log.sync_all().ok();
    synced?;
    return log.flush().ok();
}

//! Fixture: two discarded results A008 flags — a pump whose error would
//! say the metadata is not durable, and a file sync split over two lines.

use std::fs::File;

pub fn drive(instance: &Instance, log: &File, t: u64) {
    let _ = instance.pump(t);
    let _ =
        log.sync_all();
}

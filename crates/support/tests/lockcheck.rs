//! Runtime lock-order sanitizer tests (`--features lockcheck`).
//!
//! Each test uses its own lock names: the acquired-while-held edge set is
//! process-global, so reusing a name across tests would entangle their
//! graphs.

#![cfg(feature = "lockcheck")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use tiera_support::sync::{Mutex, RwLock, LOCKCHECK};

fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a lockcheck panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn lockcheck_flag_is_on_in_this_build() {
    assert!(LOCKCHECK);
}

#[test]
fn seeded_rank_inversion_panics_with_both_sites() {
    let hi = Mutex::named("inv.hi", 200, 0u32);
    let lo = Mutex::named("inv.lo", 100, 0u32);
    let msg = panic_message(|| {
        let _h = hi.lock();
        let _l = lo.lock(); // rank 100 under rank 200: inversion
    });
    assert!(msg.contains("order inversion"), "message: {msg}");
    assert!(msg.contains("`inv.lo` (rank 100)"), "message: {msg}");
    assert!(msg.contains("`inv.hi` (rank 200)"), "message: {msg}");
    // Both acquisition sites are cited.
    assert_eq!(msg.matches("lockcheck.rs").count(), 2, "message: {msg}");
}

#[test]
fn reacquiring_the_same_name_panics() {
    // All registry shards share the name "registry.shard"; this rule is
    // what forbids holding two shards at once.
    let a = Mutex::named("dup.x", 300, 0u32);
    let b = Mutex::named("dup.x", 300, 0u32);
    let msg = panic_message(|| {
        let _a = a.lock();
        let _b = b.lock();
    });
    assert!(msg.contains("re-acquiring `dup.x`"), "message: {msg}");
}

#[test]
fn equal_rank_cycle_closing_edge_panics() {
    // Equal ranks pass the rank gate, so ordering between them is enforced
    // by the global edge set: whichever order a process uses first wins.
    let a = RwLock::named("cyc.a", 400, 0u32);
    let b = RwLock::named("cyc.b", 400, 0u32);
    {
        let _a = a.write();
        let _b = b.read(); // records cyc.a → cyc.b
    }
    let msg = panic_message(|| {
        let _b = b.write();
        let _a = a.read(); // would record cyc.b → cyc.a: a cycle
    });
    assert!(msg.contains("closes a cycle"), "message: {msg}");
    assert!(msg.contains("`cyc.a`"), "message: {msg}");
    assert!(msg.contains("`cyc.b`"), "message: {msg}");
}

#[test]
fn ordered_acquisition_is_clean() {
    let outer = Mutex::named("ok.outer", 500, 0u32);
    let inner = RwLock::named("ok.inner", 510, 0u32);
    for _ in 0..3 {
        let o = outer.lock();
        let i = inner.write();
        assert_eq!(*o + *i, 0);
    }
}

#[test]
fn sequential_acquisition_ignores_rank() {
    // Ranks order *nested* acquisition only; once the high-rank guard is
    // dropped, taking a lower-ranked lock is fine.
    let hi = Mutex::named("seq.hi", 600, 0u32);
    let lo = Mutex::named("seq.lo", 590, 0u32);
    drop(hi.lock());
    drop(lo.lock());
}

#[test]
fn anonymous_locks_are_exempt_from_checking() {
    // Unnamed locks have no metadata; nesting them any way round is not
    // the sanitizer's business (A007 nudges shipped code to name them).
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    let _b = b.lock();
    let _a = a.lock();
}

#[test]
fn held_stack_survives_a_caught_inversion() {
    // The inversion panic fires before any bookkeeping is pushed, so after
    // catching it the outer guard still releases cleanly and ordinary
    // locking continues to work on this thread.
    let hi = Mutex::named("rec.hi", 700, 0u32);
    let lo = Mutex::named("rec.lo", 690, 0u32);
    {
        let _h = hi.lock();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _l = lo.lock();
        }));
        assert!(err.is_err());
    }
    // Correct order now succeeds.
    let _l = lo.lock();
    let _h = hi.lock();
}

#[test]
fn the_tally_counts_this_threads_named_acquisitions_by_name() {
    use tiera_support::sync::{reset_tally, tally};
    let m = Mutex::named("tally.m", 700, 0u32);
    let l = RwLock::named("tally.l", 702, 0u32);
    let anonymous = Mutex::new(0u32);
    *m.lock() += 1;
    reset_tally();
    *m.lock() += 1;
    let _ = *l.read();
    *l.write() += 1;
    *anonymous.lock() += 1;
    std::thread::scope(|s| {
        s.spawn(|| *m.lock() += 1);
    });
    let counts = tally();
    assert_eq!(counts.get("tally.m"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("tally.l"), Some(&2), "{counts:?}");
    reset_tally();
    assert!(tally().is_empty());
}

//! Chaos matrix over the tierx-wrapped tiers (`Stack::Wrapped`): the ledger
//! invariants and the dedup refcount contract must hold across a seed sweep
//! of every scenario kind, and every run must replay byte-identically from
//! its seed.

use tiera_chaos::scenario::{run, ChaosConfig, ScenarioKind, Stack};

fn wrapped(seed: u64, kind: ScenarioKind) -> ChaosConfig {
    ChaosConfig {
        stack: Stack::Wrapped,
        ..ChaosConfig::new(seed, kind)
    }
}

#[test]
fn invariants_hold_over_wrapped_tiers_across_a_seed_sweep() {
    for kind in ScenarioKind::all() {
        for seed in 1..=4u64 {
            let outcome = run(&wrapped(seed, kind));
            assert!(outcome.ok(), "{}", outcome.report());
        }
    }
}

#[test]
fn wrapped_runs_replay_byte_identically_from_seed() {
    let cfg = wrapped(404, ScenarioKind::WriteBack);
    let a = run(&cfg);
    let b = run(&cfg);
    assert!(a.ok(), "{}", a.report());
    assert_eq!(a.event_log, b.event_log, "event logs must replay bit-identically");
    assert_eq!(
        (a.writes_acked, a.writes_failed, a.reads_ok, a.reads_failed),
        (b.writes_acked, b.writes_failed, b.reads_ok, b.reads_failed)
    );
}

#[test]
fn wrapped_sweep_exercises_both_transform_paths() {
    // A sweep where no run ever compressed or deduped anything would prove
    // nothing about the wrappers under faults; the profile line in the
    // event log carries the counters.
    let mut saw_compression = false;
    let mut saw_dedup_hit = false;
    for seed in 1..=4u64 {
        let outcome = run(&wrapped(seed, ScenarioKind::WriteThrough));
        assert!(outcome.ok(), "{}", outcome.report());
        let profile_line = outcome
            .event_log
            .iter()
            .find(|l| l.starts_with("wrapper profiles:"))
            .expect("profile line present");
        saw_compression |= !profile_line.contains("physical=0");
        saw_dedup_hit |= !profile_line.contains("dedup_hits=0");
    }
    assert!(saw_compression, "no run stored compressed bytes");
    assert!(saw_dedup_hit, "no run ever hit the dedup store twice");
}

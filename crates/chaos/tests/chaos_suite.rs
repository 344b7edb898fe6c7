//! The chaos suite: replay determinism over both tier stacks, the
//! fingerprints every raw and cluster cell must keep, a multi-seed
//! invariant sweep over the raw stack (wrapped_chaos.rs sweeps the wrapped
//! one), and a multi-threaded hammer over a flapping tier.
//!
//! Every assertion message embeds the scenario seed and the call that
//! replays it (via `ChaosOutcome::report()`).

use std::sync::Arc;

use tiera_chaos::cluster_scenario::{run_cluster, ClusterChaosConfig, ClusterScenarioKind};
use tiera_chaos::invariants::{checksum, WriteLedger};
use tiera_chaos::scenario::{self, ChaosConfig, ScenarioKind, Stack};
use tiera_chaos::schedule::FaultSchedule;
use tiera_core::monitor::FailureMonitor;
use tiera_core::prelude::*;
use tiera_sim::{FailureKind, SimEnv};
use tiera_tiers::{BlockTier, MemoryTier, ObjectStoreTier};
use tiera_workloads::ycsb::record_value;

fn config(seed: u64, kind: ScenarioKind, stack: Stack) -> ChaosConfig {
    ChaosConfig {
        stack,
        ..ChaosConfig::new(seed, kind)
    }
}

fn replay_outcome_fingerprint(cfg: &ChaosConfig) -> (Vec<String>, u64, u64, u64, u64, bool) {
    let o = scenario::run(cfg);
    assert!(o.ok(), "{}", o.report());
    (
        o.event_log,
        o.writes_acked,
        o.writes_failed,
        o.reads_ok,
        o.alerts,
        o.recovered,
    )
}

fn assert_replays(seed: u64, kind: ScenarioKind) {
    for stack in [Stack::Raw, Stack::Wrapped] {
        let cfg = config(seed, kind, stack);
        assert_eq!(
            replay_outcome_fingerprint(&cfg),
            replay_outcome_fingerprint(&cfg),
            "{stack:?}"
        );
    }
}

#[test]
fn write_through_replays_byte_identically_from_seed() {
    assert_replays(101, ScenarioKind::WriteThrough);
}

#[test]
fn write_back_replays_byte_identically_from_seed() {
    assert_replays(202, ScenarioKind::WriteBack);
}

#[test]
fn oltp_mix_replays_byte_identically_from_seed() {
    assert_replays(303, ScenarioKind::OltpMix);
}

/// `xxh64(event_log.join("\n"))` and the outcome counts of every raw
/// instance cell (3 kinds × seeds 1–4) and every cluster cell (4 kinds ×
/// seeds 1–2), generated from the instance and cluster runners as they
/// stood before the wrapped runner was folded into `scenario::run`. A
/// change that moves any of these changes what a seed replays.
#[test]
fn raw_and_cluster_cells_match_their_recorded_fingerprints() {
    use ClusterScenarioKind::*;
    use ScenarioKind::*;
    // issued, acked, failed, reads_ok, reads_failed, alerts, monitor_signals
    const RAW: [(ScenarioKind, u64, u64, [u64; 7]); 12] = [
        (WriteThrough, 1, 0x8095_bdc6_1117_b7e4, [1126, 1126, 0, 235, 139, 2, 1]),
        (WriteThrough, 2, 0xb6f6_2202_d36c_6d06, [1137, 1137, 0, 234, 129, 0, 0]),
        (WriteThrough, 3, 0xf651_edf0_4b9a_4454, [1141, 1141, 0, 206, 153, 2, 1]),
        (WriteThrough, 4, 0x1ba5_347e_322a_5f97, [1145, 1145, 0, 228, 127, 1, 1]),
        (WriteBack, 1, 0x7c84_8e7a_d7f1_0d01, [1126, 1126, 0, 235, 139, 2, 1]),
        (WriteBack, 2, 0xc11e_77b8_d9e0_4dd0, [1137, 1137, 0, 234, 129, 0, 0]),
        (WriteBack, 3, 0x5bee_a765_70db_e844, [1141, 1141, 0, 206, 153, 2, 1]),
        (WriteBack, 4, 0xe76f_43a8_b7b1_94b4, [1145, 1145, 0, 228, 127, 1, 1]),
        (OltpMix, 1, 0xd21e_1c6e_1585_9525, [749, 749, 0, 510, 241, 1, 1]),
        (OltpMix, 2, 0x89cb_8c22_122e_cc1d, [777, 777, 0, 518, 205, 0, 0]),
        (OltpMix, 3, 0x2e8f_f027_1dbf_e9b6, [776, 776, 0, 509, 215, 1, 1]),
        (OltpMix, 4, 0x66ff_408f_5b7a_d54f, [765, 765, 0, 532, 203, 1, 1]),
    ];
    // writes issued/acked/failed, reads ok/failed, deletes acked/failed
    const CLUSTER: [(ClusterScenarioKind, u64, u64, [u64; 7]); 8] = [
        (NodeKill, 1, 0xda25_bf93_0d14_50da, [448, 317, 131, 79, 113, 17, 43]),
        (NodeKill, 2, 0x2f75_7e01_bfc1_4aa3, [482, 456, 26, 90, 79, 26, 23]),
        (NodePartition, 1, 0x8260_c582_e4f1_8d9b, [448, 442, 6, 99, 93, 30, 30]),
        (NodePartition, 2, 0x5192_b33a_bc73_47b4, [482, 482, 0, 93, 76, 28, 21]),
        (RejoinStale, 1, 0xe7f1_f87f_3edc_fd70, [448, 448, 0, 99, 93, 30, 30]),
        (RejoinStale, 2, 0x380d_9c28_2991_a568, [482, 482, 0, 93, 76, 28, 21]),
        (KillDuringRebalance, 1, 0x71fd_3da7_fb71_a4f6, [448, 448, 0, 99, 93, 30, 30]),
        (KillDuringRebalance, 2, 0x8f69_3e80_1fba_28c4, [482, 482, 0, 93, 76, 28, 21]),
    ];
    for (kind, seed, log_hash, counts) in RAW {
        let o = scenario::run(&ChaosConfig::new(seed, kind));
        assert!(o.ok(), "{}", o.report());
        let got = [
            o.writes_issued,
            o.writes_acked,
            o.writes_failed,
            o.reads_ok,
            o.reads_failed,
            o.alerts,
            o.monitor_signals,
        ];
        let hash = checksum(o.event_log.join("\n").as_bytes());
        assert_eq!((hash, got), (log_hash, counts), "{}", o.report());
    }
    for (kind, seed, log_hash, counts) in CLUSTER {
        let o = run_cluster(&ClusterChaosConfig::new(seed, kind));
        assert!(o.ok(), "{}", o.report());
        let got = [
            o.writes.0, o.writes.1, o.writes.2, o.reads.0, o.reads.1, o.deletes.0, o.deletes.1,
        ];
        let hash = checksum(o.event_log.join("\n").as_bytes());
        assert_eq!((hash, got), (log_hash, counts), "{}", o.report());
    }
}

#[test]
fn different_seeds_produce_different_event_logs() {
    let a = scenario::run(&ChaosConfig::new(1, ScenarioKind::WriteThrough));
    let found = (2u64..10)
        .any(|s| scenario::run(&ChaosConfig::new(s, ScenarioKind::WriteThrough)).event_log != a.event_log);
    assert!(found, "eight different seeds all replayed seed 1's event log");
}

#[test]
fn invariants_hold_across_a_seed_sweep_of_every_scenario_kind() {
    // The wrapped stack's sweep, and its check that both transforms ran,
    // live in wrapped_chaos.rs.
    for kind in ScenarioKind::all() {
        for seed in 1..=8u64 {
            let outcome = scenario::run(&ChaosConfig::new(seed, kind));
            assert!(outcome.ok(), "{}", outcome.report());
        }
    }
}

#[test]
fn the_sweep_actually_exercises_the_fault_plane() {
    // A sweep that never injects a failure proves nothing; check that at
    // least one seed produced failed writes or alerts, and at least one
    // produced a non-empty schedule.
    let mut any_failures = false;
    let mut any_events = false;
    for seed in 1..=8u64 {
        let cfg = ChaosConfig::new(seed, ScenarioKind::WriteThrough);
        let schedule = FaultSchedule::random(seed, &["memcached", "ebs"], cfg.horizon);
        any_events |= !schedule.events.is_empty();
        let outcome = scenario::run(&cfg);
        any_failures |= outcome.writes_failed > 0 || outcome.alerts > 0 || outcome.reads_failed > 0;
    }
    assert!(any_events, "no seed in 1..=8 generated any fault event");
    assert!(any_failures, "no seed in 1..=8 surfaced any failure to the client");
}

#[test]
fn recovery_after_open_ended_outage_cleared_by_monitor_style_repair() {
    // An explicit (not random) schedule: EBS writes go down at t=30s with
    // no scheduled end; the harness plays repair crew by clearing the
    // injector, after which the instance must return to steady state.
    let env = SimEnv::new(4242);
    let mem = Arc::new(MemoryTier::same_az("memcached", 64 << 20, &env));
    let ebs = Arc::new(BlockTier::ebs("ebs", 256 << 20, &env));
    let instance = InstanceBuilder::new("repair", env.clone())
        .tier(Arc::clone(&mem))
        .tier(Arc::clone(&ebs))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put)).respond(ResponseSpec::store(
                Selector::Inserted,
                ["memcached", "ebs"],
            )),
        )
        .build()
        .unwrap();
    instance.set_retry_policy(RetryPolicy::robust());
    let schedule = FaultSchedule::new(4242).outage(
        "ebs",
        SimTime::from_secs(30),
        None,
        FailureKind::Writes,
    );
    schedule.apply(&[("ebs", ebs.failures())]);

    let mut ledger = WriteLedger::new();
    let mut t = SimTime::ZERO;
    let mut failed = 0u64;
    for i in 0..200u64 {
        let key = format!("k{i}");
        let value = record_value(i, 1024);
        match instance.put(key.as_str(), value.clone(), t) {
            Ok(r) => {
                t += r.latency;
                ledger.record_ack(&key, &value);
            }
            Err(_) => {
                failed += 1;
                ledger.record_failure(&key, &value);
            }
        }
        // Open-loop pacing: 4 ops/s, so the 200-op run spans ~50 s of
        // virtual time and ops 120+ land inside the t=30s outage.
        t += SimDuration::from_millis(250);
    }
    // With only one durable tier and it down, un-failed-over writes fail —
    // but robust failover has no durable alternative, so some must fail
    // or be served by memcached alone... either way alerts fire.
    assert!(
        failed > 0 || instance.alerts_emitted() > 0,
        "the outage had no observable effect"
    );

    // Repair and verify steady state.
    schedule.clear(&[("ebs", ebs.failures())]);
    t += SimDuration::from_secs(10);
    let _ = instance.pump(t);
    for i in 0..20u64 {
        let key = format!("post-{i}");
        let value = record_value(10_000 + i, 1024);
        let r = instance.put(key.as_str(), value.clone(), t).expect("post-repair put");
        t += r.latency;
        ledger.record_ack(&key, &value);
    }
    let report = ledger.check(&instance, t, false);
    assert!(report.ok(), "seed 4242: {:?}", report.violations);
}

#[test]
fn monitor_observing_alerts_sees_chaos_degradation() {
    // The FAILURE_ALERT stream reaches the monitoring application: flap a
    // tier hard enough that failover alerts fire, and check the monitor's
    // alert-observation path registers trouble.
    let env = SimEnv::new(99);
    let mem = Arc::new(MemoryTier::same_az("memcached", 64 << 20, &env));
    let ebs = Arc::new(BlockTier::ebs("ebs", 256 << 20, &env));
    let s3 = Arc::new(ObjectStoreTier::s3("s3", 1 << 30, &env));
    let instance = InstanceBuilder::new("observed", env.clone())
        .tier(Arc::clone(&mem))
        .tier(Arc::clone(&ebs))
        .tier(Arc::clone(&s3))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put)).respond(ResponseSpec::store(
                Selector::Inserted,
                ["memcached", "ebs"],
            )),
        )
        .build()
        .unwrap();
    instance.set_retry_policy(RetryPolicy::robust());
    FaultSchedule::new(99)
        .outage(
            "ebs",
            SimTime::from_secs(5),
            Some(SimTime::from_secs(400)),
            FailureKind::Writes,
        )
        .apply(&[("ebs", ebs.failures())]);
    let mut monitor = FailureMonitor::new(
        Arc::clone(&instance),
        SimDuration::from_secs(60),
        u32::MAX, // never reconfigure; we only count signals
        |_| {},
    )
    .observing_alerts();

    let mut t = SimTime::ZERO;
    let mut signals = 0usize;
    for i in 0..60u64 {
        let _ = instance.put(format!("k{i}").as_str(), record_value(i, 1024), t);
        t += SimDuration::from_secs(10);
        signals += monitor
            .tick(t)
            .iter()
            .filter(|o| !matches!(o, tiera_core::monitor::ProbeOutcome::Healthy))
            .count();
    }
    assert!(
        instance.alerts_emitted() > 0,
        "failover under outage must emit FAILURE_ALERTs"
    );
    assert!(signals > 0, "monitor never saw the degradation");
}

#[test]
fn four_thread_hammer_over_flapping_tier_loses_no_acked_write() {
    const THREADS: u64 = 4;
    const OPS_PER_THREAD: u64 = 250;

    let env = SimEnv::new(777);
    let mem = Arc::new(MemoryTier::same_az("memcached", 64 << 20, &env));
    let ebs = Arc::new(BlockTier::ebs("ebs", 256 << 20, &env));
    let s3 = Arc::new(ObjectStoreTier::s3("s3", 1 << 30, &env));
    let instance = InstanceBuilder::new("hammer", env.clone())
        .tier(Arc::clone(&mem))
        .tier(Arc::clone(&ebs))
        .tier(Arc::clone(&s3))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put)).respond(ResponseSpec::store(
                Selector::Inserted,
                ["memcached", "ebs"],
            )),
        )
        .build()
        .unwrap();
    instance.set_retry_policy(RetryPolicy::robust());

    // Both tiers flap (never simultaneously scheduled against s3, the
    // failover refuge), covering the whole hammer window.
    FaultSchedule::new(777)
        .flap(
            "memcached",
            SimTime::from_secs(2),
            SimDuration::from_secs(3),
            SimDuration::from_secs(4),
            30,
            FailureKind::All,
        )
        .flap(
            "ebs",
            SimTime::from_secs(4),
            SimDuration::from_secs(3),
            SimDuration::from_secs(5),
            25,
            FailureKind::Writes,
        )
        .apply(&[("memcached", mem.failures()), ("ebs", ebs.failures())]);

    // Each thread owns a disjoint key range and writes each key once, so
    // the merged ledger is order-independent.
    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let instance = Arc::clone(&instance);
        handles.push(std::thread::spawn(move || {
            let mut acked: Vec<(String, u64)> = Vec::new();
            let mut failed: Vec<(String, u64)> = Vec::new();
            let mut t = SimTime::ZERO;
            for i in 0..OPS_PER_THREAD {
                let key = format!("h{tid}-{i}");
                let idx = tid * 1_000_000 + i;
                let value = record_value(idx, 2048);
                match instance.put(key.as_str(), value, t) {
                    Ok(r) => {
                        t += r.latency;
                        acked.push((key, idx));
                    }
                    Err(_) => {
                        failed.push((key, idx));
                        t += SimDuration::from_millis(500);
                    }
                }
                if i % 8 == 0 {
                    let _ = instance.pump(t);
                }
            }
            (acked, failed, t)
        }));
    }

    let mut ledger = WriteLedger::new();
    let mut total_acked = 0usize;
    let mut t_max = SimTime::ZERO;
    for handle in handles {
        let (acked, failed, t) = handle.join().expect("hammer thread");
        total_acked += acked.len();
        for (key, idx) in acked {
            ledger.record_ack(&key, &record_value(idx, 2048));
        }
        for (key, idx) in failed {
            ledger.record_failure(&key, &record_value(idx, 2048));
        }
        if t > t_max {
            t_max = t;
        }
    }
    assert!(
        total_acked > 0,
        "the flap schedule suffocated every single write"
    );

    // Clear the flaps, drain, and check the contract.
    mem.failures().clear();
    ebs.failures().clear();
    let mut t = t_max + SimDuration::from_secs(301); // past every flap window
    for _ in 0..8 {
        t += SimDuration::from_secs(31);
        let _ = instance.pump(t);
        if instance.background_depth() == 0 {
            break;
        }
    }
    let report = ledger.check(&instance, t, false);
    assert!(report.ok(), "seed 777 hammer: {:?}", report.violations);
}

//! Chaos over the RPC path (ISSUE 6 satellite 3): multi-threaded
//! pipelined clients hammer one live server while the fault plane from
//! `crates/chaos` flaps the tiers underneath it.
//!
//! Each client thread owns a disjoint key prefix and a private
//! [`WriteLedger`] recording exactly what the server acknowledged over the
//! wire. After the hammer phase the fault schedule is cleared and every
//! ledger is checked against the instance: no acknowledged write may be
//! lost or corrupted, failed brand-new PUTs must not leave phantom
//! metadata, and the registry's incremental aggregates must match a full
//! recount — the same invariants the in-process chaos scenarios enforce,
//! now proven to survive transport, pipelining, and batching.
//!
//! The fault schedule is seed-deterministic: constructing it twice from
//! the same seed yields a byte-identical description (asserted below), so
//! a failing run reports one number to reproduce the fault plane.

use std::sync::Arc;
use std::time::Duration;

use tiera_chaos::{InvariantReport, Schedule, WriteLedger};
use tiera_core::prelude::*;
use tiera_rpc::{PipelinedClient, ServerConfig, TieraServer};
use tiera_sim::{FailureKind, SimDuration, SimEnv, SimTime};
use tiera_tiers::{BlockTier, MemoryTier};

const SEED: u64 = 0x6_CA05;
const THREADS: usize = 3;
const ROUNDS: usize = 60;
const KEYS_PER_THREAD: usize = 12;

/// The fault plane: both tiers flap on millisecond windows (the server
/// maps wall time 1:1 onto virtual time, so these windows are hit while
/// the clients hammer). A pure function of the seed.
fn schedule(seed: u64) -> Schedule {
    Schedule::new(seed)
        .flap(
            "memcached",
            SimTime::from_nanos(10_000_000), // 10 ms in
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            30,
            FailureKind::All,
        )
        .flap(
            "ebs",
            SimTime::from_nanos(15_000_000),
            SimDuration::from_millis(8),
            SimDuration::from_millis(17),
            24,
            FailureKind::Writes,
        )
}

#[test]
fn fault_schedule_is_seed_deterministic() {
    let a = schedule(SEED).describe();
    let b = schedule(SEED).describe();
    assert_eq!(a, b, "same seed must replay the identical fault plane");
    assert!(a.contains("memcached") && a.contains("ebs"), "{a}");
}

#[test]
fn pipelined_hammer_under_flapping_tiers_upholds_ledger_invariants() {
    let env = SimEnv::new(SEED);
    let mem = Arc::new(MemoryTier::same_az("memcached", 64 << 20, &env));
    let ebs = Arc::new(BlockTier::ebs("ebs", 256 << 20, &env));
    let instance = InstanceBuilder::new("rpc-chaos", env)
        .tier(Arc::clone(&mem))
        .tier(Arc::clone(&ebs))
        .rule(
            // Write-through: an ack over the wire means both tiers took
            // the write — exactly the promise the ledger holds us to.
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
        )
        .build()
        .unwrap();

    let handle = TieraServer::start(
        Arc::clone(&instance),
        "127.0.0.1:0",
        ServerConfig {
            request_threads: THREADS,
            retry: Some(RetryPolicy::robust()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Arm the fault plane AFTER the server is up so the flap windows
    // (anchored at virtual ≈ wall time zero = server start) overlap the
    // hammer phase.
    let injectors = [("memcached", mem.failures()), ("ebs", ebs.failures())];
    let injector_refs: Vec<(&str, &tiera_sim::FailureInjector)> =
        injectors.iter().map(|(n, i)| (*n, i.as_ref() as &tiera_sim::FailureInjector)).collect();
    let plan = schedule(SEED);
    plan.apply(&injector_refs);

    // ---- hammer: THREADS pipelined clients, disjoint key prefixes.
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut ledger = WriteLedger::new();
                let mut client = PipelinedClient::connect(addr).unwrap();
                let keys: Vec<String> =
                    (0..KEYS_PER_THREAD).map(|k| format!("t{t}/k{k}")).collect();
                for round in 0..ROUNDS {
                    // Batched writes: value is a pure function of
                    // (thread, key, round) so corruption is detectable.
                    let values: Vec<Vec<u8>> = (0..KEYS_PER_THREAD)
                        .map(|k| format!("value/{t}/{k}/{round}").into_bytes())
                        .collect();
                    let items: Vec<(&str, &[u8])> =
                        keys.iter().zip(&values).map(|(k, v)| (k.as_str(), v.as_slice())).collect();
                    let outcomes = client.multi_put(&items).expect("transport must survive");
                    for ((key, value), outcome) in keys.iter().zip(&values).zip(&outcomes) {
                        match outcome {
                            Ok(_) => ledger.record_ack(key, value),
                            Err(_) => ledger.record_failure(key, value),
                        }
                    }
                    // Batched reads: anything served must be a value some
                    // write for that key acknowledged (or ambiguously
                    // attempted).
                    let key_refs: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
                    for (key, fetched) in key_refs.iter().zip(client.multi_get(&key_refs).unwrap())
                    {
                        if let Ok((data, _)) = fetched {
                            assert!(
                                ledger.verify_read(key, &data),
                                "read of {key} returned bytes outside the acknowledged set"
                            );
                        }
                    }
                    // A few plain pipelined singles to mix frame shapes.
                    let solo_key = format!("t{t}/solo");
                    let solo_val = format!("solo/{t}/{round}").into_bytes();
                    let token = client.submit_put(&solo_key, &solo_val).unwrap();
                    match client.wait_put(token) {
                        Ok(_) => ledger.record_ack(&solo_key, &solo_val),
                        Err(_) => ledger.record_failure(&solo_key, &solo_val),
                    }
                    // Stretch the hammer across the flap windows.
                    std::thread::sleep(Duration::from_millis(3));
                }
                ledger
            })
        })
        .collect();
    let ledgers: Vec<WriteLedger> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // ---- quiesce: clear the fault plane, then sweep the invariants.
    plan.clear(&injector_refs);
    handle.shutdown();

    let total_acked: usize = ledgers.iter().map(|l| l.acked_keys()).sum();
    assert!(total_acked > 0, "the hammer phase must land at least some acknowledged writes");

    let now = instance.env().clock().now() + SimDuration::from_secs(1);
    let mut report = InvariantReport::default();
    for ledger in &ledgers {
        report.merge(ledger.check(&instance, now, false));
    }
    assert!(
        report.ok(),
        "ledger invariants violated over the RPC path (seed {SEED}):\n{}",
        report.violations.join("\n")
    );

    // The sharded registry survived THREADS workers of batched writes.
    for tier in instance.tier_names() {
        assert_eq!(
            instance.registry().aggregates(&tier),
            instance.registry().recount_aggregates(&tier),
            "aggregate drift in {tier}"
        );
    }
}

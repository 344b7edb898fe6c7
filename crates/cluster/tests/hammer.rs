//! Concurrency hammer: four threads drive routed ops through one
//! `Coordinator` while the main thread joins a node and runs the
//! rebalance engine live. Run under `--features lockcheck` (scripts/
//! verify.sh does) this doubles as a lock-order sanity check for the
//! cluster plane's `cluster.ring` → `cluster.meta` → `cluster.node`
//! discipline; without the feature it still exercises the routing and
//! migration paths under contention.

use std::sync::Arc;
use std::thread;

use tiera_cluster::{ClusterNode, Coordinator};
use tiera_core::prelude::*;
use tiera_sim::{SimEnv, SimTime};
use tiera_support::Bytes;

fn mem_node(name: &str, seed: u64) -> Arc<ClusterNode> {
    let inst = InstanceBuilder::new(name, SimEnv::new(seed))
        .tier(MemTier::with_traits(
            "store",
            128 << 20,
            TierTraits { durable: true, ..TierTraits::default() },
        ))
        .build()
        .unwrap();
    ClusterNode::new(name, inst)
}

#[test]
fn four_threads_hammer_one_coordinator_through_a_live_rebalance() {
    const THREADS: usize = 4;
    const OPS: usize = 400;

    let coord = Arc::new(Coordinator::new(3, 2));
    for i in 0..4 {
        coord.add_node(mem_node(&format!("node-{i}"), 50 + i)).unwrap();
    }
    let t0 = SimTime::ZERO;

    // Pre-load some shared keys every thread reads (no byte asserts on
    // these: concurrent overwrites make any value legitimate).
    for s in 0..8 {
        coord.put(&format!("shared-{s}"), Bytes::from(vec![s as u8; 256]), t0).unwrap();
    }

    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let coord = Arc::clone(&coord);
            thread::spawn(move || {
                // Disjoint per-thread keyspace: bytes are asserted here
                // because nobody else writes these keys.
                for i in 0..OPS {
                    let key = format!("w{w}-k{}", i % 32);
                    let value = vec![(w * 31 + i) as u8; 512];
                    coord
                        .put(&key, Bytes::from(value.clone()), t0)
                        .expect("quorum is always available: no faults injected");
                    let (data, _) = coord.get(&key, t0).expect("own write readable");
                    assert_eq!(&data[..], &value[..], "thread {w} read its own write");
                    if i % 16 == 9 {
                        coord.delete(coord.next_token(), &key, t0).expect("own key deletes");
                        assert!(coord.get(&key, t0).is_err(), "deleted key unreadable");
                    }
                    // Shared keys: existence only, any acked bytes are fine.
                    if i % 8 == 3 {
                        let shared = format!("shared-{}", i % 8);
                        let _ = coord.get(&shared, t0);
                        let _ = coord.put(&shared, Bytes::from(vec![w as u8; 128]), t0);
                    }
                }
            })
        })
        .collect();

    // Main thread: join a node mid-hammer and drive the rebalance in
    // small bandwidth-capped steps, concurrently with the traffic.
    let planned = coord.add_node(mem_node("node-late", 999)).unwrap();
    let mut steps = 0u32;
    while !coord.rebalance_done() {
        coord.rebalance_step(t0, 4 * 1024);
        steps += 1;
        assert!(steps < 100_000, "rebalance must terminate");
        thread::yield_now();
    }

    for w in workers {
        w.join().expect("no worker panicked (lock order held)");
    }

    // Post-hammer: the cluster is coherent — every surviving per-thread
    // key reads back, and the rebalance bookkeeping closed out.
    if planned > 0 {
        let report = coord.last_rebalance().expect("completed run recorded");
        assert!(report.moved_keys <= report.planned as u64);
    }
    for w in 0..THREADS {
        for i in 0..32 {
            let key = format!("w{w}-k{i}");
            if coord.contains(&key) {
                coord.get(&key, t0).expect("live key readable after hammer");
            }
        }
    }
}

//! The op stream and every exact metric are a pure function of the seed,
//! and each workload exercises what its `why` claims. Smoke runs: the real
//! workloads at 1/50 of the op counts and half the keys, no timing
//! assertions.

use tiera_benchmark::stream::Stream;
use tiera_benchmark::workloads::{by_name, WORKLOADS};
use tiera_benchmark::{run, RunConfig, RunResult};

fn smoke(workload: &str, seed: u64) -> RunResult {
    let result = run(&RunConfig {
        workload: by_name(workload).expect("a fixed workload name"),
        seed,
        seconds: 0.0,
        trace: false,
        ladder: false,
        smoke: true,
    })
    .expect("smoke run completes");
    assert_eq!(result.failed, 0, "{workload}: {:?}", result.first_error);
    assert!(result.attempted > 0 && result.correct());
    result
}

#[test]
fn one_seed_is_one_stream_and_another_seed_another() {
    for w in &WORKLOADS {
        let hash = |seed| {
            let mut stream = Stream::new(w.shape, seed);
            for _ in 0..20_000 {
                stream.next_op();
            }
            stream.hash()
        };
        assert_eq!(hash(5), hash(5), "{}", w.name);
        assert_ne!(hash(5), hash(6), "{}", w.name);
    }
}

#[test]
fn one_seed_repeats_every_exact_metric_bit_for_bit() {
    for w in &WORKLOADS {
        let a = smoke(w.name, 5);
        let x = a.exact;
        // Where tiers fill, spill or transform, the exact metrics depend on
        // every op before them: run those again. (`PartialEq` on floats:
        // bit-identical but for the sign of zero.)
        let repeat_matters = x.fast_tier_hit_ratio != 1.0 || x.stored_bytes_per_user_byte != 1.0;
        if repeat_matters {
            let b = smoke(w.name, 5);
            assert_eq!(
                (a.stream_hash, a.attempted, a.exact),
                (b.stream_hash, b.attempted, b.exact),
                "{}",
                w.name
            );
        }
        match w.name {
            // Working set twice the cache even in smoke: reads miss tier1,
            // every put into the full tier1 runs the policy and spills.
            "lru-spill-4k" => {
                assert!(
                    x.fast_tier_hit_ratio > 0.5 && x.fast_tier_hit_ratio < 0.98,
                    "{x:?}"
                );
                assert!(
                    x.responses_per_op > 0.4 && x.tier2_puts_per_user_put > 0.0,
                    "{x:?}"
                );
            }
            // 64 MiB of 8 KiB blocks must fit a 48M tier1, and with the
            // deduplicated write-back tier still be fewer bytes than written.
            "backup-write-heavy" => {
                assert!(
                    x.compression_ratio > 1.34 && x.stored_bytes_per_user_byte < 1.0,
                    "{x:?}"
                );
                assert!(x.dedup_hit_rate > 0.0, "{x:?}");
            }
            // Three replicas of everything.
            "cluster-r3w2-mixed" => assert_eq!(x.stored_bytes_per_user_byte, 3.0),
            _ => assert!(!repeat_matters, "{}: {x:?}", w.name),
        }
    }
}

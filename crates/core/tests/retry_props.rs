//! Property tests for [`RetryPolicy`] backoff schedules.
//!
//! The contract (see `retry.rs`): for any policy with `jitter < 1`, the
//! schedule is monotone non-decreasing, every entry is bounded by
//! `max_backoff`, and the whole schedule is a pure function of the RNG
//! seed.

use tiera_core::prelude::*;
use tiera_support::prop::gen;
use tiera_support::{prop_check, SimRng};

fn random_policy(rng: &mut SimRng) -> RetryPolicy {
    let base_ns = gen::u64_in(rng, 1..2_000_000_000); // up to 2 s
    let cap_ns = gen::u64_in(rng, base_ns..base_ns.saturating_mul(64).max(base_ns + 1));
    RetryPolicy {
        max_attempts: gen::u64_in(rng, 1..12) as u32,
        base_backoff: SimDuration::from_nanos(base_ns),
        max_backoff: SimDuration::from_nanos(cap_ns),
        op_budget: None,
        failover: false,
        jitter: rng.next_f64() * 0.999, // contract requires jitter < 1
    }
}

#[test]
fn backoff_schedules_are_monotone_and_bounded_by_the_cap() {
    prop_check!(cases = 128, |rng| {
        let policy = random_policy(rng);
        let mut draws = SimRng::new(rng.next_u64());
        let schedule = policy.schedule(&mut draws);
        assert_eq!(schedule.len(), policy.max_attempts.saturating_sub(1) as usize);
        for (i, pair) in schedule.windows(2).enumerate() {
            assert!(
                pair[0] <= pair[1],
                "schedule not monotone at step {i}: {:?} > {:?} (policy {policy:?})",
                pair[0],
                pair[1]
            );
        }
        for (i, d) in schedule.iter().enumerate() {
            assert!(
                *d <= policy.max_backoff,
                "step {i} exceeds cap: {d:?} > {:?}",
                policy.max_backoff
            );
        }
    });
}

#[test]
fn backoff_schedules_are_deterministic_per_seed() {
    prop_check!(cases = 64, |rng| {
        let policy = random_policy(rng);
        let seed = rng.next_u64();
        let a = policy.schedule(&mut SimRng::new(seed));
        let b = policy.schedule(&mut SimRng::new(seed));
        assert_eq!(a, b, "same seed must replay the same schedule");
        // And a different seed perturbs a jittered schedule (when there is
        // any jitter and any entry below the cap to perturb).
        let c = policy.schedule(&mut SimRng::new(seed ^ 0xDEAD_BEEF));
        if policy.jitter > 0.01 && a.iter().any(|d| *d < policy.max_backoff && d.as_nanos() > 1_000)
        {
            // Not a hard guarantee per case (draws can collide), so only
            // sanity-check the shape: lengths always match.
            assert_eq!(a.len(), c.len());
        }
    });
}

#[test]
fn first_backoff_is_at_least_the_base_and_grows_from_it() {
    prop_check!(cases = 96, |rng| {
        let policy = random_policy(rng);
        if policy.max_attempts < 2 {
            return;
        }
        let mut draws = SimRng::new(rng.next_u64());
        let schedule = policy.schedule(&mut draws);
        let floor = policy.base_backoff.min(policy.max_backoff);
        assert!(schedule[0] >= floor, "first backoff {:?} below base {floor:?}", schedule[0]);
    });
}

#[test]
fn trivial_policies_have_empty_schedules() {
    prop_check!(cases = 32, |rng| {
        let mut policy = random_policy(rng);
        policy.max_attempts = 1;
        assert!(policy.schedule(&mut SimRng::new(rng.next_u64())).is_empty());
        assert!(RetryPolicy::none().schedule(&mut SimRng::new(0)).is_empty());
    });
}

//! How many named locks one simulated-tier op takes, and which.
//!
//! A PUT, GET or DELETE holds its tier's state lock once, from the reshard
//! check to the latency draw, and takes the fault plane's lock under it for
//! its verdict; a block tier's op also books its device once. The counts
//! are the lockcheck sanitizer's tally, so the test measures only under
//! `lockcheck` (`cargo test -p tiera-tiers --features tiera-support/lockcheck`).

use std::collections::BTreeMap;

use tiera_core::object::ObjectKey;
use tiera_core::tier::Tier;
use tiera_sim::{SimEnv, SimTime};
use tiera_support::sync::{reset_tally, tally, LOCKCHECK};
use tiera_support::Bytes;
use tiera_tiers::{BlockTier, MemoryTier, SimulatedTier};

/// The tally of one PUT, GET and DELETE of `key` at `now`, in that order.
fn one_of_each(tier: &SimulatedTier, key: &str, now: SimTime) -> [BTreeMap<&'static str, u64>; 3] {
    let key = ObjectKey::new(key);
    reset_tally();
    tier.put(&key, Bytes::from(vec![7u8; 4096]), now).unwrap();
    let put = tally();
    reset_tally();
    tier.get(&key, now).unwrap();
    let get = tally();
    reset_tally();
    tier.delete(&key, now).unwrap();
    [put, get, tally()]
}

fn once_each(names: &[&'static str]) -> BTreeMap<&'static str, u64> {
    names.iter().map(|&name| (name, 1)).collect()
}

#[test]
fn a_tier_op_takes_its_state_lock_once() {
    if !LOCKCHECK {
        return;
    }
    let env = SimEnv::new(1);
    let memory = MemoryTier::same_az("mem", 1 << 20, &env);
    let ebs = BlockTier::ebs("ebs", 1 << 20, &env);
    for (tier, expected) in [
        (&memory, once_each(&["failure.plane", "simtier.state"])),
        (&ebs, once_each(&["failure.plane", "serial.busy", "simtier.state"])),
    ] {
        let tallies = one_of_each(tier, "k", SimTime::from_secs(1));
        for (op, counts) in ["put", "get", "delete"].into_iter().zip(tallies) {
            assert_eq!(counts, expected, "{tier:?} {op}");
        }
    }
    // A matured grow's reshard runs inside the same critical section.
    memory.grow(100.0, SimTime::from_secs(1));
    let tallies = one_of_each(&memory, "after-grow", SimTime::from_secs(3600));
    assert_eq!(memory.capacity(SimTime::from_secs(3600)), 2 << 20, "grow matured");
    for (op, counts) in ["put", "get", "delete"].into_iter().zip(tallies) {
        assert_eq!(counts, once_each(&["failure.plane", "simtier.state"]), "after grow: {op}");
    }
}

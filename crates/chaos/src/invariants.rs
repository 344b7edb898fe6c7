//! The storage-contract invariants a chaos run must uphold.
//!
//! [`WriteLedger`] is the harness-side source of truth: it records what the
//! *client* was told (acked writes with a checksum of the acknowledged
//! bytes, failed brand-new PUTs, ambiguous failed overwrites), and
//! [`WriteLedger::check`] compares the instance against it after the run.
//! Violations come back as strings naming the key and the broken contract
//! clause, ready to embed — together with the fault-schedule seed — in a
//! failure report.

use std::collections::{BTreeMap, BTreeSet};

use tiera_core::prelude::Selector;
use tiera_core::{Instance, ObjectKey};
use tiera_sim::SimTime;

/// Checksum of an acknowledged value: XXH64 (collision-resistant enough
/// to catch torn/stale reads; not cryptographic).
pub use tiera_codec::xxh64::checksum;

/// What the client may legitimately observe for one key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expectation {
    /// Checksums of values a read may return. One entry after a clean ack;
    /// a failed overwrite adds the attempted value (the failure is
    /// ambiguous: the new bytes may or may not have landed in some tier).
    acceptable: BTreeSet<u64>,
}

/// Client-side record of every write the harness issued.
///
/// Deterministic containers throughout (`BTreeMap`/`BTreeSet`), so
/// violation reports list keys in a stable order run to run.
#[derive(Debug, Default, Clone)]
pub struct WriteLedger {
    acked: BTreeMap<String, Expectation>,
    /// Brand-new PUTs that failed and were never subsequently acked: these
    /// keys must not exist (no phantom metadata).
    failed_new: BTreeSet<String>,
    /// Keys whose DELETE was acknowledged (and that were not re-written
    /// afterwards): these keys must not be readable — a copy surviving on
    /// some stale replica must never surface (no phantom keys after
    /// rejoin).
    deleted: BTreeSet<String>,
}

impl WriteLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a PUT the instance acknowledged.
    pub fn record_ack(&mut self, key: &str, value: &[u8]) {
        self.failed_new.remove(key);
        self.deleted.remove(key);
        let mut acceptable = BTreeSet::new();
        acceptable.insert(checksum(value));
        self.acked.insert(key.to_string(), Expectation { acceptable });
    }

    /// Records a DELETE the store acknowledged: the key must not be
    /// readable afterwards (until a later acked PUT resurrects it).
    pub fn record_delete(&mut self, key: &str) {
        self.acked.remove(key);
        self.failed_new.remove(key);
        self.deleted.insert(key.to_string());
    }

    /// Records a PUT the instance failed. If the key was already acked the
    /// failure is an ambiguous overwrite (either value may be visible);
    /// otherwise the key must stay absent.
    pub fn record_failure(&mut self, key: &str, value: &[u8]) {
        if let Some(expect) = self.acked.get_mut(key) {
            expect.acceptable.insert(checksum(value));
        } else {
            self.failed_new.insert(key.to_string());
        }
    }

    /// Whether bytes returned by a read of `key` are consistent with the
    /// ledger: any acknowledged (or ambiguously-attempted) value passes;
    /// keys the ledger never acked pass vacuously.
    pub fn verify_read(&self, key: &str, data: &[u8]) -> bool {
        match self.acked.get(key) {
            Some(expect) => expect.acceptable.contains(&checksum(data)),
            None => true,
        }
    }

    /// Number of distinct acked keys.
    pub fn acked_keys(&self) -> usize {
        self.acked.len()
    }

    /// Number of keys whose only writes failed.
    pub fn failed_new_keys(&self) -> usize {
        self.failed_new.len()
    }

    /// Number of keys whose latest acknowledged op was a DELETE.
    pub fn deleted_keys(&self) -> usize {
        self.deleted.len()
    }

    /// The deleted keys, sorted (for per-replica phantom sweeps).
    pub fn deleted_snapshot(&self) -> Vec<String> {
        self.deleted.iter().cloned().collect()
    }

    /// Checks the ledger against a *replicated* store through a read
    /// closure (`Ok(bytes)` on success, `Err(description)` otherwise —
    /// a "no such object" error counts as not-found).
    ///
    /// This is the replication-aware half of the contract, phrased at
    /// the level a cluster client observes:
    ///
    /// 1. **Every W-acked write survives** — each acked key reads back
    ///    one of its acknowledged values.
    /// 2. **No phantom keys** — failed brand-new PUTs and acked DELETEs
    ///    are unreadable, even if stale replicas still hold copies.
    pub fn check_cluster(
        &self,
        mut read: impl FnMut(&str) -> Result<Vec<u8>, String>,
    ) -> InvariantReport {
        let mut violations = Vec::new();
        for (key, expect) in &self.acked {
            match read(key) {
                Ok(data) => {
                    let got = checksum(&data);
                    if !expect.acceptable.contains(&got) {
                        violations.push(format!(
                            "acked write corrupted: key={key} checksum={got:#x} not among {} acknowledged value(s)",
                            expect.acceptable.len()
                        ));
                    }
                }
                Err(e) => violations.push(format!("acked write lost: key={key}: {e}")),
            }
        }
        for key in &self.failed_new {
            if read(key).is_ok() {
                violations.push(format!("phantom key: failed new PUT key={key} is readable"));
            }
        }
        for key in &self.deleted {
            if read(key).is_ok() {
                violations.push(format!("phantom key: deleted key={key} is readable again"));
            }
        }
        InvariantReport { violations }
    }

    /// Checks every ledger-backed invariant plus the registry's own
    /// consistency at virtual time `now`.
    ///
    /// `expect_clean` asserts the post-quiesce clauses too: no dirty
    /// objects stranded anywhere (write-back deadlines have all passed)
    /// and no queued background work.
    pub fn check(&self, instance: &Instance, now: SimTime, expect_clean: bool) -> InvariantReport {
        let mut violations = Vec::new();

        // 1. No acknowledged write lost (and no value from outside the
        //    acceptable set surfaced).
        let mut t = now;
        for (key, expect) in &self.acked {
            match instance.get(key.as_str(), t) {
                Ok((data, receipt)) => {
                    t += receipt.latency;
                    let got = checksum(&data);
                    if !expect.acceptable.contains(&got) {
                        violations.push(format!(
                            "acked write corrupted: key={key} checksum={got:#x} not among {} acknowledged value(s)",
                            expect.acceptable.len()
                        ));
                    }
                }
                Err(e) => violations.push(format!("acked write lost: key={key}: {e}")),
            }
        }

        // 2. No phantom metadata for failed brand-new PUTs or acked
        //    DELETEs.
        for key in &self.failed_new {
            if instance.registry().contains(&ObjectKey::new(key.as_str())) {
                violations.push(format!("phantom metadata: failed new PUT key={key} exists"));
            }
        }
        for key in &self.deleted {
            if instance.registry().contains(&ObjectKey::new(key.as_str())) {
                violations.push(format!("phantom metadata: deleted key={key} exists"));
            }
        }

        // 3. Registry aggregates equal a full recount, per tier.
        for tier in instance.tier_names() {
            let fast = instance.registry().aggregates(&tier);
            let slow = instance.registry().recount_aggregates(&tier);
            if fast != slow {
                violations.push(format!(
                    "aggregate drift: tier={tier} incremental={fast:?} recount={slow:?}"
                ));
            }
        }

        if expect_clean {
            // 4. Nothing dirty stranded past its write-back deadline.
            let dirty = instance.registry().select(&Selector::Dirty, None);
            if !dirty.is_empty() {
                violations.push(format!(
                    "stranded dirty data after quiesce: {} object(s), first={}",
                    dirty.len(),
                    dirty[0]
                ));
            }
            // ... and the background queue fully drained.
            let depth = instance.background_depth();
            if depth != 0 {
                violations
                    .push(format!("background queue not drained after quiesce: {depth} item(s)"));
            }
        }

        InvariantReport { violations }
    }
}

/// The outcome of an invariant sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Human-readable contract violations; empty means the run held.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: InvariantReport) {
        self.violations.extend(other.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    fn instance() -> Arc<Instance> {
        // Durable single tier: default placement is a synchronous persist,
        // so a clean run really is clean (nothing left dirty).
        InstanceBuilder::new("inv", SimEnv::new(11))
            .tier(MemTier::with_traits(
                "t1",
                1 << 20,
                TierTraits { durable: true, ..TierTraits::default() },
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn checksum_distinguishes_values() {
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_eq!(checksum(b"same"), checksum(b"same"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn clean_run_passes_all_invariants() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        let mut t = SimTime::ZERO;
        for i in 0..32 {
            let key = format!("k{i}");
            let val = vec![i as u8; 64];
            let r = inst.put(key.as_str(), val.clone(), t).unwrap();
            t += r.latency;
            ledger.record_ack(&key, &val);
        }
        let report = ledger.check(&inst, t, true);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(ledger.acked_keys(), 32);
    }

    #[test]
    fn lost_acked_write_is_reported() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        ledger.record_ack("k", b"v");
        // Sabotage: remove the object behind the ledger's back.
        inst.delete("k", SimTime::from_secs(1)).unwrap();
        let report = ledger.check(&inst, SimTime::from_secs(2), false);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("acked write lost"), "{report:?}");
    }

    #[test]
    fn corrupted_acked_write_is_reported() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        inst.put("k", &b"honest"[..], SimTime::ZERO).unwrap();
        // Ledger believes a different value was acknowledged.
        ledger.record_ack("k", b"expected");
        let report = ledger.check(&inst, SimTime::from_secs(1), false);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("corrupted"), "{report:?}");
    }

    #[test]
    fn phantom_metadata_is_reported() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        // The ledger saw a failure for a brand-new key, but the key exists.
        inst.put("ghost", &b"v"[..], SimTime::ZERO).unwrap();
        ledger.record_failure("ghost", b"v");
        let report = ledger.check(&inst, SimTime::from_secs(1), false);
        assert!(report.violations.iter().any(|v| v.contains("phantom metadata")), "{report:?}");
        assert_eq!(ledger.failed_new_keys(), 1);
    }

    #[test]
    fn failed_overwrite_accepts_either_value() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        inst.put("k", &b"old"[..], SimTime::ZERO).unwrap();
        ledger.record_ack("k", b"old");
        // A failed overwrite with new bytes: either value is acceptable
        // afterwards. Here the instance still holds "old".
        ledger.record_failure("k", b"new");
        let report = ledger.check(&inst, SimTime::from_secs(1), false);
        assert!(report.ok(), "{:?}", report.violations);
        // And a key whose overwrite failed is not phantom-tracked.
        assert_eq!(ledger.failed_new_keys(), 0);
    }

    #[test]
    fn ack_after_failed_new_clears_phantom_tracking() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        ledger.record_failure("k", b"v1");
        assert_eq!(ledger.failed_new_keys(), 1);
        inst.put("k", &b"v2"[..], SimTime::ZERO).unwrap();
        ledger.record_ack("k", b"v2");
        assert_eq!(ledger.failed_new_keys(), 0);
        assert!(ledger.check(&inst, SimTime::from_secs(1), false).ok());
    }

    #[test]
    fn deleted_keys_must_stay_unreadable() {
        let inst = instance();
        let mut ledger = WriteLedger::new();
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        ledger.record_ack("k", b"v");
        inst.delete("k", SimTime::from_secs(1)).unwrap();
        ledger.record_delete("k");
        assert_eq!(ledger.deleted_keys(), 1);
        assert_eq!(ledger.acked_keys(), 0);
        assert!(ledger.check(&inst, SimTime::from_secs(2), false).ok());
        // Resurrect behind the ledger's back: phantom.
        inst.put("k", &b"v"[..], SimTime::from_secs(3)).unwrap();
        let report = ledger.check(&inst, SimTime::from_secs(4), false);
        assert!(report.violations.iter().any(|v| v.contains("deleted key=k")), "{report:?}");
        // A later acked PUT legitimately resurrects the key.
        ledger.record_ack("k", b"v");
        assert_eq!(ledger.deleted_keys(), 0);
        assert!(ledger.check(&inst, SimTime::from_secs(5), false).ok());
    }

    #[test]
    fn check_cluster_reports_lost_corrupt_and_phantom() {
        let mut ledger = WriteLedger::new();
        ledger.record_ack("good", b"fresh");
        ledger.record_ack("corrupt", b"fresh");
        ledger.record_ack("lost", b"fresh");
        ledger.record_failure("never", b"x");
        ledger.record_delete("gone");
        let report = ledger.check_cluster(|key| match key {
            "good" => Ok(b"fresh".to_vec()),
            "corrupt" => Ok(b"torn!".to_vec()),
            "never" => Ok(b"boo".to_vec()),
            "gone" => Ok(b"zombie".to_vec()),
            _ => Err(format!("no such object: {key}")),
        });
        assert_eq!(report.violations.len(), 4, "{report:?}");
        assert!(report.violations.iter().any(|v| v.contains("corrupted: key=corrupt")));
        assert!(report.violations.iter().any(|v| v.contains("lost: key=lost")));
        assert!(report.violations.iter().any(|v| v.contains("failed new PUT key=never")));
        assert!(report.violations.iter().any(|v| v.contains("deleted key=gone")));
        // The all-clean world passes.
        let clean = ledger.check_cluster(|key| match key {
            "good" | "corrupt" | "lost" => Ok(b"fresh".to_vec()),
            _ => Err("no such object".into()),
        });
        assert!(clean.ok(), "{clean:?}");
    }

    #[test]
    fn stranded_dirty_data_is_reported_only_when_clean_expected() {
        // MemTier writes via a store rule mark nothing dirty by default;
        // force dirtiness through the registry directly.
        let inst = instance();
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        inst.registry().update(&ObjectKey::new("k"), |m| {
            m.dirty = true;
        });
        let ledger = WriteLedger::new();
        assert!(ledger.check(&inst, SimTime::from_secs(1), false).ok());
        let strict = ledger.check(&inst, SimTime::from_secs(1), true);
        assert!(strict.violations.iter().any(|v| v.contains("stranded dirty")), "{strict:?}");
    }
}

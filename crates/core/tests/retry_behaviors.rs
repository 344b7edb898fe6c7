//! Integration tests for the retry/failover/alert path through a real
//! `Instance`, using a scripted flaky tier (no simulation crates needed).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use tiera_core::monitor::{FailureMonitor, ProbeOutcome};
use tiera_core::prelude::*;
use tiera_core::tier::RequestCounts;
use tiera_sim::SimEnv;
use tiera_support::Bytes;

/// A tier that fails its next `fail_puts` PUTs (or everything while
/// `down`), then behaves like a `MemTier`.
struct FlakyTier {
    name: String,
    durable: bool,
    inner: Arc<MemTier>,
    fail_puts: AtomicU32,
    down: AtomicBool,
    put_attempts: AtomicU32,
}

impl FlakyTier {
    fn new(name: &str, capacity: u64, durable: bool) -> Arc<Self> {
        let traits_ = TierTraits { durable, ..TierTraits::default() };
        Arc::new(Self {
            name: name.to_string(),
            durable,
            inner: MemTier::with_traits(format!("{name}-inner"), capacity, traits_),
            fail_puts: AtomicU32::new(0),
            down: AtomicBool::new(false),
            put_attempts: AtomicU32::new(0),
        })
    }

    fn fail_next_puts(&self, n: u32) {
        self.fail_puts.store(n, Ordering::SeqCst);
    }

    fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    fn attempts(&self) -> u32 {
        self.put_attempts.load(Ordering::SeqCst)
    }

    fn timeout(&self) -> TieraError {
        TieraError::Timeout { tier: self.name.clone(), waited: SimDuration::from_millis(100) }
    }
}

impl Tier for FlakyTier {
    fn name(&self) -> &str {
        &self.name
    }
    fn tier_traits(&self) -> TierTraits {
        let mut t = self.inner.tier_traits();
        t.durable = self.durable;
        t
    }
    fn capacity(&self, now: SimTime) -> u64 {
        self.inner.capacity(now)
    }
    fn used(&self) -> u64 {
        self.inner.used()
    }
    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> tiera_core::Result<OpReceipt> {
        self.put_attempts.fetch_add(1, Ordering::SeqCst);
        if self.down.load(Ordering::SeqCst) {
            return Err(self.timeout());
        }
        if self
            .fail_puts
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(self.timeout());
        }
        self.inner.put(key, data, now)
    }
    fn get(&self, key: &ObjectKey, now: SimTime) -> tiera_core::Result<(Bytes, OpReceipt)> {
        if self.down.load(Ordering::SeqCst) {
            return Err(self.timeout());
        }
        self.inner.get(key, now)
    }
    fn delete(&self, key: &ObjectKey, now: SimTime) -> tiera_core::Result<OpReceipt> {
        self.inner.delete(key, now)
    }
    fn contains(&self, key: &ObjectKey) -> bool {
        self.inner.contains(key)
    }
    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        self.inner.grow(percent, now)
    }
    fn shrink(&self, percent: f64, now: SimTime) {
        self.inner.shrink(percent, now)
    }
    fn request_counts(&self) -> RequestCounts {
        self.inner.request_counts()
    }
}

fn instance_with(flaky: Arc<FlakyTier>, fallback: Arc<FlakyTier>) -> Arc<Instance> {
    InstanceBuilder::new("retry-it", SimEnv::new(11)).tier(flaky).tier(fallback).build().unwrap()
}

const T0: SimTime = SimTime::ZERO;

#[test]
fn transient_put_failure_succeeds_via_retry() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());
    inst.set_retry_policy(RetryPolicy::robust());

    primary.fail_next_puts(2); // robust() allows 4 attempts
    let receipt = inst.put("k", &b"value"[..], T0).unwrap();
    assert_eq!(primary.attempts(), 3, "2 failures + 1 success");
    // The client paid for the two timed-out attempts plus backoff.
    assert!(receipt.latency >= SimDuration::from_millis(200));
    assert_eq!(inst.alerts_emitted(), 0, "retry success is not an alert");
    let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
    assert!(meta.in_tier("primary"));
    assert!(!meta.in_tier("fallback"));
}

#[test]
fn default_policy_does_not_retry() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());

    primary.fail_next_puts(1);
    let err = inst.put("k", &b"value"[..], T0).unwrap_err();
    assert!(matches!(err, TieraError::Timeout { .. }));
    assert_eq!(primary.attempts(), 1, "no retries by default");
    assert!(!inst.contains("k"), "failed PUT leaves no phantom metadata");
    assert_eq!(inst.alerts_emitted(), 0);
}

#[test]
fn put_fails_over_to_next_durable_tier_and_emits_alert() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    // Attach a non-durable tier *before* the durable fallback: failover
    // must still prefer the durable one.
    let volatile = FlakyTier::new("volatile", 1 << 20, false);
    let durable = FlakyTier::new("durable", 1 << 20, true);
    let inst = InstanceBuilder::new("failover-it", SimEnv::new(12))
        .tier(primary.clone())
        .tier(volatile.clone())
        .tier(durable.clone())
        .build()
        .unwrap();
    inst.set_retry_policy(RetryPolicy::robust());

    primary.set_down(true);
    inst.put("k", &b"value"[..], T0).unwrap();

    let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
    assert!(meta.in_tier("durable"), "failover prefers durable tiers");
    assert!(!meta.in_tier("volatile"));
    assert!(!meta.dirty, "landed durably → not dirty");

    let alerts = inst.drain_alerts();
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].tier, "primary");
    assert_eq!(alerts[0].op, "put");
    assert_eq!(alerts[0].failover_to.as_deref(), Some("durable"));
    assert!(inst.drain_alerts().is_empty(), "drain empties the queue");
    assert_eq!(inst.alerts_emitted(), 1, "lifetime counter survives drains");

    // Reads come back from the failover location.
    let (data, receipt) = inst.get("k", T0).unwrap();
    assert_eq!(&data[..], b"value");
    assert_eq!(receipt.served_by, "durable");
}

#[test]
fn put_fails_when_no_fallback_accepts() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());
    inst.set_retry_policy(RetryPolicy::robust());

    primary.set_down(true);
    fallback.set_down(true);
    let err = inst.put("k", &b"value"[..], T0).unwrap_err();
    assert!(matches!(err, TieraError::Timeout { .. }));
    assert!(!inst.contains("k"));
    let alerts = inst.drain_alerts();
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].failover_to, None, "total failure alert");
}

#[test]
fn get_falls_back_along_the_tier_chain() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());

    // Place the object in both tiers via an explicit store rule-free path:
    // default placement puts it in primary; copy it to fallback manually.
    inst.put("k", &b"value"[..], T0).unwrap();
    fallback.put(&ObjectKey::new("k"), Bytes::from_static(b"value"), T0).unwrap();
    inst.registry().update(&ObjectKey::new("k"), |m| {
        m.locations.insert("fallback".into());
    });

    primary.set_down(true);
    let (data, receipt) = inst.get("k", SimTime::from_secs(1)).unwrap();
    assert_eq!(&data[..], b"value");
    assert_eq!(receipt.served_by, "fallback");
    // The timeout against primary was charged to the client.
    assert!(receipt.latency >= SimDuration::from_millis(100));
}

#[test]
fn monitor_reacts_to_drained_alerts() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());
    inst.set_retry_policy(RetryPolicy::robust());

    let mut mon = FailureMonitor::new(inst.clone(), SimDuration::from_secs(120), 1, |i| {
        let _ = i.detach_tier("primary");
    })
    .observing_alerts();

    // Degraded PUT → FAILURE_ALERT → monitor reconfigures on next tick,
    // well before any canary probe fails (canaries go through failover
    // too, so a canary-only monitor would never fire here).
    primary.set_down(true);
    inst.put("k", &b"value"[..], T0).unwrap();
    assert!(inst.alerts_emitted() >= 1);
    let outcomes = mon.tick(SimTime::from_secs(1));
    assert_eq!(outcomes.first(), Some(&ProbeOutcome::Reconfigured));
    assert!(mon.has_reconfigured());
    assert!(!inst.tier_names().iter().any(|t| t == "primary"));
}

#[test]
fn pump_survives_failing_background_work_and_requeues_it() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());
    // Background write-back to fallback; no retry policy needed — the
    // pump's own requeue logic is under test.
    inst.policy().add(Rule {
        event: EventKind::Action { op: ActionOp::Put, tier: None, background: true },
        responses: vec![ResponseSpec::copy(Selector::Inserted, ["fallback".to_string()])],
        label: None,
    });

    fallback.set_down(true);
    inst.put("k", &b"value"[..], T0).unwrap();
    assert_eq!(inst.background_depth(), 1);

    // The first pump runs the copy rule (which enqueues a paced copy) and
    // the paced copy itself, which fails; it must neither error nor lose
    // the queued work: it requeues with a delay (1 s, so pumping to 500 ms
    // sees exactly the one failed attempt).
    let report = inst.pump(SimTime::from_millis(500)).unwrap();
    assert_eq!(report.background_executed, 2);
    assert_eq!(inst.background_depth(), 1, "failed work requeued, not lost");

    // Tier recovers: the requeued work eventually lands.
    fallback.set_down(false);
    inst.pump(SimTime::from_secs(120)).unwrap();
    assert_eq!(inst.background_depth(), 0);
    assert!(inst.registry().get(&ObjectKey::new("k")).unwrap().in_tier("fallback"));
}

#[test]
fn pump_drops_poisoned_work_after_attempt_budget_with_alert() {
    let primary = FlakyTier::new("primary", 1 << 20, true);
    let fallback = FlakyTier::new("fallback", 1 << 20, true);
    let inst = instance_with(primary.clone(), fallback.clone());
    inst.policy().add(Rule {
        event: EventKind::Action { op: ActionOp::Put, tier: None, background: true },
        responses: vec![ResponseSpec::copy(Selector::Inserted, ["fallback".to_string()])],
        label: None,
    });

    fallback.set_down(true);
    inst.put("k", &b"value"[..], T0).unwrap();

    // Drive far enough that every exponential requeue (1+2+4+...+60 s) has
    // come due and failed; the work is then dropped with an alert rather
    // than spinning forever.
    inst.pump(SimTime::from_secs(3600)).unwrap();
    assert_eq!(inst.background_depth(), 0, "poisoned work eventually dropped");
    let alerts = inst.drain_alerts();
    assert!(
        alerts.iter().any(|a| a.op == "background" && a.tier == "fallback"),
        "drop surfaced as an alert: {alerts:?}"
    );
}

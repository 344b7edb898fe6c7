//! Retry, backoff, and failover policy for tier operations.
//!
//! The paper's robustness story (§4.2.3, Figure 17) reacts to failures
//! *between* operations: an external monitor detects an outage and
//! reconfigures the instance. [`RetryPolicy`] adds the in-operation half:
//! bounded retries with exponential backoff in virtual time, an optional
//! per-operation time budget, and — for PUTs — failover to the next
//! writable tier, surfaced to the monitor as a [`FailureAlert`]
//! (the paper's FAILURE_ALERT event).
//!
//! The default policy is [`RetryPolicy::none`]: one attempt, no failover.
//! Every retry knob is opt-in so existing deterministic experiments replay
//! byte-identically unless a caller asks for robustness.

use tiera_sim::{SimDuration, SimTime};
use tiera_support::SimRng;

use crate::error::TieraError;

/// Bounded-retry policy with exponential backoff in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per tier operation (≥ 1; 1 means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
    /// Optional per-operation budget: once an operation has spent this much
    /// virtual time across attempts and backoffs, it stops retrying.
    pub op_budget: Option<SimDuration>,
    /// Whether a PUT that exhausts its attempts fails over to the next
    /// writable tier (durable tiers preferred) and emits a
    /// [`FailureAlert`].
    pub failover: bool,
    /// Multiplicative jitter spread in `[0, 1)`: each backoff is scaled by
    /// a factor drawn uniformly from `[1, 1 + jitter)`. Kept below 1 so the
    /// jittered schedule stays monotone under doubling.
    pub jitter: f64,
}

impl RetryPolicy {
    /// One attempt, no failover: the pre-retry behavior.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            op_budget: None,
            failover: false,
            jitter: 0.0,
        }
    }

    /// A production-shaped policy: 4 attempts, 100 ms base backoff capped
    /// at 2 s, a 30 s per-op budget, failover enabled.
    pub fn robust() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_secs(2),
            op_budget: Some(SimDuration::from_secs(30)),
            failover: true,
            jitter: 0.5,
        }
    }

    /// Whether the policy changes nothing relative to [`RetryPolicy::none`]
    /// (lets the hot path skip all retry bookkeeping).
    pub fn is_trivial(&self) -> bool {
        self.max_attempts <= 1 && !self.failover
    }

    /// Whether `err` is worth retrying: transient tier conditions are,
    /// logical errors (missing object, bad config) are not.
    pub fn retryable(err: &TieraError) -> bool {
        matches!(err, TieraError::Timeout { .. } | TieraError::TierFull { .. })
    }

    /// Backoff before retry number `retry` (0-based), jittered from `rng`.
    ///
    /// The schedule is monotone non-decreasing, bounded by `max_backoff`,
    /// and a pure function of the RNG stream (deterministic per seed): the
    /// pre-cap sequence `base · 2^retry · f` with `f ∈ [1, 1+jitter)` and
    /// `jitter < 1` grows strictly between steps, and the cap clamp
    /// preserves monotonicity.
    pub fn backoff(&self, retry: u32, rng: &mut SimRng) -> SimDuration {
        let spread = self.jitter.clamp(0.0, 0.999_999);
        let factor = 1.0 + spread * rng.next_f64();
        let doubled = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX));
        let jittered = SimDuration::from_nanos(doubled).mul_f64(factor);
        jittered.min(self.max_backoff)
    }

    /// The full backoff schedule for one operation (`max_attempts - 1`
    /// entries), drawn from `rng` in retry order.
    pub fn schedule(&self, rng: &mut SimRng) -> Vec<SimDuration> {
        (0..self.max_attempts.saturating_sub(1)).map(|i| self.backoff(i, rng)).collect()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A degradation event: an operation exhausted its retries against a tier
/// and the instance compensated (or gave up). This is the paper's
/// FAILURE_ALERT surfaced as data — [`crate::monitor::FailureMonitor`] can
/// consume these in addition to its canary probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureAlert {
    /// Virtual time of the alert.
    pub at: SimTime,
    /// The tier that failed the operation.
    pub tier: String,
    /// The operation that failed (`"put"`, `"get"`, `"background"`).
    pub op: &'static str,
    /// Where the operation was redirected, if failover succeeded.
    pub failover_to: Option<String>,
    /// Human-readable failure detail.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_trivial() {
        assert!(RetryPolicy::default().is_trivial());
        assert!(RetryPolicy::none().is_trivial());
        assert!(!RetryPolicy::robust().is_trivial());
    }

    #[test]
    fn schedule_length_matches_attempts() {
        let mut rng = SimRng::new(1);
        assert!(RetryPolicy::none().schedule(&mut rng).is_empty());
        assert_eq!(RetryPolicy::robust().schedule(&mut rng).len(), 3);
    }

    #[test]
    fn retryable_classification() {
        assert!(RetryPolicy::retryable(&TieraError::Timeout {
            tier: "t".into(),
            waited: SimDuration::from_secs(1),
        }));
        assert!(RetryPolicy::retryable(&TieraError::TierFull {
            tier: "t".into(),
            needed: 1,
            available: 0,
        }));
        assert!(!RetryPolicy::retryable(&TieraError::NoSuchObject("k".into())));
        assert!(!RetryPolicy::retryable(&TieraError::NoSuchTier("t".into())));
    }

    #[test]
    fn huge_retry_index_saturates_at_cap() {
        let policy = RetryPolicy::robust();
        let mut rng = SimRng::new(2);
        assert_eq!(policy.backoff(63, &mut rng), policy.max_backoff);
        assert_eq!(policy.backoff(200, &mut rng), policy.max_backoff);
    }
}

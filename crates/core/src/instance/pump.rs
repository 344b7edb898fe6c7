//! The control layer's clock: timer events and the background queue.
//!
//! [`Instance::pump`] fires every timer period and runs every queued
//! item that is due by the time it is given, each at its own due time,
//! then makes the metadata durable. Failed background work is requeued
//! with a deterministic backoff, and dropped with an alert once its
//! attempt budget is spent.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use tiera_sim::bandwidth::BandwidthCap;
use tiera_sim::{SimDuration, SimTime};

use super::{Ctx, Instance, PumpReport};
use crate::error::{Result, TieraError};
use crate::object::ObjectKey;
use crate::policy::InstalledRule;
use crate::retry::{FailureAlert, RetryPolicy};

/// Deferred (background) response work.
pub(super) struct PendingWork {
    pub(super) due: SimTime,
    pub(super) work: WorkItem,
    pub(super) inserted: Option<ObjectKey>,
    /// How many times this item has already failed and been requeued.
    pub(super) attempts: u32,
}

/// Due-ordered background queue, keyed by `(due, insertion seq)`, so
/// [`Instance::pump`] drains work strictly in due order (FIFO among equal
/// due times) at O(log n) per operation: a later-queued, earlier-due
/// write-back runs first.
#[derive(Default)]
pub(super) struct BackgroundQueue {
    queue: BTreeMap<(SimTime, u64), PendingWork>,
    next_seq: u64,
}

impl BackgroundQueue {
    pub(super) fn push(&mut self, work: PendingWork) {
        self.next_seq += 1;
        self.queue.insert((work.due, self.next_seq), work);
    }

    /// Pops the earliest-due item if it is due at `now`.
    pub(super) fn pop_due(&mut self, now: SimTime) -> Option<PendingWork> {
        let first = self.queue.first_entry()?;
        (first.key().0 <= now).then(|| first.remove())
    }

    pub(super) fn len(&self) -> usize {
        self.queue.len()
    }
}

/// The two shapes of background work.
pub(super) enum WorkItem {
    /// A rule's responses, deferred; the rule is shared with the policy.
    Responses(Arc<InstalledRule>),
    /// A bandwidth-capped copy in progress: one object is transferred per
    /// step, and the continuation re-enqueues itself `pace(len)` later.
    /// This is what keeps a `bandwidth: 40KB/s` copy from monopolizing the
    /// shared device (paper Figure 14).
    PacedCopy { keys: VecDeque<ObjectKey>, to: Vec<String>, cap: BandwidthCap, delete_source: bool },
}

/// The tier a transient error implicates, for alert reporting.
fn err_tier(e: &TieraError) -> String {
    match e {
        TieraError::Timeout { tier, .. } | TieraError::TierFull { tier, .. } => tier.clone(),
        TieraError::NoSuchTier(tier) => tier.clone(),
        _ => String::from("-"),
    }
}

impl Instance {
    /// Drives timer events and queued background work up to virtual time
    /// `now`, then makes the object metadata durable (a no-op without a
    /// metadata directory): the tick is the durability boundary. Call this
    /// from the experiment driver (or the RPC server's event thread) as
    /// simulated time advances.
    pub fn pump(&self, now: SimTime) -> Result<PumpReport> {
        let mut report = PumpReport::default();

        // Timer rules: fire once per elapsed period, at the period boundary,
        // every firing of this sweep under the configuration loaded here.
        let config = self.policy.load();
        for timer in &config.timers {
            while let Some(fire_at) = timer.claim_period(now) {
                self.stats.record_event();
                report.timers_fired += 1;
                let mut ctx = Ctx::background(fire_at, &config);
                if let Err(e) = self.execute_responses(timer.responses(), &mut ctx) {
                    // A failing timer body must not wedge the pump (it used
                    // to abort the drain, stranding every queued item behind
                    // it). The timer refires next period, which is the
                    // natural retry; surface the failure as an alert
                    // meanwhile.
                    self.emit_alert(FailureAlert {
                        at: fire_at,
                        tier: err_tier(&e),
                        op: "timer",
                        failover_to: None,
                        detail: format!("timer responses failed: {e}"),
                    });
                }
            }
        }

        // Background queue: drain in due order.
        // Each item runs under the configuration current when it executes,
        // not the one it was queued under.
        loop {
            let work = self.background.lock().pop_due(now);
            let Some(work) = work else { break };
            report.background_executed += 1;
            let config = self.policy.load();
            let mut ctx = Ctx::background(work.due, &config);
            ctx.inserted = work.inserted.clone();
            match work.work {
                WorkItem::Responses(rule) => {
                    if let Err(e) = self.execute_responses(rule.responses(), &mut ctx) {
                        let responses = WorkItem::Responses(rule);
                        self.requeue_or_drop(PendingWork { work: responses, ..work }, &e);
                    }
                }
                WorkItem::PacedCopy { mut keys, to, cap, delete_source } => {
                    let Some(key) = keys.pop_front() else { continue };
                    let moved = match self.copy_single(&key, &to, delete_source, &mut ctx) {
                        Ok((moved, _)) => moved,
                        Err(e) if RetryPolicy::retryable(&e) => {
                            // Transient destination trouble (timeout, full):
                            // put the key back and retry the whole batch
                            // later, against the attempt budget.
                            keys.push_front(key);
                            let paced = WorkItem::PacedCopy { keys, to, cap, delete_source };
                            self.requeue_or_drop(PendingWork { work: paced, ..work }, &e);
                            continue;
                        }
                        // A copy racing with concurrent overwrites or deletes
                        // may find an object gone mid-flight; skip it and
                        // keep draining the batch.
                        Err(_) => 4096,
                    };
                    if !keys.is_empty() {
                        // Pace: the next chunk may only start once this
                        // one's bytes have "drained" at the cap rate.
                        self.background.lock().push(PendingWork {
                            due: work.due + cap.pace(moved.max(1)),
                            work: WorkItem::PacedCopy { keys, to, cap, delete_source },
                            attempts: 0,
                            ..work
                        });
                    }
                }
            }
        }

        self.registry.sync()?;
        Ok(report)
    }

    /// Requeues failed background work with a deterministic exponential
    /// delay (no RNG: background retries must not perturb the seeded
    /// streams), dropping it with an alert once the attempt budget is
    /// spent, so one failing item neither stops the drain nor is lost.
    fn requeue_or_drop(&self, work: PendingWork, err: &TieraError) {
        const MAX_BACKGROUND_ATTEMPTS: u32 = 8;
        if work.attempts + 1 >= MAX_BACKGROUND_ATTEMPTS {
            self.emit_alert(FailureAlert {
                at: work.due,
                tier: err_tier(err),
                op: "background",
                failover_to: None,
                detail: format!(
                    "background work dropped after {MAX_BACKGROUND_ATTEMPTS} attempts: {err}"
                ),
            });
            return;
        }
        let delay = SimDuration::from_secs((1 << work.attempts.min(6)).min(60));
        self.background.lock().push(PendingWork {
            due: work.due + delay,
            attempts: work.attempts + 1,
            ..work
        });
    }

    /// Queued background work items.
    pub fn background_depth(&self) -> usize {
        self.background.lock().len()
    }

    pub(super) fn enqueue_background(&self, rule: Arc<InstalledRule>, ctx: &Ctx) {
        self.stats.record_background();
        self.background.lock().push(PendingWork {
            due: ctx.now,
            work: WorkItem::Responses(rule),
            inserted: ctx.inserted.clone(),
            attempts: 0,
        });
    }
}

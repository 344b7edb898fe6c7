//! The external monitoring application of paper §4.2.3 ("Adapting to
//! Failures").
//!
//! "We also deployed an external monitoring application that detects a
//! storage failure and will reconfigure the instance if this occurs. The
//! monitoring application writes data to the Tiera instance on a 2 minute
//! schedule. It assumes a storage service has failed if the attempt to
//! write data (after successive retries) fails."
//!
//! [`FailureMonitor`] is that component: driven on a schedule in virtual
//! time, it probes the instance with a canary PUT and, after the configured
//! number of consecutive failures, invokes the reconfiguration callback
//! (which typically detaches the failed tier, attaches replacements, and
//! swaps the policy — reproducing Figure 17's recovery).

use std::sync::Arc;

use tiera_sim::{SimDuration, SimTime};

use crate::instance::Instance;

/// Outcome of one monitor probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The canary write succeeded.
    Healthy,
    /// The canary write failed, but the failure budget is not exhausted.
    Suspect {
        /// Consecutive failures so far.
        failures: u32,
    },
    /// The failure budget was exhausted; the reconfiguration callback ran.
    Reconfigured,
    /// A failure happened after reconfiguration already ran once.
    AlreadyReconfigured,
}

/// Periodic canary-writing failure detector.
pub struct FailureMonitor {
    instance: Arc<Instance>,
    period: SimDuration,
    retries: u32,
    next_probe: SimTime,
    consecutive_failures: u32,
    reconfigured: bool,
    probe_seq: u64,
    observe_alerts: bool,
    on_failure: Box<dyn FnMut(&Instance) + Send>,
}

impl FailureMonitor {
    /// Creates a monitor probing `instance` every `period`, declaring
    /// failure after `retries` consecutive failed canary writes and then
    /// invoking `on_failure` once.
    pub fn new(
        instance: Arc<Instance>,
        period: SimDuration,
        retries: u32,
        on_failure: impl FnMut(&Instance) + Send + 'static,
    ) -> Self {
        Self {
            instance,
            period,
            retries: retries.max(1),
            next_probe: SimTime::ZERO + period,
            consecutive_failures: 0,
            reconfigured: false,
            probe_seq: 0,
            observe_alerts: false,
            on_failure: Box::new(on_failure),
        }
    }

    /// Also counts the instance's FAILURE_ALERT events (degraded PUTs,
    /// dropped background work — see [`crate::retry::FailureAlert`])
    /// toward the failure budget: each tick that drains at least one alert
    /// counts like one failed canary probe. Off by default, so existing
    /// canary-only monitors are unchanged.
    pub fn observing_alerts(mut self) -> Self {
        self.observe_alerts = true;
        self
    }

    /// The paper's configuration: probe every 2 minutes.
    pub fn every_two_minutes(
        instance: Arc<Instance>,
        on_failure: impl FnMut(&Instance) + Send + 'static,
    ) -> Self {
        Self::new(instance, SimDuration::from_secs(120), 1, on_failure)
    }

    /// Whether the monitor has already reconfigured the instance.
    pub fn has_reconfigured(&self) -> bool {
        self.reconfigured
    }

    /// Advances the monitor to virtual time `now`, probing as scheduled.
    /// Returns the outcomes of the probes performed.
    pub fn tick(&mut self, now: SimTime) -> Vec<ProbeOutcome> {
        let mut outcomes = Vec::new();
        if self.observe_alerts {
            let alerts = self.instance.drain_alerts();
            if !alerts.is_empty() {
                outcomes.push(self.register_failure());
            }
        }
        while self.next_probe <= now {
            let at = self.next_probe;
            outcomes.push(self.probe(at));
            self.next_probe = at + self.period;
        }
        outcomes
    }

    /// One failure signal (failed canary or drained alerts) against the
    /// retry budget.
    fn register_failure(&mut self) -> ProbeOutcome {
        if self.reconfigured {
            return ProbeOutcome::AlreadyReconfigured;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.retries {
            self.reconfigured = true;
            (self.on_failure)(&self.instance);
            ProbeOutcome::Reconfigured
        } else {
            ProbeOutcome::Suspect { failures: self.consecutive_failures }
        }
    }

    fn probe(&mut self, at: SimTime) -> ProbeOutcome {
        self.probe_seq += 1;
        let key = format!("__tiera_monitor_canary_{}", self.probe_seq);
        match self.instance.put(key, &b"canary"[..], at) {
            Ok(_) => {
                self.consecutive_failures = 0;
                ProbeOutcome::Healthy
            }
            Err(_) => self.register_failure(),
        }
    }
}

impl std::fmt::Debug for FailureMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureMonitor")
            .field("period", &self.period)
            .field("next_probe", &self.next_probe)
            .field("reconfigured", &self.reconfigured)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InstanceBuilder;
    use crate::tier::MemTier;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tiera_sim::SimEnv;

    fn tiny_instance() -> Arc<Instance> {
        InstanceBuilder::new("mon", SimEnv::new(3))
            .tier(MemTier::with_capacity("t1", 10)) // tiny: canaries overflow it
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_probes_do_not_reconfigure() {
        let inst = InstanceBuilder::new("mon", SimEnv::new(3))
            .tier(MemTier::with_capacity("t1", 1 << 20))
            .build()
            .unwrap();
        let fired = Arc::new(AtomicU32::new(0));
        let fired2 = fired.clone();
        let mut mon = FailureMonitor::every_two_minutes(inst, move |_| {
            fired2.fetch_add(1, Ordering::Relaxed);
        });
        let outcomes = mon.tick(SimTime::from_secs(600));
        assert_eq!(outcomes.len(), 5, "probes at 2,4,6,8,10 min");
        assert!(outcomes.iter().all(|o| *o == ProbeOutcome::Healthy));
        assert_eq!(fired.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failures_trigger_reconfiguration_once() {
        // Capacity 10 bytes: the first canary (6 bytes) fits, later ones
        // collide with capacity and fail.
        let inst = tiny_instance();
        let fired = Arc::new(AtomicU32::new(0));
        let fired2 = fired.clone();
        let mut mon = FailureMonitor::every_two_minutes(inst, move |_| {
            fired2.fetch_add(1, Ordering::Relaxed);
        });
        let outcomes = mon.tick(SimTime::from_secs(1200));
        assert!(outcomes.contains(&ProbeOutcome::Reconfigured));
        assert_eq!(fired.load(Ordering::Relaxed), 1, "callback runs exactly once: {outcomes:?}");
        assert!(mon.has_reconfigured());
    }

    #[test]
    fn retries_budget_respected() {
        let inst = tiny_instance();
        let mut mon = FailureMonitor::new(inst, SimDuration::from_secs(60), 3, |_| {});
        // First canary fits (6 <= 10); subsequent fail. With retries=3 the
        // monitor stays Suspect for two failures before reconfiguring.
        let outcomes = mon.tick(SimTime::from_secs(300));
        let suspects =
            outcomes.iter().filter(|o| matches!(o, ProbeOutcome::Suspect { .. })).count();
        assert_eq!(suspects, 2, "{outcomes:?}");
        assert!(outcomes.contains(&ProbeOutcome::Reconfigured));
    }
}

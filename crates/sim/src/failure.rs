//! The fault plane: deterministic, seed-replayable failure injection.
//!
//! Two fault models compose here:
//!
//! * **Time windows** ([`FailureWindow`]) reproduce the paper's Figure 17:
//!   "We simulate a failure in EBS (similar to [the 2011 outage]) by timing
//!   out writes around t = 4 mins." A window deterministically fails every
//!   covered operation inside `[from, until)` — no randomness is consulted,
//!   so window-only schedules are byte-identical run to run.
//!
//! * **Probabilistic fault specs** ([`FaultSpec`]) generalize the windows
//!   into a per-operation fault plane: inside the spec's active interval
//!   each covered operation draws exactly one number from the injector's
//!   seeded [`SimRng`] and may time out, tear (a write that mutates nothing
//!   but still costs the client its timeout), report a transient
//!   `TierFull`, or suffer a latency spike. Because every draw comes from
//!   one seeded stream in op order, an entire fault schedule replays
//!   byte-identically from its seed (`FailureInjector::set_seed`).
//!
//! The healthy path — no specs installed — draws nothing from the RNG, so
//! enabling the fault plane in the build costs nothing when it is unused.

use crate::clock::{SimDuration, SimTime};
use tiera_support::sync::{rank, Mutex, RwLock};
use tiera_support::SimRng;

/// Which operations a failure window affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Reads fail.
    Reads,
    /// Writes fail (the Figure 17 scenario).
    Writes,
    /// Every operation fails.
    All,
}

impl FailureKind {
    /// Whether this kind covers a write operation.
    pub fn covers_write(self) -> bool {
        matches!(self, FailureKind::Writes | FailureKind::All)
    }

    /// Whether this kind covers a read operation.
    pub fn covers_read(self) -> bool {
        matches!(self, FailureKind::Reads | FailureKind::All)
    }
}

/// A failure window over virtual time: `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureWindow {
    /// Start of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive); `None` means "until further notice".
    pub until: Option<SimTime>,
    /// Affected operations.
    pub kind: FailureKind,
    /// How long a client waits before the operation times out.
    pub timeout: SimDuration,
}

impl FailureWindow {
    /// An open-ended write outage starting at `from` with a default
    /// 5-second client timeout.
    pub fn write_outage(from: SimTime) -> Self {
        Self { from, until: None, kind: FailureKind::Writes, timeout: SimDuration::from_secs(5) }
    }

    fn covers(&self, now: SimTime) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }
}

/// A probabilistic fault description active over `[from, until)`.
///
/// Probabilities are per-operation and mutually exclusive: each covered
/// operation draws one uniform number and lands in at most one fault band
/// (timeout, then torn, then transient-full, then spike, in that fixed
/// order). Read operations only sample the timeout and spike bands — torn
/// writes and `TierFull` are write-path faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Affected operations.
    pub ops: FailureKind,
    /// Start of the faulty interval (inclusive).
    pub from: SimTime,
    /// End of the faulty interval (exclusive); `None` means open-ended.
    pub until: Option<SimTime>,
    /// Probability an operation times out entirely.
    pub error_prob: f64,
    /// Probability a write is torn: the client waits `timeout` and gets an
    /// error, and the tier rolls back any partial mutation.
    pub torn_prob: f64,
    /// Probability a write fails with a transient `TierFull`.
    pub full_prob: f64,
    /// Probability the operation succeeds but takes `spike` extra latency.
    pub spike_prob: f64,
    /// Extra latency charged by a spike.
    pub spike: SimDuration,
    /// Client-observed wait for timed-out and torn operations.
    pub timeout: SimDuration,
}

impl FaultSpec {
    /// A spec with every probability at zero (a no-op until configured via
    /// the builder methods).
    pub fn new(ops: FailureKind, from: SimTime, until: Option<SimTime>) -> Self {
        Self {
            ops,
            from,
            until,
            error_prob: 0.0,
            torn_prob: 0.0,
            full_prob: 0.0,
            spike_prob: 0.0,
            spike: SimDuration::from_millis(200),
            timeout: SimDuration::from_secs(5),
        }
    }

    /// Sets the per-op timeout probability.
    pub fn error(mut self, p: f64) -> Self {
        self.error_prob = p;
        self
    }

    /// Sets the per-write torn-write probability.
    pub fn torn(mut self, p: f64) -> Self {
        self.torn_prob = p;
        self
    }

    /// Sets the per-write transient `TierFull` probability.
    pub fn transient_full(mut self, p: f64) -> Self {
        self.full_prob = p;
        self
    }

    /// Sets the per-op latency-spike probability and magnitude.
    pub fn spikes(mut self, p: f64, extra: SimDuration) -> Self {
        self.spike_prob = p;
        self.spike = extra;
        self
    }

    /// Sets the client timeout charged by timed-out and torn operations.
    pub fn timeout(mut self, d: SimDuration) -> Self {
        self.timeout = d;
        self
    }

    fn covers(&self, now: SimTime) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }
}

/// The verdict for one operation at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Operation proceeds normally.
    Healthy,
    /// Operation fails after the given timeout delay.
    TimedOut(SimDuration),
    /// A torn write: the tier must roll back any partial mutation and fail
    /// the operation after the given delay.
    Torn(SimDuration),
    /// A transient out-of-space error (capacity is actually fine).
    TransientFull,
    /// Operation succeeds but suffers the given extra latency.
    Spiked(SimDuration),
}

/// Thread-safe fault plane: deterministic windows plus seeded
/// probabilistic fault specs.
#[derive(Debug)]
pub struct FailureInjector {
    windows: RwLock<Vec<FailureWindow>>,
    specs: RwLock<Vec<FaultSpec>>,
    rng: Mutex<SimRng>,
}

impl Default for FailureInjector {
    fn default() -> Self {
        Self {
            windows: RwLock::named("failure.windows", rank::FAILURE_WINDOWS, Vec::new()),
            specs: RwLock::named("failure.specs", rank::FAILURE_SPECS, Vec::new()),
            rng: Mutex::named("failure.rng", rank::FAILURE_RNG, SimRng::new(0)),
        }
    }
}

impl FailureInjector {
    /// Creates an injector with no scheduled failures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-seeds the probabilistic draw stream. Call before installing
    /// [`FaultSpec`]s so a failing schedule replays byte-identically.
    pub fn set_seed(&self, seed: u64) {
        *self.rng.lock() = SimRng::new(seed);
    }

    /// Schedules a failure window.
    pub fn schedule(&self, w: FailureWindow) {
        self.windows.write().push(w);
    }

    /// Installs a probabilistic fault spec.
    pub fn install(&self, spec: FaultSpec) {
        self.specs.write().push(spec);
    }

    /// Schedules `cycles` alternating down/up windows starting at `start`
    /// (tier flapping): down for `down`, then up for `up`, repeated.
    pub fn schedule_flap(
        &self,
        start: SimTime,
        down: SimDuration,
        up: SimDuration,
        cycles: u32,
        kind: FailureKind,
        timeout: SimDuration,
    ) {
        let mut at = start;
        let mut windows = self.windows.write();
        for _ in 0..cycles {
            windows.push(FailureWindow { from: at, until: Some(at + down), kind, timeout });
            at = at + down + up;
        }
    }

    /// Clears every scheduled window and fault spec (a "repair").
    pub fn clear(&self) {
        self.windows.write().clear();
        self.specs.write().clear();
    }

    /// Verdict for a write at virtual time `now`.
    pub fn check_write(&self, now: SimTime) -> Verdict {
        self.check(now, true)
    }

    /// Verdict for a read at virtual time `now`.
    pub fn check_read(&self, now: SimTime) -> Verdict {
        self.check(now, false)
    }

    fn check(&self, now: SimTime, is_write: bool) -> Verdict {
        {
            let windows = self.windows.read();
            for w in windows.iter() {
                let covered = if is_write { w.kind.covers_write() } else { w.kind.covers_read() };
                if covered && w.covers(now) {
                    return Verdict::TimedOut(w.timeout);
                }
            }
        }
        let specs = self.specs.read();
        if specs.is_empty() {
            return Verdict::Healthy;
        }
        for s in specs.iter() {
            let covered = if is_write { s.ops.covers_write() } else { s.ops.covers_read() };
            if !covered || !s.covers(now) {
                continue;
            }
            // One draw per covering spec per op: the bands partition [0, 1)
            // so the faults are mutually exclusive, and the draw count is a
            // pure function of the op sequence (seed-replayable).
            let x = self.rng.lock().next_f64();
            let mut edge = s.error_prob;
            if x < edge {
                return Verdict::TimedOut(s.timeout);
            }
            if is_write {
                edge += s.torn_prob;
                if x < edge {
                    return Verdict::Torn(s.timeout);
                }
                edge += s.full_prob;
                if x < edge {
                    return Verdict::TransientFull;
                }
            }
            edge += s.spike_prob;
            if x < edge {
                return Verdict::Spiked(s.spike);
            }
        }
        Verdict::Healthy
    }

    /// Whether any window or spec is active at `now`.
    pub fn any_active(&self, now: SimTime) -> bool {
        self.windows.read().iter().any(|w| w.covers(now))
            || self.specs.read().iter().any(|s| s.covers(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_before_window() {
        let inj = FailureInjector::new();
        inj.schedule(FailureWindow::write_outage(SimTime::from_secs(240)));
        assert_eq!(inj.check_write(SimTime::from_secs(239)), Verdict::Healthy);
    }

    #[test]
    fn writes_time_out_inside_window_reads_unaffected() {
        let inj = FailureInjector::new();
        inj.schedule(FailureWindow::write_outage(SimTime::from_secs(240)));
        match inj.check_write(SimTime::from_secs(300)) {
            Verdict::TimedOut(d) => assert_eq!(d, SimDuration::from_secs(5)),
            v => panic!("expected timeout, got {v:?}"),
        }
        assert_eq!(inj.check_read(SimTime::from_secs(300)), Verdict::Healthy);
    }

    #[test]
    fn bounded_window_ends() {
        let inj = FailureInjector::new();
        inj.schedule(FailureWindow {
            from: SimTime::from_secs(10),
            until: Some(SimTime::from_secs(20)),
            kind: FailureKind::All,
            timeout: SimDuration::from_secs(1),
        });
        assert_ne!(inj.check_read(SimTime::from_secs(15)), Verdict::Healthy);
        assert_eq!(inj.check_read(SimTime::from_secs(20)), Verdict::Healthy);
    }

    #[test]
    fn clear_repairs_everything() {
        let inj = FailureInjector::new();
        inj.schedule(FailureWindow::write_outage(SimTime::ZERO));
        inj.install(FaultSpec::new(FailureKind::All, SimTime::ZERO, None).error(1.0));
        assert_ne!(inj.check_write(SimTime::from_secs(1)), Verdict::Healthy);
        inj.clear();
        assert_eq!(inj.check_write(SimTime::from_secs(1)), Verdict::Healthy);
        assert!(!inj.any_active(SimTime::from_secs(1)));
    }

    #[test]
    fn certain_error_spec_times_out_every_op() {
        let inj = FailureInjector::new();
        inj.set_seed(7);
        inj.install(
            FaultSpec::new(FailureKind::All, SimTime::ZERO, None)
                .error(1.0)
                .timeout(SimDuration::from_secs(2)),
        );
        for i in 0..20 {
            assert_eq!(
                inj.check_write(SimTime::from_secs(i)),
                Verdict::TimedOut(SimDuration::from_secs(2))
            );
            assert_eq!(
                inj.check_read(SimTime::from_secs(i)),
                Verdict::TimedOut(SimDuration::from_secs(2))
            );
        }
    }

    #[test]
    fn torn_and_full_bands_apply_to_writes_only() {
        let inj = FailureInjector::new();
        inj.set_seed(11);
        inj.install(
            FaultSpec::new(FailureKind::All, SimTime::ZERO, None).torn(0.5).transient_full(0.5),
        );
        let mut saw_torn = false;
        let mut saw_full = false;
        for i in 0..64 {
            match inj.check_write(SimTime::from_secs(i)) {
                Verdict::Torn(_) => saw_torn = true,
                Verdict::TransientFull => saw_full = true,
                v => panic!("write must tear or report full, got {v:?}"),
            }
            // Reads draw from the same stream but never land in the
            // write-only bands.
            assert_eq!(inj.check_read(SimTime::from_secs(i)), Verdict::Healthy);
        }
        assert!(saw_torn && saw_full);
    }

    #[test]
    fn spike_band_adds_latency_without_failing() {
        let inj = FailureInjector::new();
        inj.set_seed(3);
        inj.install(
            FaultSpec::new(FailureKind::Reads, SimTime::ZERO, None)
                .spikes(1.0, SimDuration::from_millis(300)),
        );
        assert_eq!(inj.check_read(SimTime::ZERO), Verdict::Spiked(SimDuration::from_millis(300)));
        // Writes are not covered by a Reads spec and draw nothing.
        assert_eq!(inj.check_write(SimTime::ZERO), Verdict::Healthy);
    }

    #[test]
    fn spec_draws_replay_identically_from_seed() {
        let run = |seed: u64| {
            let inj = FailureInjector::new();
            inj.set_seed(seed);
            inj.install(
                FaultSpec::new(FailureKind::All, SimTime::ZERO, None)
                    .error(0.2)
                    .torn(0.2)
                    .transient_full(0.2)
                    .spikes(0.2, SimDuration::from_millis(50)),
            );
            (0..200).map(|i| inj.check_write(SimTime::from_millis(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99), "same seed → same verdict stream");
        assert_ne!(run(99), run(100), "different seed → different stream");
    }

    #[test]
    fn healthy_path_draws_no_rng_with_only_windows_installed() {
        // Window-only schedules must stay byte-identical to the pre-fault-
        // plane behavior: verdicts are pure functions of time, no RNG.
        let inj = FailureInjector::new();
        inj.schedule(FailureWindow::write_outage(SimTime::from_secs(100)));
        let before: Vec<Verdict> =
            (0..50).map(|i| inj.check_write(SimTime::from_secs(i))).collect();
        inj.set_seed(1234); // would shift results if windows consumed draws
        let after: Vec<Verdict> = (0..50).map(|i| inj.check_write(SimTime::from_secs(i))).collect();
        assert_eq!(before, after);
        assert!(before.iter().all(|v| *v == Verdict::Healthy));
    }

    #[test]
    fn flap_schedule_alternates_down_and_up() {
        let inj = FailureInjector::new();
        inj.schedule_flap(
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
            3,
            FailureKind::All,
            SimDuration::from_secs(1),
        );
        // Down: [10,15) [20,25) [30,35); up otherwise.
        for (t, down) in [
            (9, false),
            (10, true),
            (14, true),
            (15, false),
            (22, true),
            (27, false),
            (31, true),
            (35, false),
        ] {
            let v = inj.check_write(SimTime::from_secs(t));
            assert_eq!(v != Verdict::Healthy, down, "t={t}");
        }
    }

    #[test]
    fn spec_interval_is_half_open() {
        let inj = FailureInjector::new();
        inj.set_seed(5);
        inj.install(
            FaultSpec::new(
                FailureKind::Writes,
                SimTime::from_secs(10),
                Some(SimTime::from_secs(20)),
            )
            .error(1.0),
        );
        assert_eq!(inj.check_write(SimTime::from_secs(9)), Verdict::Healthy);
        assert_ne!(inj.check_write(SimTime::from_secs(10)), Verdict::Healthy);
        assert_ne!(inj.check_write(SimTime::from_secs(19)), Verdict::Healthy);
        assert_eq!(inj.check_write(SimTime::from_secs(20)), Verdict::Healthy);
    }
}

//! Seed-driven fault schedules over the [`FailureInjector`] fault plane.
//!
//! A [`FaultSchedule`] is a declarative list of fault events — outages,
//! flapping, and probabilistic noise — that can be *applied* to the
//! injectors of the tiers it names. Applying also re-seeds each injector
//! from the schedule's seed, so the probabilistic draws replay
//! byte-identically: the pair (schedule seed, op sequence) fully determines
//! every fault the run observes.
//!
//! [`FaultSchedule::random`] generates a bounded random schedule from a
//! seed — the generator itself is a pure function of the seed, so a chaos
//! failure report only ever needs to print one number.

use tiera_sim::{FailureInjector, FailureKind, FaultSpec, SimDuration, SimTime};
use tiera_support::SimRng;

/// One fault event against one tier.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A hard outage: every covered op inside the window fails.
    Outage {
        /// Affected tier name.
        tier: String,
        /// Outage start (inclusive).
        from: SimTime,
        /// Outage end (exclusive); `None` = until further notice.
        until: Option<SimTime>,
        /// Which operations fail.
        kind: FailureKind,
        /// Client-observed timeout per failed op.
        timeout: SimDuration,
    },
    /// Alternating down/up windows (tier flapping).
    Flap {
        /// Affected tier name.
        tier: String,
        /// First down-window start.
        start: SimTime,
        /// Down-window length.
        down: SimDuration,
        /// Up-window length between down windows.
        up: SimDuration,
        /// Number of down windows.
        cycles: u32,
        /// Which operations fail while down.
        kind: FailureKind,
        /// Client-observed timeout per failed op.
        timeout: SimDuration,
    },
    /// Probabilistic per-op noise (timeouts, torn writes, transient
    /// `TierFull`, latency spikes) drawn from the injector's seeded RNG.
    Noise {
        /// Affected tier name.
        tier: String,
        /// The fault spec to install.
        spec: FaultSpec,
    },
}

impl FaultEvent {
    /// The tier this event targets.
    pub fn tier(&self) -> &str {
        match self {
            FaultEvent::Outage { tier, .. }
            | FaultEvent::Flap { tier, .. }
            | FaultEvent::Noise { tier, .. } => tier,
        }
    }
}

/// A seeded, declarative fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed for the injectors' probabilistic draw streams (and, for
    /// [`FaultSchedule::random`], the generator itself).
    pub seed: u64,
    /// The fault events, in installation order.
    pub events: Vec<FaultEvent>,
}

fn kind_name(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Reads => "reads",
        FailureKind::Writes => "writes",
        FailureKind::All => "all-ops",
    }
}

/// FNV-1a over the tier name: stable per-tier seed derivation, independent
/// of `std` hasher randomization.
fn tier_salt(name: &str) -> u64 {
    // Stays FNV-1a, not the codec's content checksum: fault schedules (and
    // fig 17's golden output) derive from this salt.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultSchedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds a hard outage window (5 s client timeout).
    pub fn outage(
        mut self,
        tier: impl Into<String>,
        from: SimTime,
        until: Option<SimTime>,
        kind: FailureKind,
    ) -> Self {
        self.events.push(FaultEvent::Outage {
            tier: tier.into(),
            from,
            until,
            kind,
            timeout: SimDuration::from_secs(5),
        });
        self
    }

    /// Adds a flapping pattern: `cycles` down-windows of `down`, separated
    /// by `up` of health (1 s client timeout, so flaps are cheap to ride
    /// out with retries).
    pub fn flap(
        mut self,
        tier: impl Into<String>,
        start: SimTime,
        down: SimDuration,
        up: SimDuration,
        cycles: u32,
        kind: FailureKind,
    ) -> Self {
        self.events.push(FaultEvent::Flap {
            tier: tier.into(),
            start,
            down,
            up,
            cycles,
            kind,
            timeout: SimDuration::from_secs(1),
        });
        self
    }

    /// Adds probabilistic noise from a [`FaultSpec`].
    pub fn noise(mut self, tier: impl Into<String>, spec: FaultSpec) -> Self {
        self.events.push(FaultEvent::Noise {
            tier: tier.into(),
            spec,
        });
        self
    }

    /// Generates a bounded random schedule over `tiers` within
    /// `[0, horizon)`, as a pure function of `seed`.
    ///
    /// Every generated fault clears before `0.6 × horizon`, so a scenario
    /// that quiesces after the horizon always has a fault-free recovery
    /// tail; probabilities are kept modest so retries can ride out the
    /// noise and invariants are checked under stress rather than under
    /// guaranteed data loss.
    pub fn random(seed: u64, tiers: &[&str], horizon: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5eed_5eed_5eed_5eed);
        let mut schedule = Self::new(seed);
        let span = horizon.mul_f64(0.6);
        for tier in tiers {
            // Each tier independently gets 0-2 events; a schedule with no
            // events at all is a valid (and useful) control run.
            let picks = rng.next_below(3);
            for _ in 0..picks {
                let kind = match rng.next_below(3) {
                    0 => FailureKind::Reads,
                    1 => FailureKind::Writes,
                    _ => FailureKind::All,
                };
                let a = span.mul_f64(rng.next_f64() * 0.5);
                let from = SimTime::ZERO + a;
                match rng.next_below(3) {
                    0 => {
                        let len = span.mul_f64(0.05 + rng.next_f64() * 0.25);
                        schedule = schedule.outage(*tier, from, Some(from + len), kind);
                    }
                    1 => {
                        // Worst case: from (≤ 0.5·span) + 4 cycles of
                        // (down + up) (≤ 0.44·span) stays inside span.
                        let down = span.mul_f64(0.02 + rng.next_f64() * 0.03);
                        let up = span.mul_f64(0.03 + rng.next_f64() * 0.03);
                        let cycles = 2 + rng.next_below(3) as u32;
                        schedule = schedule.flap(*tier, from, down, up, cycles, kind);
                    }
                    _ => {
                        let until = from + span.mul_f64(0.1 + rng.next_f64() * 0.3);
                        let spec = FaultSpec::new(kind, from, Some(until))
                            .error(0.02 + rng.next_f64() * 0.08)
                            .torn(rng.next_f64() * 0.05)
                            .transient_full(rng.next_f64() * 0.05)
                            .spikes(rng.next_f64() * 0.2, SimDuration::from_millis(150))
                            .timeout(SimDuration::from_millis(500));
                        schedule = schedule.noise(*tier, spec);
                    }
                }
            }
        }
        schedule
    }

    /// Installs the schedule into the named injectors, re-seeding each
    /// injector's draw stream from the schedule seed salted by the tier
    /// name (so two tiers never share a stream). Unnamed tiers are left
    /// untouched; events naming absent tiers are skipped.
    pub fn apply(&self, injectors: &[(&str, &FailureInjector)]) {
        for (name, injector) in injectors {
            injector.set_seed(self.seed ^ tier_salt(name));
        }
        for event in &self.events {
            let Some((_, injector)) = injectors.iter().find(|(n, _)| n == &event.tier()) else {
                continue;
            };
            match event {
                FaultEvent::Outage {
                    from,
                    until,
                    kind,
                    timeout,
                    ..
                } => injector.schedule(tiera_sim::FailureWindow {
                    from: *from,
                    until: *until,
                    kind: *kind,
                    timeout: *timeout,
                }),
                FaultEvent::Flap {
                    start,
                    down,
                    up,
                    cycles,
                    kind,
                    timeout,
                    ..
                } => injector.schedule_flap(*start, *down, *up, *cycles, *kind, *timeout),
                FaultEvent::Noise { spec, .. } => injector.install(*spec),
            }
        }
    }

    /// Clears every named injector (the "repair crew arrives" step).
    pub fn clear(&self, injectors: &[(&str, &FailureInjector)]) {
        for (_, injector) in injectors {
            injector.clear();
        }
    }

    /// A deterministic, line-oriented description of the schedule — the
    /// replay contract: two runs with the same seed must produce identical
    /// `describe()` output, and chaos failure reports embed it.
    pub fn describe(&self) -> String {
        let mut out = format!("fault-schedule seed={}\n", self.seed);
        if self.events.is_empty() {
            out.push_str("  (no faults)\n");
        }
        for event in &self.events {
            match event {
                FaultEvent::Outage {
                    tier,
                    from,
                    until,
                    kind,
                    timeout,
                } => {
                    let until = match until {
                        Some(u) => format!("{:.3}s", u.as_secs_f64()),
                        None => "open".to_string(),
                    };
                    out.push_str(&format!(
                        "  outage tier={tier} ops={} from={:.3}s until={until} timeout={:.3}s\n",
                        kind_name(*kind),
                        from.as_secs_f64(),
                        timeout.as_secs_f64(),
                    ));
                }
                FaultEvent::Flap {
                    tier,
                    start,
                    down,
                    up,
                    cycles,
                    kind,
                    timeout,
                } => out.push_str(&format!(
                    "  flap tier={tier} ops={} start={:.3}s down={:.3}s up={:.3}s cycles={cycles} timeout={:.3}s\n",
                    kind_name(*kind),
                    start.as_secs_f64(),
                    down.as_secs_f64(),
                    up.as_secs_f64(),
                    timeout.as_secs_f64(),
                )),
                FaultEvent::Noise { tier, spec } => {
                    let until = match spec.until {
                        Some(u) => format!("{:.3}s", u.as_secs_f64()),
                        None => "open".to_string(),
                    };
                    out.push_str(&format!(
                        "  noise tier={tier} ops={} from={:.3}s until={until} error={:.4} torn={:.4} full={:.4} spike={:.4}x{:.3}s\n",
                        kind_name(spec.ops),
                        spec.from.as_secs_f64(),
                        spec.error_prob,
                        spec.torn_prob,
                        spec.full_prob,
                        spec.spike_prob,
                        spec.spike.as_secs_f64(),
                    ));
                }
            }
        }
        out
    }

    /// The latest instant at which any scheduled fault can still be
    /// active, or `None` if an event is open-ended (or the schedule is
    /// empty).
    pub fn clears_by(&self) -> Option<SimTime> {
        if self.events.is_empty() {
            return Some(SimTime::ZERO);
        }
        let mut latest = SimTime::ZERO;
        for event in &self.events {
            let end = match event {
                FaultEvent::Outage { until, .. } => (*until)?,
                FaultEvent::Flap {
                    start,
                    down,
                    up,
                    cycles,
                    ..
                } => {
                    let mut at = *start;
                    for _ in 0..*cycles {
                        at = at + *down + *up;
                    }
                    at
                }
                FaultEvent::Noise { spec, .. } => spec.until?,
            };
            if end > latest {
                latest = end;
            }
        }
        Some(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedule_is_a_pure_function_of_the_seed() {
        let a = FaultSchedule::random(42, &["mem", "ebs"], SimDuration::from_secs(600));
        let b = FaultSchedule::random(42, &["mem", "ebs"], SimDuration::from_secs(600));
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
    }

    #[test]
    fn different_seeds_differ() {
        let horizon = SimDuration::from_secs(600);
        let base = FaultSchedule::random(1, &["mem", "ebs"], horizon);
        assert!(
            (2..30u64).any(|s| FaultSchedule::random(s, &["mem", "ebs"], horizon) != base),
            "30 seeds all generated the identical schedule"
        );
    }

    #[test]
    fn random_schedule_clears_before_sixty_percent_of_horizon() {
        let horizon = SimDuration::from_secs(1000);
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, &["a", "b", "c"], horizon);
            let clears = s.clears_by().expect("random schedules are bounded");
            assert!(
                clears <= SimTime::ZERO + horizon.mul_f64(0.6) + SimDuration::from_secs(1),
                "seed {seed}: clears at {:.1}s",
                clears.as_secs_f64()
            );
        }
    }

    #[test]
    fn describe_names_every_event() {
        let s = FaultSchedule::new(7)
            .outage("ebs", SimTime::from_secs(10), None, FailureKind::Writes)
            .flap(
                "mem",
                SimTime::from_secs(5),
                SimDuration::from_secs(2),
                SimDuration::from_secs(3),
                4,
                FailureKind::All,
            )
            .noise(
                "ebs",
                FaultSpec::new(FailureKind::Reads, SimTime::ZERO, None).error(0.1),
            );
        let text = s.describe();
        assert!(text.contains("seed=7"));
        assert!(text.contains("outage tier=ebs ops=writes"));
        assert!(text.contains("flap tier=mem ops=all-ops"));
        assert!(text.contains("noise tier=ebs ops=reads"));
    }

    #[test]
    fn apply_reseeds_and_installs_only_named_tiers() {
        let ebs = FailureInjector::new();
        let mem = FailureInjector::new();
        let s = FaultSchedule::new(9).outage(
            "ebs",
            SimTime::from_secs(1),
            Some(SimTime::from_secs(2)),
            FailureKind::Writes,
        );
        s.apply(&[("ebs", &ebs), ("mem", &mem)]);
        assert!(ebs.any_active(SimTime::from_secs(1)));
        assert!(!mem.any_active(SimTime::from_secs(1)));
        s.clear(&[("ebs", &ebs), ("mem", &mem)]);
        assert!(!ebs.any_active(SimTime::from_secs(1)));
    }

    #[test]
    fn clears_by_covers_flap_tail_and_open_ended_events() {
        let flappy = FaultSchedule::new(0).flap(
            "t",
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            2,
            FailureKind::All,
        );
        assert_eq!(flappy.clears_by(), Some(SimTime::from_secs(20)));
        let open = FaultSchedule::new(0).outage("t", SimTime::ZERO, None, FailureKind::All);
        assert_eq!(open.clears_by(), None);
        assert_eq!(FaultSchedule::new(0).clears_by(), Some(SimTime::ZERO));
    }

    #[test]
    fn per_tier_streams_are_salted_apart() {
        // Same schedule applied to two tiers: their injector streams must
        // not be identical, or correlated faults would hit both tiers in
        // lockstep.
        assert_ne!(tier_salt("mem"), tier_salt("ebs"));
    }
}

//! One seeded fault schedule over both fault planes: tiers and nodes.
//!
//! A [`Schedule`] is a declarative list of [`Fault`]s. Tier faults —
//! outages, flapping, probabilistic noise — are *applied* to the
//! [`FailureInjector`]s of the tiers they name; applying also re-seeds
//! each injector from the schedule's seed, so the probabilistic draws
//! replay byte-identically. Node faults — kill, partition, slowness — are
//! windows a run consumes as [`Edge`]s ([`Schedule::edges`]) while virtual
//! time passes: the pair (schedule seed, op sequence) fully determines
//! every fault the run observes.
//!
//! The generators ([`Schedule::random`] over tiers here, the node shapes
//! in [`crate::node_schedule`]) are pure functions of their seed, so a
//! chaos failure report only ever needs to print one number.

use tiera_sim::{FailureInjector, FailureKind, FaultSpec, SimDuration, SimTime};
use tiera_support::SimRng;

/// One fault against one tier or one cluster node.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A hard tier outage: every covered op inside the window fails.
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
    /// Probabilistic per-op tier noise (timeouts, torn writes, transient
    /// `TierFull`, latency spikes) drawn from the injector's seeded RNG.
    Noise {
        /// Affected tier name.
        tier: String,
        /// The fault spec to install.
        spec: FaultSpec,
    },
    /// Kill a node at `at` (freeze state, refuse ops); rejoin (revive +
    /// anti-entropy) at `rejoin_at`. The node keeps the state it froze
    /// with, so it rejoins stale.
    Kill {
        /// The node to kill.
        node: String,
        /// Kill instant.
        at: SimTime,
        /// Rejoin instant (strictly after `at`).
        rejoin_at: SimTime,
    },
    /// Network partition of a node over `[from, until)`; heals afterwards.
    Partition {
        /// The node to isolate.
        node: String,
        /// Partition start.
        from: SimTime,
        /// Partition end (heal).
        until: SimTime,
    },
    /// A fixed per-op latency penalty on a node over `[from, until)`.
    Slow {
        /// The node to slow down.
        node: String,
        /// Penalty start.
        from: SimTime,
        /// Penalty end.
        until: SimTime,
        /// Added virtual latency per op.
        penalty: SimDuration,
    },
}

impl Fault {
    /// The tier a tier fault targets.
    fn tier(&self) -> Option<&str> {
        match self {
            Fault::Outage { tier, .. } | Fault::Flap { tier, .. } | Fault::Noise { tier, .. } => {
                Some(tier)
            }
            _ => None,
        }
    }

    /// A node fault's onset and clearance. Tier faults have none: they
    /// act through injector windows.
    fn node_window(&self) -> Option<(SimTime, SimTime)> {
        match self {
            Fault::Kill { at, rejoin_at, .. } => Some((*at, *rejoin_at)),
            Fault::Partition { from, until, .. } | Fault::Slow { from, until, .. } => {
                Some((*from, *until))
            }
            _ => None,
        }
    }
}

/// One edge of a node fault's window: its onset (kill, partition, slow)
/// or its clearance (rejoin, heal, unslow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge<'a> {
    /// The node fault.
    pub fault: &'a Fault,
    /// Onset (`true`) or clearance (`false`).
    pub onset: bool,
}

/// A seeded, declarative fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Seed for the injectors' probabilistic draw streams (and, for the
    /// generators, the generator itself).
    pub seed: u64,
    /// The faults, in installation order.
    pub faults: Vec<Fault>,
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

fn secs(t: Option<SimTime>) -> String {
    match t {
        Some(t) => format!("{:.3}s", t.as_secs_f64()),
        None => "open".to_string(),
    }
}

impl Schedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, faults: Vec::new() }
    }

    /// Adds a hard tier outage window (5 s client timeout).
    pub fn outage(
        mut self,
        tier: impl Into<String>,
        from: SimTime,
        until: Option<SimTime>,
        kind: FailureKind,
    ) -> Self {
        self.faults.push(Fault::Outage {
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
        self.faults.push(Fault::Flap {
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
        self.faults.push(Fault::Noise { tier: tier.into(), spec });
        self
    }

    /// Generates a bounded random tier schedule over `tiers` within
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
            // Each tier independently gets 0-2 faults; a schedule with no
            // faults at all is a valid (and useful) control run.
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

    /// Installs the tier faults into the named injectors, re-seeding each
    /// injector's draw stream from the schedule seed salted by the tier
    /// name (so two tiers never share a stream). Unnamed tiers are left
    /// untouched; faults naming absent tiers, and node faults, are skipped.
    pub fn apply(&self, injectors: &[(&str, &FailureInjector)]) {
        for (name, injector) in injectors {
            injector.set_seed(self.seed ^ tier_salt(name));
        }
        for fault in &self.faults {
            let Some((_, injector)) = injectors.iter().find(|(n, _)| Some(*n) == fault.tier())
            else {
                continue;
            };
            match fault {
                Fault::Outage { from, until, kind, timeout, .. } => {
                    injector.schedule(tiera_sim::FailureWindow {
                        from: *from,
                        until: *until,
                        kind: *kind,
                        timeout: *timeout,
                    })
                }
                Fault::Flap { start, down, up, cycles, kind, timeout, .. } => {
                    injector.schedule_flap(*start, *down, *up, *cycles, *kind, *timeout)
                }
                Fault::Noise { spec, .. } => injector.install(*spec),
                _ => {}
            }
        }
    }

    /// Clears every named injector (the "repair crew arrives" step).
    pub fn clear(&self, injectors: &[(&str, &FailureInjector)]) {
        for (_, injector) in injectors {
            injector.clear();
        }
    }

    /// The node-fault edges due in `(after, upto]`, where `after: None`
    /// means from the start and `upto: None` means to the end of time. They
    /// come in fault order, each fault's onset before its clearance.
    ///
    /// A run that asks for consecutive windows — `(None, t1]`, `(t1, t2]`,
    /// …, then `(tn, end]` as its final sweep — therefore sees every edge
    /// exactly once, and never a clearance before its onset (a window's
    /// clearance is never before its onset).
    pub fn edges(&self, after: Option<SimTime>, upto: Option<SimTime>) -> Vec<Edge<'_>> {
        let due = |at: SimTime| after.is_none_or(|a| at > a) && upto.is_none_or(|u| at <= u);
        let mut out = Vec::new();
        for fault in &self.faults {
            if let Some((onset, clearance)) = fault.node_window() {
                for (at, onset) in [(onset, true), (clearance, false)] {
                    if due(at) {
                        out.push(Edge { fault, onset });
                    }
                }
            }
        }
        out
    }

    /// A deterministic, line-oriented description of the schedule — the
    /// replay contract: two runs with the same seed must produce identical
    /// `describe()` output, and chaos failure reports embed it. A schedule
    /// of node faults heads itself `node-fault-schedule`.
    pub fn describe(&self) -> String {
        let nodes = self.faults.iter().any(|f| f.node_window().is_some());
        let mut out =
            format!("{}fault-schedule seed={}\n", if nodes { "node-" } else { "" }, self.seed);
        if self.faults.is_empty() {
            out.push_str("  (no faults)\n");
        }
        for fault in &self.faults {
            let line = match fault {
                Fault::Outage {
                    tier,
                    from,
                    until,
                    kind,
                    timeout,
                } => format!(
                    "outage tier={tier} ops={} from={:.3}s until={} timeout={:.3}s",
                    kind_name(*kind),
                    from.as_secs_f64(),
                    secs(*until),
                    timeout.as_secs_f64(),
                ),
                Fault::Flap {
                    tier,
                    start,
                    down,
                    up,
                    cycles,
                    kind,
                    timeout,
                } => format!(
                    "flap tier={tier} ops={} start={:.3}s down={:.3}s up={:.3}s cycles={cycles} timeout={:.3}s",
                    kind_name(*kind),
                    start.as_secs_f64(),
                    down.as_secs_f64(),
                    up.as_secs_f64(),
                    timeout.as_secs_f64(),
                ),
                Fault::Noise { tier, spec } => format!(
                    "noise tier={tier} ops={} from={:.3}s until={} error={:.4} torn={:.4} full={:.4} spike={:.4}x{:.3}s",
                    kind_name(spec.ops),
                    spec.from.as_secs_f64(),
                    secs(spec.until),
                    spec.error_prob,
                    spec.torn_prob,
                    spec.full_prob,
                    spec.spike_prob,
                    spec.spike.as_secs_f64(),
                ),
                Fault::Kill {
                    node,
                    at,
                    rejoin_at,
                } => format!(
                    "kill node={node} at={:.3}s rejoin={:.3}s",
                    at.as_secs_f64(),
                    rejoin_at.as_secs_f64()
                ),
                Fault::Partition { node, from, until } => format!(
                    "partition node={node} from={:.3}s until={:.3}s",
                    from.as_secs_f64(),
                    until.as_secs_f64()
                ),
                Fault::Slow {
                    node,
                    from,
                    until,
                    penalty,
                } => format!(
                    "slow node={node} from={:.3}s until={:.3}s penalty={:.3}s",
                    from.as_secs_f64(),
                    until.as_secs_f64(),
                    penalty.as_secs_f64()
                ),
            };
            out.push_str(&format!("  {line}\n"));
        }
        out
    }

    /// The latest instant at which any scheduled fault can still be
    /// active, or `None` if a fault is open-ended. An empty schedule
    /// clears at zero.
    pub fn clears_by(&self) -> Option<SimTime> {
        let mut latest = SimTime::ZERO;
        for fault in &self.faults {
            let end = match fault {
                Fault::Outage { until, .. } => (*until)?,
                Fault::Flap { start, down, up, cycles, .. } => {
                    let mut at = *start;
                    for _ in 0..*cycles {
                        at = at + *down + *up;
                    }
                    at
                }
                Fault::Noise { spec, .. } => spec.until?,
                _ => fault.node_window()?.1,
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
        let a = Schedule::random(42, &["mem", "ebs"], SimDuration::from_secs(600));
        let b = Schedule::random(42, &["mem", "ebs"], SimDuration::from_secs(600));
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
    }

    #[test]
    fn different_seeds_differ() {
        let horizon = SimDuration::from_secs(600);
        let base = Schedule::random(1, &["mem", "ebs"], horizon);
        assert!(
            (2..30u64).any(|s| Schedule::random(s, &["mem", "ebs"], horizon) != base),
            "30 seeds all generated the identical schedule"
        );
    }

    #[test]
    fn random_schedule_clears_before_sixty_percent_of_horizon() {
        let horizon = SimDuration::from_secs(1000);
        for seed in 0..50 {
            let s = Schedule::random(seed, &["a", "b", "c"], horizon);
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
        let s = Schedule::new(7)
            .outage("ebs", SimTime::from_secs(10), None, FailureKind::Writes)
            .flap(
                "mem",
                SimTime::from_secs(5),
                SimDuration::from_secs(2),
                SimDuration::from_secs(3),
                4,
                FailureKind::All,
            )
            .noise("ebs", FaultSpec::new(FailureKind::Reads, SimTime::ZERO, None).error(0.1));
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
        let s = Schedule::new(9).outage(
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
        let flappy = Schedule::new(0).flap(
            "t",
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            2,
            FailureKind::All,
        );
        assert_eq!(flappy.clears_by(), Some(SimTime::from_secs(20)));
        let open = Schedule::new(0).outage("t", SimTime::ZERO, None, FailureKind::All);
        assert_eq!(open.clears_by(), None);
        assert_eq!(Schedule::new(0).clears_by(), Some(SimTime::ZERO));
    }

    #[test]
    fn per_tier_streams_are_salted_apart() {
        // Same schedule applied to two tiers: their injector streams must
        // not be identical, or correlated faults would hit both tiers in
        // lockstep.
        assert_ne!(tier_salt("mem"), tier_salt("ebs"));
    }
}

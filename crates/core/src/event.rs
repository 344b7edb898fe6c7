//! Events — the trigger half of Tiera's policy mechanism.
//!
//! Paper §2.2: "Tiera supports three different kinds of events: (1) timer
//! events that occur at the end of a specified time period, (2) threshold
//! events that can be based on attributes of data objects and of the tiers
//! themselves... and (3) action events that occur when actions such as data
//! insertion or deletion are performed."
//!
//! Evaluation modes follow §3: action and threshold events are *foreground*
//! by default (evaluated synchronously, their responses charged to the
//! client request); threshold and action events may be declared
//! *background*, in which case responses are queued to the response thread
//! pool and executed asynchronously.

use tiera_sim::SimDuration;

/// The client action that fires an action event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionOp {
    /// `insert.into` — a PUT request.
    Put,
    /// A GET request.
    Get,
    /// A DELETE request.
    Delete,
}

/// A measurable quantity a threshold event watches.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Fraction of a tier's capacity in use (`tier1.filled` in the DSL),
    /// expressed in `0.0..=1.0`.
    TierFillFraction(String),
    /// Absolute bytes stored in a tier.
    TierUsedBytes(String),
}

impl Metric {
    /// The tier the metric observes.
    pub fn tier(&self) -> &str {
        match self {
            Metric::TierFillFraction(t) | Metric::TierUsedBytes(t) => t,
        }
    }
}

/// Comparison relating a metric to its threshold value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Fires when the metric reaches or exceeds the value (the DSL's
    /// `tier1.filled == 75%` means "reaches 75 %").
    AtLeast,
    /// Fires when the metric drops to or below the value.
    // A010: the falling edge Table 1's `shrink` pairs with; no spec spells it yet.
    AtMost,
}

impl Relation {
    /// Evaluates `metric_value <relation> threshold`.
    pub fn holds(self, metric_value: f64, threshold: f64) -> bool {
        match self {
            Relation::AtLeast => metric_value >= threshold,
            Relation::AtMost => metric_value <= threshold,
        }
    }
}

/// The three kinds of events Tiera supports.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Fires every `period` of virtual time.
    Timer {
        /// The repetition period.
        period: SimDuration,
    },
    /// Fires when `metric <relation> value` becomes true (edge-triggered:
    /// the rule re-arms when the condition becomes false again).
    Threshold {
        /// Observed quantity.
        metric: Metric,
        /// Comparison direction.
        relation: Relation,
        /// Threshold value (fraction for fill metrics, bytes/count
        /// otherwise).
        value: f64,
        /// `true` → responses are queued to the background pool instead of
        /// running on the triggering request's thread.
        background: bool,
    },
    /// Fires when a client action occurs, optionally only when it involves
    /// a specific tier (`insert.into == tier1`).
    Action {
        /// Which client action.
        op: ActionOp,
        /// Restrict to actions routed at this tier, if set.
        tier: Option<String>,
        /// `true` → responses run in the background.
        background: bool,
    },
}

impl EventKind {
    /// A timer event.
    pub fn timer(period: SimDuration) -> Self {
        EventKind::Timer { period }
    }

    /// A foreground action event on any tier.
    pub fn action(op: ActionOp) -> Self {
        EventKind::Action { op, tier: None, background: false }
    }

    /// A foreground action event scoped to a tier (`insert.into == tier1`).
    pub fn action_on(op: ActionOp, tier: impl Into<String>) -> Self {
        EventKind::Action { op, tier: Some(tier.into()), background: false }
    }

    /// A foreground threshold event `metric >= value`.
    pub fn threshold_at_least(metric: Metric, value: f64) -> Self {
        EventKind::Threshold { metric, relation: Relation::AtLeast, value, background: false }
    }

    /// Marks the event as background-evaluated (paper §3). No-op for timer
    /// events, which are background by nature.
    pub fn background(mut self) -> Self {
        match &mut self {
            EventKind::Threshold { background, .. } | EventKind::Action { background, .. } => {
                *background = true
            }
            EventKind::Timer { .. } => {}
        }
        self
    }

    /// Whether responses to this event run asynchronously.
    pub fn is_background(&self) -> bool {
        match self {
            EventKind::Timer { .. } => true,
            EventKind::Threshold { background, .. } | EventKind::Action { background, .. } => {
                *background
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_evaluate() {
        assert!(Relation::AtLeast.holds(0.80, 0.75));
        assert!(Relation::AtLeast.holds(0.75, 0.75));
        assert!(!Relation::AtLeast.holds(0.74, 0.75));
        assert!(Relation::AtMost.holds(0.10, 0.25));
        assert!(!Relation::AtMost.holds(0.30, 0.25));
    }

    #[test]
    fn background_marking() {
        let e = EventKind::action(ActionOp::Put);
        assert!(!e.is_background());
        assert!(e.background().is_background());
        // Timers are inherently background.
        assert!(EventKind::timer(SimDuration::from_secs(1)).is_background());
    }

    #[test]
    fn metric_names_its_tier_or_object() {
        assert_eq!(Metric::TierFillFraction("t1".into()).tier(), "t1");
        assert_eq!(Metric::TierUsedBytes("t2".into()).tier(), "t2");
    }

    #[test]
    fn action_scoping() {
        let e = EventKind::action_on(ActionOp::Put, "tier1");
        match e {
            EventKind::Action { op, tier, .. } => {
                assert_eq!(op, ActionOp::Put);
                assert_eq!(tier.as_deref(), Some("tier1"));
            }
            _ => panic!(),
        }
    }
}

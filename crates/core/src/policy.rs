//! Rules and runtime-mutable policies.
//!
//! "An important aspect of Tiera's novelty lies in the ability to
//! dynamically modify, add, or replace policies while running" (paper
//! §4.2.3). A [`Policy`] is a rule set behind a `RwLock`; rules carry
//! stable [`RuleId`]s so they can be removed or replaced while the
//! instance serves traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_support::sync::{rank, RwLock};
use tiera_sim::SimTime;

use crate::event::EventKind;
use crate::response::ResponseSpec;

/// Stable identifier of a rule within a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

/// An event with its associated responses.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The triggering event.
    pub event: EventKind,
    /// Responses executed (in order) when the event fires.
    pub responses: Vec<ResponseSpec>,
    /// Human-readable label for diagnostics.
    pub label: Option<String>,
}

impl Rule {
    /// Starts a rule triggered by `event`.
    pub fn on(event: EventKind) -> Self {
        Self {
            event,
            responses: Vec::new(),
            label: None,
        }
    }

    /// Appends a response.
    pub fn respond(mut self, response: ResponseSpec) -> Self {
        self.responses.push(response);
        self
    }

    /// Sets a diagnostic label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Per-rule mutable trigger state (timer phase / threshold arming).
#[derive(Debug, Clone)]
pub(crate) struct RuleState {
    /// Timer: when the rule last fired.
    pub last_fired: SimTime,
    /// Threshold: `true` when the rule may fire on the next crossing
    /// (edge-triggering — fire once per crossing, re-arm when the condition
    /// clears).
    pub armed: bool,
}

impl Default for RuleState {
    fn default() -> Self {
        Self {
            last_fired: SimTime::ZERO,
            armed: true,
        }
    }
}

/// An installed rule, with its id and trigger state. The rule itself is
/// shared: a firing hands the dispatcher (and any background work item it
/// queues) the `Arc`, never a copy of the response tree.
#[derive(Debug, Clone)]
pub(crate) struct InstalledRule {
    pub id: RuleId,
    pub rule: Arc<Rule>,
    pub state: RuleState,
}

impl InstalledRule {
    fn new(id: RuleId, rule: Rule) -> Self {
        Self {
            id,
            rule: Arc::new(rule),
            state: RuleState::default(),
        }
    }
}

/// A runtime-mutable set of rules.
///
/// Cloning the handle shares the underlying policy (it is an
/// `Arc<RwLock<..>>` internally), matching how a monitoring application and
/// the instance share one policy (paper §4.2.3's failover scenario).
#[derive(Clone)]
pub struct Policy {
    inner: Arc<RwLock<Vec<InstalledRule>>>,
    next_id: Arc<AtomicU64>,
}

impl Default for Policy {
    fn default() -> Self {
        Self {
            inner: Arc::new(RwLock::named("policy.rules", rank::POLICY_RULES, Vec::new())),
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Policy {
    /// An empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a rule, returning its id.
    pub fn add(&self, rule: Rule) -> RuleId {
        let id = RuleId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.inner.write().push(InstalledRule::new(id, rule));
        id
    }

    /// Removes a rule; returns whether it existed.
    pub fn remove(&self, id: RuleId) -> bool {
        let mut rules = self.inner.write();
        let before = rules.len();
        rules.retain(|r| r.id != id);
        rules.len() != before
    }

    /// Atomically replaces a rule's event/responses, keeping its id and
    /// resetting trigger state. Returns whether the rule existed.
    pub fn replace(&self, id: RuleId, rule: Rule) -> bool {
        let mut rules = self.inner.write();
        for installed in rules.iter_mut() {
            if installed.id == id {
                *installed = InstalledRule::new(id, rule);
                return true;
            }
        }
        false
    }

    /// Atomically replaces the entire rule set (policy swap).
    pub fn replace_all(&self, rules: impl IntoIterator<Item = Rule>) -> Vec<RuleId> {
        let mut out = Vec::new();
        let mut new_rules = Vec::new();
        for rule in rules {
            let id = RuleId(self.next_id.fetch_add(1, Ordering::Relaxed));
            out.push(id);
            new_rules.push(InstalledRule::new(id, rule));
        }
        *self.inner.write() = new_rules;
        out
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of `(id, rule)` pairs for inspection.
    pub fn snapshot(&self) -> Vec<(RuleId, Rule)> {
        self.inner
            .read()
            .iter()
            .map(|r| (r.id, Rule::clone(&r.rule)))
            .collect()
    }

    /// Internal access for the instance's dispatcher (mutates trigger
    /// state, so it takes the write lock — timer and threshold paths only).
    pub(crate) fn with_rules<R>(&self, f: impl FnOnce(&mut Vec<InstalledRule>) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Read-only rule access for the action hot path: concurrent PUT/GET
    /// threads match rules under the shared lock and never serialize on the
    /// policy unless a rule is actually being installed or fired-with-state.
    pub(crate) fn with_rules_read<R>(&self, f: impl FnOnce(&[InstalledRule]) -> R) -> R {
        f(&self.inner.read())
    }

    /// Whether any threshold rule is installed. Cheap pre-check letting
    /// [`eval_thresholds`](crate::Instance) skip the write lock entirely on
    /// the (common) policies with no threshold rules.
    pub(crate) fn has_threshold_rules(&self) -> bool {
        self.inner
            .read()
            .iter()
            .any(|r| matches!(r.rule.event, EventKind::Threshold { .. }))
    }
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rules = self.inner.read();
        f.debug_struct("Policy").field("rules", &rules.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActionOp;
    use crate::selector::Selector;

    fn put_rule() -> Rule {
        Rule::on(EventKind::action(ActionOp::Put))
            .respond(ResponseSpec::store(Selector::Inserted, ["tier1"]))
            .labeled("placement")
    }

    #[test]
    fn add_remove_replace() {
        let p = Policy::new();
        let id = p.add(put_rule());
        assert_eq!(p.len(), 1);
        assert!(p.replace(id, put_rule().labeled("updated")));
        assert_eq!(p.snapshot()[0].1.label.as_deref(), Some("updated"));
        assert!(p.remove(id));
        assert!(!p.remove(id), "second remove is a no-op");
        assert!(p.is_empty());
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let p = Policy::new();
        let a = p.add(put_rule());
        let b = p.add(put_rule());
        assert_ne!(a, b);
        p.remove(a);
        let c = p.add(put_rule());
        assert_ne!(b, c);
    }

    #[test]
    fn replace_all_swaps_policy() {
        let p = Policy::new();
        p.add(put_rule());
        p.add(put_rule());
        let ids = p.replace_all([put_rule()]);
        assert_eq!(ids.len(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let p = Policy::new();
        let p2 = p.clone();
        p.add(put_rule());
        assert_eq!(p2.len(), 1, "clone observes additions");
    }
}

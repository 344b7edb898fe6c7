//! Rules, runtime-mutable policies, and the configuration snapshot they
//! publish into.
//!
//! "An important aspect of Tiera's novelty lies in the ability to
//! dynamically modify, add, or replace policies while running" (paper
//! §4.2.3). An instance's tiers, rules, retry policy and control-layer
//! switch live in one immutable `Config`, published through one cell
//! (`instance.config`): a change builds a new `Config` from the current
//! one under the cell's write lock and swaps it in, and an operation loads
//! the current one once and runs under it to the end. A [`Policy`] is the
//! handle that publishes rule changes; rules carry stable [`RuleId`]s so
//! they can be removed or replaced while the instance serves traffic.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tiera_sim::SimTime;
use tiera_support::sync::{rank, RwLock};

use crate::error::{Result, TieraError};
use crate::event::{ActionOp, EventKind};
use crate::response::ResponseSpec;
use crate::retry::RetryPolicy;
use crate::tier::{TierHandle, TierId};

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
        Self { event, responses: Vec::new(), label: None }
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

/// An installed rule with its id and trigger state. Every `Config` that
/// holds the rule shares it, so a publish that leaves the rule alone keeps
/// its timer phase and threshold arming; a firing (and any background work
/// item it queues) hands on the `Arc`, never a copy of the response tree.
#[derive(Debug)]
pub(crate) struct InstalledRule {
    pub id: RuleId,
    pub rule: Rule,
    /// Timer: when the rule last fired (virtual nanoseconds).
    last_fired: AtomicU64,
    /// Threshold: whether the rule may fire on the next crossing
    /// (edge-triggering: fire once per crossing, re-arm when the condition
    /// clears).
    armed: AtomicBool,
}

impl InstalledRule {
    pub(crate) fn new(id: RuleId, rule: Rule) -> Arc<Self> {
        Arc::new(Self { id, rule, last_fired: AtomicU64::new(0), armed: AtomicBool::new(true) })
    }

    pub(crate) fn responses(&self) -> &[ResponseSpec] {
        &self.rule.responses
    }

    /// Claims the timer's next period if it ends by `now`, returning its
    /// end. Each claim advances `last_fired` one period by compare-exchange,
    /// so concurrent pumps fire every period exactly once.
    pub(crate) fn claim_period(&self, now: SimTime) -> Option<SimTime> {
        let period = match self.rule.event {
            EventKind::Timer { period } if period.as_nanos() > 0 => period.as_nanos(),
            _ => return None,
        };
        let next = |last: u64| Some(last + period).filter(|next| *next <= now.as_nanos());
        let last = self.last_fired.fetch_update(Ordering::AcqRel, Ordering::Acquire, next);
        last.ok().map(|last| SimTime::from_nanos(last + period))
    }

    /// Records whether the threshold's condition holds; `true` when this
    /// call is the crossing that fires the rule.
    pub(crate) fn cross(&self, holds: bool) -> bool {
        if holds {
            self.armed.compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire).is_ok()
        } else {
            self.armed.store(true, Ordering::Release);
            false
        }
    }
}

/// An attached tier and its interned name, resolved once at attach time.
#[derive(Clone)]
pub(crate) struct Attached {
    pub id: TierId,
    /// `tier.tier_traits().durable` (traits are static properties).
    pub durable: bool,
    pub tier: TierHandle,
}

/// An action rule as the index holds it, its tier scope resolved.
pub(crate) struct ActionRule {
    /// `None`: actions on any tier.
    scope: Option<TierId>,
    pub background: bool,
    pub rule: Arc<InstalledRule>,
}

/// What a publish edits: a configuration before it is indexed.
#[derive(Clone)]
pub(crate) struct Draft {
    /// Attached tiers in preference order.
    pub tiers: Arc<[Attached]>,
    /// Every rule, in install order.
    pub rules: Vec<Arc<InstalledRule>>,
    /// `None` is the trivial policy: one attempt, no failover.
    pub retry: Option<RetryPolicy>,
    /// Figure 18 ablation switch: with the control layer off, PUT/GET go
    /// straight to the default tier with no event evaluation.
    pub control_layer: bool,
    next_id: u64,
}

impl Default for Draft {
    fn default() -> Self {
        Self {
            tiers: Arc::new([]),
            rules: Vec::new(),
            retry: None,
            control_layer: true,
            next_id: 0,
        }
    }
}

impl Draft {
    /// Attaches a tier at the end of the preference order.
    pub(crate) fn attach(&mut self, tier: TierHandle) -> Result<()> {
        if self.tiers.iter().any(|t| t.id == tier.name()) {
            return Err(TieraError::InvalidConfig(format!(
                "tier {} already attached",
                tier.name()
            )));
        }
        let (id, durable) = (TierId::from(tier.name()), tier.tier_traits().durable);
        self.tiers = self.tiers.iter().cloned().chain([Attached { id, durable, tier }]).collect();
        Ok(())
    }

    /// Detaches the tier called `name`.
    pub(crate) fn detach(&mut self, name: &str) -> Result<()> {
        if !self.tiers.iter().any(|t| t.id == name) {
            return Err(TieraError::NoSuchTier(name.to_string()));
        }
        self.tiers = self.tiers.iter().filter(|t| t.id != name).cloned().collect();
        Ok(())
    }

    /// Installs `rule` under a fresh id, trusting it.
    pub(crate) fn install(&mut self, rule: Rule) -> RuleId {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.rules.push(InstalledRule::new(id, rule));
        id
    }

    /// Installs `rule` once [`validate`] accepts it against these tiers.
    pub(crate) fn install_checked(&mut self, rule: Rule) -> Result<RuleId> {
        validate(&self.tiers, &rule)?;
        Ok(self.install(rule))
    }
}

/// Checks a rule against `tiers`: every tier it scopes, observes, or
/// targets must be attached, and a timer period must be positive.
pub(crate) fn validate(tiers: &[Attached], rule: &Rule) -> Result<()> {
    if matches!(rule.event, EventKind::Timer { period } if period.as_nanos() == 0) {
        return Err(TieraError::InvalidConfig("timer rule has a zero period".to_string()));
    }
    let scope = match &rule.event {
        EventKind::Threshold { metric, .. } => Some(metric.tier()),
        EventKind::Action { tier, .. } => tier.as_deref(),
        EventKind::Timer { .. } => None,
    };
    let targets = rule.responses.iter().flat_map(|r| r.referenced_tiers());
    match scope.into_iter().chain(targets).find(|name| !tiers.iter().any(|t| t.id == *name)) {
        Some(name) => {
            Err(TieraError::InvalidConfig(format!("rule references unattached tier {name}")))
        }
        None => Ok(()),
    }
}

/// One immutable configuration: a [`Draft`]'s tiers, rules, retry policy
/// and control-layer switch (reached through `Deref`), with the rules
/// indexed the way operations look them up.
pub(crate) struct Config {
    base: Draft,
    /// Action rules per [`ActionOp`], in install order.
    actions: [Vec<ActionRule>; 3],
    pub thresholds: Vec<Arc<InstalledRule>>,
    pub timers: Vec<Arc<InstalledRule>>,
}

impl std::ops::Deref for Config {
    type Target = Draft;

    fn deref(&self) -> &Draft {
        &self.base
    }
}

impl Config {
    fn new(draft: Draft) -> Self {
        let mut actions: [Vec<ActionRule>; 3] = Default::default();
        let (mut thresholds, mut timers) = (Vec::new(), Vec::new());
        for installed in &draft.rules {
            let rule = Arc::clone(installed);
            match &installed.rule.event {
                EventKind::Action { op, tier, background } => {
                    // A scope naming no attached tier matches nothing.
                    let scope = match tier {
                        None => None,
                        Some(name) => match draft.tiers.iter().find(|t| t.id == name.as_str()) {
                            Some(t) => Some(t.id),
                            None => continue,
                        },
                    };
                    let background = *background;
                    actions[*op as usize].push(ActionRule { scope, background, rule });
                }
                EventKind::Threshold { .. } => thresholds.push(rule),
                EventKind::Timer { .. } => timers.push(rule),
            }
        }
        Self { base: draft, actions, thresholds, timers }
    }

    /// The action rules an `op` routed at `tier` fires, in install order.
    pub(crate) fn actions(
        &self,
        op: ActionOp,
        tier: TierId,
    ) -> impl Iterator<Item = &ActionRule> + Clone {
        self.actions[op as usize].iter().filter(move |a| a.scope.is_none_or(|s| s == tier))
    }

    /// The attached tier called `name`, compared by name: rules carry
    /// names, and an instance has a handful of tiers.
    pub(crate) fn attached(&self, name: &str) -> Result<&Attached> {
        self.tiers
            .iter()
            .find(|t| t.id == name)
            .ok_or_else(|| TieraError::NoSuchTier(name.to_string()))
    }

    /// The attached tier with this id (object locations carry ids); `None`
    /// once it is detached.
    pub(crate) fn tier_by_id(&self, id: TierId) -> Option<&TierHandle> {
        self.tiers.iter().find(|t| t.id == id).map(|t| &t.tier)
    }

    /// The first attached tier: the implicit placement target.
    pub(crate) fn default_tier(&self) -> Result<&Attached> {
        self.tiers.first().ok_or_else(|| TieraError::InvalidConfig("instance has no tiers".into()))
    }
}

/// The handle that publishes rule changes into an instance's configuration.
///
/// Cloning the handle shares the configuration cell, matching how a
/// monitoring application and the instance share one policy (paper
/// §4.2.3's failover scenario). `InstanceBuilder::build` makes one per
/// instance; a `Policy::new()` handle publishes into a cell of its own.
#[derive(Clone)]
pub struct Policy {
    config: Arc<RwLock<Arc<Config>>>,
}

impl Default for Policy {
    fn default() -> Self {
        Self::over(Draft::default())
    }
}

impl Policy {
    /// An empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy publishing into a new cell that holds `draft`.
    pub(crate) fn over(draft: Draft) -> Self {
        let config = Arc::new(Config::new(draft));
        Self { config: Arc::new(RwLock::named("instance.config", rank::INSTANCE_CONFIG, config)) }
    }

    /// The current configuration.
    pub(crate) fn load(&self) -> Arc<Config> {
        Arc::clone(&self.config.read())
    }

    /// Publishes what `edit` makes of the current configuration, unless it
    /// refuses. Edits are serialized by the cell's write lock, so a check
    /// inside `edit` holds for the configuration it publishes.
    pub(crate) fn publish<R, E>(
        &self,
        edit: impl FnOnce(&mut Draft) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E> {
        let mut cell = self.config.write();
        let mut draft = cell.base.clone();
        let out = edit(&mut draft)?;
        *cell = Arc::new(Config::new(draft));
        Ok(out)
    }

    /// [`Self::publish`] for an edit that cannot refuse.
    pub(crate) fn apply<R>(&self, edit: impl FnOnce(&mut Draft) -> R) -> R {
        let Ok(out) = self.publish(|d| Ok::<R, Infallible>(edit(d)));
        out
    }

    /// Installs a rule, returning its id.
    pub fn add(&self, rule: Rule) -> RuleId {
        self.apply(|d| d.install(rule))
    }

    /// Removes a rule; returns whether it existed.
    pub fn remove(&self, id: RuleId) -> bool {
        self.apply(|d| {
            let before = d.rules.len();
            d.rules.retain(|r| r.id != id);
            d.rules.len() != before
        })
    }

    /// Atomically replaces a rule's event/responses, keeping its id and
    /// resetting trigger state. Returns whether the rule existed.
    pub fn replace(&self, id: RuleId, rule: Rule) -> bool {
        self.apply(|d| match d.rules.iter_mut().find(|r| r.id == id) {
            Some(installed) => {
                *installed = InstalledRule::new(id, rule);
                true
            }
            None => false,
        })
    }

    /// Atomically replaces the entire rule set (policy swap).
    pub fn replace_all(&self, rules: impl IntoIterator<Item = Rule>) -> Vec<RuleId> {
        self.apply(|d| {
            d.rules.clear();
            rules.into_iter().map(|rule| d.install(rule)).collect()
        })
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.load().rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of `(id, rule)` pairs for inspection.
    pub fn snapshot(&self) -> Vec<(RuleId, Rule)> {
        self.load().rules.iter().map(|r| (r.id, r.rule.clone())).collect()
    }
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Policy").field("rules", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ActionOp, Metric};
    use crate::selector::Selector;
    use crate::tier::MemTier;
    use tiera_sim::SimDuration;
    use tiera_support::prop::gen;
    use tiera_support::prop_check;

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

    #[test]
    fn trigger_state_survives_a_publish_and_replace_resets_it() {
        let p = Policy::new();
        let every_10s = || Rule::on(EventKind::timer(SimDuration::from_secs(10)));
        let timer = p.add(every_10s());
        p.add(Rule::on(EventKind::threshold_at_least(Metric::TierUsedBytes("t".into()), 1.0)));
        let at = SimTime::from_secs;
        let before = p.load();
        assert_eq!(before.timers[0].claim_period(at(25)), Some(at(10)));
        assert_eq!(before.timers[0].claim_period(at(25)), Some(at(20)));
        assert!(before.thresholds[0].cross(true), "armed: the first crossing fires");
        p.add(put_rule());
        let after = p.load();
        assert_eq!(after.timers[0].claim_period(at(25)), None, "phase kept");
        assert!(!after.thresholds[0].cross(true), "still disarmed");
        assert!(!after.thresholds[0].cross(false) && after.thresholds[0].cross(true));
        assert!(p.replace(timer, every_10s()));
        assert_eq!(p.load().timers[0].claim_period(at(25)), Some(at(10)), "replace resets");
    }

    /// The index returns exactly what a linear filter over every installed
    /// rule returned before it existed, in install order, for any rule list
    /// and any `(op, attached tier)` query.
    #[test]
    fn prop_the_action_index_equals_the_linear_filter() {
        const TIERS: [&str; 4] = ["p1", "p2", "p3", "p4"];
        const OPS: [ActionOp; 3] = [ActionOp::Put, ActionOp::Get, ActionOp::Delete];
        fn linear(
            rules: &[Arc<InstalledRule>],
            op: ActionOp,
            into_tier: &str,
        ) -> Vec<(RuleId, bool)> {
            rules
                .iter()
                .filter_map(|installed| match &installed.rule.event {
                    EventKind::Action { op: rule_op, tier, background }
                        if *rule_op == op
                            && tier.as_deref().map(|t| t == into_tier).unwrap_or(true) =>
                    {
                        Some((installed.id, *background))
                    }
                    _ => None,
                })
                .collect()
        }
        prop_check!(cases = 64, |rng| {
            let mut draft = Draft::default();
            for name in TIERS.iter().take(gen::usize_in(rng, 1..4)) {
                draft.attach(MemTier::with_capacity(*name, 1024)).unwrap();
            }
            for _ in 0..gen::usize_in(rng, 0..24) {
                let event = match gen::usize_in(rng, 0..10) {
                    0 => EventKind::timer(SimDuration::from_secs(gen::u64_in(rng, 1..60))),
                    1 => EventKind::threshold_at_least(
                        Metric::TierFillFraction((*gen::pick(rng, &TIERS)).into()),
                        0.5,
                    ),
                    _ => EventKind::Action {
                        op: *gen::pick(rng, &OPS),
                        // p4 is never attached: a scope that matches nothing.
                        tier: gen::boolean(rng).then(|| (*gen::pick(rng, &TIERS)).to_string()),
                        background: gen::boolean(rng),
                    },
                };
                draft.install(Rule::on(event));
            }
            let config = Config::new(draft);
            for attached in config.tiers.iter() {
                for op in OPS {
                    let indexed: Vec<(RuleId, bool)> = config
                        .actions(op, attached.id)
                        .map(|a| (a.rule.id, a.background))
                        .collect();
                    assert_eq!(
                        indexed,
                        linear(&config.rules, op, attached.id.name()),
                        "{op:?} on {}",
                        attached.id
                    );
                }
            }
            let kinds = |f: fn(&EventKind) -> bool| -> Vec<RuleId> {
                config.rules.iter().filter(|r| f(&r.rule.event)).map(|r| r.id).collect()
            };
            let ids = |list: &[Arc<InstalledRule>]| -> Vec<RuleId> {
                list.iter().map(|r| r.id).collect()
            };
            assert_eq!(ids(&config.timers), kinds(|e| matches!(e, EventKind::Timer { .. })));
            assert_eq!(
                ids(&config.thresholds),
                kinds(|e| matches!(e, EventKind::Threshold { .. }))
            );
        });
    }
}

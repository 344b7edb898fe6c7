//! Fluent construction of Tiera instances.
//!
//! Programs can build instances directly with [`InstanceBuilder`]; the
//! `tiera-spec` crate compiles the paper's specification DSL (Figures 3–6)
//! down to the same builder calls.

use std::sync::Arc;

use tiera_sim::SimEnv;

use crate::error::{Result, TieraError};
use crate::instance::Instance;
use crate::policy::{Draft, Policy, Rule};
use crate::registry::Registry;
use crate::tier::TierHandle;

/// Builder for [`Instance`].
pub struct InstanceBuilder {
    name: String,
    env: SimEnv,
    tiers: Vec<TierHandle>,
    rules: Vec<Rule>,
    metadata_dir: Option<std::path::PathBuf>,
}

impl InstanceBuilder {
    /// Starts a builder for an instance called `name`.
    pub fn new(name: impl Into<String>, env: SimEnv) -> Self {
        Self { name: name.into(), env, tiers: Vec::new(), rules: Vec::new(), metadata_dir: None }
    }

    /// Attaches a tier. Order matters: the first tier is the default
    /// placement target and the most preferred read source.
    pub fn tier<T: crate::tier::Tier + 'static>(mut self, tier: std::sync::Arc<T>) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Attaches an already-erased tier handle.
    pub fn tier_handle(mut self, tier: TierHandle) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Installs a rule.
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Persists object metadata under `dir` (the paper's BerkeleyDB role).
    pub fn metadata_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.metadata_dir = Some(dir.into());
        self
    }

    /// Validates and builds the instance.
    ///
    /// Validation checks that at least one tier exists, that tier names
    /// are unique, and that every rule passes the checks
    /// [`Instance::install_rule`] makes: each tier it scopes, observes, or
    /// targets is attached, and a timer period is positive.
    pub fn build(self) -> Result<Arc<Instance>> {
        if self.tiers.is_empty() {
            return Err(TieraError::InvalidConfig(format!("instance {} has no tiers", self.name)));
        }
        let mut draft = Draft::default();
        for tier in self.tiers {
            draft.attach(tier)?;
        }
        for rule in self.rules {
            draft.install_checked(rule)?;
        }
        let registry = match &self.metadata_dir {
            Some(dir) => Registry::persistent(dir)?,
            None => Registry::in_memory(),
        };
        let policy = Policy::over(draft);
        Ok(Arc::new(Instance::new(self.name, self.env, policy, registry)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ActionOp, EventKind, Metric};
    use crate::response::ResponseSpec;
    use crate::selector::Selector;
    use crate::tier::MemTier;

    #[test]
    fn build_minimal_instance() {
        let inst = InstanceBuilder::new("mini", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 1024))
            .build()
            .unwrap();
        assert_eq!(inst.name(), "mini");
        assert_eq!(inst.tier_names(), vec!["t1"]);
    }

    #[test]
    fn no_tiers_rejected() {
        let err = InstanceBuilder::new("empty", SimEnv::new(1)).build();
        assert!(matches!(err, Err(TieraError::InvalidConfig(_))));
    }

    #[test]
    fn duplicate_tier_names_rejected() {
        let err = InstanceBuilder::new("dup", SimEnv::new(1))
            .tier(MemTier::with_capacity("t", 10))
            .tier(MemTier::with_capacity("t", 10))
            .build();
        assert!(matches!(err, Err(TieraError::InvalidConfig(_))));
    }

    #[test]
    fn threshold_on_unknown_tier_rejected() {
        let err = InstanceBuilder::new("bad-threshold", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 10))
            .rule(Rule::on(EventKind::threshold_at_least(
                Metric::TierFillFraction("ghost".into()),
                0.5,
            )))
            .build();
        assert!(matches!(err, Err(TieraError::InvalidConfig(_))));
    }

    #[test]
    fn action_scoped_to_unknown_tier_rejected() {
        let err = InstanceBuilder::new("bad-scope", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 10))
            .rule(
                Rule::on(EventKind::action_on(ActionOp::Put, "ghost"))
                    .respond(ResponseSpec::store(Selector::Inserted, ["t1"])),
            )
            .build();
        assert!(matches!(err, Err(TieraError::InvalidConfig(_))));
    }

    #[test]
    fn rule_referencing_unknown_tier_rejected() {
        let err = InstanceBuilder::new("bad-rule", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 10))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["ghost"])),
            )
            .build();
        assert!(matches!(err, Err(TieraError::InvalidConfig(_))));
    }
}

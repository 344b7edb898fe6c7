//! Tier catalog: maps tier *type* names to factories.
//!
//! The paper's specification files name tier types symbolically ("It is
//! assumed that the specific tier names (e.g. Memcached and EBS) are known
//! to Tiera", §2.3). A [`TierCatalog`] is that name → implementation
//! binding: the `tiera-spec` compiler looks up `name: Memcached` here when
//! materializing an instance, and `tiera-tiers` provides a catalog
//! pre-populated with the four simulated Amazon services.

use std::sync::Arc;

use crate::error::{Result, TieraError};
use crate::tier::TierHandle;
use tiera_support::collections::FxHashMap;

/// Factory producing a tier given `(instance tier label, capacity bytes)`.
pub type TierFactory = Arc<dyn Fn(&str, u64) -> TierHandle + Send + Sync>;

/// Registry of known tier types.
#[derive(Clone, Default)]
pub struct TierCatalog {
    factories: FxHashMap<String, TierFactory>,
}

impl TierCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tier type (case-insensitive lookup).
    pub fn register<F>(&mut self, type_name: impl Into<String>, factory: F)
    where
        F: Fn(&str, u64) -> TierHandle + Send + Sync + 'static,
    {
        self.factories.insert(type_name.into().to_ascii_lowercase(), Arc::new(factory));
    }

    /// Instantiates a tier of `type_name` labeled `label` with `capacity`
    /// bytes.
    pub fn create(&self, type_name: &str, label: &str, capacity: u64) -> Result<TierHandle> {
        let factory = self
            .factories
            .get(&type_name.to_ascii_lowercase())
            .ok_or_else(|| TieraError::InvalidConfig(format!("unknown tier type: {type_name}")))?;
        Ok(factory(label, capacity))
    }

    /// Registered type names (lowercased), sorted.
    pub fn type_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.factories.keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Debug for TierCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierCatalog").field("types", &self.type_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::MemTier;
    use tiera_sim::SimTime;

    fn catalog() -> TierCatalog {
        let mut c = TierCatalog::new();
        c.register("Memcached", |label, cap| MemTier::with_capacity(label, cap) as TierHandle);
        c
    }

    #[test]
    fn create_known_type_case_insensitive() {
        let c = catalog();
        let t = c.create("memcached", "tier1", 1024).unwrap();
        assert_eq!(t.name(), "tier1");
        assert_eq!(t.capacity(SimTime::ZERO), 1024);
        assert!(c.create("MEMCACHED", "tier2", 1).is_ok());
    }

    #[test]
    fn unknown_type_rejected() {
        let c = catalog();
        assert!(matches!(c.create("FloppyDisk", "t", 1), Err(TieraError::InvalidConfig(_))));
    }

    #[test]
    fn type_names_sorted() {
        let mut c = catalog();
        c.register("EBS", |l, cap| MemTier::with_capacity(l, cap) as TierHandle);
        assert_eq!(c.type_names(), vec!["ebs", "memcached"]);
    }
}

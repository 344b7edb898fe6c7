//! Object selectors — the `what:` argument of responses.
//!
//! Paper §2.2: "Events may be defined on individual named objects or object
//! classes, the latter allowing a single policy to apply to object
//! collections (sharing a common tag)." Responses likewise target object
//! sets: the inserted object (`insert.object`), location/dirty predicates
//! (`object.location == tier1 && object.dirty == true`), tag classes, or
//! the oldest/newest object in a tier (the LRU/MRU idiom of Figure 5).

use crate::object::{ObjectKey, Tag};

/// Selects the set of objects a response applies to.
#[derive(Debug, Clone, PartialEq)]
pub enum Selector {
    /// `insert.object` — the object the triggering action carried.
    Inserted,
    /// A single named object.
    Key(ObjectKey),
    /// Every object in the instance.
    All,
    /// `object.location == <tier>`.
    InTier(String),
    /// `object.dirty == true`.
    Dirty,
    /// Objects carrying a tag (object classes).
    Tagged(Tag),
    /// `tierN.oldest` — least recently accessed object located in a tier.
    OldestIn(String),
    /// `tierN.newest` — most recently accessed object located in a tier.
    NewestIn(String),
    /// Conjunction of two selectors.
    And(Box<Selector>, Box<Selector>),
    /// Negation (set complement). Most useful in conjunctions, e.g.
    /// `Inserted && !Tagged("redo-log")` to route an object class away
    /// from the default placement.
    Not(Box<Selector>),
}

impl Selector {
    /// Conjunction helper: `a.and(b)`.
    pub fn and(self, other: Selector) -> Selector {
        Selector::And(Box::new(self), Box::new(other))
    }

    /// Negation helper: `a.negate()`.
    pub fn negate(self) -> Selector {
        Selector::Not(Box::new(self))
    }

    /// Whether this selector can only ever match the inserted object.
    pub fn is_inserted_only(&self) -> bool {
        match self {
            Selector::Inserted => true,
            Selector::And(a, b) => a.is_inserted_only() || b.is_inserted_only(),
            Selector::Not(_) => false,
            _ => false,
        }
    }

    /// Tier names referenced by the selector (used to validate rules against
    /// an instance's attached tiers).
    pub fn referenced_tiers(&self) -> Vec<&str> {
        match self {
            Selector::InTier(t) | Selector::OldestIn(t) | Selector::NewestIn(t) => vec![t],
            Selector::And(a, b) => {
                let mut v = a.referenced_tiers();
                v.extend(b.referenced_tiers());
                v
            }
            Selector::Not(inner) => inner.referenced_tiers(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_builds_conjunctions() {
        let s = Selector::InTier("tier1".into()).and(Selector::Dirty);
        match &s {
            Selector::And(a, b) => {
                assert_eq!(**a, Selector::InTier("tier1".into()));
                assert_eq!(**b, Selector::Dirty);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn inserted_only_detection() {
        assert!(Selector::Inserted.is_inserted_only());
        assert!(Selector::Inserted.and(Selector::Dirty).is_inserted_only());
        assert!(!Selector::Dirty.is_inserted_only());
        assert!(!Selector::All.is_inserted_only());
    }

    #[test]
    fn negation_builds_and_collects() {
        let s = Selector::Tagged(crate::object::Tag::new("tmp")).negate();
        assert!(matches!(s, Selector::Not(_)));
        let t = Selector::InTier("a".into()).negate();
        assert_eq!(t.referenced_tiers(), vec!["a"]);
        assert!(!Selector::Inserted.negate().is_inserted_only());
    }

    #[test]
    fn referenced_tiers_collects() {
        let s = Selector::InTier("a".into()).and(Selector::OldestIn("b".into()));
        let mut tiers = s.referenced_tiers();
        tiers.sort_unstable();
        assert_eq!(tiers, vec!["a", "b"]);
        assert!(Selector::Dirty.referenced_tiers().is_empty());
    }
}

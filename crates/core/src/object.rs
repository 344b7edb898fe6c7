//! Object identity and tagging.
//!
//! Paper §2.1: "An object stored using Tiera can be accessed by the
//! application using a globally unique identifier that acts as the key...
//! It is left to the application to decide the keyspace." Tags "provide a
//! method to add structure to the object name space" and let policies apply
//! to object classes.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A globally unique object identifier.
///
/// Cheap to clone (`Arc<str>`); ordered and hashable so it can index
/// metadata maps.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectKey(Arc<str>);

impl ObjectKey {
    /// Creates a key from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        ObjectKey(Arc::from(s.as_ref()))
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectKey({})", self.0)
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::new(s)
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> Self {
        ObjectKey::new(s)
    }
}

impl From<&String> for ObjectKey {
    fn from(s: &String) -> Self {
        ObjectKey::new(s)
    }
}

impl AsRef<str> for ObjectKey {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A map keyed by `ObjectKey` answers `&str` lookups: the derived `Eq`,
/// `Ord` and `Hash` are those of the string.
impl Borrow<str> for ObjectKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A tag attached to objects to form object classes (paper §2.1).
///
/// Example: a `tmp` tag on temporary files lets a policy route the whole
/// class to inexpensive volatile storage.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(Arc<str>);

impl Tag {
    /// Creates a tag.
    pub fn new(s: impl AsRef<str>) -> Self {
        Tag(Arc::from(s.as_ref()))
    }

    /// The tag text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Tag {
    fn from(s: &str) -> Self {
        Tag::new(s)
    }
}

impl From<String> for Tag {
    fn from(s: String) -> Self {
        Tag::new(s)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tag({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrips_and_orders() {
        let a = ObjectKey::new("a");
        let b: ObjectKey = "b".into();
        assert!(a < b);
        assert_eq!(a.as_str(), "a");
        assert_eq!(a.to_string(), "a");
        assert_eq!(a, ObjectKey::new(String::from("a")));
    }

    #[test]
    fn keys_are_cheap_clones() {
        let a = ObjectKey::new("shared");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
    }

    #[test]
    fn maps_keyed_by_object_key_answer_str_lookups() {
        let mut ordered = std::collections::BTreeMap::new();
        let mut hashed = tiera_support::collections::FxHashMap::default();
        for name in ["b", "a", "c"] {
            ordered.insert(ObjectKey::new(name), name.len());
            hashed.insert(ObjectKey::new(name), name.len());
        }
        assert_eq!(ordered.get("a"), Some(&1));
        assert_eq!(hashed.get("c"), Some(&1));
        assert!(!hashed.contains_key("d"));
    }

    #[test]
    fn tags_compare_by_content() {
        let t1: Tag = "tmp".into();
        let t2 = Tag::from("tmp".to_string());
        assert_eq!(t1, t2);
        assert_eq!(t1.to_string(), "tmp");
    }
}

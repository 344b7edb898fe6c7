//! Object identity and tagging.
//!
//! Paper §2.1: "An object stored using Tiera can be accessed by the
//! application using a globally unique identifier that acts as the key...
//! It is left to the application to decide the keyspace." Tags "provide a
//! method to add structure to the object name space" and let policies apply
//! to object classes.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The longest key held inline, in bytes.
const INLINE_KEY: usize = 22;

/// A globally unique object identifier.
///
/// 24 bytes. A key of at most 22 bytes lives inline, so it costs no heap
/// allocation and a clone is a copy; a longer one is a shared `Arc<str>`,
/// so its clones share one allocation. Ordered and hashable by its bytes,
/// exactly as the `str` it holds, so it can index metadata maps and a map
/// keyed by it answers `&str` lookups.
#[derive(Clone, PartialEq, Eq)]
pub struct ObjectKey(Repr);

/// The two forms of a key. Which one a key takes follows from its length
/// alone, and an inline key's unused bytes are zero, so two keys are equal
/// exactly when their forms are: the derived `Eq` compares the bytes of
/// the string.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Shared(Arc<str>),
}

// One per object in every map the key indexes.
const _: () = assert!(std::mem::size_of::<ObjectKey>() == 24);

impl ObjectKey {
    /// Creates a key from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        if s.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            ObjectKey(Repr::Inline { len: s.len() as u8, bytes })
        } else {
            ObjectKey(Repr::Shared(Arc::from(s)))
        }
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("an inline key holds a str's bytes")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The key's bytes: what it hashes, compares and persists by, without
    /// the UTF-8 check [`as_str`](Self::as_str) makes of an inline key.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }
}

impl PartialOrd for ObjectKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The order of the strings: `str` orders by its bytes.
impl Ord for ObjectKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// The hash of the string, call for call: `str` hashes as
/// `write(bytes)` then `write_u8(0xff)`. So `fx_hash_one` of a key, the
/// shard and ring positions it picks and the bucket order of every map it
/// keys are those of its string.
impl Hash for ObjectKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectKey({})", self.as_str())
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
        self.as_str()
    }
}

/// A map keyed by `ObjectKey` answers `&str` lookups: `Eq`, `Ord` and
/// `Hash` are those of the string.
impl Borrow<str> for ObjectKey {
    fn borrow(&self) -> &str {
        self.as_str()
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
        // A key too long to live inline: its clones share one allocation.
        let a = ObjectKey::new("a-key-longer-than-22-bytes");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
    }

    fn is_inline(key: &ObjectKey) -> bool {
        matches!(key.0, Repr::Inline { .. })
    }

    #[test]
    fn keys_through_22_bytes_are_inline_and_longer_ones_shared() {
        let at = "k".repeat(22);
        let past = "k".repeat(23);
        assert!(is_inline(&ObjectKey::new(&at)));
        assert!(!is_inline(&ObjectKey::new(&past)));
        assert!(is_inline(&ObjectKey::new("")));
        // A two-byte character that ends at byte 22 fits; one that ends
        // at byte 23 does not, and neither form splits it.
        let ends_at_22 = format!("{}é", "k".repeat(20));
        let ends_at_23 = format!("{}é", "k".repeat(21));
        assert_eq!((ends_at_22.len(), ends_at_23.len()), (22, 23));
        for (s, inline) in [(&at, true), (&past, false), (&ends_at_22, true), (&ends_at_23, false)]
        {
            let key = ObjectKey::new(s);
            assert_eq!(is_inline(&key), inline, "{s}");
            assert_eq!(key.as_str(), s.as_str());
            assert_eq!(key.as_bytes(), s.as_bytes());
            assert_eq!(key.to_string(), *s);
            assert_eq!(format!("{key:?}"), format!("ObjectKey({s})"));
        }
    }

    #[test]
    fn both_forms_hash_as_their_string() {
        use tiera_support::collections::fx_hash_one;
        for s in ["", "a", "user000000012345", &"k".repeat(22), &"k".repeat(23), &"é".repeat(30)] {
            let key = ObjectKey::new(s);
            assert_eq!(fx_hash_one(&key), fx_hash_one(s), "{s}");
            assert_eq!(fx_hash_one(&key), fx_hash_one(key.as_str()), "{s}");
        }
    }

    #[test]
    fn equality_and_order_hold_across_the_two_forms() {
        let inline = ObjectKey::new("k".repeat(22));
        let shared = ObjectKey::new("k".repeat(23));
        let after = ObjectKey::new("l");
        assert_ne!(inline, shared);
        // Bytewise, as the strings order: a prefix first, then by byte.
        assert!(inline < shared && shared < after && inline < after);
        assert_eq!(shared.cmp(&ObjectKey::new("k".repeat(23))), Ordering::Equal);
        let mut ordered = std::collections::BTreeMap::new();
        let mut hashed = tiera_support::collections::FxHashMap::default();
        for key in [&inline, &shared, &after] {
            ordered.insert(key.clone(), key.as_str().len());
            hashed.insert(key.clone(), key.as_str().len());
        }
        for (s, len) in [("k".repeat(22), 22), ("k".repeat(23), 23), ("l".into(), 1)] {
            assert_eq!(ordered.get(s.as_str()), Some(&len), "{s}");
            assert_eq!(hashed.get(s.as_str()), Some(&len), "{s}");
        }
        assert!(!hashed.contains_key("k".repeat(24).as_str()));
        let keys: Vec<&ObjectKey> = ordered.keys().collect();
        assert_eq!(keys, [&inline, &shared, &after]);
    }

    #[test]
    fn prop_keys_behave_as_their_strings() {
        use tiera_support::collections::fx_hash_one;
        use tiera_support::prop::gen;
        /// A random string of up to 40 bytes of one-, two-, three- and
        /// four-byte characters.
        fn text(rng: &mut tiera_support::SimRng) -> String {
            const CHARS: [char; 6] = ['a', 'z', '0', 'é', '€', '𝄞'];
            let mut s = String::new();
            let want = gen::usize_in(rng, 0..41);
            loop {
                let c = CHARS[gen::usize_in(rng, 0..CHARS.len())];
                if s.len() + c.len_utf8() > want {
                    return s;
                }
                s.push(c);
            }
        }
        tiera_support::prop_check!(cases = 256, |rng| {
            let (a, b) = (text(rng), text(rng));
            let (ka, kb) = (ObjectKey::new(&a), ObjectKey::new(&b));
            assert_eq!(ka.as_str(), a);
            assert_eq!(is_inline(&ka), a.len() <= INLINE_KEY);
            assert_eq!(ka == kb, a == b);
            assert_eq!(ka.cmp(&kb), a.cmp(&b));
            assert_eq!(fx_hash_one(&ka), fx_hash_one(a.as_str()));
            assert_eq!(ka.clone(), ka);
            assert_eq!(ObjectKey::from(a.clone()), ka);
        });
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

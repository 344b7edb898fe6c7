//! Content-addressed blobs, the one key scheme and refcount table under
//! both dedup layers: Table 1's `storeOnce` (the registry) and the
//! `DedupTier` wrapper (`tiera-tierx`). A distinct payload is stored once,
//! under [`blob_key`] of its sha256 digest; a [`BlobTable`] counts the keys
//! that reference it. The key being a function of the digest, the table
//! holds counts only, and a recovered registry rebuilds it from the
//! digests its records carry.

use tiera_codec::Digest;
use tiera_support::collections::FxHashMap;

use crate::object::ObjectKey;

/// The key a blob with content `digest` is stored under: `sha256:<hex>`.
pub fn blob_key(digest: &Digest) -> ObjectKey {
    ObjectKey::new(format!("sha256:{}", digest.to_hex()))
}

/// Digest → number of live references. A digest is present exactly while
/// at least one reference holds it. Not synchronised: each owner keeps it
/// under its own lock.
#[derive(Debug, Default)]
pub struct BlobTable {
    refs: FxHashMap<Digest, u64>,
}

impl BlobTable {
    /// Adds a reference to `digest`; true when it is the first, and so the
    /// caller must store the blob.
    pub fn acquire(&mut self, digest: Digest) -> bool {
        let refs = self.refs.entry(digest).or_insert(0);
        *refs += 1;
        *refs == 1
    }

    /// Drops a reference to `digest`; true when it was the last, and so
    /// the caller must delete the blob. An untracked digest is a no-op.
    pub fn release(&mut self, digest: &Digest) -> bool {
        match self.refs.get_mut(digest) {
            Some(refs) if *refs > 1 => *refs -= 1,
            Some(_) => return self.refs.remove(digest).is_some(),
            None => {}
        }
        false
    }

    /// Live references to `digest` (0 when untracked).
    pub fn refs(&self, digest: &Digest) -> u64 {
        self.refs.get(digest).copied().unwrap_or(0)
    }

    /// Distinct digests with at least one reference.
    pub fn blobs(&self) -> usize {
        self.refs.len()
    }

    /// Every tracked digest with its reference count, in map order.
    pub fn iter(&self) -> impl Iterator<Item = (&Digest, u64)> {
        self.refs.iter().map(|(d, r)| (d, *r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_table_reports_the_first_acquire_and_the_last_release() {
        let mut t = BlobTable::default();
        let d = Digest::of(b"content");
        assert!(t.acquire(d), "first reference stores the blob");
        assert!(!t.acquire(d), "second reference shares it");
        assert_eq!((t.refs(&d), t.blobs()), (2, 1));
        assert!(!t.release(&d), "one reference remains");
        assert!(t.release(&d), "last release deletes the blob");
        assert_eq!((t.refs(&d), t.blobs()), (0, 0));
        assert!(!t.release(&d), "an untracked digest is a no-op");
        assert!(t.acquire(d), "content stored again starts over");
        assert_eq!(blob_key(&d).as_str().strip_prefix("sha256:"), Some(&*d.to_hex()));
    }
}

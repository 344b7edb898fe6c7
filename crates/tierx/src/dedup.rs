//! Content-addressed deduplication over any tier.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_codec::Digest;
use tiera_core::dedup::{blob_key, BlobTable};
use tiera_core::error::{Result, TieraError};
use tiera_core::object::ObjectKey;
use tiera_core::tier::{CapacityProfile, OpReceipt, RequestCounts, Tier, TierHandle, TierTraits};
use tiera_sim::SimTime;
use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, Mutex};
use tiera_support::Bytes;

/// A [`Tier`]-transparent wrapper that stores payloads content-addressed
/// by sha256: identical payloads occupy one refcounted physical blob, and
/// a blob's physical bytes are reclaimed only when its refcount drops to
/// zero.
///
/// Physically the inner tier holds one object per *distinct payload*,
/// under [`blob_key`] of its digest, the key `storeOnce` uses; this
/// wrapper owns the key→digest mapping and a [`BlobTable`] of refcounts.
/// A put whose payload already exists touches no inner storage at all
/// (and charges no request), which is where both the capacity and the
/// cost savings come from.
///
/// The digest is trusted: a dedup hit reads nothing back, in debug and
/// release builds alike, so both draw the same faults from the inner tier.
///
/// When composed with [`crate::CompressedTier`], dedup goes *outermost*
/// (`Dedup(Compressed(inner))`): identity is computed on the raw payload
/// and each unique blob is compressed once. The lock ranks
/// (`rank::TIERX_DEDUP` < `rank::TIERX_COMPRESS`) enforce that order
/// under the lockcheck sanitizer.
pub struct DedupTier {
    inner: TierHandle,
    state: Mutex<DedupState>,
    /// Physical blob deletes that failed once nothing referenced the blob.
    reclaim_failures: AtomicU64,
}

#[derive(Default)]
struct DedupState {
    /// Live client keys: the content each points at and its length.
    keys: FxHashMap<ObjectKey, (Digest, u64)>,
    /// Live keys pointing at each physical blob.
    blobs: BlobTable,
    /// Sum of live keys' logical payload sizes.
    logical_bytes: u64,
    /// Puts answered by an existing blob.
    dedup_hits: u64,
}

impl DedupTier {
    /// Wraps `inner`; all traffic through the handle is content-addressed.
    pub fn new(inner: TierHandle) -> Arc<Self> {
        Arc::new(Self {
            inner,
            state: Mutex::named("tierx.dedup", rank::TIERX_DEDUP, DedupState::default()),
            reclaim_failures: AtomicU64::new(0),
        })
    }

    /// Physical blob deletes that failed after a blob lost its last
    /// reference. Each left bytes in the inner tier that no key points at:
    /// the inner tier's `used()` counts them until the same content is
    /// stored, and so rewritten, again.
    pub fn reclaim_failures(&self) -> u64 {
        self.reclaim_failures.load(Ordering::Relaxed)
    }

    /// Checks the refcount invariants against the inner tier: every live
    /// key's blob must exist physically with a refcount equal to the
    /// number of keys pointing at it. Returns human-readable violations
    /// (empty = healthy); used by the chaos harness.
    pub fn check_integrity(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut violations = Vec::new();
        let mut counted = BlobTable::default();
        for (key, (digest, _)) in &st.keys {
            counted.acquire(*digest);
            if st.blobs.refs(digest) == 0 {
                violations.push(format!("key {key} points at untracked blob {digest}"));
            } else if !self.inner.contains(&blob_key(digest)) {
                violations.push(format!("key {key}: blob {digest} missing from inner tier"));
            }
        }
        for (digest, refs) in st.blobs.iter() {
            let live = counted.refs(digest);
            if refs != live {
                violations.push(format!("blob {digest}: refcount {refs} but {live} live keys"));
            }
        }
        violations
    }

    /// Drops a key's reference to `digest`, of `len` logical bytes; the
    /// last one best-effort deletes the physical blob (a failed reclaim
    /// delete leaks physical bytes but never a live key's data, and is
    /// counted in [`reclaim_failures`](Self::reclaim_failures)).
    fn release(&self, st: &mut DedupState, (digest, len): (Digest, u64), now: SimTime) {
        st.logical_bytes -= len;
        if st.blobs.release(&digest) && self.inner.delete(&blob_key(&digest), now).is_err() {
            self.reclaim_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Tier for DedupTier {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tier_traits(&self) -> TierTraits {
        self.inner.tier_traits()
    }

    fn capacity(&self, now: SimTime) -> u64 {
        self.inner.capacity(now)
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
        let digest = Digest::of(data.as_slice());
        let len = data.len() as u64;

        let mut st = self.state.lock();
        let old = st.keys.get(key).copied();
        if old.is_some_and(|(d, _)| d == digest) {
            // Same content rewritten under the same key: nothing changes,
            // not even the refcount.
            st.dedup_hits += 1;
            return Ok(OpReceipt::FREE);
        }

        let receipt = if st.blobs.refs(&digest) > 0 {
            st.dedup_hits += 1;
            OpReceipt::FREE
        } else {
            // New content: the physical write happens first, so a failed
            // put leaves every map untouched.
            self.inner.put(&blob_key(&digest), data, now)?
        };

        st.blobs.acquire(digest);
        st.keys.insert(key.clone(), (digest, len));
        st.logical_bytes += len;
        if let Some(old) = old {
            self.release(&mut st, old, now);
        }
        Ok(receipt)
    }

    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
        let digest = self.state.lock().keys.get(key).map(|(digest, _)| *digest);
        let digest = digest.ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
        self.inner.get(&blob_key(&digest), now)
    }

    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        let mut st = self.state.lock();
        if let Some(old) = st.keys.remove(key) {
            self.release(&mut st, old, now);
        }
        Ok(OpReceipt::FREE)
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.state.lock().keys.contains_key(key)
    }

    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        self.inner.grow(percent, now)
    }

    fn shrink(&self, percent: f64, now: SimTime) {
        self.inner.shrink(percent, now)
    }

    fn request_counts(&self) -> RequestCounts {
        self.inner.request_counts()
    }

    fn capacity_profile(&self) -> Option<CapacityProfile> {
        let st = self.state.lock();
        let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, refs) in st.blobs.iter() {
            *histogram.entry(refs).or_insert(0) += 1;
        }
        // Physical accounting comes from beneath us: the inner tier's own
        // profile when it transforms payloads too (canonical
        // Dedup(Compressed(_)) stack), its raw usage otherwise.
        let inner_profile = self.inner.capacity_profile();
        let (physical, raw_fallback) = match &inner_profile {
            Some(p) => (p.physical_bytes, p.raw_fallback_objects),
            None => (self.inner.used(), 0),
        };
        Some(CapacityProfile {
            logical_bytes: st.logical_bytes,
            physical_bytes: physical,
            objects: st.keys.len() as u64,
            raw_fallback_objects: raw_fallback,
            dedup_hits: st.dedup_hits,
            unique_blobs: st.blobs.blobs() as u64,
            refcount_histogram: histogram.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompressedTier;
    use tiera_core::tier::MemTier;

    fn key(s: &str) -> ObjectKey {
        ObjectKey::new(s)
    }

    fn payload(tag: u8, len: usize) -> Bytes {
        Bytes::from(vec![tag; len])
    }

    #[test]
    fn identical_payloads_share_one_blob() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = DedupTier::new(mem.clone());
        t.put(&key("a"), payload(1, 1000), SimTime::ZERO).unwrap();
        t.put(&key("b"), payload(1, 1000), SimTime::ZERO).unwrap();

        assert_eq!(mem.used(), 1000, "one physical blob");
        let p = t.capacity_profile().unwrap();
        assert_eq!(p.logical_bytes, 2000);
        assert_eq!(p.physical_bytes, 1000);
        assert_eq!(p.unique_blobs, 1);
        assert_eq!(p.dedup_hits, 1);
        assert_eq!(p.refcount_histogram, vec![(2, 1)]);
        assert!((p.dedup_hit_rate() - 0.5).abs() < 1e-9);
        assert!(t.check_integrity().is_empty());
    }

    #[test]
    fn deletes_reclaim_only_at_refcount_zero() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = DedupTier::new(mem.clone());
        t.put(&key("a"), payload(1, 500), SimTime::ZERO).unwrap();
        t.put(&key("b"), payload(1, 500), SimTime::ZERO).unwrap();

        t.delete(&key("a"), SimTime::ZERO).unwrap();
        assert!(!t.contains(&key("a")));
        assert_eq!(mem.used(), 500, "blob survives while b lives");
        let (read, _) = t.get(&key("b"), SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), payload(1, 500).as_slice());

        t.delete(&key("b"), SimTime::ZERO).unwrap();
        assert_eq!(mem.used(), 0, "last ref reclaims the blob");
        let p = t.capacity_profile().unwrap();
        assert_eq!(p.logical_bytes, 0);
        assert_eq!(p.unique_blobs, 0);
        assert!(t.check_integrity().is_empty());
        // Deleting an absent key stays silent, per the trait contract.
        t.delete(&key("a"), SimTime::ZERO).unwrap();
    }

    #[test]
    fn overwrite_rebinds_and_releases_old_content() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = DedupTier::new(mem.clone());
        t.put(&key("a"), payload(1, 100), SimTime::ZERO).unwrap();
        t.put(&key("a"), payload(2, 200), SimTime::ZERO).unwrap();

        assert_eq!(mem.used(), 200, "old sole-ref blob reclaimed");
        let p = t.capacity_profile().unwrap();
        assert_eq!(p.objects, 1);
        assert_eq!(p.logical_bytes, 200);
        let (read, _) = t.get(&key("a"), SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), payload(2, 200).as_slice());
        assert!(t.check_integrity().is_empty());
    }

    #[test]
    fn a_failed_reclaim_is_counted_and_the_content_stored_again() {
        use tiera_sim::{FailureWindow, SimEnv};
        use tiera_tiers::MemoryTier;
        let inner = Arc::new(MemoryTier::same_az("t", 1 << 20, &SimEnv::new(1)));
        let t = DedupTier::new(inner.clone());
        let at = SimTime::from_secs;
        t.put(&key("a"), payload(1, 100), at(0)).unwrap();
        t.put(&key("b"), payload(2, 100), at(0)).unwrap();
        inner.failures().schedule(FailureWindow::write_outage(at(10)));

        // A dedup hit writes nothing, so the overwrite succeeds; the blob
        // it orphans cannot be deleted.
        t.put(&key("a"), payload(2, 100), at(20)).unwrap();
        assert_eq!(t.reclaim_failures(), 1);
        assert!(t.check_integrity().is_empty(), "{:?}", t.check_integrity());
        assert_eq!(inner.used(), 200, "the orphaned blob's bytes leak");
        assert_eq!(t.capacity_profile().unwrap().unique_blobs, 1);

        inner.failures().clear();
        t.put(&key("c"), payload(1, 100), at(30)).unwrap();
        assert_eq!(t.get(&key("c"), at(30)).unwrap().0.as_slice(), payload(1, 100).as_slice());
        assert_eq!(t.capacity_profile().unwrap().unique_blobs, 2);
        assert_eq!(inner.used(), 200, "stored again over the leaked copy");
        assert!(t.check_integrity().is_empty());
        assert_eq!(t.reclaim_failures(), 1);
    }

    #[test]
    fn same_content_rewrite_is_a_stable_hit() {
        let t = DedupTier::new(MemTier::with_capacity("t", 1 << 20));
        t.put(&key("a"), payload(3, 64), SimTime::ZERO).unwrap();
        t.put(&key("a"), payload(3, 64), SimTime::ZERO).unwrap();
        let p = t.capacity_profile().unwrap();
        assert_eq!(p.dedup_hits, 1);
        assert_eq!(p.refcount_histogram, vec![(1, 1)]);
        assert!(t.check_integrity().is_empty());
        // The single delete fully clears it.
        t.delete(&key("a"), SimTime::ZERO).unwrap();
        assert_eq!(t.capacity_profile().unwrap().unique_blobs, 0);
    }

    #[test]
    fn missing_key_is_no_such_object() {
        let t = DedupTier::new(MemTier::with_capacity("t", 1 << 20));
        let err = t.get(&key("nope"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, TieraError::NoSuchObject(ref k) if k == "nope"));
    }

    #[test]
    fn failed_put_leaves_state_untouched() {
        let mem = MemTier::with_capacity("t", 100);
        let t = DedupTier::new(mem.clone());
        let err = t.put(&key("a"), payload(1, 200), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, TieraError::TierFull { .. }));
        assert!(!t.contains(&key("a")));
        let p = t.capacity_profile().unwrap();
        assert_eq!(p.unique_blobs, 0);
        assert_eq!(p.logical_bytes, 0);
        assert!(t.check_integrity().is_empty());
    }

    #[test]
    fn canonical_stack_dedup_over_compressed() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = DedupTier::new(CompressedTier::new(mem.clone()));
        // Four keys, two distinct highly-compressible payloads.
        let v1 = Bytes::from(b"abcabcabc".repeat(300));
        let v2 = Bytes::from(b"xyzxyzxyz".repeat(300));
        for (k, v) in [("a", &v1), ("b", &v1), ("c", &v2), ("d", &v2)] {
            t.put(&key(k), v.clone(), SimTime::ZERO).unwrap();
        }

        let p = t.capacity_profile().unwrap();
        assert_eq!(p.objects, 4);
        assert_eq!(p.logical_bytes, 4 * 2700);
        assert_eq!(p.unique_blobs, 2);
        assert_eq!(p.dedup_hits, 2);
        // Dedup halves, compression shrinks further: > 4x combined.
        assert!(
            p.physical_bytes < p.logical_bytes / 4,
            "physical {} logical {}",
            p.physical_bytes,
            p.logical_bytes
        );
        assert_eq!(mem.used(), p.physical_bytes);

        for (k, v) in [("a", &v1), ("b", &v1), ("c", &v2), ("d", &v2)] {
            let (read, _) = t.get(&key(k), SimTime::ZERO).unwrap();
            assert_eq!(read.as_slice(), v.as_slice(), "key {k}");
        }
        assert!(t.check_integrity().is_empty());

        for k in ["a", "b", "c", "d"] {
            t.delete(&key(k), SimTime::ZERO).unwrap();
        }
        assert_eq!(mem.used(), 0);
    }
}

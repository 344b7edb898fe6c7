//! Transparent lzss compression over any tier.

use std::sync::Arc;

use tiera_codec::packed::{self, Unpacked};
use tiera_core::error::{Result, TieraError};
use tiera_core::object::ObjectKey;
use tiera_core::tier::{CapacityProfile, OpReceipt, RequestCounts, Tier, TierHandle, TierTraits};
use tiera_sim::SimTime;
use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, Mutex};
use tiera_support::Bytes;

/// A [`Tier`]-transparent wrapper that lzss-compresses every payload on
/// write and decompresses (with crc32 verification) on read.
///
/// Stored objects are [`tiera_codec::packed`] frames, the form the
/// `compress` response writes too. Payloads that lzss would *expand* —
/// already-compressed or high-entropy data — are stored raw instead,
/// flagged in the header, so physical usage never exceeds logical usage
/// by more than [`packed::HEADER_LEN`] per object.
///
/// The wrapper keeps a per-key ledger of logical and physical sizes so
/// [`Tier::capacity_profile`] can report the effective capacity
/// multiplier; `used()`, `capacity()`, cost, and latency all delegate to
/// the inner tier (the backing store sees only the transformed bytes).
pub struct CompressedTier {
    inner: TierHandle,
    state: Mutex<CompressState>,
}

#[derive(Default)]
struct CompressState {
    /// Per-key `(logical, physical)` sizes.
    ledger: FxHashMap<ObjectKey, (u64, u64)>,
    logical_bytes: u64,
    physical_bytes: u64,
    raw_fallback: u64,
}

impl CompressState {
    fn remove(&mut self, key: &ObjectKey) {
        if let Some((logical, physical)) = self.ledger.remove(key) {
            self.logical_bytes -= logical;
            self.physical_bytes -= physical;
            self.raw_fallback -= u64::from(stored_raw(logical, physical));
        }
    }
}

/// Whether a frame of `physical` bytes holds its `logical`-byte payload
/// raw: a stream is kept only when it is shorter than the payload, so only
/// the raw form is exactly one header longer.
fn stored_raw(logical: u64, physical: u64) -> bool {
    physical == logical + packed::HEADER_LEN as u64
}

impl CompressedTier {
    /// Wraps `inner`; all traffic through the handle is transparently
    /// compressed.
    pub fn new(inner: TierHandle) -> Arc<Self> {
        Arc::new(Self {
            inner,
            state: Mutex::named("tierx.compress", rank::TIERX_COMPRESS, CompressState::default()),
        })
    }
}

impl Tier for CompressedTier {
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
        let mut stored = Vec::new();
        packed::pack_into(&mut stored, data.as_slice());
        let (logical, physical) = (data.len() as u64, stored.len() as u64);
        let stored = Bytes::from(stored);

        // Hold the ledger lock across the inner put so the ledger can
        // never disagree with the backing store; the lock ranks below
        // every inner tier lock (see `rank::TIERX_COMPRESS`).
        let mut st = self.state.lock();
        let receipt = self.inner.put(key, stored, now)?;
        st.remove(key);
        st.logical_bytes += logical;
        st.physical_bytes += physical;
        st.raw_fallback += u64::from(stored_raw(logical, physical));
        st.ledger.insert(key.clone(), (logical, physical));
        Ok(receipt)
    }

    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
        let (stored, receipt) = self.inner.get(key, now)?;
        let logical = match packed::unpack(stored.as_slice())
            .map_err(|e| TieraError::Codec(format!("{key}: {e}")))?
        {
            Unpacked::Raw(body) => stored.slice(body),
            Unpacked::Inflated(raw) => Bytes::from(raw),
        };
        Ok((logical, receipt))
    }

    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        let mut st = self.state.lock();
        let receipt = self.inner.delete(key, now)?;
        st.remove(key);
        Ok(receipt)
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.inner.contains(key)
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
        Some(CapacityProfile {
            logical_bytes: st.logical_bytes,
            physical_bytes: st.physical_bytes,
            objects: st.ledger.len() as u64,
            raw_fallback_objects: st.raw_fallback,
            ..CapacityProfile::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_codec::{crc32, lzss};
    use tiera_core::tier::MemTier;

    fn key(s: &str) -> ObjectKey {
        ObjectKey::new(s)
    }

    /// Low-entropy payload lzss shrinks well.
    fn compressible(len: usize) -> Bytes {
        let text = b"the quick brown fox jumps over the lazy dog. ";
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let take = text.len().min(len - v.len());
            v.extend_from_slice(&text[..take]);
        }
        Bytes::from(v)
    }

    /// High-entropy payload lzss cannot shrink.
    fn incompressible(len: usize, seed: u64) -> Bytes {
        let mut x = seed | 1;
        let v: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        Bytes::from(v)
    }

    #[test]
    fn compressible_payload_shrinks_and_roundtrips() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = CompressedTier::new(mem.clone());
        let data = compressible(8192);
        t.put(&key("a"), data.clone(), SimTime::ZERO).unwrap();

        let p = t.capacity_profile().unwrap();
        assert_eq!(p.logical_bytes, 8192);
        assert!(p.physical_bytes < p.logical_bytes / 2, "physical {}", p.physical_bytes);
        assert_eq!(p.raw_fallback_objects, 0);
        assert!(p.compression_ratio() > 2.0);
        // The backing tier holds exactly the physical bytes.
        assert_eq!(mem.used(), p.physical_bytes);

        let (read, _) = t.get(&key("a"), SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), data.as_slice());
    }

    #[test]
    fn incompressible_payload_uses_raw_fallback() {
        let t = CompressedTier::new(MemTier::with_capacity("t", 1 << 20));
        let data = incompressible(4096, 42);
        t.put(&key("a"), data.clone(), SimTime::ZERO).unwrap();

        let p = t.capacity_profile().unwrap();
        assert_eq!(p.raw_fallback_objects, 1);
        assert_eq!(p.physical_bytes, 4096 + packed::HEADER_LEN as u64);

        let (read, _) = t.get(&key("a"), SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), data.as_slice());
    }

    #[test]
    fn stored_object_is_the_header_then_the_stream_or_the_payload() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = CompressedTier::new(mem.clone());
        // Shrinks / does not shrink / too short to shrink / empty.
        for (name, data) in [
            ("text", compressible(5000)),
            ("noise", incompressible(5000, 9)),
            ("short", compressible(3)),
            ("empty", Bytes::new()),
        ] {
            t.put(&key(name), data.clone(), SimTime::ZERO).unwrap();
            let (stored, _) = mem.get(&key(name), SimTime::ZERO).unwrap();

            let stream = lzss::compress(&data);
            let shrinks = stream.len() < data.len();
            let mut expected = vec![packed::MAGIC, u8::from(shrinks)];
            expected.extend_from_slice(&crc32::checksum(&data).to_le_bytes());
            expected.extend_from_slice(if shrinks { &stream } else { &data });
            assert_eq!(stored.as_slice(), expected.as_slice(), "{name}");
            assert_eq!(shrinks, name == "text", "{name}");
        }
    }

    #[test]
    fn overwrite_and_delete_keep_ledger_exact() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = CompressedTier::new(mem.clone());
        t.put(&key("a"), compressible(4096), SimTime::ZERO).unwrap();
        t.put(&key("a"), incompressible(100, 7), SimTime::ZERO).unwrap();

        let p = t.capacity_profile().unwrap();
        assert_eq!(p.objects, 1);
        assert_eq!(p.logical_bytes, 100);
        assert_eq!(p.raw_fallback_objects, 1);
        assert_eq!(mem.used(), p.physical_bytes);

        t.delete(&key("a"), SimTime::ZERO).unwrap();
        let p = t.capacity_profile().unwrap();
        assert_eq!(p, CapacityProfile::default());
        assert_eq!(mem.used(), 0);
        // Deleting an absent key stays silent, per the trait contract.
        t.delete(&key("missing"), SimTime::ZERO).unwrap();
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let mem = MemTier::with_capacity("t", 1 << 20);
        let t = CompressedTier::new(mem.clone());
        t.put(&key("a"), compressible(2048), SimTime::ZERO).unwrap();

        // Corrupt the stored bytes behind the wrapper's back.
        let (stored, _) = mem.get(&key("a"), SimTime::ZERO).unwrap();
        let mut bad = stored.to_vec();
        for b in bad.iter_mut().skip(packed::HEADER_LEN) {
            *b ^= 0x5A;
        }
        mem.put(&key("a"), Bytes::from(bad), SimTime::ZERO).unwrap();
        let err = t.get(&key("a"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, TieraError::Codec(_)), "{err}");

        // A flipped crc byte on an otherwise-valid stream is also caught.
        let mut bad = stored.to_vec();
        bad[2] ^= 0xFF;
        mem.put(&key("a"), Bytes::from(bad), SimTime::ZERO).unwrap();
        let err = t.get(&key("a"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, TieraError::Codec(ref m) if m.contains("crc32")), "{err}");
    }

    #[test]
    fn capacity_pressure_propagates_tier_full() {
        let t = CompressedTier::new(MemTier::with_capacity("t", 256));
        // Incompressible data cannot be squeezed in.
        let err = t.put(&key("a"), incompressible(512, 3), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, TieraError::TierFull { .. }));
        assert_eq!(t.capacity_profile().unwrap(), CapacityProfile::default());
        // But compressible data of the same logical size fits: effective
        // capacity exceeds physical capacity.
        t.put(&key("a"), compressible(512), SimTime::ZERO).unwrap();
        assert!(t.capacity_profile().unwrap().logical_bytes > t.capacity(SimTime::ZERO));
    }

    #[test]
    fn delegates_identity_and_sizing() {
        let mem = MemTier::with_capacity("backing", 1024);
        let t = CompressedTier::new(mem.clone());
        assert_eq!(t.name(), "backing");
        assert_eq!(t.capacity(SimTime::ZERO), 1024);
        assert_eq!(t.tier_traits(), mem.tier_traits());
        t.grow(100.0, SimTime::ZERO);
        assert_eq!(mem.capacity(SimTime::ZERO), 2048);
        t.shrink(50.0, SimTime::ZERO);
        assert_eq!(mem.capacity(SimTime::ZERO), 1024);
    }
}

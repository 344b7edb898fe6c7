//! Fast, deterministic hash maps for metadata hot paths.
//!
//! `std`'s default `RandomState` hasher is SipHash-1-3 seeded from the OS:
//! cryptographically strong, but several times slower than necessary for
//! short object keys, and non-deterministic across processes (map iteration
//! order changes run to run). The registry's sharded hot path hashes every
//! key twice per operation (shard pick + map probe), so it uses [`FxHashMap`]
//! instead: the FxHash multiply-xor construction (rustc's internal hasher),
//! which is deterministic, allocation-free, and fast on short strings.
//!
//! FxHash is *not* DoS-resistant. Clippy's `disallowed_types` keeps std's
//! `HashMap` out of every crate but this one, so the workspace's maps are
//! in-process metadata maps whose keys the instance already admitted; a
//! table hashing attacker-controlled input on an open port would keep
//! SipHash under an item-scoped `allow` that says so.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FxHash seed (golden-ratio odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHash: one multiply and one rotate-xor per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab\0" and "ab" differ.
            tail[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    /// The running multiply carries a word's entropy upward only, and the
    /// standard map takes its bucket index from the *low* bits: keys that
    /// differ in the last bytes of a word (`user000000012345`) would pile
    /// into a few dozen buckets. One more fold-and-multiply, with the
    /// well-mixed high half swapped down, spreads them like a random hash.
    #[inline]
    fn finish(&self) -> u64 {
        (self.hash ^ (self.hash >> 32)).wrapping_mul(SEED).rotate_left(32)
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`-constructible).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by FxHash: deterministic iteration seed and fast
/// probes. Use for in-process metadata maps, not attacker-facing tables.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` backed by FxHash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes a single value with FxHash (used for shard selection so the
/// shard pick and the in-shard probe share one hash function family).
///
/// This is the hasher's state as it stands, best mixed in its *top* bits,
/// which is where callers take their shard or ring position from. The
/// metastore's on-disk shard layout and the cluster ring are functions of
/// this value, so it must never change.
pub fn fx_hash_one(value: &(impl std::hash::Hash + ?Sized)) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(fx_hash_one("tiera"), fx_hash_one("tiera"));
        assert_ne!(fx_hash_one("tiera"), fx_hash_one("tierb"));
    }

    #[test]
    fn short_strings_with_shared_prefix_differ() {
        // The tail-length byte separates same-prefix keys shorter than a
        // word from each other and from their zero-padded extensions.
        assert_ne!(fx_hash_one("ab"), fx_hash_one("ab\0"));
        assert_ne!(fx_hash_one("a"), fx_hash_one("ab"));
    }

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("key-42"), Some(&42));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.extend(m.values().copied());
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn map_buckets_spread_keys_that_differ_in_the_last_bytes_of_a_word() {
        // The standard map indexes buckets with the low bits of `finish()`.
        // Zero-padded counters put their varying digits in the high bytes
        // of the last word; the low 12 bits must still tell them apart.
        let mut low_bits = FxHashSet::default();
        for i in 0..4096 {
            let mut h = FxHasher::default();
            std::hash::Hash::hash(format!("user{i:012}").as_str(), &mut h);
            low_bits.insert(h.finish() & 0xfff);
        }
        // A random function would use about 4096 · (1 − 1/e) ≈ 2590.
        assert!(low_bits.len() > 2300, "{} of 4096 bucket indexes used", low_bits.len());
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Sequential workload keys must spread across 16 shards instead of
        // clumping (the shard pick uses the top bits).
        let mut per_shard = [0u32; 16];
        for i in 0..1600 {
            let h = fx_hash_one(&format!("obj-{i}"));
            per_shard[(h >> 60) as usize] += 1;
        }
        for (shard, count) in per_shard.iter().enumerate() {
            assert!(
                (50..200).contains(count),
                "shard {shard} got {count}/1600 keys — bad spread: {per_shard:?}"
            );
        }
    }
}

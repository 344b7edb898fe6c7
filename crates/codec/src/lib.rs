//! # tiera-codec — self-contained codecs for the Tiera middleware
//!
//! The Tiera paper's response catalogue (Table 1) includes `storeOnce`
//! (content-addressed deduplication), `compress`/`uncompress` (the prototype
//! used ZLIB), and `encrypt`/`decrypt`. The repository uses no external
//! crypto or compression crates, so this crate implements the needed
//! primitives from their specifications:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (content hashing for `storeOnce`),
//!   validated against the NIST test vectors.
//! * [`crc32`] — CRC-32 (IEEE 802.3 polynomial), used by the metadata
//!   store's record framing to detect torn writes.
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher for the
//!   `encrypt`/`decrypt` responses, validated against the RFC vectors.
//! * [`lzss`] — a byte-oriented LZSS compressor standing in for ZLIB; it is
//!   lossless, bounded-expansion, and effective on the redundant payloads
//!   the dedup/compression experiments generate.
//! * [`packed`] — the crc-checked stored frame of an lzss payload, shared
//!   by the `compress` response and `CompressedTier`.
//! * [`hex`] — small hex encode/decode helpers for keys and digests.
//! * [`xxh64`] — XXH64, the non-cryptographic 64-bit content checksum the
//!   cluster coordinator verifies every replica read against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod crc32;
pub mod hex;
pub mod lzss;
pub mod packed;
pub mod sha256;
pub mod xxh64;

pub use chacha20::ChaCha20;
pub use sha256::Sha256;

/// A 256-bit content digest, the identity used by `storeOnce` deduplication.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        Digest(sha256::digest(data))
    }

    /// Hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_is_stable_and_distinguishes() {
        let a = Digest::of(b"hello");
        let b = Digest::of(b"hello");
        let c = Digest::of(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_hex().len(), 64);
    }

    #[test]
    fn digest_debug_is_truncated() {
        let d = Digest::of(b"x");
        let s = format!("{d:?}");
        assert!(s.starts_with("Digest(") && s.len() < 30);
    }
}

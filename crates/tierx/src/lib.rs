//! Payload-transforming tier wrappers.
//!
//! "Taming Server Memory TCO with Multiple Software-Defined Compressed
//! Tiers" argues that software-defined compressed memory tiers with
//! policy-driven placement cut memory TCO by 33–50%. Tiera's tier
//! abstraction (paper §2.2, "a tier can be any source or sink for data
//! with a prescribed interface") makes that a wrapper, not a new backend:
//! this crate provides two composable wrappers that implement
//! [`tiera_core::tier::Tier`] around any inner [`TierHandle`], so every
//! existing tier — simulated Memcached, EBS, S3, `MemTier` — can opt into
//! transparent compression or content-addressed deduplication via the
//! spec DSL (`compress` / `dedup` tier attributes, lints T013–T015).
//!
//! - [`CompressedTier`]: lzss on write, decompress + crc32 verification
//!   on read, per-object raw fallback when compression would expand the
//!   payload. Effective capacity is ~Nx the backing tier on compressible
//!   data; the logical/physical split is reported through
//!   [`tiera_core::tier::CapacityProfile`].
//! - [`DedupTier`]: content-addressed by sha256 with a refcounted blob
//!   store — identical payloads are stored once, deletes reclaim physical
//!   space only at refcount zero.
//!
//! Neither owns its format: the frame is [`tiera_codec::packed`] and the
//! blob keys and refcounts are [`tiera_core::dedup`], the cores under
//! Table 1's `compress` and `storeOnce` responses too.
//!
//! # Canonical stacking and lock order
//!
//! When both transforms apply to one tier the canonical stack is
//! `Dedup(Compressed(inner))` — dedup outermost, so content identity is
//! computed on the raw payload and each unique blob is compressed once.
//! The declared lock ranks encode exactly that order (`TIERX_DEDUP` <
//! `TIERX_COMPRESS` < the inner tier locks); composing the other way
//! around panics under the `lockcheck` sanitizer.
//!
//! [`TierHandle`]: tiera_core::tier::TierHandle

#![forbid(unsafe_code)]

pub mod compressed;
pub mod dedup;

pub use compressed::CompressedTier;
pub use dedup::DedupTier;

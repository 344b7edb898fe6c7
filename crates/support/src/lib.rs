//! # tiera-support — hermetic stand-ins for external crates
//!
//! The reproduction environment has no network access, so the workspace
//! cannot fetch crates-io packages. Every external dependency the seed
//! leaned on is replaced here with a minimal, well-tested in-workspace
//! implementation of exactly the API subset Tiera uses:
//!
//! * [`Bytes`] — a cheaply-cloneable, `Arc`-backed immutable byte buffer
//!   (replaces the `bytes` crate).
//! * [`sync`] — non-poisoning [`sync::Mutex`] / [`sync::RwLock`] wrappers
//!   over `std::sync` (replaces the `parking_lot` API surface used).
//! * [`collections`] — [`collections::FxHashMap`] et al.: deterministic
//!   fast-hash maps for metadata hot paths (replaces `rustc-hash`/`fxhash`).
//! * [`channel`] — an unbounded mpmc channel with cloneable senders *and*
//!   receivers (replaces `crossbeam::channel`).
//! * [`rng`] — [`rng::SimRng`], the workspace's single deterministic
//!   randomness source (re-exported by `tiera-sim`; replaces `rand`).
//! * [`prop`] — the [`prop_check!`] property-testing harness driving
//!   generators off [`rng::SimRng`] (replaces `proptest`).
//! * [`diag`] — the rustc-style diagnostics engine both static analyzers
//!   (`tiera-lint`, `tiera-analyze`) render through, and [`lint_codes!`],
//!   which declares each analyzer's code table.
//! * [`wire`] — the one bounds-checked little-endian byte reader and its
//!   writers, under every slice-parsed format in the workspace (replaces
//!   `bytes::Buf`/`BufMut`).
//!
//! This crate sits at the bottom of the dependency graph and must stay
//! dependency-free: `cargo build --offline` on a bare Rust toolchain is the
//! contract, enforced by the hermeticity guard test. Determinism flows from
//! [`rng::SimRng`]: everything randomized — simulation jitter, workload key
//! sequences, property-test case generation — derives from explicit 64-bit
//! seeds, never from the wall clock or the OS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod channel;
pub mod collections;
pub mod diag;
pub mod prop;
pub mod rng;
pub mod sync;
pub mod wire;

pub use bytes::Bytes;
pub use rng::SimRng;

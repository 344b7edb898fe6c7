//! # tiera-metastore — embedded log-structured key-value store
//!
//! The Tiera prototype "stored and persisted all object metadata using
//! BerkeleyDB" (paper §3). This crate is that substrate, built from
//! scratch: a crash-safe, sharded, log-structured store with in-memory
//! locator indexes, CRC-framed records, tombstone deletes, snapshotting
//! compaction, and O(delta) recovery.
//!
//! ## Design
//!
//! * Keys are hash-partitioned across N independent shards (default 8);
//!   each shard owns its own segment chain and in-memory index behind
//!   per-shard named locks, so unrelated puts never contend and `open`
//!   recovers shards in parallel.
//! * The index holds no keys and no values — they live in the log. Per
//!   live key it keeps the key's 64-bit hash and where the record is
//!   (file, offset, length): ≈ 33 bytes, whatever the record's size. A
//!   hash hit is confirmed by reading the record's key, and keys whose
//!   hashes truly collide are told apart by an exact-key overflow map, so
//!   the store answers every input as a map of keys would. A `get` is one
//!   read of the log (or of the write buffer, for a record that has not
//!   left it); [`MetaStore::for_each`] streams everything live, in log
//!   order.
//! * Every mutation appends a CRC-framed record to its shard's active
//!   segment, on the calling thread under its shard's commit lock.
//!   Durability is either delegated to [`MetaStore::sync`] (an instance
//!   with a metadata directory calls it at the end of every event tick)
//!   or — with `sync_every_append` — enforced per operation: the writer
//!   fsyncs its own record before it returns.
//! * On open, each shard loads its newest valid snapshot and replays
//!   only the segments written after it; a torn tail record (partial
//!   write from a crash) is detected by CRC/length and truncated away,
//!   and a torn/corrupt snapshot falls back to full replay.
//! * When a shard's garbage ratio passes a threshold (or on
//!   [`MetaStore::compact`]), the shard copies its live records out of
//!   the files it retires into a sealed snapshot and removes them.
//! * Crash safety is deterministically testable: [`kill`] plants kill
//!   points at every durability transition, and
//!   [`MetaStore::crash_image`] exposes the fsynced frontier so a
//!   harness can simulate losing everything beyond it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kill;
mod log;
mod store;

pub use kill::{KillPoints, KillSite};
pub use log::{encoded_record_len, LogReader, LogWriter, Record, RecordKind};
pub use store::{MetaStore, MetaStoreError, MetaStoreOptions, Stats};

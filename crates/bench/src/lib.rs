//! # tiera-bench — the paper's evaluation, regenerated
//!
//! One experiment module per table/figure of *Tiera: Towards Flexible
//! Multi-Tiered Cloud Storage Instances* (Middleware 2014), §4. Run them
//! all with:
//!
//! ```text
//! cargo run --release -p tiera-bench --bin experiments -- --all
//! ```
//!
//! or a subset with `--only fig07,fig09`. Each experiment prints the same
//! rows/series the paper's figure plots, using virtual time (a "10-minute"
//! run completes in seconds of wall time and is deterministic for the
//! seed). `EXPERIMENTS.md` records the measured outputs next to the
//! paper's numbers.
//!
//! The second binary, `tiera-bench`, carries the three deterministic
//! smokes that have no other home: `chaos` ([`chaos_report`]),
//! `cluster-chaos` ([`cluster_bench`]) and `rpc-smoke` ([`rpc_smoke`]).
//! Nothing in this crate is the referee for wall-clock numbers — that is
//! `benchmark/`, which borrows [`json`] from here. The micro-benchmarks
//! (`benches/`, tiera-support bench harness) remain for looking at one
//! kernel in isolation: control-layer dispatch, codec throughput, spec
//! parsing, metastore appends, histogram recording.

#![forbid(unsafe_code)]

pub mod chaos_report;
pub mod cluster_bench;
pub mod deployments;
pub mod experiments;
pub mod json;
pub mod rpc_smoke;
pub mod table;

pub use table::Table;

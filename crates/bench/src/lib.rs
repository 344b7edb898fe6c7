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
//! Nothing in this crate is the referee for wall-clock numbers — that is
//! `benchmark/`, which borrows [`json`] from here; its ladder times the
//! single kernels (tiers, registry, codecs, metastore, rpc) one rung at a
//! time. The chaos matrices are `cargo test` files of `tiera-chaos`.

#![forbid(unsafe_code)]

pub mod deployments;
pub mod experiments;
pub mod json;
pub mod table;

pub use table::Table;

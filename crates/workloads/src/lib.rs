//! # tiera-workloads — the evaluation's benchmark clients
//!
//! The paper generates client load with "a combination of benchmarking
//! tools: sysbench, TPC-W, Yahoo Cloud Serving Benchmark (YCSB), fio, and
//! our own benchmarks" (§4). This crate re-implements each driver against
//! the simulated stack:
//!
//! * [`dist`] — key-choosing distributions: uniform, YCSB zipfian(θ),
//!   sysbench's *special* distribution (p % of rows receive 80 % of
//!   accesses), and latest.
//! * [`oltp`] — sysbench-style OLTP transactions over [`tiera_db::MiniDb`]
//!   (point selects + updates, read-only and read-write mixes, N clients).
//! * [`ycsb`] — YCSB-style PUT/GET load directly against a Tiera instance.
//! * [`tpcw`] — TPC-W-style emulated browsers mixing static-content fetches
//!   with database interactions, reporting WIPS.
//! * [`fio`] — fio-style file readers over [`tiera_fs::TieraFs`].
//!
//! All drivers are closed-loop in *virtual time*: each virtual client
//! accumulates the latencies its operations were charged, and throughput is
//! `completed ops ÷ max(per-client virtual time)`. One thread steps the
//! clients in `(virtual time, client id)` order
//! ([`tiera_sim::exec::run_clients`]), so runs are deterministic for a
//! given `SimEnv` seed. Every step, of whichever client, first pumps the
//! instance to its own start time, so timers and queued background work
//! run when they are due.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod fio;
pub mod oltp;
pub mod report;
pub mod tpcw;
pub mod ycsb;

pub use dist::KeyChooser;
pub use report::LoadReport;

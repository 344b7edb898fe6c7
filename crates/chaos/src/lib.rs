//! # tiera-chaos — deterministic simulation testing
//!
//! The paper's robustness claims (§4.2.3, Figure 17) are demonstrated with
//! one hand-written outage. This crate turns that demonstration into a
//! harness: seed-driven *fault schedules* over the
//! [`tiera_sim::FailureInjector`] fault plane, YCSB/OLTP-shaped *chaos
//! scenarios* that drive an instance through those schedules, and an
//! *invariant checker* that asserts the storage contract held throughout:
//!
//! 1. **No acknowledged write is lost** — every PUT the client saw succeed
//!    is readable afterwards and returns the acknowledged bytes.
//! 2. **No phantom metadata** — a brand-new PUT that failed leaves no
//!    registry entry behind.
//! 3. **Registry aggregates equal a full recount** for every tier.
//! 4. **No stranded dirty data** — once the outage clears and write-back
//!    deadlines pass, nothing dirty remains in a volatile tier.
//! 5. **Steady state returns** — after the schedule ends, fresh operations
//!    succeed at normal latency.
//!
//! The same machinery generalizes from tier faults to **node faults**:
//! [`node_schedule`] generates seeded kill / partition / slow-node /
//! rejoin-with-stale-state schedules, and [`cluster_scenario`] drives a
//! replicated `tiera-cluster` deployment through them with the ledger
//! invariants extended to the replication contract — every W-acked
//! write survives any R−1 node kills, no phantom keys reappear after a
//! stale rejoin, and rebalance migration volume never exceeds the plan.
//!
//! Everything is deterministic in virtual time: a scenario is a pure
//! function of its config, and every failure report prints the call
//! ([`scenario::run`] or [`run_cluster`] with that config) that replays
//! the identical fault schedule and event log byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_scenario;
pub mod invariants;
pub mod metastore_crash;
pub mod node_schedule;
pub mod scenario;
pub mod schedule;

pub use cluster_scenario::{run_cluster, ClusterChaosConfig, ClusterChaosOutcome, ClusterScenarioKind};
pub use invariants::{InvariantReport, WriteLedger};
pub use metastore_crash::{run_crash_case, run_crash_matrix, CrashCaseReport};
pub use node_schedule::{NodeFaultAction, NodeFaultDriver, NodeFaultEvent, NodeFaultSchedule};
pub use scenario::{ChaosConfig, ChaosOutcome, ScenarioKind, Stack};
pub use schedule::{FaultEvent, FaultSchedule};

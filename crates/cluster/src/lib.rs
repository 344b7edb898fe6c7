//! # tiera-cluster — distributed Tiera
//!
//! The paper stops at one middleware node. This crate spreads an
//! instance's keyspace over N nodes the way Anna and Dynamo-style stores
//! do, while keeping every piece deterministic enough for the chaos
//! harness in `tiera-chaos` to replay byte-identically:
//!
//! * [`Ring`] — a consistent-hash ring with virtual nodes. Placement is a
//!   pure function of (node name, vnode index, key) through FxHash, so
//!   two rings built from the same membership agree everywhere.
//!   [`Ring::plan_rebalance`] computes the *minimal* migration plan
//!   between two rings: exactly the keys whose owner set changed, never
//!   more.
//! * [`ClusterNode`] — one member: a full Tiera [`Instance`] plus the
//!   fault flags the node-fault chaos schedule drives (killed,
//!   partitioned, slow). A replica delete is idempotent by itself: a key
//!   already absent acknowledges.
//! * [`Coordinator`] — routes PUT/GET/DELETE and `MultiGet` to the
//!   owners of each key, replicates writes to R successors and acks
//!   after W confirmations, serves a GET from the first owner it probes
//!   at the write version its metadata names (one replica read on a
//!   healthy cluster; a `MultiGet` reads each distinct key once and
//!   spreads them over the owners, one group per owner),
//!   merges it into the owners a read passed over as behind or holding a
//!   failed write's copy (purged first: a merge never lowers a replica),
//!   and runs the bandwidth-capped, resumable rebalance engine when
//!   membership changes. Every node op names its key by the coordinator's
//!   one [`ObjectKey`] handle, so replicas share the key's allocation. It
//!   holds the one delete-token table: a DELETE redelivered with the token
//!   of one that reached quorum replays that outcome. While a rebalance is
//!   in flight, writes go to the new owners, and deletes reach the old
//!   owners too.
//!
//! Lock order (see `tiera_support::sync::rank`): `cluster.ring` →
//! `cluster.meta` → `cluster.node`. Ring and meta guards are never held
//! across node IO — owner sets are snapshotted out first — so the
//! coordinator can be hammered from many threads while a rebalance is in
//! flight (there is a lockcheck-gated test doing exactly that).
//!
//! [`Instance`]: tiera_core::Instance
//! [`ObjectKey`]: tiera_core::ObjectKey

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod node;
pub mod ring;

pub use coordinator::{ClusterError, Coordinator, ReadStats, RebalanceReport};
pub use node::{ClusterNode, NodeError};
pub use ring::{KeyMove, RebalancePlan, Ring};

//! # tiera-core — the Tiera middleware
//!
//! This crate implements the primary contribution of *"Tiera: Towards
//! Flexible Multi-Tiered Cloud Storage Instances"* (Middleware 2014): a
//! lightweight middleware that encapsulates multiple cloud storage tiers
//! behind a single object-store API and manages the life cycle of stored
//! data with programmable **event → response** policies.
//!
//! ## Concepts (paper §2)
//!
//! * **Object model** — data is stored as immutable, overwritable objects
//!   addressed by a globally unique key ([`ObjectKey`]). Tiera tracks
//!   per-object metadata (size, access count, dirty flag, locations,
//!   last access time) and optional [`Tag`]s that group objects into
//!   classes ([`meta::ObjectMeta`]).
//! * **Tiers** — any source or sink for data with the prescribed interface
//!   (the [`tier::Tier`] trait). Realistic simulated tiers (Memcached, EBS,
//!   S3, ephemeral) live in the `tiera-tiers` crate.
//! * **Events** ([`event::EventKind`]) — *timer*, *threshold*, and *action*
//!   events, evaluated in the foreground (charged to the request) or
//!   background (queued to the response pool).
//! * **Responses** ([`response::ResponseSpec`]) — the full catalogue of the
//!   paper's Table 1: `store`, `storeOnce`, `retrieve`, `copy`, `move`,
//!   `delete`, `encrypt`/`decrypt`, `compress`/`uncompress`,
//!   `grow`/`shrink`, plus the eviction idiom of Figure 5.
//! * **Instance** ([`instance::Instance`]) — tiers + policy + metadata.
//!   Exposes `PUT`/`GET`/`DELETE`, and supports *runtime* replacement and
//!   addition of policies and tiers (paper §4.2.3).
//!
//! ## Example
//!
//! ```
//! use tiera_core::prelude::*;
//! use tiera_sim::{SimEnv, SimTime};
//!
//! let env = SimEnv::new(7);
//! // A LowLatencyInstance (paper Fig. 3): memory tier + block tier with a
//! // write-back policy every 30 seconds.
//! let instance = InstanceBuilder::new("LowLatencyInstance", env.clone())
//!     .tier(MemTier::with_capacity("cache", 5 << 30))
//!     .tier(MemTier::with_capacity("persist", 5 << 30))
//!     .rule(
//!         Rule::on(EventKind::action(ActionOp::Put))
//!             .respond(ResponseSpec::store(Selector::Inserted, ["cache"])),
//!     )
//!     .rule(
//!         Rule::on(EventKind::timer(SimDuration::from_secs(30)))
//!             .respond(ResponseSpec::copy(
//!                 Selector::InTier("cache".into()).and(Selector::Dirty),
//!                 ["persist"],
//!             )),
//!     )
//!     .build()
//!     .unwrap();
//!
//! let put = instance.put("hello", &b"world"[..], SimTime::ZERO).unwrap();
//! let (data, _) = instance.get("hello", SimTime::ZERO + put.latency).unwrap();
//! assert_eq!(&data[..], b"world");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod dedup;
pub mod error;
pub mod event;
pub mod instance;
pub mod meta;
pub mod monitor;
pub mod object;
pub mod policy;
pub mod registry;
pub mod response;
pub mod retry;
pub mod selector;
pub mod stats;
pub mod tier;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::builder::InstanceBuilder;
    pub use crate::catalog::TierCatalog;
    pub use crate::error::{Result, TieraError};
    pub use crate::event::{ActionOp, EventKind, Metric, Relation};
    pub use crate::instance::{Instance, PutOptions};
    pub use crate::meta::ObjectMeta;
    pub use crate::object::{ObjectKey, Tag};
    pub use crate::policy::{Policy, Rule, RuleId};
    pub use crate::response::{EvictOrder, Guard, ResponseSpec};
    pub use crate::retry::{FailureAlert, RetryPolicy};
    pub use crate::selector::Selector;
    pub use crate::tier::{CapacityProfile, MemTier, OpReceipt, Tier, TierHandle, TierTraits};
    pub use tiera_sim::{SimDuration, SimTime};
}

pub use builder::InstanceBuilder;
pub use error::{Result, TieraError};
pub use instance::Instance;
pub use object::{ObjectKey, Tag};
pub use policy::{Policy, Rule, RuleId};
pub use tier::{Tier, TierHandle};

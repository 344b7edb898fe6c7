//! The Tiera instance: tiers + policy + metadata + the control layer.
//!
//! Paper §2.2: "The Tiera server has three primary roles: (1) to interface
//! with applications to enable storage and retrieval of data, (2) to
//! interface with different storage tiers..., and (3) to manage the data
//! placement and movement across different tiers."
//!
//! * The **application interface layer** is the [`Instance::put`] /
//!   [`Instance::get`] / [`Instance::delete`] API.
//! * The **storage interface layer** is the set of attached [`Tier`]
//!   handles.
//! * The **control layer** is the response executor in this module: it
//!   fires action events inline with requests, threshold events on the
//!   actions that affect their metrics, and timer events from
//!   [`Instance::pump`]; background work is queued and drained by `pump`
//!   (the "thread pool dedicated to service responses" of paper §3, made
//!   deterministic for virtual time).
//!
//! ## PUT placement semantics
//!
//! If any matching action rule contains a `store`/`storeOnce` response
//! targeting the inserted object, those rules define placement (paper
//! Figs 3 and 5). Otherwise the object is implicitly stored in the
//! instance's *default tier* — the first attached tier — and the rules run
//! afterwards (this is how Fig 4's `PersistentInstance` works: the PUT
//! lands in `tier1`, then the write-through rule copies it to `tier2`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tiera_support::sync::{rank, Mutex, RwLock};
use tiera_support::{Bytes, SimRng};

use tiera_codec::{lzss, ChaCha20, Digest};
use tiera_sim::bandwidth::BandwidthCap;
use tiera_sim::{SimDuration, SimEnv, SimTime};

use crate::error::{Result, TieraError};
use crate::event::{ActionOp, EventKind, Metric};
use crate::meta::{ObjectMeta, TierSet};
use crate::object::{ObjectKey, Tag};
use crate::policy::{Policy, Rule, RuleId};
use crate::registry::Registry;
use crate::response::{EvictOrder, Guard, ResponseSpec};
use crate::retry::{FailureAlert, RetryPolicy};
use crate::selector::Selector;
use crate::stats::InstanceStats;
use crate::tier::{TierHandle, TierId};

/// Options for a PUT request.
#[derive(Debug, Clone, Default)]
pub struct PutOptions {
    /// Tags to attach (object classes, application hints).
    pub tags: Vec<Tag>,
}

/// Receipt for a PUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReceipt {
    /// Latency charged to the client (foreground work only).
    pub latency: SimDuration,
}

/// Receipt for a GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetReceipt {
    /// Latency charged to the client.
    pub latency: SimDuration,
    /// Tier that served the read (prints and compares as its name).
    pub served_by: TierId,
}

/// Report from one [`Instance::pump`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Timer rules that fired.
    pub timers_fired: u64,
    /// Background work items executed.
    pub background_executed: u64,
}

/// Deferred (background) response work.
struct PendingWork {
    due: SimTime,
    work: WorkItem,
    inserted: Option<ObjectKey>,
    /// How many times this item has already failed and been requeued.
    attempts: u32,
}

/// Due-ordered background queue: a binary min-heap keyed by
/// `(due, insertion seq)`, so [`Instance::pump`] drains work strictly in
/// due order (FIFO among equal due times) at O(log n) per operation. The
/// old `VecDeque` + linear `iter().position` scan was O(n) per pop — O(n²)
/// per pump — *and* popped the first-queued due item rather than the
/// earliest-due one, so a later-queued earlier-due writeback could run
/// after a later one.
#[derive(Default)]
struct BackgroundQueue {
    heap: std::collections::BinaryHeap<QueuedWork>,
    next_seq: u64,
}

struct QueuedWork {
    due: SimTime,
    seq: u64,
    work: PendingWork,
}

impl PartialEq for QueuedWork {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for QueuedWork {}
impl PartialOrd for QueuedWork {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedWork {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest due
        // (then lowest seq) on top.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl BackgroundQueue {
    fn push(&mut self, work: PendingWork) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedWork {
            due: work.due,
            seq,
            work,
        });
    }

    /// Pops the earliest-due item if it is due at `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<PendingWork> {
        if self.heap.peek()?.due <= now {
            Some(self.heap.pop().expect("peeked").work)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The two shapes of background work.
enum WorkItem {
    /// A rule's responses, deferred; the rule is shared with the policy.
    Responses(Arc<Rule>),
    /// A bandwidth-capped copy in progress: one object is transferred per
    /// step, and the continuation re-enqueues itself `pace(len)` later.
    /// This is what keeps a `bandwidth: 40KB/s` copy from monopolizing the
    /// shared device (paper Figure 14).
    PacedCopy {
        keys: std::collections::VecDeque<ObjectKey>,
        to: Vec<String>,
        cap: BandwidthCap,
        delete_source: bool,
    },
}

/// An attached tier and its interned name, resolved once at attach time.
#[derive(Clone)]
struct Attached {
    id: TierId,
    /// `tier.tier_traits().durable` (traits are static properties).
    durable: bool,
    tier: TierHandle,
}

impl Attached {
    fn new(tier: TierHandle) -> Self {
        Self {
            id: TierId::from(tier.name()),
            durable: tier.tier_traits().durable,
            tier,
        }
    }
}

/// A multi-tiered cloud storage instance.
pub struct Instance {
    name: String,
    env: SimEnv,
    /// Attached tiers in preference order. Replaced wholesale on
    /// attach/detach, so an operation snapshots it with one refcount bump.
    tiers: RwLock<Arc<[Attached]>>,
    policy: Policy,
    registry: Registry,
    stats: InstanceStats,
    keyring: RwLock<HashMap<String, [u8; 32]>>,
    background: Mutex<BackgroundQueue>,
    /// Figure 18 ablation switch: with the control layer off, PUT/GET go
    /// straight to the default tier with no event evaluation.
    control_layer: AtomicBool,
    /// In-operation robustness policy (default: single attempt, no
    /// failover — byte-identical to the pre-retry behavior).
    retry: RwLock<RetryPolicy>,
    /// Mirrors `!retry.is_trivial()` so the hot path skips all retry
    /// bookkeeping (and the `retry` lock) when the policy is the default.
    retry_active: AtomicBool,
    /// Seeded jitter stream for backoff schedules (deterministic per env).
    retry_rng: Mutex<SimRng>,
    /// FAILURE_ALERT events not yet drained by a monitor.
    alerts: Mutex<Vec<FailureAlert>>,
    alerts_total: AtomicU64,
}

/// Execution context threaded through response execution.
struct Ctx {
    /// Current virtual time (advances as responses charge latency).
    now: SimTime,
    /// Latency charged to the requesting client.
    charged: SimDuration,
    /// The object the triggering action carried.
    inserted: Option<ObjectKey>,
    /// Payload of the inserted object (avoids re-reading it).
    inserted_data: Option<Bytes>,
    /// Background executions charge nothing to clients.
    background: bool,
    /// Re-entrancy guard for threshold cascades.
    depth: u8,
    /// Tiers the *inserted* object was freshly written to during this
    /// execution (drives overwrite cleanup of stale copies).
    placed_inserted: TierSet,
}

impl Ctx {
    fn foreground(now: SimTime) -> Self {
        Ctx {
            now,
            charged: SimDuration::ZERO,
            inserted: None,
            inserted_data: None,
            background: false,
            depth: 0,
            placed_inserted: TierSet::new(),
        }
    }

    fn background(now: SimTime) -> Self {
        Ctx {
            background: true,
            ..Ctx::foreground(now)
        }
    }

    /// Charges latency: foreground latency accrues to the client and
    /// advances the context clock; background work only advances the clock.
    fn charge(&mut self, d: SimDuration) {
        if !self.background {
            self.charged += d;
        }
        self.now += d;
    }
}

const MAX_CASCADE_DEPTH: u8 = 4;

/// The tier a transient error implicates, for alert reporting.
fn err_tier(e: &TieraError) -> String {
    match e {
        TieraError::Timeout { tier, .. } | TieraError::TierFull { tier, .. } => tier.clone(),
        TieraError::NoSuchTier(tier) => tier.clone(),
        _ => String::from("-"),
    }
}

/// Effective streaming rate of an *uncapped* background copy: a dedicated
/// replication thread keeps a moderate queue depth against the source
/// volume (≈ 4 MB/s of 4 KB objects on a busy 2014 magnetic volume).
const UNCAPPED_STREAM_RATE: BandwidthCap = BandwidthCap {
    bytes_per_sec: 4.0e6,
};

impl Instance {
    pub(crate) fn new(name: String, env: SimEnv, tiers: Vec<TierHandle>, policy: Policy, registry: Registry) -> Self {
        let retry_rng = env.rng_for("retry-policy");
        Self {
            name,
            env,
            tiers: RwLock::named(
                "instance.tiers",
                rank::INSTANCE_TIERS,
                tiers.into_iter().map(Attached::new).collect(),
            ),
            policy,
            registry,
            stats: InstanceStats::new(),
            keyring: RwLock::named("instance.keyring", rank::INSTANCE_KEYRING, HashMap::new()),
            background: Mutex::named(
                "instance.background",
                rank::INSTANCE_BACKGROUND,
                BackgroundQueue::default(),
            ),
            control_layer: AtomicBool::new(true),
            retry: RwLock::named("instance.retry", rank::INSTANCE_RETRY, RetryPolicy::none()),
            retry_active: AtomicBool::new(false),
            retry_rng: Mutex::named("instance.retry_rng", rank::INSTANCE_RETRY_RNG, retry_rng),
            alerts: Mutex::named("instance.alerts", rank::INSTANCE_ALERTS, Vec::new()),
            alerts_total: AtomicU64::new(0),
        }
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulation environment.
    pub fn env(&self) -> &SimEnv {
        &self.env
    }

    /// The (runtime-mutable) policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Validates and installs a rule into the live policy (paper §4.2.3's
    /// dynamic policy changes). Unlike [`Policy::add`], which trusts its
    /// caller, this is the checked front door for rules arriving at
    /// runtime: every tier the rule scopes, observes, or targets must be
    /// attached, and timer periods must be positive.
    pub fn install_rule(&self, rule: Rule) -> Result<RuleId> {
        self.validate_rule(&rule)?;
        Ok(self.policy.add(rule))
    }

    /// Checks a rule against the instance's attached tiers without
    /// installing it. The specification-level analyzer (`tiera-spec`)
    /// cannot run here — by the time a rule reaches the core it is already
    /// lowered past the AST — so this re-validates the lowered form.
    pub fn validate_rule(&self, rule: &Rule) -> Result<()> {
        let tiers = self.tier_names();
        let check = |name: &str| -> Result<()> {
            if tiers.iter().any(|t| t == name) {
                Ok(())
            } else {
                Err(TieraError::InvalidConfig(format!(
                    "rule references unattached tier {name}"
                )))
            }
        };
        match &rule.event {
            EventKind::Timer { period } => {
                if period.as_nanos() == 0 {
                    return Err(TieraError::InvalidConfig(
                        "timer rule has a zero period".to_string(),
                    ));
                }
            }
            EventKind::Threshold { metric, .. } => {
                if let Some(tier) = metric.tier() {
                    check(tier)?;
                }
            }
            EventKind::Action { tier: Some(tier), .. } => check(tier)?,
            EventKind::Action { tier: None, .. } => {}
        }
        for response in &rule.responses {
            for tier in response.referenced_tiers() {
                check(tier)?;
            }
        }
        Ok(())
    }

    /// The metadata registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Collected statistics.
    pub fn stats(&self) -> &InstanceStats {
        &self.stats
    }

    /// Installs a named encryption key in the key ring.
    pub fn add_key(&self, key_id: impl Into<String>, key: [u8; 32]) {
        self.keyring.write().insert(key_id.into(), key);
    }

    /// Enables/disables the control layer (Figure 18's overhead baseline).
    pub fn set_control_layer(&self, enabled: bool) {
        self.control_layer.store(enabled, Ordering::Release);
    }

    // ---- robustness: retries, failover, FAILURE_ALERT ----

    /// Installs the retry/backoff/failover policy for tier operations.
    /// The default is [`RetryPolicy::none`]: one attempt, no failover.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.retry_active.store(!policy.is_trivial(), Ordering::Release);
        *self.retry.write() = policy;
    }

    /// The currently installed retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.read().clone()
    }

    /// Drains the FAILURE_ALERT events accumulated since the last drain
    /// (a monitor consumes these, see
    /// [`crate::monitor::FailureMonitor::observing_alerts`]).
    pub fn drain_alerts(&self) -> Vec<FailureAlert> {
        std::mem::take(&mut *self.alerts.lock())
    }

    /// Total FAILURE_ALERT events emitted since construction.
    pub fn alerts_emitted(&self) -> u64 {
        self.alerts_total.load(Ordering::Relaxed)
    }

    fn emit_alert(&self, alert: FailureAlert) {
        self.alerts_total.fetch_add(1, Ordering::Relaxed);
        self.alerts.lock().push(alert);
    }

    // ---- tier management (runtime add/remove, paper §4.2.3) ----

    /// Attached tier names, in preference order.
    pub fn tier_names(&self) -> Vec<String> {
        self.tiers.read().iter().map(|t| t.id.to_string()).collect()
    }

    /// Per-tier logical-vs-physical capacity accounting, for tiers that
    /// transform payloads (compressed / content-addressed wrappers from
    /// `tiera-tierx`). Plain tiers are omitted.
    pub fn capacity_profiles(&self) -> Vec<(String, crate::tier::CapacityProfile)> {
        self.tiers
            .read()
            .iter()
            .filter_map(|t| t.tier.capacity_profile().map(|p| (t.id.to_string(), p)))
            .collect()
    }

    /// Instance-wide roll-up of [`Self::capacity_profiles`]: sums byte and
    /// object counters across wrapped tiers (the refcount histogram is
    /// per-tier and not merged).
    pub fn capacity_summary(&self) -> crate::tier::CapacityProfile {
        let mut sum = crate::tier::CapacityProfile::default();
        for (_, p) in self.capacity_profiles() {
            sum.logical_bytes += p.logical_bytes;
            sum.physical_bytes += p.physical_bytes;
            sum.objects += p.objects;
            sum.raw_fallback_objects += p.raw_fallback_objects;
            sum.dedup_hits += p.dedup_hits;
            sum.unique_blobs += p.unique_blobs;
        }
        sum
    }

    /// Handle to a tier by name.
    pub fn tier(&self, name: &str) -> Result<TierHandle> {
        self.attached(name).map(|t| t.tier)
    }

    /// The attached tier called `name`, compared by name: rules carry
    /// names, and an instance has a handful of tiers.
    fn attached(&self, name: &str) -> Result<Attached> {
        self.tiers
            .read()
            .iter()
            .find(|t| t.id == name)
            .cloned()
            .ok_or_else(|| TieraError::NoSuchTier(name.to_string()))
    }

    /// Handle to the attached tier with this id (object locations carry
    /// ids); `None` once it is detached.
    fn tier_by_id(&self, id: TierId) -> Option<TierHandle> {
        let tiers = self.tiers.read();
        tiers.iter().find(|t| t.id == id).map(|t| Arc::clone(&t.tier))
    }

    /// Attaches a tier at the end of the preference order.
    pub fn attach_tier(&self, tier: TierHandle) -> Result<()> {
        let mut tiers = self.tiers.write();
        if tiers.iter().any(|t| t.id == tier.name()) {
            return Err(TieraError::InvalidConfig(format!(
                "tier {} already attached",
                tier.name()
            )));
        }
        *tiers = tiers.iter().cloned().chain([Attached::new(tier)]).collect();
        Ok(())
    }

    /// Detaches a tier (e.g. after a storage-service failure, Fig 17).
    /// Objects whose only location was this tier become unreachable until
    /// re-stored; their metadata is retained.
    pub fn detach_tier(&self, name: &str) -> Result<()> {
        let mut tiers = self.tiers.write();
        if !tiers.iter().any(|t| t.id == name) {
            return Err(TieraError::NoSuchTier(name.to_string()));
        }
        *tiers = tiers.iter().filter(|t| t.id != name).cloned().collect();
        Ok(())
    }

    /// Total monthly capacity cost of all attached tiers.
    pub fn monthly_cost(&self, now: SimTime) -> tiera_sim::CostReport {
        let mut report = tiera_sim::CostReport::default();
        for t in self.tiers.read().iter() {
            let gb = t.tier.capacity(now) as f64 / (1024.0 * 1024.0 * 1024.0);
            report.add(
                format!("{} ({:.2} GB)", t.id, gb),
                t.tier.monthly_cost(now),
            );
        }
        report
    }

    fn default_tier(&self) -> Result<Attached> {
        self.tiers
            .read()
            .first()
            .cloned()
            .ok_or_else(|| TieraError::InvalidConfig("instance has no tiers".into()))
    }

    // ---- application interface layer ----

    /// Stores an object.
    pub fn put(&self, key: impl Into<ObjectKey>, data: impl Into<Bytes>, now: SimTime) -> Result<PutReceipt> {
        self.put_with(key, data, PutOptions::default(), now)
    }

    /// Stores an object with options (tags).
    pub fn put_with(
        &self,
        key: impl Into<ObjectKey>,
        data: impl Into<Bytes>,
        opts: PutOptions,
        now: SimTime,
    ) -> Result<PutReceipt> {
        let key: ObjectKey = key.into();
        let data: Bytes = data.into();
        let size = data.len() as u64;

        if !self.control_layer.load(Ordering::Acquire) {
            // Figure 18 baseline: bypass the control layer entirely.
            let receipt = self.default_tier()?.tier.put(&key, data, now)?;
            self.stats.record_write(receipt.latency);
            self.env.clock().advance_to(now + receipt.latency);
            return Ok(PutReceipt {
                latency: receipt.latency,
            });
        }

        // Snapshot prior state for overwrite cleanup.
        let prior = self.registry.get(&key);

        // Register metadata (dirty until persisted, per Fig 3).
        let mut meta = ObjectMeta::new(size, now);
        meta.dirty = true;
        if !opts.tags.is_empty() {
            meta.set_tags(opts.tags.iter().cloned());
        }
        if let Some(prev) = &prior {
            meta.created = prev.created;
            meta.access_count = prev.access_count;
            // Keep the previous copies visible until the new placement
            // lands: a concurrent GET reads the old bytes (the overwrite is
            // not atomic across tiers, but it is never *invisible*). Stale
            // locations are cleaned below once placement finishes.
            meta.locations = prev.locations.clone();
        }
        meta.touch(now);
        let into_tier = self.default_tier()?.id.name();
        // In memory only: the placement that records the first location
        // persists the record, so a crash before any tier write leaves a
        // fresh key unpersisted and an overwritten key's old record intact.
        self.registry.insert_locked(&key, meta);

        let mut ctx = Ctx::foreground(now);
        ctx.inserted = Some(key.clone());
        ctx.inserted_data = Some(data);

        let matching = self.matching_action_rules(ActionOp::Put, into_tier);

        // Does any matching foreground rule place the inserted object?
        let rules_place = matching.iter().any(|(_, rule, background)| {
            !background && rule.responses.iter().any(places_inserted)
        });

        let result: Result<()> = (|| {
            if !rules_place {
                // Implicit default placement: `store(insert.object, to:
                // <default tier>)`, counted as the response it stands for.
                self.stats.record_response();
                let data = self.fetch_stored(&key, &mut ctx)?;
                self.store_one(&key, data, &[into_tier], &mut ctx)?;
            }
            self.fire_action_rules(&matching, &mut ctx)
        })();

        if let Err(e) = result {
            // A failed PUT leaves no phantom state for brand-new keys:
            // neither metadata nor bytes already placed in some tiers by
            // the partially-executed placement (which would strand
            // unreachable data and leak capacity).
            if prior.is_none() {
                for placed in &ctx.placed_inserted {
                    if let Some(tier) = self.tier_by_id(*placed) {
                        self.cleanup_delete(&tier, &key, ctx.now);
                    }
                }
                self.registry.remove(&key);
            }
            return Err(e);
        }

        // Overwrite cleanup: stale copies in tiers the new placement did
        // not freshly write are deleted (the object is immutable; overwrite
        // replaces it everywhere). The placement set comes from the
        // execution context, not the carried-over metadata.
        if let Some(prev) = prior {
            let placed = &ctx.placed_inserted;
            for stale in prev.locations.iter().filter(|l| !placed.contains_id(**l)) {
                if let Some(tier) = self.tier_by_id(*stale) {
                    self.cleanup_delete(&tier, &key, ctx.now);
                }
            }
            self.registry.update(&key, |m| {
                m.locations.retain(|l| placed.contains_id(l));
            });
            if let Some(d) = prev.digest() {
                if let Some(physical) = self.registry.dedup_release(&d) {
                    self.delete_physical(&physical, ctx.now);
                }
            }
        }

        self.eval_thresholds(&mut ctx)?;

        self.stats.record_write(ctx.charged);
        self.env.clock().advance_to(ctx.now);
        Ok(PutReceipt {
            latency: ctx.charged,
        })
    }

    /// Retrieves an object.
    ///
    /// The read is served from the most preferred attached tier holding the
    /// object (tier order = declaration order). If that tier times out
    /// (failure injection), the next location is tried and the timeout is
    /// charged to the client.
    pub fn get(&self, key: impl Into<ObjectKey>, now: SimTime) -> Result<(Bytes, GetReceipt)> {
        let key: ObjectKey = key.into();

        if !self.control_layer.load(Ordering::Acquire) {
            let Attached { id, tier, .. } = self.default_tier()?;
            let (data, receipt) = tier.get(&key, now)?;
            self.stats.record_read(receipt.latency, id);
            self.env.clock().advance_to(now + receipt.latency);
            return Ok((
                data,
                GetReceipt {
                    latency: receipt.latency,
                    served_by: id,
                },
            ));
        }

        let meta = self
            .registry
            .get(&key)
            .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;

        let mut ctx = Ctx::foreground(now);
        let (raw, served_by) = self.read_raw(&key, &meta, &mut ctx)?;
        let data = self.decode_payload(&key, &meta, raw.clone())?;

        self.registry.touch(&key, ctx.now);
        if meta.digest().is_some() {
            // Keep the physical object's LRU position in sync with logical
            // accesses so cache eviction sees real usage.
            let phys = self.resolve_physical(&key);
            if phys != key {
                self.registry.touch(&phys, ctx.now);
            }
        }

        // Fire GET action rules (e.g. read-promotion in LRU cache
        // policies). The just-read stored bytes ride along in the context
        // so a promote does not re-read the slow tier.
        let matching = self.matching_action_rules(ActionOp::Get, served_by.name());
        if !matching.is_empty() {
            ctx.inserted = Some(key.clone());
            ctx.inserted_data = Some(raw.clone());
            self.fire_action_rules(&matching, &mut ctx)?;
        }

        // Reads change object-attribute metrics (access counts), so
        // threshold rules are evaluated here too.
        self.eval_thresholds(&mut ctx)?;

        self.stats.record_read(ctx.charged, served_by);
        self.env.clock().advance_to(ctx.now);
        Ok((
            data,
            GetReceipt {
                latency: ctx.charged,
                served_by,
            },
        ))
    }

    /// Deletes an object from every tier.
    pub fn delete(&self, key: impl Into<ObjectKey>, now: SimTime) -> Result<SimDuration> {
        let key: ObjectKey = key.into();
        let meta = self
            .registry
            .get(&key)
            .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;

        let mut ctx = Ctx::foreground(now);

        if let Some(d) = meta.digest() {
            // Dedup object: drop the reference; delete bytes on last ref.
            if let Some(physical) = self.registry.dedup_release(&d) {
                self.delete_physical(&physical, ctx.now);
            }
        } else {
            let mut slowest = SimDuration::ZERO;
            for loc in &meta.locations {
                if let Some(tier) = self.tier_by_id(*loc) {
                    let receipt = tier.delete(&key, ctx.now)?;
                    slowest = slowest.max(receipt.latency);
                }
            }
            ctx.charge(slowest);
        }
        self.registry.remove(&key);

        let into_tier = self.default_tier()?.id.name();
        let matching = self.matching_action_rules(ActionOp::Delete, into_tier);
        self.fire_action_rules(&matching, &mut ctx)?;

        self.eval_thresholds(&mut ctx)?;
        self.env.clock().advance_to(ctx.now);
        Ok(ctx.charged)
    }

    /// Whether the instance holds an object.
    pub fn contains(&self, key: impl Into<ObjectKey>) -> bool {
        self.registry.contains(&key.into())
    }

    // ---- the control layer's clock: timers + background work ----

    /// Drives timer events and queued background work up to virtual time
    /// `now`, then makes the object metadata durable (a no-op without a
    /// metadata directory): the tick is the durability boundary. Call this
    /// from the experiment driver (or the RPC server's event thread) as
    /// simulated time advances.
    pub fn pump(&self, now: SimTime) -> Result<PumpReport> {
        let mut report = PumpReport::default();

        // Timer rules: fire once per elapsed period, at the period boundary.
        let due: Vec<(SimTime, Arc<Rule>)> = self.policy.with_rules(|rules| {
            let mut due = Vec::new();
            for installed in rules.iter_mut() {
                if let EventKind::Timer { period } = &installed.rule.event {
                    if period.as_nanos() == 0 {
                        continue;
                    }
                    let mut next = installed.state.last_fired + *period;
                    while next <= now {
                        due.push((next, Arc::clone(&installed.rule)));
                        installed.state.last_fired = next;
                        next += *period;
                    }
                }
            }
            due
        });
        for (fire_at, rule) in due {
            self.stats.record_event();
            report.timers_fired += 1;
            let mut ctx = Ctx::background(fire_at);
            if let Err(e) = self.execute_responses(&rule.responses, &mut ctx) {
                // A failing timer body must not wedge the pump (it used to
                // abort the drain, stranding every queued item behind it).
                // The timer refires next period, which is the natural
                // retry; surface the failure as an alert meanwhile.
                self.emit_alert(FailureAlert {
                    at: fire_at,
                    tier: err_tier(&e),
                    op: "timer",
                    failover_to: None,
                    detail: format!("timer responses failed: {e}"),
                });
            }
        }

        // Background queue: drain in due order (heap-backed, O(log n)).
        loop {
            let work = self.background.lock().pop_due(now);
            let Some(work) = work else { break };
            report.background_executed += 1;
            let mut ctx = Ctx::background(work.due);
            ctx.inserted = work.inserted.clone();
            match work.work {
                WorkItem::Responses(rule) => {
                    if let Err(e) = self.execute_responses(&rule.responses, &mut ctx) {
                        self.requeue_or_drop(
                            work.due,
                            WorkItem::Responses(rule),
                            work.inserted,
                            work.attempts,
                            &e,
                        );
                    }
                }
                WorkItem::PacedCopy {
                    mut keys,
                    to,
                    cap,
                    delete_source,
                } => {
                    if let Some(key) = keys.pop_front() {
                        let moved = match self.copy_single(&key, &to, delete_source, &mut ctx) {
                            Ok(moved) => moved,
                            Err(e) if RetryPolicy::retryable(&e) => {
                                // Transient destination trouble (timeout,
                                // full): put the key back and retry the
                                // whole batch later, against the attempt
                                // budget.
                                keys.push_front(key);
                                self.requeue_or_drop(
                                    work.due,
                                    WorkItem::PacedCopy {
                                        keys,
                                        to,
                                        cap,
                                        delete_source,
                                    },
                                    work.inserted,
                                    work.attempts,
                                    &e,
                                );
                                continue;
                            }
                            // A copy racing with concurrent overwrites or
                            // deletes may find an object gone mid-flight;
                            // skip it and keep draining the batch.
                            Err(_) => 4096,
                        };
                        if !keys.is_empty() {
                            // Pace: the next chunk may only start once this
                            // one's bytes have "drained" at the cap rate.
                            self.background.lock().push(PendingWork {
                                due: work.due + cap.pace(moved.max(1)),
                                work: WorkItem::PacedCopy {
                                    keys,
                                    to,
                                    cap,
                                    delete_source,
                                },
                                inserted: work.inserted,
                                attempts: 0,
                            });
                        }
                    }
                }
            }
        }

        self.registry.sync()?;
        Ok(report)
    }

    /// Requeues failed background work with a deterministic exponential
    /// delay (no RNG: background retries must not perturb the seeded
    /// streams), dropping it with an alert once the attempt budget is
    /// spent. Before this, a failing background item aborted the whole
    /// pump drain *and* was itself lost.
    fn requeue_or_drop(
        &self,
        due: SimTime,
        work: WorkItem,
        inserted: Option<ObjectKey>,
        attempts: u32,
        err: &TieraError,
    ) {
        const MAX_BACKGROUND_ATTEMPTS: u32 = 8;
        if attempts + 1 >= MAX_BACKGROUND_ATTEMPTS {
            self.emit_alert(FailureAlert {
                at: due,
                tier: err_tier(err),
                op: "background",
                failover_to: None,
                detail: format!(
                    "background work dropped after {MAX_BACKGROUND_ATTEMPTS} attempts: {err}"
                ),
            });
            return;
        }
        let delay = SimDuration::from_secs(1 << attempts.min(6)).min(SimDuration::from_secs(60));
        self.background.lock().push(PendingWork {
            due: due + delay,
            work,
            inserted,
            attempts: attempts + 1,
        });
    }

    /// Queued background work items.
    pub fn background_depth(&self) -> usize {
        self.background.lock().len()
    }

    // ---- internals ----

    fn matching_action_rules(
        &self,
        op: ActionOp,
        into_tier: &str,
    ) -> Vec<(RuleId, Arc<Rule>, bool)> {
        // Action matching never mutates trigger state: shared lock only,
        // so concurrent PUT/GET threads don't serialize on the policy.
        self.policy.with_rules_read(|rules| {
            rules
                .iter()
                .filter_map(|installed| match &installed.rule.event {
                    EventKind::Action {
                        op: rule_op,
                        tier,
                        background,
                    } if *rule_op == op
                        && tier.as_deref().map(|t| t == into_tier).unwrap_or(true) =>
                    {
                        Some((installed.id, Arc::clone(&installed.rule), *background))
                    }
                    _ => None,
                })
                .collect()
        })
    }

    /// Fires matched action rules in installation order: foreground rules
    /// run inline, background rules are queued for `pump`.
    fn fire_action_rules(
        &self,
        matching: &[(RuleId, Arc<Rule>, bool)],
        ctx: &mut Ctx,
    ) -> Result<()> {
        for (_, rule, background) in matching {
            self.stats.record_event();
            if *background {
                self.enqueue_background(Arc::clone(rule), ctx);
            } else {
                self.execute_responses(&rule.responses, ctx)?;
            }
        }
        Ok(())
    }

    fn enqueue_background(&self, rule: Arc<Rule>, ctx: &Ctx) {
        self.stats.record_background();
        self.background.lock().push(PendingWork {
            due: ctx.now,
            work: WorkItem::Responses(rule),
            inserted: ctx.inserted.clone(),
            attempts: 0,
        });
    }

    /// Evaluates threshold rules (edge-triggered) after state-changing
    /// actions.
    fn eval_thresholds(&self, ctx: &mut Ctx) -> Result<()> {
        if ctx.depth >= MAX_CASCADE_DEPTH {
            return Ok(());
        }
        // Fast path: no threshold rules installed (the common policy on the
        // action hot path) — skip the write lock entirely.
        if !self.policy.has_threshold_rules() {
            return Ok(());
        }
        let fired: Vec<(Arc<Rule>, bool)> = self.policy.with_rules(|rules| {
            let mut fired = Vec::new();
            for installed in rules.iter_mut() {
                if let EventKind::Threshold {
                    metric,
                    relation,
                    value,
                    background,
                } = &installed.rule.event
                {
                    let current = self.metric_value(metric, ctx.now);
                    let holds = relation.holds(current, *value);
                    if holds && installed.state.armed {
                        installed.state.armed = false;
                        fired.push((Arc::clone(&installed.rule), *background));
                    } else if !holds {
                        installed.state.armed = true;
                    }
                }
            }
            fired
        });
        for (rule, background) in fired {
            self.stats.record_event();
            if background {
                self.enqueue_background(rule, ctx);
            } else {
                ctx.depth += 1;
                let r = self.execute_responses(&rule.responses, ctx);
                ctx.depth -= 1;
                r?;
            }
        }
        Ok(())
    }

    fn metric_value(&self, metric: &Metric, now: SimTime) -> f64 {
        match metric {
            Metric::TierFillFraction(t) => self
                .tier(t)
                .map(|tier| tier.fill_fraction(now))
                .unwrap_or(0.0),
            Metric::TierUsedBytes(t) => {
                self.tier(t).map(|tier| tier.used() as f64).unwrap_or(0.0)
            }
            Metric::TierDirtyBytes(t) => self.registry.aggregates(t).dirty_bytes as f64,
            Metric::TierObjectCount(t) => self.registry.aggregates(t).objects as f64,
            Metric::ObjectAccessCount(k) => self
                .registry
                .get(&ObjectKey::new(k))
                .map(|m| m.access_count as f64)
                .unwrap_or(0.0),
            Metric::ObjectAccessFrequency(k) => self
                .registry
                .get(&ObjectKey::new(k))
                .map(|m| m.access_frequency(now))
                .unwrap_or(0.0),
        }
    }

    fn execute_responses(&self, responses: &[ResponseSpec], ctx: &mut Ctx) -> Result<()> {
        for r in responses {
            self.execute_response(r, ctx)?;
        }
        Ok(())
    }

    fn execute_response(&self, spec: &ResponseSpec, ctx: &mut Ctx) -> Result<()> {
        self.stats.record_response();
        match spec {
            ResponseSpec::Store { what, to } => self.exec_store(what, to, false, ctx),
            ResponseSpec::StoreOnce { what, to } => self.exec_store(what, to, true, ctx),
            ResponseSpec::Retrieve { what } => self.exec_retrieve(what, ctx),
            ResponseSpec::Copy {
                what,
                to,
                bandwidth,
            } => self.exec_copy(what, to, *bandwidth, false, ctx),
            ResponseSpec::Move {
                what,
                to,
                bandwidth,
            } => self.exec_copy(what, to, *bandwidth, true, ctx),
            ResponseSpec::Delete { what, from } => self.exec_delete(what, from.as_deref(), ctx),
            ResponseSpec::Encrypt { what, key_id } => self.exec_crypt(what, key_id, true, ctx),
            ResponseSpec::Decrypt { what, key_id } => self.exec_crypt(what, key_id, false, ctx),
            ResponseSpec::Compress { what } => self.exec_compress(what, true, ctx),
            ResponseSpec::Uncompress { what } => self.exec_compress(what, false, ctx),
            ResponseSpec::Grow { tier, percent } => {
                let t = self.tier(tier)?;
                t.grow(*percent, ctx.now);
                Ok(())
            }
            ResponseSpec::Shrink { tier, percent } => {
                let t = self.tier(tier)?;
                t.shrink(*percent, ctx.now);
                Ok(())
            }
            ResponseSpec::EvictUntilFit { from, to, order } => {
                self.exec_evict_until_fit(from, to, *order, ctx)
            }
            ResponseSpec::If { guard, then } => {
                if self.eval_guard(guard, ctx)? {
                    self.execute_responses(then, ctx)?;
                }
                Ok(())
            }
        }
    }

    fn eval_guard(&self, guard: &Guard, ctx: &Ctx) -> Result<bool> {
        match guard {
            Guard::Always => Ok(true),
            Guard::TierFilled { tier, at_least } => {
                let t = self.tier(tier)?;
                Ok(match at_least {
                    Some(frac) => t.fill_fraction(ctx.now) >= *frac,
                    None => {
                        let incoming = ctx
                            .inserted_data
                            .as_ref()
                            .map(|d| d.len() as u64)
                            .unwrap_or(0);
                        t.would_overflow(incoming, ctx.now)
                    }
                })
            }
            Guard::Not(inner) => Ok(!self.eval_guard(inner, ctx)?),
        }
    }

    /// Resolves a logical key to the physical content key when the object
    /// was stored via `storeOnce` (dedup indirection). Physical objects own
    /// the real locations; logical dedup entries only carry the digest.
    fn resolve_physical(&self, key: &ObjectKey) -> ObjectKey {
        match self.registry.get(key).and_then(|m| m.digest()) {
            Some(d) => self.registry.dedup_lookup(&d).unwrap_or_else(|| key.clone()),
            None => key.clone(),
        }
    }

    /// Reads an object's raw stored bytes from its most preferred reachable
    /// location, resolving dedup indirection.
    fn read_raw(&self, key: &ObjectKey, meta: &ObjectMeta, ctx: &mut Ctx) -> Result<(Bytes, TierId)> {
        // Dedup objects live under their physical content key, whose
        // metadata holds the true locations.
        let physical = match meta.digest() {
            Some(d) => Some(
                self.registry
                    .dedup_lookup(&d)
                    .and_then(|phys| Some((self.registry.get(&phys)?, phys)))
                    .ok_or_else(|| TieraError::LocationsUnavailable(key.to_string()))?,
            ),
            None => None,
        };
        let (read_key, locations) = match &physical {
            Some((phys_meta, phys)) => (phys, &phys_meta.locations),
            None => (key, &meta.locations),
        };
        let tiers = Arc::clone(&self.tiers.read());
        let mut last_err = None;
        // Per-location retry budget (trivial policy: one attempt, exactly
        // the old behavior); once a location exhausts it, the read falls
        // back along the replica/tier chain.
        let policy = if self.retry_active.load(Ordering::Acquire) {
            Some(self.retry.read().clone())
        } else {
            None
        };
        let attempts = policy.as_ref().map(|p| p.max_attempts.max(1)).unwrap_or(1);
        for Attached { id, tier, .. } in tiers.iter().filter(|t| locations.contains_id(t.id)) {
            let mut retry = 0u32;
            loop {
                match tier.get(read_key, ctx.now) {
                    Ok((bytes, receipt)) => {
                        ctx.charge(receipt.latency);
                        return Ok((bytes, *id));
                    }
                    Err(TieraError::Timeout { waited, tier: t }) => {
                        // Charge the timeout, retry in place while budget
                        // remains, then fall back to the next location.
                        ctx.charge(waited);
                        last_err = Some(TieraError::Timeout { waited, tier: t });
                        if retry + 1 < attempts {
                            if let Some(p) = &policy {
                                ctx.charge(p.backoff(retry, &mut self.retry_rng.lock()));
                            }
                            retry += 1;
                            continue;
                        }
                        break;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        break;
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| TieraError::LocationsUnavailable(key.to_string())))
    }

    /// Undoes storage transforms (compression, encryption) on read.
    fn decode_payload(&self, key: &ObjectKey, meta: &ObjectMeta, raw: Bytes) -> Result<Bytes> {
        let mut data = raw;
        if meta.encrypted {
            let key_id = meta
                .encryption_key_id()
                .ok_or_else(|| TieraError::Codec("encrypted object without key id".into()))?;
            let k = self
                .keyring
                .read()
                .get(key_id)
                .copied()
                .ok_or_else(|| TieraError::Codec(format!("unknown key id {key_id}")))?;
            let mut buf = data.to_vec();
            ChaCha20::new(&k).apply(&ChaCha20::nonce_for(key.as_str().as_bytes()), &mut buf);
            data = Bytes::from(buf);
        }
        if meta.compressed {
            let plain = lzss::decompress(&data)
                .map_err(|e| TieraError::Codec(format!("decompress {key}: {e}")))?;
            data = Bytes::from(plain);
        }
        Ok(data)
    }

    /// Fetches the payload bytes for `key` as currently stored (used by
    /// copy/move/store-of-existing). Charged to the context.
    fn fetch_stored(&self, key: &ObjectKey, ctx: &mut Ctx) -> Result<Bytes> {
        if ctx.inserted.as_ref() == Some(key) {
            if let Some(d) = &ctx.inserted_data {
                return Ok(d.clone());
            }
        }
        let meta = self
            .registry
            .get(key)
            .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
        let (raw, _) = self.read_raw(key, &meta, ctx)?;
        Ok(raw)
    }

    fn exec_store(
        &self,
        what: &Selector,
        to: &[String],
        dedup: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let keys = self
            .registry
            .select(what, ctx.inserted.as_ref(), ctx.now);
        for key in keys {
            let data = self.fetch_stored(&key, ctx)?;
            if dedup {
                self.store_once_one(&key, data, to, ctx)?;
            } else {
                self.store_one(&key, data, to, ctx)?;
            }
        }
        Ok(())
    }

    /// One tier PUT under the retry policy: bounded attempts with
    /// exponential backoff in virtual time. Timeout waits and backoffs are
    /// charged to the context as they occur; the returned latency is the
    /// successful attempt's own cost (callers take the max across targets).
    fn tier_put_retrying(
        &self,
        tier: &TierHandle,
        key: &ObjectKey,
        data: &Bytes,
        ctx: &mut Ctx,
    ) -> Result<SimDuration> {
        if !self.retry_active.load(Ordering::Acquire) {
            return Ok(tier.put(key, data.clone(), ctx.now)?.latency);
        }
        let policy = self.retry.read().clone();
        let start = ctx.now;
        let mut retry = 0u32;
        loop {
            match tier.put(key, data.clone(), ctx.now) {
                Ok(receipt) => return Ok(receipt.latency),
                Err(e) => {
                    if let TieraError::Timeout { waited, .. } = &e {
                        // The client sat out the failed attempt.
                        ctx.charge(*waited);
                    }
                    let budget_ok = policy
                        .op_budget
                        .map(|b| ctx.now.since(start) < b)
                        .unwrap_or(true);
                    if retry + 1 >= policy.max_attempts
                        || !RetryPolicy::retryable(&e)
                        || !budget_ok
                    {
                        return Err(e);
                    }
                    ctx.charge(policy.backoff(retry, &mut self.retry_rng.lock()));
                    retry += 1;
                }
            }
        }
    }

    /// Graceful degradation for a PUT whose target exhausted its retries:
    /// tries the remaining attached writable tiers (durable first, then
    /// attachment order) and emits a FAILURE_ALERT either way. Returns the
    /// replacement tier and write latency if one accepted the bytes.
    fn failover_put(
        &self,
        key: &ObjectKey,
        data: &Bytes,
        failed: TierId,
        exclude: &TierSet,
        ctx: &mut Ctx,
    ) -> Option<(Attached, SimDuration)> {
        let mut candidates: Vec<Attached> = self
            .tiers
            .read()
            .iter()
            .filter(|t| t.id != failed && !exclude.contains_id(t.id))
            .cloned()
            .collect();
        // Durable tiers first (stable sort keeps attachment order within
        // each group): degraded writes should stay crash-safe if possible.
        candidates.sort_by_key(|t| !t.durable);
        for alt in candidates {
            if let Ok(latency) = self.tier_put_retrying(&alt.tier, key, data, ctx) {
                self.emit_alert(FailureAlert {
                    at: ctx.now,
                    tier: failed.to_string(),
                    op: "put",
                    failover_to: Some(alt.id.to_string()),
                    detail: format!("put {key}: {failed} unavailable, redirected to {}", alt.id),
                });
                return Some((alt, latency));
            }
        }
        self.emit_alert(FailureAlert {
            at: ctx.now,
            tier: failed.to_string(),
            op: "put",
            failover_to: None,
            detail: format!("put {key}: {failed} unavailable and no writable fallback accepted it"),
        });
        None
    }

    /// Writes `data` under `key` to each target tier in parallel; charges
    /// the slowest write. Under a failover-enabled retry policy a target
    /// that exhausts its retries is replaced by the next writable tier.
    fn store_one<S: AsRef<str>>(
        &self,
        key: &ObjectKey,
        data: Bytes,
        to: &[S],
        ctx: &mut Ctx,
    ) -> Result<()> {
        let mut slowest = SimDuration::ZERO;
        let mut placed = TierSet::new();
        let mut durable = false;
        for tier_name in to {
            let mut target = self.attached(tier_name.as_ref())?;
            let latency = match self.tier_put_retrying(&target.tier, key, &data, ctx) {
                Ok(latency) => latency,
                Err(e) => {
                    let failover =
                        self.retry_active.load(Ordering::Acquire) && self.retry.read().failover;
                    if !failover {
                        return Err(e);
                    }
                    // Neither the other requested targets nor the tiers
                    // already written may stand in for the failed one.
                    let exclude: TierSet = to
                        .iter()
                        .filter_map(|t| TierId::lookup(t.as_ref()))
                        .chain(placed.iter().copied())
                        .collect();
                    match self.failover_put(key, &data, target.id, &exclude, ctx) {
                        Some((alt, latency)) => {
                            target = alt;
                            latency
                        }
                        None => return Err(e),
                    }
                }
            };
            slowest = slowest.max(latency);
            placed.insert_id(target.id);
            durable |= target.durable;
            if ctx.inserted.as_ref() == Some(key) {
                ctx.placed_inserted.insert_id(target.id);
            }
        }
        ctx.charge(slowest);
        // Landing on a durable tier does not clear dirty — only an explicit
        // copy/move does (the dirty bit means "not yet persisted by
        // policy"); but a store that *itself* targets a durable tier is a
        // synchronous persist.
        self.registry.update(key, |m| {
            for t in &placed {
                m.locations.insert_id(*t);
            }
            m.stored_size = data.len() as u64;
            if durable {
                m.dirty = false;
            }
        });
        Ok(())
    }

    fn store_once_one(
        &self,
        key: &ObjectKey,
        data: Bytes,
        to: &[String],
        ctx: &mut Ctx,
    ) -> Result<()> {
        let digest = Digest::of(&data);
        let physical = ObjectKey::new(format!("sha256:{}", digest.to_hex()));
        if ctx.inserted.as_ref() == Some(key) {
            for target in to.iter().filter_map(|t| self.attached(t).ok()) {
                ctx.placed_inserted.insert_id(target.id);
            }
        }
        match self.registry.dedup_acquire(digest, physical.clone()) {
            Some(_existing) => {
                // Content already stored: no tier writes at all (this is
                // what cuts the S3 PUT count in Fig 12b). The logical entry
                // just records the digest pointer.
                self.registry.update(key, |m| m.set_digest(Some(digest)));
            }
            None => {
                // The physical object owns locations and participates in
                // LRU ordering; logical entries point at it via the digest.
                let mut pm = ObjectMeta::new(data.len() as u64, ctx.now);
                pm.dirty = true;
                let mut slowest = SimDuration::ZERO;
                for tier_name in to {
                    let target = self.attached(tier_name)?;
                    let receipt = target.tier.put(&physical, data.clone(), ctx.now)?;
                    slowest = slowest.max(receipt.latency);
                    pm.locations.insert_id(target.id);
                    if target.durable {
                        pm.dirty = false;
                    }
                }
                ctx.charge(slowest);
                pm.touch(ctx.now);
                self.registry.upsert(physical, pm);
                self.registry.update(key, |m| {
                    m.set_digest(Some(digest));
                    m.stored_size = data.len() as u64;
                });
            }
        }
        Ok(())
    }

    fn exec_retrieve(&self, what: &Selector, ctx: &mut Ctx) -> Result<()> {
        let keys = self
            .registry
            .select(what, ctx.inserted.as_ref(), ctx.now);
        for key in keys {
            let meta = self
                .registry
                .get(&key)
                .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
            let _ = self.read_raw(&key, &meta, ctx)?;
            self.registry.touch(&key, ctx.now);
        }
        Ok(())
    }

    fn exec_copy<S: AsRef<str>>(
        &self,
        what: &Selector,
        to: &[S],
        bandwidth: Option<BandwidthCap>,
        delete_source: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let keys = self
            .registry
            .select(what, ctx.inserted.as_ref(), ctx.now);
        // Background copies self-pace via continuations: one object per
        // step, re-enqueued at the transfer rate, so they interleave with
        // foreground traffic in virtual time (paper Fig 14). Without an
        // explicit cap the replication stream runs at the device-limited
        // rate of a busy volume (~4 MB/s for 4 KB objects on 2014
        // magnetic EBS), which is exactly what makes uncapped replication
        // visibly inflate foreground latency.
        if ctx.background {
            let cap = bandwidth.unwrap_or(UNCAPPED_STREAM_RATE);
            let keys: std::collections::VecDeque<ObjectKey> = keys
                .into_iter()
                .map(|k| self.resolve_physical(&k))
                .collect();
            if !keys.is_empty() {
                self.background.lock().push(PendingWork {
                    due: ctx.now,
                    work: WorkItem::PacedCopy {
                        keys,
                        to: to.iter().map(|t| t.as_ref().to_string()).collect(),
                        cap,
                        delete_source,
                    },
                    inserted: ctx.inserted.clone(),
                    attempts: 0,
                });
            }
            return Ok(());
        }
        for key in keys {
            // Foreground capped copies pace inline (charged to the caller).
            if let Some(cap) = bandwidth {
                if let Some(meta) = self.registry.get(&self.resolve_physical(&key)) {
                    ctx.charge(cap.pace(meta.stored_size as usize));
                }
            }
            self.copy_single(&key, to, delete_source, ctx)?;
        }
        Ok(())
    }

    /// Copies one object to `to`, optionally vacating its other locations.
    /// Returns the number of bytes moved.
    fn copy_single<S: AsRef<str>>(
        &self,
        key: &ObjectKey,
        to: &[S],
        delete_source: bool,
        ctx: &mut Ctx,
    ) -> Result<usize> {
        // Dedup'd logical keys redirect to their physical object, which
        // owns the locations (and the bytes).
        let key = self.resolve_physical(key);
        // No-op short-circuit: the object already lives exactly where the
        // copy/move would put it.
        if let Some(meta) = self.registry.get(&key) {
            let covered = to.iter().all(|t| meta.locations.contains(t.as_ref()));
            let exact = meta.locations.len() == to.len();
            if covered && (!delete_source || exact) && ctx.inserted.as_ref() != Some(&key) {
                return Ok(meta.stored_size as usize);
            }
        }
        let data = self.fetch_stored(&key, ctx)?;
        let moved = data.len();
        let mut slowest = SimDuration::ZERO;
        let mut dest = TierSet::new();
        let mut dest_durable = false;
        for tier_name in to {
            let target = self.attached(tier_name.as_ref())?;
            let latency = self.tier_put_retrying(&target.tier, &key, &data, ctx)?;
            slowest = slowest.max(latency);
            dest.insert_id(target.id);
            dest_durable |= target.durable;
            if ctx.inserted.as_ref() == Some(&key) {
                ctx.placed_inserted.insert_id(target.id);
            }
        }
        ctx.charge(slowest);

        if delete_source {
            let old = self.registry.get(&key).map(|m| m.locations).unwrap_or_default();
            for loc in old.iter().filter(|l| !dest.contains_id(**l)) {
                if let Some(tier) = self.tier_by_id(*loc) {
                    let _ = tier.delete(&key, ctx.now)?;
                }
            }
        }
        self.registry.update(&key, |m| {
            if delete_source {
                m.locations = dest.clone();
            } else {
                for t in &dest {
                    m.locations.insert_id(*t);
                }
            }
            if dest_durable {
                m.dirty = false;
            }
        });
        Ok(moved)
    }

    fn exec_delete(&self, what: &Selector, from: Option<&str>, ctx: &mut Ctx) -> Result<()> {
        let keys = self
            .registry
            .select(what, ctx.inserted.as_ref(), ctx.now);
        for key in keys {
            let Some(meta) = self.registry.get(&key) else {
                continue;
            };
            match from {
                Some(tier_name) => {
                    if meta.locations.contains(tier_name) {
                        if meta.digest().is_none() {
                            let tier = self.tier(tier_name)?;
                            let receipt = tier.delete(&key, ctx.now)?;
                            ctx.charge(receipt.latency);
                        }
                        let updated = self.registry.update(&key, |m| {
                            m.locations.remove(tier_name);
                        });
                        if updated.map(|m| m.locations.is_empty()).unwrap_or(false) {
                            self.registry.remove(&key);
                        }
                    }
                }
                None => {
                    if let Some(d) = meta.digest() {
                        if let Some(physical) = self.registry.dedup_release(&d) {
                            self.delete_physical(&physical, ctx.now);
                        }
                    } else {
                        for loc in &meta.locations {
                            if let Some(tier) = self.tier_by_id(*loc) {
                                let receipt = tier.delete(&key, ctx.now)?;
                                ctx.charge(receipt.latency);
                            }
                        }
                    }
                    self.registry.remove(&key);
                }
            }
        }
        Ok(())
    }

    /// Deletes a dedup physical object's bytes from every attached tier and
    /// drops its registry entry (called when the last logical reference is
    /// released).
    fn delete_physical(&self, physical: &ObjectKey, now: SimTime) {
        for Attached { tier, .. } in self.tiers.read().iter() {
            if tier.contains(physical) {
                self.cleanup_delete(tier, physical, now);
            }
        }
        self.registry.remove(physical);
    }

    /// Deletes bytes the metadata no longer (or never did) point at. A
    /// refusal does not change the outcome of the operation cleaning up —
    /// it is counted, and the orphan stays in the tier.
    fn cleanup_delete(&self, tier: &TierHandle, key: &ObjectKey, now: SimTime) {
        if tier.delete(key, now).is_err() {
            self.stats.record_cleanup_failure();
        }
    }

    fn exec_crypt(&self, what: &Selector, key_id: &str, encrypt: bool, ctx: &mut Ctx) -> Result<()> {
        let k = self
            .keyring
            .read()
            .get(key_id)
            .copied()
            .ok_or_else(|| TieraError::Codec(format!("unknown key id {key_id}")))?;
        let keys = self
            .registry
            .select(what, ctx.inserted.as_ref(), ctx.now);
        for key in keys {
            let meta = self
                .registry
                .get(&key)
                .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
            if meta.encrypted == encrypt {
                continue; // already in the requested state
            }
            let (raw, _) = self.read_raw(&key, &meta, ctx)?;
            let mut buf = raw.to_vec();
            ChaCha20::new(&k).apply(&ChaCha20::nonce_for(key.as_str().as_bytes()), &mut buf);
            let data = Bytes::from(buf);
            // Rewrite in place at every location.
            let mut slowest = SimDuration::ZERO;
            for loc in &meta.locations {
                let tier = self
                    .tier_by_id(*loc)
                    .ok_or_else(|| TieraError::NoSuchTier(loc.to_string()))?;
                let receipt = tier.put(&key, data.clone(), ctx.now)?;
                slowest = slowest.max(receipt.latency);
            }
            ctx.charge(slowest);
            self.registry.update(&key, |m| {
                m.encrypted = encrypt;
                m.set_encryption_key_id(encrypt.then(|| key_id.to_string()));
            });
        }
        Ok(())
    }

    fn exec_compress(&self, what: &Selector, compress: bool, ctx: &mut Ctx) -> Result<()> {
        let keys = self
            .registry
            .select(what, ctx.inserted.as_ref(), ctx.now);
        for key in keys {
            let meta = self
                .registry
                .get(&key)
                .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
            if meta.compressed == compress {
                continue;
            }
            if meta.encrypted {
                return Err(TieraError::Codec(format!(
                    "refusing to (de)compress encrypted object {key}; decrypt first"
                )));
            }
            let (raw, _) = self.read_raw(&key, &meta, ctx)?;
            let data = if compress {
                Bytes::from(lzss::compress(&raw))
            } else {
                Bytes::from(
                    lzss::decompress(&raw)
                        .map_err(|e| TieraError::Codec(format!("uncompress {key}: {e}")))?,
                )
            };
            let mut slowest = SimDuration::ZERO;
            for loc in &meta.locations {
                let tier = self
                    .tier_by_id(*loc)
                    .ok_or_else(|| TieraError::NoSuchTier(loc.to_string()))?;
                let receipt = tier.put(&key, data.clone(), ctx.now)?;
                slowest = slowest.max(receipt.latency);
            }
            ctx.charge(slowest);
            self.registry.update(&key, |m| {
                m.compressed = compress;
                m.stored_size = data.len() as u64;
            });
        }
        Ok(())
    }

    fn exec_evict_until_fit(
        &self,
        from: &str,
        to: &str,
        order: EvictOrder,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let from_tier = self.tier(from)?;
        // Incoming size: the payload being inserted, or (for eviction fired
        // from a GET/move context) the object's stored size from metadata.
        let incoming = ctx
            .inserted_data
            .as_ref()
            .map(|d| d.len() as u64)
            .or_else(|| {
                ctx.inserted
                    .as_ref()
                    .and_then(|k| self.registry.get(k))
                    .map(|m| m.stored_size)
            })
            .unwrap_or(0);
        let mut evicted = 0usize;
        // Never evict the object being inserted, and bound the loop by the
        // tier's object count.
        let max_evictions = self.registry.aggregates(from).objects as usize + 1;
        while from_tier.would_overflow(incoming, ctx.now) && evicted <= max_evictions {
            let victim = match order {
                EvictOrder::Lru => self.registry.oldest_in(from),
                EvictOrder::Mru => self.registry.newest_in(from),
            };
            let Some(victim) = victim else { break };
            if Some(&victim) == ctx.inserted.as_ref() {
                break;
            }
            // Move the victim down a tier.
            self.exec_copy(&Selector::Key(victim.clone()), &[to], None, false, ctx)?;
            // Drop it from the fast tier.
            self.exec_delete(&Selector::Key(victim), Some(from), ctx)?;
            evicted += 1;
        }
        Ok(())
    }
}

/// Whether a response (recursively) stores the inserted object.
fn places_inserted(spec: &ResponseSpec) -> bool {
    match spec {
        ResponseSpec::Store { what, .. } | ResponseSpec::StoreOnce { what, .. } => {
            what.is_inserted_only()
        }
        ResponseSpec::If { then, .. } => then.iter().any(places_inserted),
        _ => false,
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("name", &self.name)
            .field("tiers", &self.tier_names())
            .field("rules", &self.policy.len())
            .field("objects", &self.registry.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InstanceBuilder;
    use crate::tier::{MemTier, TierTraits};
    use tiera_sim::StorageClass;

    const T0: SimTime = SimTime::ZERO;

    fn durable_tier(name: &str, cap: u64) -> Arc<MemTier> {
        MemTier::with_traits(
            name,
            cap,
            TierTraits {
                durable: true,
                availability_zone: "zone-a".into(),
                class: StorageClass::BlockStore,
            },
        )
    }

    /// Figure 3's LowLatencyInstance: store to cache on insert, copy dirty
    /// data to the persistent tier on a timer (write-back).
    fn low_latency_instance(writeback: SimDuration) -> Arc<Instance> {
        InstanceBuilder::new("LowLatencyInstance", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .tier(durable_tier("tier2", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["tier1"])),
            )
            .rule(
                Rule::on(EventKind::timer(writeback)).respond(ResponseSpec::copy(
                    Selector::InTier("tier1".into()).and(Selector::Dirty),
                    ["tier2"],
                )),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn put_get_roundtrip_default_placement() {
        let inst = InstanceBuilder::new("plain", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 1 << 20))
            .build()
            .unwrap();
        inst.put("k", &b"value"[..], T0).unwrap();
        let (data, receipt) = inst.get("k", T0).unwrap();
        assert_eq!(&data[..], b"value");
        assert_eq!(receipt.served_by, "t1");
        let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
        assert!(meta.in_tier("t1"));
        assert!(meta.dirty, "volatile placement leaves the object dirty");
    }

    #[test]
    fn install_rule_validates_against_attached_tiers() {
        let inst = low_latency_instance(SimDuration::from_secs(30));
        let before = inst.policy().len();

        // References only attached tiers: installed.
        let ok = Rule::on(EventKind::timer(SimDuration::from_secs(5)))
            .respond(ResponseSpec::copy(Selector::Dirty, ["tier2"]));
        inst.install_rule(ok).unwrap();
        assert_eq!(inst.policy().len(), before + 1);

        // Unattached response target: rejected, policy untouched.
        let bad = Rule::on(EventKind::timer(SimDuration::from_secs(5)))
            .respond(ResponseSpec::copy(Selector::Dirty, ["tier9"]));
        let err = inst.install_rule(bad).unwrap_err();
        assert!(matches!(err, TieraError::InvalidConfig(_)), "{err}");
        assert_eq!(inst.policy().len(), before + 1);

        // Unattached threshold metric tier: rejected.
        let bad = Rule::on(EventKind::threshold_at_least(
            Metric::TierFillFraction("tier9".into()),
            0.5,
        ))
        .respond(ResponseSpec::copy(Selector::Dirty, ["tier2"]));
        assert!(inst.install_rule(bad).is_err());

        // Unattached action scope: rejected.
        let bad = Rule::on(EventKind::Action {
            op: ActionOp::Put,
            tier: Some("tier9".into()),
            background: false,
        })
        .respond(ResponseSpec::store(Selector::Inserted, ["tier1"]));
        assert!(inst.install_rule(bad).is_err());

        // Zero timer period: rejected.
        let bad = Rule::on(EventKind::timer(SimDuration::ZERO))
            .respond(ResponseSpec::copy(Selector::Dirty, ["tier2"]));
        let err = inst.install_rule(bad).unwrap_err();
        assert!(err.to_string().contains("zero period"), "{err}");
    }

    #[test]
    fn get_missing_object_errors() {
        let inst = low_latency_instance(SimDuration::from_secs(30));
        assert!(matches!(
            inst.get("ghost", T0),
            Err(TieraError::NoSuchObject(_))
        ));
    }

    #[test]
    fn write_back_timer_persists_dirty_data() {
        let inst = low_latency_instance(SimDuration::from_secs(30));
        inst.put("a", &b"1"[..], T0).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("a")).unwrap();
        assert!(meta.dirty);
        assert!(!meta.in_tier("tier2"));

        // Before the period elapses nothing is copied.
        let r = inst.pump(SimTime::from_secs(29)).unwrap();
        assert_eq!(r.timers_fired, 0);
        // At the period boundary the copy fires and cleans the object.
        let r = inst.pump(SimTime::from_secs(30)).unwrap();
        assert_eq!(r.timers_fired, 1);
        let meta = inst.registry().get(&ObjectKey::new("a")).unwrap();
        assert!(meta.in_tier("tier1") && meta.in_tier("tier2"));
        assert!(!meta.dirty);
    }

    #[test]
    fn timer_fires_once_per_period() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.put("a", &b"1"[..], T0).unwrap();
        let r = inst.pump(SimTime::from_secs(35)).unwrap();
        assert_eq!(r.timers_fired, 3, "three whole periods in 35 s");
        let r = inst.pump(SimTime::from_secs(40)).unwrap();
        assert_eq!(r.timers_fired, 1);
    }

    #[test]
    fn write_through_persistent_instance() {
        // Figure 4's core: implicit placement to tier1 + copy to tier2 on
        // insert (foreground write-through, charged to the client).
        let inst = InstanceBuilder::new("PersistentInstance", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .tier(durable_tier("tier2", 1 << 20))
            .rule(
                Rule::on(EventKind::action_on(ActionOp::Put, "tier1"))
                    .respond(ResponseSpec::copy(Selector::Inserted, ["tier2"])),
            )
            .build()
            .unwrap();
        inst.put("x", &b"data"[..], T0).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("x")).unwrap();
        assert!(meta.in_tier("tier1") && meta.in_tier("tier2"));
        assert!(!meta.dirty, "write-through to a durable tier cleans");
    }

    #[test]
    fn a_pump_makes_the_metadata_durable() {
        let dir = std::env::temp_dir().join(format!("tiera-pump-sync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inst = InstanceBuilder::new("persisted", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 1 << 20))
            .metadata_dir(&dir)
            .build()
            .unwrap();
        let keys: Vec<String> = (0..5).map(|i| format!("key-{i}")).collect();
        for key in &keys {
            inst.put(key.as_str(), &b"v"[..], T0).unwrap();
        }
        inst.pump(T0).unwrap();
        // A second reader of the directory, while the instance still runs:
        // what it finds is what the files hold, not the write buffer.
        let seen = tiera_metastore::MetaStore::open(&dir).unwrap();
        for key in &keys {
            assert!(seen.contains(key.as_bytes()), "{key} reached the disk");
        }
        drop((seen, inst));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_makes_room() {
        // Figure 5's LRU policy: evict oldest from tier1 into tier2 until
        // the inserted object fits.
        let inst = InstanceBuilder::new("lru", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 10))
            .tier(durable_tier("tier2", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::evict_lru("tier1", "tier2"))
                    .respond(ResponseSpec::store(Selector::Inserted, ["tier1"])),
            )
            .build()
            .unwrap();
        inst.put("a", Bytes::from(vec![1u8; 4]), T0).unwrap();
        inst.put("b", Bytes::from(vec![2u8; 4]), SimTime::from_secs(1))
            .unwrap();
        // "c" needs 4 bytes; tier1 has 2 free → "a" (oldest) is evicted.
        inst.put("c", Bytes::from(vec![3u8; 4]), SimTime::from_secs(2))
            .unwrap();
        let a = inst.registry().get(&ObjectKey::new("a")).unwrap();
        assert!(!a.in_tier("tier1") && a.in_tier("tier2"), "{a:?}");
        let c = inst.registry().get(&ObjectKey::new("c")).unwrap();
        assert!(c.in_tier("tier1"));
        // Data remains readable from the lower tier.
        let (data, receipt) = inst.get("a", SimTime::from_secs(3)).unwrap();
        assert_eq!(&data[..], &[1u8; 4][..]);
        assert_eq!(receipt.served_by, "tier2");
    }

    #[test]
    fn mru_eviction_picks_newest() {
        let inst = InstanceBuilder::new("mru", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 10))
            .tier(durable_tier("tier2", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::EvictUntilFit {
                        from: "tier1".into(),
                        to: "tier2".into(),
                        order: EvictOrder::Mru,
                    })
                    .respond(ResponseSpec::store(Selector::Inserted, ["tier1"])),
            )
            .build()
            .unwrap();
        inst.put("a", Bytes::from(vec![1u8; 4]), T0).unwrap();
        inst.put("b", Bytes::from(vec![2u8; 4]), SimTime::from_secs(1))
            .unwrap();
        inst.put("c", Bytes::from(vec![3u8; 4]), SimTime::from_secs(2))
            .unwrap();
        // MRU evicts "b" (the newest resident, not the inserted object).
        let b = inst.registry().get(&ObjectKey::new("b")).unwrap();
        assert!(!b.in_tier("tier1") && b.in_tier("tier2"), "{b:?}");
        let a = inst.registry().get(&ObjectKey::new("a")).unwrap();
        assert!(a.in_tier("tier1"));
    }

    #[test]
    fn store_once_deduplicates_payloads() {
        let inst = InstanceBuilder::new("dedup", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store_once(Selector::Inserted, ["tier1"])),
            )
            .build()
            .unwrap();
        inst.put("one", &b"same-content"[..], T0).unwrap();
        inst.put("two", &b"same-content"[..], T0).unwrap();
        inst.put("three", &b"different"[..], T0).unwrap();
        // Two physical objects despite three logical ones.
        let tier = inst.tier("tier1").unwrap();
        assert_eq!(
            tier.request_counts().puts,
            2,
            "duplicate content causes no second PUT"
        );
        // All logical objects read back correctly.
        for (k, v) in [("one", "same-content"), ("two", "same-content"), ("three", "different")] {
            let (data, _) = inst.get(k, SimTime::from_secs(1)).unwrap();
            assert_eq!(&data[..], v.as_bytes(), "{k}");
        }
        // Deleting one duplicate keeps the shared bytes alive.
        inst.delete("one", SimTime::from_secs(2)).unwrap();
        let (data, _) = inst.get("two", SimTime::from_secs(3)).unwrap();
        assert_eq!(&data[..], b"same-content");
        // Deleting the last reference frees the physical object.
        inst.delete("two", SimTime::from_secs(4)).unwrap();
        assert_eq!(inst.registry().len(), 2, "only 'three' and its physical object remain");
    }

    #[test]
    fn threshold_grow_expands_tier() {
        // Figure 6: grow tier1 by 100% when it is 75% full.
        let inst = InstanceBuilder::new("grow", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 100))
            .rule(
                Rule::on(EventKind::threshold_at_least(
                    Metric::TierFillFraction("tier1".into()),
                    0.75,
                ))
                .respond(ResponseSpec::Grow {
                    tier: "tier1".into(),
                    percent: 100.0,
                }),
            )
            .build()
            .unwrap();
        inst.put("a", Bytes::from(vec![0u8; 74]), T0).unwrap();
        assert_eq!(inst.tier("tier1").unwrap().capacity(T0), 100);
        inst.put("b", Bytes::from(vec![0u8; 2]), T0).unwrap(); // 76% full
        assert_eq!(
            inst.tier("tier1").unwrap().capacity(T0),
            200,
            "grow fired at the 75% crossing"
        );
        // Edge triggering: staying above the threshold must not re-fire.
        inst.put("c", Bytes::from(vec![0u8; 2]), T0).unwrap();
        assert_eq!(inst.tier("tier1").unwrap().capacity(T0), 200);
    }

    #[test]
    fn background_threshold_defers_to_pump() {
        let inst = InstanceBuilder::new("bg", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 100))
            .tier(durable_tier("tier2", 1 << 20))
            .rule(
                Rule::on(
                    EventKind::threshold_at_least(
                        Metric::TierFillFraction("tier1".into()),
                        0.5,
                    )
                    .background(),
                )
                .respond(ResponseSpec::copy(Selector::InTier("tier1".into()), ["tier2"])),
            )
            .build()
            .unwrap();
        inst.put("a", Bytes::from(vec![0u8; 60]), T0).unwrap();
        assert_eq!(inst.background_depth(), 1, "queued, not executed");
        let a = inst.registry().get(&ObjectKey::new("a")).unwrap();
        assert!(!a.in_tier("tier2"));
        inst.pump(T0).unwrap();
        let a = inst.registry().get(&ObjectKey::new("a")).unwrap();
        assert!(a.in_tier("tier2"), "executed by pump");
    }

    #[test]
    fn encrypt_decrypt_roundtrip_via_policy() {
        let inst = InstanceBuilder::new("crypt", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .build()
            .unwrap();
        inst.add_key("default", [7u8; 32]);
        inst.put("secret", &b"plaintext"[..], T0).unwrap();
        // Encrypt in place.
        let mut ctx = Ctx::background(T0);
        inst.execute_response(
            &ResponseSpec::Encrypt {
                what: Selector::Key(ObjectKey::new("secret")),
                key_id: "default".into(),
            },
            &mut ctx,
        )
        .unwrap();
        // The stored bytes are not the plaintext.
        let tier = inst.tier("tier1").unwrap();
        let (stored, _) = tier.get(&ObjectKey::new("secret"), T0).unwrap();
        assert_ne!(&stored[..], b"plaintext");
        // But GET transparently decrypts.
        let (data, _) = inst.get("secret", T0).unwrap();
        assert_eq!(&data[..], b"plaintext");
        // Explicit decrypt restores the stored form.
        inst.execute_response(
            &ResponseSpec::Decrypt {
                what: Selector::Key(ObjectKey::new("secret")),
                key_id: "default".into(),
            },
            &mut ctx,
        )
        .unwrap();
        let (stored, _) = tier.get(&ObjectKey::new("secret"), T0).unwrap();
        assert_eq!(&stored[..], b"plaintext");
    }

    #[test]
    fn compress_uncompress_roundtrip() {
        let inst = InstanceBuilder::new("zip", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .build()
            .unwrap();
        let payload: Vec<u8> = b"abc".iter().cycle().take(10_000).copied().collect();
        inst.put("log", Bytes::from(payload.clone()), T0).unwrap();
        let mut ctx = Ctx::background(T0);
        inst.execute_response(
            &ResponseSpec::Compress {
                what: Selector::Key(ObjectKey::new("log")),
            },
            &mut ctx,
        )
        .unwrap();
        let meta = inst.registry().get(&ObjectKey::new("log")).unwrap();
        assert!(meta.compressed);
        assert!(meta.stored_size < meta.size / 2, "{meta:?}");
        assert!(inst.tier("tier1").unwrap().used() < 5_000);
        // Transparent decompression on GET.
        let (data, _) = inst.get("log", T0).unwrap();
        assert_eq!(&data[..], &payload[..]);
        // Explicit uncompress restores.
        inst.execute_response(
            &ResponseSpec::Uncompress {
                what: Selector::Key(ObjectKey::new("log")),
            },
            &mut ctx,
        )
        .unwrap();
        let meta = inst.registry().get(&ObjectKey::new("log")).unwrap();
        assert!(!meta.compressed);
        assert_eq!(meta.stored_size, meta.size);
    }

    #[test]
    fn overwrite_cleans_stale_copies() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.put("k", &b"v1"[..], T0).unwrap();
        inst.pump(SimTime::from_secs(10)).unwrap(); // copy to tier2
        let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
        assert!(meta.in_tier("tier2"));
        // Overwrite places only in tier1; the stale tier2 copy must go.
        inst.put("k", &b"v2"[..], SimTime::from_secs(11)).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
        assert!(meta.in_tier("tier1") && !meta.in_tier("tier2"), "{meta:?}");
        assert!(!inst.tier("tier2").unwrap().contains(&ObjectKey::new("k")));
        let (data, _) = inst.get("k", SimTime::from_secs(12)).unwrap();
        assert_eq!(&data[..], b"v2");
    }

    #[test]
    fn delete_removes_everywhere() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.put("k", &b"v"[..], T0).unwrap();
        inst.pump(SimTime::from_secs(10)).unwrap();
        inst.delete("k", SimTime::from_secs(11)).unwrap();
        assert!(!inst.contains("k"));
        assert!(!inst.tier("tier1").unwrap().contains(&ObjectKey::new("k")));
        assert!(!inst.tier("tier2").unwrap().contains(&ObjectKey::new("k")));
        assert!(matches!(
            inst.delete("k", SimTime::from_secs(12)),
            Err(TieraError::NoSuchObject(_))
        ));
    }

    #[test]
    fn runtime_tier_and_policy_swap() {
        // The Figure 17 reconfiguration path: detach the failed tier,
        // attach replacements, and replace the policy — while serving.
        let inst = InstanceBuilder::new("failover", SimEnv::new(1))
            .tier(MemTier::with_capacity("memcached", 1 << 20))
            .tier(durable_tier("ebs", 1 << 20))
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
            )
            .build()
            .unwrap();
        inst.put("before", &b"x"[..], T0).unwrap();

        // Reconfigure: ebs → ephemeral + s3.
        inst.detach_tier("ebs").unwrap();
        inst.attach_tier(MemTier::with_capacity("ephemeral", 1 << 20))
            .unwrap();
        inst.attach_tier(durable_tier("s3", 1 << 20)).unwrap();
        inst.policy().replace_all([
            Rule::on(EventKind::action(ActionOp::Put)).respond(ResponseSpec::store(
                Selector::Inserted,
                ["memcached", "ephemeral"],
            )),
            Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(
                ResponseSpec::copy(
                    Selector::InTier("ephemeral".into()).and(Selector::Dirty),
                    ["s3"],
                ),
            ),
        ]);

        inst.put("after", &b"y"[..], SimTime::from_secs(1)).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("after")).unwrap();
        assert!(meta.in_tier("ephemeral") && !meta.in_tier("ebs"));
        inst.pump(SimTime::from_secs(121)).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("after")).unwrap();
        assert!(meta.in_tier("s3"), "backup rule took over: {meta:?}");
        assert!(matches!(
            inst.detach_tier("ebs"),
            Err(TieraError::NoSuchTier(_))
        ));
    }

    #[test]
    fn control_layer_bypass_still_stores() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.set_control_layer(false);
        inst.put("raw", &b"v"[..], T0).unwrap();
        let (data, _) = inst.get("raw", T0).unwrap();
        assert_eq!(&data[..], b"v");
        let (events, _, _) = inst.stats().dispatch_counters();
        assert_eq!(events, 0, "no events evaluated with the layer off");
    }

    #[test]
    fn tags_flow_through_put_options() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.put_with(
            "tmpfile",
            &b"scratch"[..],
            PutOptions {
                tags: vec![Tag::new("tmp")],
            },
            T0,
        )
        .unwrap();
        let hits = inst
            .registry()
            .select(&Selector::Tagged(Tag::new("tmp")), None, T0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].as_str(), "tmpfile");
    }

    #[test]
    fn failed_put_leaves_no_phantom_metadata() {
        let inst = InstanceBuilder::new("tight", SimEnv::new(1))
            .tier(MemTier::with_capacity("t1", 4))
            .build()
            .unwrap();
        let err = inst.put("big", Bytes::from(vec![0u8; 100]), T0);
        assert!(matches!(err, Err(TieraError::TierFull { .. })));
        assert!(!inst.contains("big"));
        assert_eq!(inst.registry().len(), 0);
    }

    #[test]
    fn move_response_vacates_source() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.put("k", &b"v"[..], T0).unwrap();
        // Foreground context: background moves are paced via continuations.
        let mut ctx = Ctx::foreground(SimTime::from_secs(1));
        inst.execute_response(
            &ResponseSpec::move_to(Selector::Key(ObjectKey::new("k")), ["tier2"]),
            &mut ctx,
        )
        .unwrap();
        let meta = inst.registry().get(&ObjectKey::new("k")).unwrap();
        assert!(!meta.in_tier("tier1") && meta.in_tier("tier2"));
        assert!(!inst.tier("tier1").unwrap().contains(&ObjectKey::new("k")));
        assert!(!meta.dirty, "moved to durable tier");
    }

    #[test]
    fn retrieve_touches_access_stats() {
        let inst = low_latency_instance(SimDuration::from_secs(10));
        inst.put("k", &b"v"[..], T0).unwrap();
        let before = inst.registry().get(&ObjectKey::new("k")).unwrap().access_count;
        let mut ctx = Ctx::background(SimTime::from_secs(5));
        inst.execute_response(
            &ResponseSpec::Retrieve {
                what: Selector::Key(ObjectKey::new("k")),
            },
            &mut ctx,
        )
        .unwrap();
        let after = inst.registry().get(&ObjectKey::new("k")).unwrap();
        assert_eq!(after.access_count, before + 1);
        assert_eq!(after.last_access, SimTime::from_secs(5));
    }

    #[test]
    fn background_queue_pops_earliest_due_not_first_queued() {
        // Regression for the VecDeque-era bug: `iter().position(|w| w.due
        // <= now)` popped the first *queued* due item, so a later-queued
        // earlier-due item ran after it. The heap must drain by due time.
        let mut q = BackgroundQueue::default();
        for (name, due_s) in [("late", 30u64), ("early", 10), ("mid", 20)] {
            q.push(PendingWork {
                due: SimTime::from_secs(due_s),
                work: WorkItem::Responses(Arc::new(Rule::on(EventKind::action(ActionOp::Put)))),
                inserted: Some(ObjectKey::new(name)),
                attempts: 0,
            });
        }
        assert_eq!(q.len(), 3);
        // Nothing due yet.
        assert!(q.pop_due(SimTime::from_secs(5)).is_none());
        let now = SimTime::from_secs(60);
        let order: Vec<String> = std::iter::from_fn(|| q.pop_due(now))
            .map(|w| w.inserted.unwrap().as_str().to_string())
            .collect();
        assert_eq!(order, ["early", "mid", "late"]);
    }

    #[test]
    fn background_queue_is_fifo_among_equal_dues() {
        let mut q = BackgroundQueue::default();
        for name in ["first", "second", "third"] {
            q.push(PendingWork {
                due: T0,
                work: WorkItem::Responses(Arc::new(Rule::on(EventKind::action(ActionOp::Put)))),
                inserted: Some(ObjectKey::new(name)),
                attempts: 0,
            });
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop_due(T0))
            .map(|w| w.inserted.unwrap().as_str().to_string())
            .collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn pump_executes_paced_continuations_in_due_order() {
        // Two paced background copies of two objects each: the slow-capped
        // one is queued first, the fast-capped one second. After the first
        // step of each, the fast copy's continuation is due at 1 s and the
        // slow one's at 10 s — due-order draining must run "fast2" before
        // "slow2" even though the slow copy was queued first. (The old
        // first-queued draining executed "slow2" first.)
        let inst = InstanceBuilder::new("paced", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .tier(durable_tier("tier2", 1 << 20))
            .build()
            .unwrap();
        for k in ["slow1", "slow2", "fast1", "fast2"] {
            inst.put(k, Bytes::from(vec![7u8; 1000]), T0).unwrap();
        }
        // 1000-byte objects: 100 B/s paces the continuation 10 s out,
        // 1000 B/s paces it 1 s out.
        for (keys, bps) in [(["slow1", "slow2"], 100.0), (["fast1", "fast2"], 1000.0)] {
            inst.background.lock().push(PendingWork {
                due: T0,
                work: WorkItem::PacedCopy {
                    keys: keys.iter().map(|k| ObjectKey::new(*k)).collect(),
                    to: vec!["tier2".into()],
                    cap: BandwidthCap { bytes_per_sec: bps },
                    delete_source: false,
                },
                inserted: None,
                attempts: 0,
            });
        }
        inst.pump(SimTime::from_secs(60)).unwrap();
        for k in ["slow1", "slow2", "fast1", "fast2"] {
            assert!(inst.registry().get(&ObjectKey::new(k)).unwrap().in_tier("tier2"));
        }
        // fast2 ran at its 1 s continuation, slow2 at 10 s — slow2's
        // registry update is the later one, so it surfaces as newest.
        assert_eq!(
            inst.registry().newest_in("tier2").unwrap().as_str(),
            "slow2",
            "slow continuation (due 10 s) executed after fast (due 1 s)"
        );
    }
}

//! The Tiera instance: tiers + policy + metadata + the control layer.
//!
//! Paper §2.2: "The Tiera server has three primary roles: (1) to interface
//! with applications to enable storage and retrieval of data, (2) to
//! interface with different storage tiers..., and (3) to manage the data
//! placement and movement across different tiers."
//!
//! * The **application interface layer** is the [`Instance::put`] /
//!   [`Instance::get`] / [`Instance::delete`] API.
//! * The **storage interface layer** is the set of attached
//!   [`Tier`](crate::tier::Tier) handles.
//! * The **control layer** is the response interpreter (`respond.rs`): it
//!   fires action events inline with requests, threshold events on the
//!   actions that affect their metrics, and timer events from
//!   [`Instance::pump`] (`pump.rs`), which also drains the queued
//!   background work (the "thread pool dedicated to service responses" of
//!   paper §3, made deterministic for virtual time).
//!
//! This file is the client path: PUT, GET and DELETE, and the read path
//! GETs and responses share.
//!
//! ## PUT placement semantics
//!
//! If any matching action rule contains a `store`/`storeOnce` response
//! targeting the inserted object, those rules define placement (paper
//! Figs 3 and 5). Otherwise the object is implicitly stored in the
//! instance's *default tier* — the first attached tier — and the rules run
//! afterwards (this is how Fig 4's `PersistentInstance` works: the PUT
//! lands in `tier1`, then the write-through rule copies it to `tier2`).

mod pump;
mod respond;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, Mutex, RwLock};
use tiera_support::{Bytes, SimRng};

use tiera_codec::packed::{self, Unpacked};
use tiera_codec::ChaCha20;
use tiera_sim::{SimDuration, SimEnv, SimTime};

use self::pump::BackgroundQueue;
use crate::dedup;
use crate::error::{Result, TieraError};
use crate::event::ActionOp;
use crate::meta::{ObjectMeta, TierSet};
use crate::object::{ObjectKey, Tag};
use crate::policy::{self, Attached, Config, Policy, Rule, RuleId};
use crate::registry::Registry;
use crate::response::ResponseSpec;
use crate::retry::{FailureAlert, RetryPolicy};
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
    /// The write version of the bytes served ([`ObjectMeta::version`]),
    /// or 0 when that is not known: the read raced the PUT still placing
    /// them, or bypassed the control layer.
    pub version: u64,
}

/// Report from one [`Instance::pump`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Timer rules that fired.
    pub timers_fired: u64,
    /// Background work items executed.
    pub background_executed: u64,
}

/// A multi-tiered cloud storage instance.
pub struct Instance {
    name: String,
    env: SimEnv,
    /// Publishes into the configuration cell: tiers, rules, retry policy
    /// and the control-layer switch. Each entry point loads the snapshot
    /// once and runs under it to the end.
    policy: Policy,
    registry: Registry,
    stats: InstanceStats,
    keyring: RwLock<FxHashMap<String, [u8; 32]>>,
    background: Mutex<BackgroundQueue>,
    /// Seeded jitter stream for backoff schedules (deterministic per env).
    retry_rng: Mutex<SimRng>,
    /// FAILURE_ALERT events not yet drained by a monitor.
    alerts: Mutex<Vec<FailureAlert>>,
    alerts_total: AtomicU64,
}

/// Execution context threaded through response execution.
struct Ctx<'a> {
    /// The configuration the operation loaded at entry; nothing under it
    /// reads the cell again.
    config: &'a Config,
    /// Current virtual time (advances as responses charge latency).
    now: SimTime,
    /// Latency charged to the requesting client.
    charged: SimDuration,
    /// The object the triggering action carried.
    inserted: Option<ObjectKey>,
    /// Payload of the inserted object (avoids re-reading it).
    inserted_data: Option<Bytes>,
    /// Whose bytes `inserted_data` are: the running PUT's, or a GET's.
    inserted_source: Source,
    /// Background executions charge nothing to clients.
    background: bool,
    /// Re-entrancy guard for threshold cascades.
    depth: u8,
    /// Tiers the *inserted* object was freshly written to during this
    /// execution (drives overwrite cleanup of stale copies).
    placed_inserted: TierSet,
}

impl<'a> Ctx<'a> {
    fn foreground(now: SimTime, config: &'a Config) -> Self {
        Ctx {
            config,
            now,
            charged: SimDuration::ZERO,
            inserted: None,
            inserted_data: None,
            inserted_source: Source::Read(0),
            background: false,
            depth: 0,
            placed_inserted: TierSet::new(),
        }
    }

    fn background(now: SimTime, config: &'a Config) -> Self {
        Ctx { background: true, ..Ctx::foreground(now, config) }
    }

    /// Whose bytes `key`'s record `meta` names: the running operation's
    /// own when `key` is the object it carries, else those read at the
    /// record's version.
    fn source_of(&self, key: &ObjectKey, meta: &ObjectMeta) -> Source {
        match self.inserted_data {
            Some(_) if self.inserted.as_ref() == Some(key) => self.inserted_source,
            _ => Source::Read(meta.settled_version()),
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

/// Whose bytes a response writes, which decides when it may publish them
/// (see [`Instance::write_and_publish`]).
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The running PUT's own bytes, at the write version it took.
    Put(u64),
    /// The same, in the one write a fresh key's PUT makes: publishing it
    /// ends the PUT's placing.
    OnlyPut(u64),
    /// Bytes read back at this write version (0: not known).
    Read(u64),
}

impl Instance {
    pub(crate) fn new(name: String, env: SimEnv, policy: Policy, registry: Registry) -> Self {
        let retry_rng = env.rng_for("retry-policy");
        Self {
            name,
            env,
            policy,
            registry,
            stats: InstanceStats::new(),
            keyring: RwLock::named(
                "instance.keyring",
                rank::INSTANCE_KEYRING,
                FxHashMap::default(),
            ),
            background: Mutex::named(
                "instance.background",
                rank::INSTANCE_BACKGROUND,
                BackgroundQueue::default(),
            ),
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
    /// attached, and timer periods must be positive. The check and the
    /// install are one publish, so a concurrent `detach_tier` cannot slip
    /// between them.
    pub fn install_rule(&self, rule: Rule) -> Result<RuleId> {
        self.policy.publish(|d| d.install_checked(rule))
    }

    /// Checks a rule against the instance's attached tiers without
    /// installing it. The specification-level analyzer (`tiera-spec`)
    /// cannot run here — by the time a rule reaches the core it is already
    /// lowered past the AST — so this re-validates the lowered form.
    pub fn validate_rule(&self, rule: &Rule) -> Result<()> {
        policy::validate(&self.policy.load().tiers, rule)
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
        self.policy.apply(|d| d.control_layer = enabled);
    }

    // ---- robustness: retries, failover, FAILURE_ALERT ----

    /// Installs the retry/backoff/failover policy for tier operations.
    /// The default is [`RetryPolicy::none`]: one attempt, no failover.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.policy.apply(|d| d.retry = (!policy.is_trivial()).then_some(policy));
    }

    /// The currently installed retry policy; a trivial one (one attempt,
    /// no failover) reads back as [`RetryPolicy::none`].
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy.load().retry.clone().unwrap_or_default()
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
        self.policy.load().tiers.iter().map(|t| t.id.to_string()).collect()
    }

    /// Per-tier logical-vs-physical capacity accounting, for tiers that
    /// transform payloads (compressed / content-addressed wrappers from
    /// `tiera-tierx`). Plain tiers are omitted.
    pub fn capacity_profiles(&self) -> Vec<(String, crate::tier::CapacityProfile)> {
        self.policy
            .load()
            .tiers
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
        self.policy.load().attached(name).map(|t| Arc::clone(&t.tier))
    }

    /// Attaches a tier at the end of the preference order.
    pub fn attach_tier(&self, tier: TierHandle) -> Result<()> {
        self.policy.publish(|d| d.attach(tier))
    }

    /// Detaches a tier (e.g. after a storage-service failure, Fig 17).
    /// Objects whose only location was this tier become unreachable until
    /// re-stored; their metadata is retained.
    pub fn detach_tier(&self, name: &str) -> Result<()> {
        self.policy.publish(|d| d.detach(name))
    }

    /// Total monthly capacity cost of all attached tiers.
    pub fn monthly_cost(&self, now: SimTime) -> tiera_sim::CostReport {
        let mut report = tiera_sim::CostReport::default();
        for t in self.policy.load().tiers.iter() {
            let gb = t.tier.capacity(now) as f64 / (1024.0 * 1024.0 * 1024.0);
            report.add(format!("{} ({:.2} GB)", t.id, gb), t.tier.monthly_cost(now));
        }
        report
    }

    // ---- application interface layer ----

    /// Stores an object.
    pub fn put(
        &self,
        key: impl Into<ObjectKey>,
        data: impl Into<Bytes>,
        now: SimTime,
    ) -> Result<PutReceipt> {
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
        let receipt = self.put_versioned(key.into(), data.into(), opts, None, now)?;
        // An unversioned PUT always replaces the record.
        Ok(receipt.unwrap_or(PutReceipt { latency: SimDuration::ZERO }))
    }

    /// Stores `data` as write `version` of `key` unless the object already
    /// carries that version or a later one: a last-writer-wins register,
    /// which is what a cluster replica is. `Ok(None)` when the object holds
    /// `version` or a later one; nothing is written then.
    pub fn put_if_newer(
        &self,
        key: impl Into<ObjectKey>,
        data: impl Into<Bytes>,
        version: u64,
        now: SimTime,
    ) -> Result<Option<PutReceipt>> {
        self.put_versioned(key.into(), data.into(), PutOptions::default(), Some(version), now)
    }

    /// A PUT at write version `write`, or at the registry's next version.
    fn put_versioned(
        &self,
        key: ObjectKey,
        data: Bytes,
        opts: PutOptions,
        write: Option<u64>,
        now: SimTime,
    ) -> Result<Option<PutReceipt>> {
        let size = data.len() as u64;
        let config = self.policy.load();

        if !config.control_layer {
            // Figure 18 baseline: bypass the control layer entirely.
            let receipt = config.default_tier()?.tier.put(&key, data, now)?;
            self.stats.record_write(receipt.latency);
            self.env.clock().advance_to(now + receipt.latency);
            return Ok(Some(PutReceipt { latency: receipt.latency }));
        }

        let into_tier = config.default_tier()?.id;
        // Register metadata (dirty until persisted, per Fig 3), built from
        // the prior record under the same shard lock that replaces it; the
        // prior is kept for overwrite cleanup. In memory only: the
        // placement that records the first location persists the record,
        // so a crash before any tier write leaves a fresh key unpersisted
        // and an overwritten key's old record intact. The record takes its
        // write version here, and is placing until `placing` drops: a
        // later PUT of the key waits for that.
        let replaced = self.registry.replace_locked(&key, write, |prior| {
            let mut meta = ObjectMeta::new(size, now);
            meta.dirty = true;
            if !opts.tags.is_empty() {
                meta.set_tags(opts.tags.iter().cloned());
            }
            if let Some(prev) = prior {
                meta.access_count = prev.access_count;
                // Keep the previous copies visible until the new placement
                // lands: a concurrent GET reads the old bytes (the overwrite
                // is not atomic across tiers, but it is never *invisible*).
                // Stale locations are cleaned below once placement finishes.
                meta.locations = prev.locations.clone();
            }
            meta.touch(now);
            meta
        });
        let Ok((prior, version)) = replaced else {
            return Ok(None);
        };
        let placing = Placing { registry: &self.registry, key: &key, version };

        let matching = config.actions(ActionOp::Put, into_tier);

        // Does any matching foreground rule place the inserted object?
        let rules_place = matching
            .clone()
            .any(|a| !a.background && a.rule.responses().iter().any(places_inserted));
        // A fresh key's implicit placement with no rule to follow is the
        // PUT's only write, so its publish can end the placing.
        let only_write = prior.is_none() && !rules_place && matching.clone().next().is_none();

        let mut ctx = Ctx::foreground(now, &config);
        ctx.inserted = Some(key.clone());
        ctx.inserted_data = Some(data);
        ctx.inserted_source =
            if only_write { Source::OnlyPut(version) } else { Source::Put(version) };

        let result: Result<()> = (|| {
            if !rules_place {
                // Implicit default placement: `store(insert.object, to:
                // <default tier>)`, counted as the response it stands for.
                self.stats.record_response();
                let (data, source) = self.fetch_stored(&key, &mut ctx)?;
                self.store_one(&key, data, source, &[into_tier.name()], &mut ctx)?;
            }
            self.fire_action_rules(matching, &mut ctx)
        })();

        // Whatever the undo or the overwrite cleanup leaves is settled; so
        // is what an only write published. Otherwise `placing` settles.
        if let Err(e) = result {
            self.undo_failed_put(&key, version, prior, &ctx);
            placing.settled();
            return Err(e);
        }
        match prior {
            Some(prev) => {
                self.retire_prior(&key, version, &prev, &ctx);
                placing.settled();
            }
            None if only_write => placing.settled(),
            None => drop(placing),
        }

        self.eval_thresholds(&mut ctx)?;

        self.stats.record_write(ctx.charged);
        self.env.clock().advance_to(ctx.now);
        Ok(Some(PutReceipt { latency: ctx.charged }))
    }

    /// Leaves a key whose PUT failed with a record that names only tiers
    /// holding a value it decodes. A brand-new key leaves no phantom state:
    /// neither metadata nor bytes the partial placement wrote (which would
    /// strand unreachable data and leak capacity). An overwrite keeps the
    /// prior record over the tiers the placement did not touch, dropping
    /// the new bytes; only when it touched all of them does the new record,
    /// over the tiers that took the new bytes, stand. The prior record is
    /// settled (no PUT replaces a placing one), so its bytes have landed.
    /// A DELETE that has removed the record since, and any PUT after it,
    /// owns the key, and it is left alone.
    fn undo_failed_put(&self, key: &ObjectKey, version: u64, prior: Option<ObjectMeta>, ctx: &Ctx) {
        if self.registry.get(key).is_none_or(|m| m.version != version) {
            return;
        }
        let placed = &ctx.placed_inserted;
        match prior {
            // No tier took the new bytes, so nothing persisted the new
            // record: putting the prior one back in memory is enough.
            Some(prev) if placed.is_empty() => self.registry.insert_locked(key, prev),
            Some(prev) if prev.locations.iter().all(|l| placed.contains_id(*l)) => {
                self.retire_prior(key, version, &prev, ctx)
            }
            prior => {
                for id in placed {
                    if let Some(tier) = ctx.config.tier_by_id(*id) {
                        self.cleanup_delete(tier, key, ctx.now);
                    }
                }
                match prior {
                    Some(mut prev) => {
                        prev.locations.retain(|l| !placed.contains_id(l));
                        self.registry.upsert(key.clone(), prev);
                    }
                    None => {
                        self.registry.remove(key);
                    }
                }
            }
        }
    }

    /// Overwrite cleanup: stale copies in tiers the new placement did not
    /// freshly write are deleted (the object is immutable; overwrite
    /// replaces it everywhere), and the record stops placing — unless a
    /// DELETE (`version` is this PUT's) has removed it since. The placement
    /// set comes from the execution context, not the carried-over metadata.
    fn retire_prior(&self, key: &ObjectKey, version: u64, prev: &ObjectMeta, ctx: &Ctx) {
        let placed = &ctx.placed_inserted;
        self.registry.publish_at(key, version, true, |m| {
            for stale in prev.locations.iter().filter(|l| !placed.contains_id(**l)) {
                if let Some(tier) = ctx.config.tier_by_id(*stale) {
                    self.cleanup_delete(tier, key, ctx.now);
                }
            }
            m.locations.retain(|l| placed.contains_id(l));
            m.placing = false;
        });
        if let Some(d) = prev.digest() {
            self.release_blob(&d, ctx);
        }
    }

    /// Retrieves an object.
    ///
    /// The read is served from the most preferred attached tier holding the
    /// object (tier order = declaration order). If that tier times out
    /// (failure injection), the next location is tried and the timeout is
    /// charged to the client.
    pub fn get(&self, key: impl Into<ObjectKey>, now: SimTime) -> Result<(Bytes, GetReceipt)> {
        let key: ObjectKey = key.into();
        let config = self.policy.load();

        if !config.control_layer {
            let Attached { id, tier, .. } = config.default_tier()?;
            let (data, receipt) = tier.get(&key, now)?;
            self.stats.record_read(receipt.latency, *id);
            self.env.clock().advance_to(now + receipt.latency);
            return Ok((data, GetReceipt { latency: receipt.latency, served_by: *id, version: 0 }));
        }

        let meta =
            self.registry.get(&key).ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;

        let mut ctx = Ctx::foreground(now, &config);
        let version = meta.settled_version();
        let (raw, served_by) = self.read_raw(&key, &meta, &mut ctx)?;
        let data = self.decode_payload(&key, &meta, raw.clone())?;

        self.registry.touch(&key, ctx.now);
        if let Some(d) = meta.digest() {
            // Keep the physical object's LRU position in sync with logical
            // accesses so cache eviction sees real usage.
            self.registry.touch(&dedup::blob_key(&d), ctx.now);
        }

        // Fire GET action rules (e.g. read-promotion in LRU cache
        // policies). The just-read stored bytes ride along in the context
        // so a promote does not re-read the slow tier.
        let mut matching = config.actions(ActionOp::Get, served_by).peekable();
        if matching.peek().is_some() {
            ctx.inserted = Some(key.clone());
            ctx.inserted_data = Some(raw.clone());
            ctx.inserted_source = Source::Read(version);
            self.fire_action_rules(matching, &mut ctx)?;
        }

        // Reads change object-attribute metrics (access counts), so
        // threshold rules are evaluated here too.
        self.eval_thresholds(&mut ctx)?;

        self.stats.record_read(ctx.charged, served_by);
        self.env.clock().advance_to(ctx.now);
        Ok((data, GetReceipt { latency: ctx.charged, served_by, version }))
    }

    /// Deletes an object from every tier.
    pub fn delete(&self, key: impl Into<ObjectKey>, now: SimTime) -> Result<SimDuration> {
        let key: ObjectKey = key.into();
        let meta =
            self.registry.get(&key).ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;

        let config = self.policy.load();
        let mut ctx = Ctx::foreground(now, &config);

        if let Some(d) = meta.digest() {
            self.release_blob(&d, &ctx);
        } else {
            let mut slowest = SimDuration::ZERO;
            for loc in &meta.locations {
                if let Some(tier) = config.tier_by_id(*loc) {
                    let receipt = tier.delete(&key, ctx.now)?;
                    slowest = slowest.max(receipt.latency);
                }
            }
            ctx.charge(slowest);
        }
        self.registry.remove(&key);

        let into_tier = config.default_tier()?.id;
        self.fire_action_rules(config.actions(ActionOp::Delete, into_tier), &mut ctx)?;

        self.eval_thresholds(&mut ctx)?;
        self.env.clock().advance_to(ctx.now);
        Ok(ctx.charged)
    }

    /// Whether the instance holds an object.
    pub fn contains(&self, key: impl Into<ObjectKey>) -> bool {
        self.registry.contains(&key.into())
    }

    /// Reads an object's raw stored bytes from its most preferred reachable
    /// location, resolving dedup indirection.
    fn read_raw(
        &self,
        key: &ObjectKey,
        meta: &ObjectMeta,
        ctx: &mut Ctx,
    ) -> Result<(Bytes, TierId)> {
        // Dedup objects live under their blob's key, whose metadata holds
        // the true locations.
        let blob = meta.digest().map(|d| dedup::blob_key(&d));
        let blob_meta = blob.as_ref().map(|b| self.registry.get(b));
        let (read_key, locations) = match (&blob, &blob_meta) {
            (Some(b), Some(Some(m))) => (b, &m.locations),
            (Some(_), _) => return Err(TieraError::LocationsUnavailable(key.to_string())),
            (None, _) => (key, &meta.locations),
        };
        let config = ctx.config;
        let mut last_err = None;
        // Per-location retry budget (trivial policy: one attempt, exactly
        // the old behavior); once a location exhausts it, the read falls
        // back along the replica/tier chain.
        let policy = config.retry.as_ref();
        let attempts = policy.map(|p| p.max_attempts.max(1)).unwrap_or(1);
        for Attached { id, tier, .. } in config.tiers.iter().filter(|t| locations.contains_id(t.id))
        {
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
                            if let Some(p) = policy {
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
            // A frame whose header or crc32 does not hold is refused,
            // never decoded to other bytes.
            let unpacked = packed::unpack(data.as_slice())
                .map_err(|e| TieraError::Codec(format!("uncompress {key}: {e}")))?;
            data = match unpacked {
                Unpacked::Raw(body) => data.slice(body),
                Unpacked::Inflated(payload) => Bytes::from(payload),
            };
        }
        Ok(data)
    }
}

/// A PUT's hold on its record: dropped once the PUT is done with it,
/// however the PUT ends (an unwinding one too), it lets the next PUT of
/// the key in ([`Registry::settle`]), unless the PUT has said that its
/// last registry change did so already.
struct Placing<'a> {
    registry: &'a Registry,
    key: &'a ObjectKey,
    version: u64,
}

impl Placing<'_> {
    /// The record no longer carries this PUT's placing: nothing to undo.
    fn settled(self) {
        std::mem::forget(self);
    }
}

impl Drop for Placing<'_> {
    fn drop(&mut self) {
        self.registry.settle(self.key, self.version);
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
    use super::pump::{PendingWork, WorkItem};
    use super::*;
    use crate::builder::InstanceBuilder;
    use crate::event::{EventKind, Metric};
    use crate::policy::InstalledRule;
    use crate::response::EvictOrder;
    use crate::selector::Selector;
    use crate::tier::{MemTier, TierTraits};
    use tiera_sim::bandwidth::BandwidthCap;
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
            .rule(Rule::on(EventKind::timer(writeback)).respond(ResponseSpec::copy(
                Selector::InTier("tier1".into()).and(Selector::Dirty),
                ["tier2"],
            )))
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
        let bad =
            Rule::on(EventKind::threshold_at_least(Metric::TierFillFraction("tier9".into()), 0.5))
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
        assert!(matches!(inst.get("ghost", T0), Err(TieraError::NoSuchObject(_))));
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
            assert!(seen.get(key.as_bytes()).is_some(), "{key} reached the disk");
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
        inst.put("b", Bytes::from(vec![2u8; 4]), SimTime::from_secs(1)).unwrap();
        // "c" needs 4 bytes; tier1 has 2 free → "a" (oldest) is evicted.
        inst.put("c", Bytes::from(vec![3u8; 4]), SimTime::from_secs(2)).unwrap();
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
        inst.put("b", Bytes::from(vec![2u8; 4]), SimTime::from_secs(1)).unwrap();
        inst.put("c", Bytes::from(vec![3u8; 4]), SimTime::from_secs(2)).unwrap();
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
        assert_eq!(tier.request_counts().puts, 2, "duplicate content causes no second PUT");
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
                .respond(ResponseSpec::Grow { tier: "tier1".into(), percent: 100.0 }),
            )
            .build()
            .unwrap();
        inst.put("a", Bytes::from(vec![0u8; 74]), T0).unwrap();
        assert_eq!(inst.tier("tier1").unwrap().capacity(T0), 100);
        inst.put("b", Bytes::from(vec![0u8; 2]), T0).unwrap(); // 76% full
        assert_eq!(inst.tier("tier1").unwrap().capacity(T0), 200, "grow fired at the 75% crossing");
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
                    EventKind::threshold_at_least(Metric::TierFillFraction("tier1".into()), 0.5)
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
        let config = inst.policy.load();
        let mut ctx = Ctx::background(T0, &config);
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
        let config = inst.policy.load();
        let mut ctx = Ctx::background(T0, &config);
        inst.execute_response(
            &ResponseSpec::Compress { what: Selector::Key(ObjectKey::new("log")) },
            &mut ctx,
        )
        .unwrap();
        let meta = inst.registry().get(&ObjectKey::new("log")).unwrap();
        assert!(meta.compressed);
        assert!(meta.stored_size() < meta.size / 2, "{meta:?}");
        assert!(inst.tier("tier1").unwrap().used() < 5_000);
        // Transparent decompression on GET.
        let (data, _) = inst.get("log", T0).unwrap();
        assert_eq!(&data[..], &payload[..]);
        // Explicit uncompress restores.
        inst.execute_response(
            &ResponseSpec::Uncompress { what: Selector::Key(ObjectKey::new("log")) },
            &mut ctx,
        )
        .unwrap();
        let meta = inst.registry().get(&ObjectKey::new("log")).unwrap();
        assert!(!meta.compressed);
        assert_eq!(meta.stored_size(), meta.size);
    }

    #[test]
    fn a_compressed_object_is_framed_and_its_corruption_refused() {
        let inst = InstanceBuilder::new("zip", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .build()
            .unwrap();
        let text: Vec<u8> = b"abc".iter().cycle().take(10_000).copied().collect();
        let mut x = 9u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        inst.put("log", Bytes::from(text), T0).unwrap();
        inst.put("noise", Bytes::from(noise.clone()), T0).unwrap();
        let config = inst.policy.load();
        let mut ctx = Ctx::background(T0, &config);
        for key in ["log", "noise"] {
            let what = Selector::Key(ObjectKey::new(key));
            inst.execute_response(&ResponseSpec::Compress { what }, &mut ctx).unwrap();
        }

        // lzss would expand noise; the frame stores it raw instead.
        let meta = inst.registry().get(&ObjectKey::new("noise")).unwrap();
        assert!(meta.compressed);
        assert!(meta.stored_size() <= meta.size + packed::HEADER_LEN as u64, "{meta:?}");
        assert_eq!(&inst.get("noise", T0).unwrap().0[..], &noise[..]);

        // Flip one literal byte of the lzss body behind the instance's
        // back: it would decode, to other bytes, but the crc32 refuses it.
        let tier = inst.tier("tier1").unwrap();
        let key = ObjectKey::new("log");
        let (stored, _) = tier.get(&key, T0).unwrap();
        let mut bad = stored.to_vec();
        let body = packed::HEADER_LEN;
        let at = body + bad[body..].iter().position(|&b| b == b'a').unwrap();
        bad[at] ^= 0x01;
        tier.put(&key, Bytes::from(bad), T0).unwrap();
        let err = inst.get("log", T0).unwrap_err();
        assert!(matches!(err, TieraError::Codec(ref m) if m.contains("crc32")), "{err}");
    }

    #[test]
    fn a_refused_overwrite_keeps_the_transformed_value_readable() {
        let transforms = [
            ResponseSpec::Compress { what: Selector::Key(ObjectKey::new("k")) },
            ResponseSpec::Encrypt {
                what: Selector::Key(ObjectKey::new("k")),
                key_id: "default".into(),
            },
        ];
        for transform in transforms {
            let inst = InstanceBuilder::new("refused", SimEnv::new(1))
                .tier(MemTier::with_capacity("tier1", 1 << 20))
                .build()
                .unwrap();
            inst.add_key("default", [7u8; 32]);
            let payload: Vec<u8> = b"abc".iter().cycle().take(10_000).copied().collect();
            inst.put("k", Bytes::from(payload.clone()), T0).unwrap();
            inst.execute_response(&transform, &mut Ctx::background(T0, &inst.policy.load()))
                .unwrap();
            let before = inst.registry().get(&ObjectKey::new("k")).unwrap();

            let err = inst.put("k", Bytes::from(vec![1u8; 2 << 20]), T0).unwrap_err();
            assert!(matches!(err, TieraError::TierFull { .. }), "{transform:?}: {err}");
            assert_eq!(inst.registry().get(&ObjectKey::new("k")).unwrap(), before);
            let (data, _) = inst.get("k", T0).unwrap();
            assert!(data[..] == payload[..], "{transform:?}: GET returned the stored form");
        }
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
        inst.attach_tier(MemTier::with_capacity("ephemeral", 1 << 20)).unwrap();
        inst.attach_tier(durable_tier("s3", 1 << 20)).unwrap();
        inst.policy().replace_all([
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ephemeral"])),
            Rule::on(EventKind::timer(SimDuration::from_secs(120))).respond(ResponseSpec::copy(
                Selector::InTier("ephemeral".into()).and(Selector::Dirty),
                ["s3"],
            )),
        ]);

        inst.put("after", &b"y"[..], SimTime::from_secs(1)).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("after")).unwrap();
        assert!(meta.in_tier("ephemeral") && !meta.in_tier("ebs"));
        inst.pump(SimTime::from_secs(121)).unwrap();
        let meta = inst.registry().get(&ObjectKey::new("after")).unwrap();
        assert!(meta.in_tier("s3"), "backup rule took over: {meta:?}");
        assert!(matches!(inst.detach_tier("ebs"), Err(TieraError::NoSuchTier(_))));
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
        inst.put_with("tmpfile", &b"scratch"[..], PutOptions { tags: vec![Tag::new("tmp")] }, T0)
            .unwrap();
        let hits = inst.registry().select(&Selector::Tagged(Tag::new("tmp")), None);
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
        let config = inst.policy.load();
        let mut ctx = Ctx::foreground(SimTime::from_secs(1), &config);
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
        let config = inst.policy.load();
        let mut ctx = Ctx::background(SimTime::from_secs(5), &config);
        inst.execute_response(
            &ResponseSpec::Retrieve { what: Selector::Key(ObjectKey::new("k")) },
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
                work: WorkItem::Responses(InstalledRule::new(
                    RuleId(0),
                    Rule::on(EventKind::action(ActionOp::Put)),
                )),
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
                work: WorkItem::Responses(InstalledRule::new(
                    RuleId(0),
                    Rule::on(EventKind::action(ActionOp::Put)),
                )),
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

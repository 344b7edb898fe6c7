//! The response interpreter: the control layer's Table 1 responses.
//!
//! Foreground action rules run inline with the request that fired them,
//! and threshold rules after the actions that move their metrics;
//! background ones are queued for the pump. Every tier write or delete of
//! a key's bytes that a response makes runs inside `write_and_publish`,
//! under the key's shard lock, and only at the write version of the bytes
//! it read: stores, copies and moves, the in-place rewrites (`encrypt`,
//! `compress` and their inverses), and `delete`, evict-until-fit's vacate
//! included. Retries, failover and FAILURE_ALERTs for tier writes are
//! here too.

use std::collections::VecDeque;
use std::sync::Arc;

use tiera_support::Bytes;

use tiera_codec::packed;
use tiera_codec::{ChaCha20, Digest};
use tiera_sim::bandwidth::BandwidthCap;
use tiera_sim::{SimDuration, SimTime};

use super::pump::{PendingWork, WorkItem};
use super::{Ctx, Instance, Source};
use crate::dedup;
use crate::error::{Result, TieraError};
use crate::event::{EventKind, Metric};
use crate::meta::{ObjectMeta, TierSet};
use crate::object::ObjectKey;
use crate::policy::{ActionRule, Attached};
use crate::response::{EvictOrder, Guard, ResponseSpec};
use crate::retry::{FailureAlert, RetryPolicy};
use crate::selector::Selector;
use crate::tier::{TierHandle, TierId};

const MAX_CASCADE_DEPTH: u8 = 4;

/// Effective streaming rate of an *uncapped* background copy: a dedicated
/// replication thread keeps a moderate queue depth against the source
/// volume (≈ 4 MB/s of 4 KB objects on a busy 2014 magnetic volume).
const UNCAPPED_STREAM_RATE: BandwidthCap = BandwidthCap { bytes_per_sec: 4.0e6 };

impl Instance {
    /// Fires matched action rules in installation order: foreground rules
    /// run inline, background rules are queued for `pump`.
    pub(super) fn fire_action_rules<'c>(
        &self,
        matching: impl Iterator<Item = &'c ActionRule>,
        ctx: &mut Ctx,
    ) -> Result<()> {
        for action in matching {
            self.stats.record_event();
            if action.background {
                self.enqueue_background(Arc::clone(&action.rule), ctx);
            } else {
                self.execute_responses(action.rule.responses(), ctx)?;
            }
        }
        Ok(())
    }

    /// Evaluates threshold rules (edge-triggered) after state-changing
    /// actions. Every metric is read before any firing runs, so one rule's
    /// responses cannot move another's metric within one evaluation.
    pub(super) fn eval_thresholds(&self, ctx: &mut Ctx) -> Result<()> {
        if ctx.depth >= MAX_CASCADE_DEPTH {
            return Ok(());
        }
        let config = ctx.config;
        let mut fired = Vec::new();
        for installed in &config.thresholds {
            if let EventKind::Threshold { metric, relation, value, .. } = &installed.rule.event {
                if installed.cross(relation.holds(self.metric_value(metric, ctx), *value)) {
                    fired.push(installed);
                }
            }
        }
        for installed in fired {
            self.stats.record_event();
            if installed.rule.event.is_background() {
                self.enqueue_background(Arc::clone(installed), ctx);
            } else {
                ctx.depth += 1;
                let r = self.execute_responses(installed.responses(), ctx);
                ctx.depth -= 1;
                r?;
            }
        }
        Ok(())
    }

    fn metric_value(&self, metric: &Metric, ctx: &Ctx) -> f64 {
        let now = ctx.now;
        let tier = |t: &str| ctx.config.attached(t).map(|a| &a.tier);
        match metric {
            Metric::TierFillFraction(t) => tier(t).map(|t| t.fill_fraction(now)).unwrap_or(0.0),
            Metric::TierUsedBytes(t) => tier(t).map(|t| t.used() as f64).unwrap_or(0.0),
        }
    }

    pub(super) fn execute_responses(
        &self,
        responses: &[ResponseSpec],
        ctx: &mut Ctx,
    ) -> Result<()> {
        for r in responses {
            self.execute_response(r, ctx)?;
        }
        Ok(())
    }

    pub(super) fn execute_response(&self, spec: &ResponseSpec, ctx: &mut Ctx) -> Result<()> {
        self.stats.record_response();
        match spec {
            ResponseSpec::Store { what, to } => self.exec_store(what, to, false, ctx),
            ResponseSpec::StoreOnce { what, to } => self.exec_store(what, to, true, ctx),
            ResponseSpec::Retrieve { what } => self.exec_retrieve(what, ctx),
            ResponseSpec::Copy { what, to, bandwidth } => {
                self.exec_copy(what, to, *bandwidth, false, ctx)
            }
            ResponseSpec::Move { what, to, bandwidth } => {
                self.exec_copy(what, to, *bandwidth, true, ctx)
            }
            ResponseSpec::Delete { what, from } => {
                for key in self.registry.select(what, ctx.inserted.as_ref()) {
                    self.vacate(&key, from.as_deref(), None, ctx)?;
                }
                Ok(())
            }
            ResponseSpec::Encrypt { what, key_id } => {
                self.exec_rewrite(what, Some(key_id), true, ctx)
            }
            ResponseSpec::Decrypt { what, key_id } => {
                self.exec_rewrite(what, Some(key_id), false, ctx)
            }
            ResponseSpec::Compress { what } => self.exec_rewrite(what, None, true, ctx),
            ResponseSpec::Uncompress { what } => self.exec_rewrite(what, None, false, ctx),
            ResponseSpec::Grow { tier, percent } => {
                ctx.config.attached(tier)?.tier.grow(*percent, ctx.now);
                Ok(())
            }
            ResponseSpec::Shrink { tier, percent } => {
                ctx.config.attached(tier)?.tier.shrink(*percent, ctx.now);
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
            Guard::TierFilled { tier, at_least } => {
                let t = &ctx.config.attached(tier)?.tier;
                Ok(match at_least {
                    Some(frac) => t.fill_fraction(ctx.now) >= *frac,
                    None => {
                        let incoming =
                            ctx.inserted_data.as_ref().map(|d| d.len() as u64).unwrap_or(0);
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
            Some(d) => dedup::blob_key(&d),
            None => key.clone(),
        }
    }

    /// Fetches the payload bytes for `key` as currently stored (used by
    /// copy/move/store-of-existing), and whose they are. Charged to the
    /// context.
    pub(super) fn fetch_stored(&self, key: &ObjectKey, ctx: &mut Ctx) -> Result<(Bytes, Source)> {
        if ctx.inserted.as_ref() == Some(key) {
            if let Some(d) = &ctx.inserted_data {
                return Ok((d.clone(), ctx.inserted_source));
            }
        }
        let meta =
            self.registry.get(key).ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
        let (raw, _) = self.read_raw(key, &meta, ctx)?;
        Ok((raw, Source::Read(meta.settled_version())))
    }

    /// Runs `write` — tier writes or deletes of `key`'s bytes from
    /// `source`, and the record changes that publish them, which it makes
    /// as it goes — under the key's shard lock, and only while the record
    /// still carries `source`'s version, so such a write never lands after
    /// a later PUT's: the running PUT's own bytes publish until a DELETE
    /// removes the record (the PUT then acknowledges as one the DELETE
    /// followed), bytes read back only while no PUT has begun since they
    /// were read. Answers the version published; otherwise nothing is
    /// written (`Ok(None)`), and a stale write of read-back bytes is
    /// counted.
    fn write_and_publish(
        &self,
        key: &ObjectKey,
        source: Source,
        ctx: &mut Ctx,
        write: impl FnOnce(&mut Ctx, &mut ObjectMeta) -> Result<()>,
    ) -> Result<Option<u64>> {
        let (version, own) = match source {
            Source::Put(version) | Source::OnlyPut(version) => (version, true),
            Source::Read(version) => (version, false),
        };
        let published = self.registry.publish_at(key, version, own, |m| {
            let written = write(ctx, m);
            if written.is_ok() && matches!(source, Source::OnlyPut(_)) {
                m.placing = false;
            }
            written
        });
        match published {
            Some(result) => result.map(|()| Some(version)),
            None => {
                if !own {
                    self.stats.record_stale_copy();
                }
                Ok(None)
            }
        }
    }

    fn exec_store(&self, what: &Selector, to: &[String], dedup: bool, ctx: &mut Ctx) -> Result<()> {
        let keys = self.registry.select(what, ctx.inserted.as_ref());
        for key in keys {
            let (data, source) = self.fetch_stored(&key, ctx)?;
            if dedup {
                self.store_once_one(&key, data, source, to, ctx)?;
            } else {
                self.store_one(&key, data, source, to, ctx)?;
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
        let Some(policy) = ctx.config.retry.as_ref() else {
            return Ok(tier.put(key, data.clone(), ctx.now)?.latency);
        };
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
                    let budget_ok =
                        policy.op_budget.map(|b| ctx.now.since(start) < b).unwrap_or(true);
                    if retry + 1 >= policy.max_attempts || !RetryPolicy::retryable(&e) || !budget_ok
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
    fn failover_put<'a>(
        &self,
        key: &ObjectKey,
        data: &Bytes,
        failed: TierId,
        exclude: &TierSet,
        ctx: &mut Ctx<'a>,
    ) -> Option<(&'a Attached, SimDuration)> {
        let mut candidates: Vec<&Attached> = ctx
            .config
            .tiers
            .iter()
            .filter(|t| t.id != failed && !exclude.contains_id(t.id))
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
    /// Publishes as [`write_and_publish`](Self::write_and_publish) allows,
    /// and only once every target took the bytes.
    pub(super) fn store_one<S: AsRef<str>>(
        &self,
        key: &ObjectKey,
        data: Bytes,
        source: Source,
        to: &[S],
        ctx: &mut Ctx,
    ) -> Result<()> {
        let config = ctx.config;
        self.write_and_publish(key, source, ctx, |ctx, m| {
            let mut slowest = SimDuration::ZERO;
            let mut placed = TierSet::new();
            let mut durable = false;
            for tier_name in to {
                let mut target = config.attached(tier_name.as_ref())?;
                let latency = match self.tier_put_retrying(&target.tier, key, &data, ctx) {
                    Ok(latency) => latency,
                    Err(e) => {
                        if !config.retry.as_ref().is_some_and(|p| p.failover) {
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
            // Landing on a durable tier does not clear dirty — only an
            // explicit copy/move does (the dirty bit means "not yet
            // persisted by policy"); but a store that *itself* targets a
            // durable tier is a synchronous persist.
            for t in &placed {
                m.locations.insert_id(*t);
            }
            m.set_stored_size(data.len() as u64);
            if durable {
                m.dirty = false;
            }
            Ok(())
        })?;
        Ok(())
    }

    fn store_once_one(
        &self,
        key: &ObjectKey,
        data: Bytes,
        source: Source,
        to: &[String],
        ctx: &mut Ctx,
    ) -> Result<()> {
        let digest = Digest::of(&data);
        if ctx.inserted.as_ref() == Some(key) {
            for target in to.iter().filter_map(|t| ctx.config.attached(t).ok()) {
                ctx.placed_inserted.insert_id(target.id);
            }
        }
        let stored_size = data.len() as u64;
        let first = self.registry.dedup_acquire(digest);
        if first {
            // The physical object owns locations and participates in LRU
            // ordering; logical entries point at it via the digest. Its
            // key names its content, so no write can make it stale.
            let physical = dedup::blob_key(&digest);
            let mut pm = ObjectMeta::new(stored_size, ctx.now);
            pm.dirty = true;
            let mut slowest = SimDuration::ZERO;
            for tier_name in to {
                let target = ctx.config.attached(tier_name)?;
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
        }
        // Content already stored costs no tier writes at all (this is what
        // cuts the S3 PUT count in Fig 12b): the logical entry just records
        // the digest pointer. A stale one gives its reference back.
        let published = self.write_and_publish(key, source, ctx, |_, m| {
            m.set_digest(Some(digest));
            if first {
                m.set_stored_size(stored_size);
            }
            Ok(())
        })?;
        if published.is_none() {
            self.release_blob(&digest, ctx);
        }
        Ok(())
    }

    fn exec_retrieve(&self, what: &Selector, ctx: &mut Ctx) -> Result<()> {
        let keys = self.registry.select(what, ctx.inserted.as_ref());
        for key in keys {
            let meta =
                self.registry.get(&key).ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
            let _ = self.read_raw(&key, &meta, ctx)?;
            self.registry.touch(&key, ctx.now);
        }
        Ok(())
    }

    /// Copies (or moves) the selected objects.
    fn exec_copy(
        &self,
        what: &Selector,
        to: &[String],
        bandwidth: Option<BandwidthCap>,
        delete_source: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let keys = self.registry.select(what, ctx.inserted.as_ref());
        // Background copies self-pace via continuations: one object per
        // step, re-enqueued at the transfer rate, so they interleave with
        // foreground traffic in virtual time (paper Fig 14). Without an
        // explicit cap the replication stream runs at the device-limited
        // rate of a busy volume (~4 MB/s for 4 KB objects on 2014
        // magnetic EBS), which is exactly what makes uncapped replication
        // visibly inflate foreground latency.
        if ctx.background {
            let cap = bandwidth.unwrap_or(UNCAPPED_STREAM_RATE);
            let keys: VecDeque<ObjectKey> =
                keys.into_iter().map(|k| self.resolve_physical(&k)).collect();
            if !keys.is_empty() {
                self.background.lock().push(PendingWork {
                    due: ctx.now,
                    work: WorkItem::PacedCopy { keys, to: to.to_vec(), cap, delete_source },
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
                    ctx.charge(cap.pace(meta.stored_size() as usize));
                }
            }
            self.copy_single(&key, to, delete_source, ctx)?;
        }
        Ok(())
    }

    /// Copies one object to `to`, optionally vacating its other locations.
    /// Returns the number of bytes moved, and the version the copy
    /// published (see [`write_and_publish`](Self::write_and_publish)), if
    /// it did. A copy that fails part way still records every tier that
    /// took the bytes and every source its move vacated.
    pub(super) fn copy_single<S: AsRef<str>>(
        &self,
        key: &ObjectKey,
        to: &[S],
        delete_source: bool,
        ctx: &mut Ctx,
    ) -> Result<(usize, Option<u64>)> {
        // Dedup'd logical keys redirect to their physical object, which
        // owns the locations (and the bytes).
        let key = self.resolve_physical(key);
        // No-op short-circuit: the object already lives exactly where the
        // copy/move would put it.
        if let Some(meta) = self.registry.get(&key) {
            let covered = to.iter().all(|t| meta.locations.contains(t.as_ref()));
            let exact = meta.locations.len() == to.len();
            if covered && (!delete_source || exact) && ctx.inserted.as_ref() != Some(&key) {
                return Ok((meta.stored_size() as usize, Some(meta.settled_version())));
            }
        }
        let (data, source) = self.fetch_stored(&key, ctx)?;
        let config = ctx.config;
        let published = self.write_and_publish(&key, source, ctx, |ctx, m| {
            let mut slowest = SimDuration::ZERO;
            let mut dest = TierSet::new();
            let mut durable = false;
            for tier_name in to {
                let target = config.attached(tier_name.as_ref())?;
                slowest = slowest.max(self.tier_put_retrying(&target.tier, &key, &data, ctx)?);
                dest.insert_id(target.id);
                durable |= target.durable;
                m.locations.insert_id(target.id);
                if ctx.inserted.as_ref() == Some(&key) {
                    ctx.placed_inserted.insert_id(target.id);
                }
            }
            ctx.charge(slowest);
            if durable {
                m.dirty = false;
            }
            if delete_source {
                for loc in m.locations.clone().iter().filter(|l| !dest.contains_id(**l)) {
                    if let Some(tier) = config.tier_by_id(*loc) {
                        tier.delete(&key, ctx.now)?;
                    }
                    m.locations.retain(|l| l != *loc);
                }
            }
            Ok(())
        })?;
        Ok((data.len(), published))
    }

    /// Deletes `key`'s bytes from tier `from` (`None`: from every tier),
    /// and then its record once that names no tier. Both happen only at
    /// the version read, or at `copied`, the version a copy of the bytes
    /// published, so a PUT landing in between keeps its bytes and its
    /// record, and the stale attempt is counted. A `storeOnce` entry's
    /// bytes are its blob's: they stay, and the entry's removal gives its
    /// reference back.
    fn vacate(
        &self,
        key: &ObjectKey,
        from: Option<&str>,
        copied: Option<u64>,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let Some(meta) = self.registry.get(key) else {
            return Ok(());
        };
        if from.is_some_and(|t| !meta.locations.contains(t)) {
            return Ok(());
        }
        let source = copied.map_or_else(|| ctx.source_of(key, &meta), Source::Read);
        let config = ctx.config;
        let (mut emptied, mut blob) = (false, None);
        let published = self.write_and_publish(key, source, ctx, |ctx, m| {
            blob = m.digest();
            for loc in m.locations.clone().iter().filter(|l| from.is_none_or(|t| l.name() == t)) {
                if let (None, Some(tier)) = (blob, config.tier_by_id(*loc)) {
                    ctx.charge(tier.delete(key, ctx.now)?.latency);
                }
                m.locations.retain(|l| l != *loc);
            }
            emptied = m.locations.is_empty();
            Ok(())
        })?;
        if let Some(version) = published.filter(|_| from.is_none() || emptied) {
            let removed = self.registry.remove_if(key, |m| m.version == version);
            if let (Some(_), Some(d)) = (removed, blob) {
                self.release_blob(&d, ctx);
            }
        }
        Ok(())
    }

    /// Drops one `storeOnce` reference to `digest`. The last one deletes
    /// the blob's bytes from every attached tier and its registry entry.
    pub(super) fn release_blob(&self, digest: &Digest, ctx: &Ctx) {
        if !self.registry.dedup_release(digest) {
            return;
        }
        let physical = dedup::blob_key(digest);
        for Attached { tier, .. } in ctx.config.tiers.iter() {
            if tier.contains(&physical) {
                self.cleanup_delete(tier, &physical, ctx.now);
            }
        }
        self.registry.remove(&physical);
    }

    /// Deletes bytes the metadata no longer (or never did) point at. A
    /// refusal does not change the outcome of the operation cleaning up —
    /// it is counted, and the orphan stays in the tier.
    pub(super) fn cleanup_delete(&self, tier: &TierHandle, key: &ObjectKey, now: SimTime) {
        if tier.delete(key, now).is_err() {
            self.stats.record_cleanup_failure();
        }
    }

    /// Table 1's `encrypt`/`decrypt` (under `key_id`) and
    /// `compress`/`uncompress` (`key_id` is `None`): rewrites each selected
    /// object's stored bytes in place at every location, into the form
    /// `on` names. The bytes are read and transformed outside the shard
    /// lock; the puts and the record's new form publish together, at the
    /// version read (see [`write_and_publish`](Self::write_and_publish)).
    /// Decrypting under a key other than the object's is refused.
    fn exec_rewrite(
        &self,
        what: &Selector,
        key_id: Option<&str>,
        on: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let cipher = match key_id {
            Some(id) => Some(
                self.keyring
                    .read()
                    .get(id)
                    .copied()
                    .ok_or_else(|| TieraError::Codec(format!("unknown key id {id}")))?,
            ),
            None => None,
        };
        for key in self.registry.select(what, ctx.inserted.as_ref()) {
            let meta =
                self.registry.get(&key).ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
            if on == if cipher.is_some() { meta.encrypted } else { meta.compressed } {
                continue; // already in the requested state
            }
            if cipher.is_none() && meta.encrypted {
                return Err(TieraError::Codec(format!(
                    "refusing to (de)compress encrypted object {key}; decrypt first"
                )));
            }
            if meta.digest().is_some() {
                // Its bytes are a blob other keys may share: the record has
                // no locations of its own to rewrite.
                return Err(TieraError::Codec(format!(
                    "refusing to rewrite storeOnce object {key}"
                )));
            }
            if cipher.is_some() && !on && meta.encryption_key_id() != key_id {
                return Err(TieraError::Codec(format!(
                    "refusing to decrypt {key}: it is not encrypted under key id {}",
                    key_id.unwrap_or_default()
                )));
            }
            let (raw, _) = self.read_raw(&key, &meta, ctx)?;
            let data = match cipher {
                Some(k) => {
                    let mut buf = raw.to_vec();
                    ChaCha20::new(&k)
                        .apply(&ChaCha20::nonce_for(key.as_str().as_bytes()), &mut buf);
                    Bytes::from(buf)
                }
                None if on => {
                    let mut frame = Vec::new();
                    packed::pack_into(&mut frame, &raw);
                    Bytes::from(frame)
                }
                None => self.decode_payload(&key, &meta, raw)?,
            };
            let config = ctx.config;
            let source = ctx.source_of(&key, &meta);
            self.write_and_publish(&key, source, ctx, |ctx, m| {
                // A rewrite at this version changed the form since it was
                // read: the bytes transformed from it would undo that one.
                if (m.encrypted, m.compressed) != (meta.encrypted, meta.compressed) {
                    return Ok(());
                }
                let mut slowest = SimDuration::ZERO;
                for loc in &m.locations {
                    let tier = config
                        .tier_by_id(*loc)
                        .ok_or_else(|| TieraError::NoSuchTier(loc.to_string()))?;
                    slowest = slowest.max(tier.put(&key, data.clone(), ctx.now)?.latency);
                }
                ctx.charge(slowest);
                if cipher.is_some() {
                    m.encrypted = on;
                    m.set_encryption_key_id(key_id.filter(|_| on).map(str::to_string));
                } else {
                    m.compressed = on;
                    m.set_stored_size(data.len() as u64);
                }
                Ok(())
            })?;
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
        let from_tier = &ctx.config.attached(from)?.tier;
        // Incoming size: the payload being inserted, or (for eviction fired
        // from a GET/move context) the object's stored size from metadata.
        let incoming = ctx
            .inserted_data
            .as_ref()
            .map(|d| d.len() as u64)
            .or_else(|| {
                ctx.inserted.as_ref().and_then(|k| self.registry.get(k)).map(|m| m.stored_size())
            })
            .unwrap_or(0);
        let mut evicted = 0usize;
        // Never evict the object being inserted, and bound the loop by the
        // registry's object count, which no tier's exceeds: one atomic
        // load, where the tier's own count sums every registry shard.
        let max_evictions = self.registry.len() + 1;
        while from_tier.would_overflow(incoming, ctx.now) && evicted <= max_evictions {
            let victim = match order {
                EvictOrder::Lru => self.registry.oldest_in(from),
                EvictOrder::Mru => self.registry.newest_in(from),
            };
            let Some(victim) = victim else { break };
            if Some(&victim) == ctx.inserted.as_ref() {
                break;
            }
            // Move the victim down a tier. A copy an overwrite made stale
            // leaves the victim's new bytes where they are; the attempt
            // still counts, and the next pick goes on.
            evicted += 1;
            let copied = match self.copy_single(&victim, &[to], false, ctx) {
                Ok((_, Some(version))) => version,
                Ok((_, None)) | Err(TieraError::NoSuchObject(_)) => continue,
                Err(e) => return Err(e),
            };
            // Drop it from the fast tier, at the version the copy wrote.
            self.vacate(&victim, Some(from), Some(copied), ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InstanceBuilder;
    use crate::tier::MemTier;
    use tiera_sim::SimEnv;

    #[test]
    fn a_vacate_at_an_overwritten_version_deletes_nothing() {
        let inst = InstanceBuilder::new("vacate", SimEnv::new(1))
            .tier(MemTier::with_capacity("tier1", 1 << 20))
            .build()
            .unwrap();
        let key = ObjectKey::new("k");
        inst.put("k", &b"old"[..], SimTime::ZERO).unwrap();
        let old = inst.registry().get(&key).unwrap().version;
        inst.put("k", &b"new"[..], SimTime::ZERO).unwrap();
        let config = inst.policy.load();
        let mut ctx = Ctx::background(SimTime::ZERO, &config);
        // An eviction's vacate, and a whole-object delete, fenced at the
        // version a copy of `old` published: both find `new` and stop.
        for from in [Some("tier1"), None] {
            inst.vacate(&key, from, Some(old), &mut ctx).unwrap();
        }
        assert_eq!(inst.stats().stale_copies(), 2);
        assert_eq!(&inst.get("k", SimTime::ZERO).unwrap().0[..], b"new");
        // At the version read, the vacate deletes the bytes, and then the
        // record that names no tier any more.
        inst.vacate(&key, Some("tier1"), None, &mut ctx).unwrap();
        assert!(!inst.contains("k"));
        assert!(!inst.tier("tier1").unwrap().contains(&key));
    }
}

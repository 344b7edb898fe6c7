//! The write path: `put` and `delete` reach a key's owners, acknowledge
//! after W of them confirm, and record the outcome in the metadata.

use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;

use tiera_core::ObjectKey;
use tiera_sim::{SimDuration, SimTime};
use tiera_support::collections::FxHashMap;
use tiera_support::Bytes;

use super::route::Few;
use super::{ClusterError, Coordinator};

/// Authoritative per-key record: the version of the newest acknowledged
/// write (or delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct KeyMeta {
    pub(super) version: u64,
    pub(super) deleted: bool,
}

#[derive(Default)]
pub(super) struct MetaState {
    /// Keyed by each key's one handle, which the replicas hold clones of.
    /// Iterated only through a sort, so the table's order never shows.
    pub(super) keys: FxHashMap<ObjectKey, KeyMeta>,
    pub(super) failed: FailedWrites,
    /// The one delete-token table: each token's recorded outcome, the
    /// charged latency, or `None` for a key that was not there.
    pub(super) applied_deletes: FxHashMap<u64, Option<SimDuration>>,
}

impl MetaState {
    /// The handle and authoritative version of `key`, if it is live, with
    /// its failed writes' versions.
    pub(super) fn live(&self, key: &str) -> Option<(ObjectKey, u64, Vec<u64>)> {
        self.keys
            .get_key_value(key)
            .filter(|(_, m)| !m.deleted)
            .map(|(handle, m)| (handle.clone(), m.version, self.failed.of(key)))
    }
}

/// Per key, the versions of writes that failed their quorum but landed on
/// some replica, newer than the key's version: the copies they left are
/// residue, which no read serves and every repair purges.
#[derive(Default)]
pub(super) struct FailedWrites(FxHashMap<ObjectKey, Vec<u64>>);

impl FailedWrites {
    pub(super) fn of(&self, key: &str) -> Vec<u64> {
        self.0.get(key).cloned().unwrap_or_default()
    }

    /// `key`'s version became `version`: the copies failed writes older
    /// than it left are merely behind now.
    fn advanced(&mut self, key: &str, version: u64) {
        if let Some(failed) = self.0.get_mut(key) {
            failed.retain(|&v| v > version);
            if failed.is_empty() {
                self.0.remove(key);
            }
        }
    }
}

impl Coordinator {
    /// Replicated store: writes to all R owners, acks after W took the
    /// bytes and charges the W-th fastest acknowledgement. An owner that
    /// holds a later version (a racing write's, or a failed one's) keeps
    /// it and does not count.
    pub fn put(&self, key: &str, value: Bytes, now: SimTime) -> Result<SimDuration, ClusterError> {
        let (nodes, route) = self.route(key)?;
        // An overwrite hands the replicas the handle they already hold;
        // only a new key allocates one.
        let held = self.meta.lock().keys.get_key_value(key).map(|(h, _)| h.clone());
        let handle = held.unwrap_or_else(|| ObjectKey::new(key));
        let version = self.versions.fetch_add(1, Ordering::Relaxed) + 1;
        let mut acks = Few::new();
        for &pos in route.owners() {
            if let Ok((latency, true)) = nodes[pos].apply_put(&handle, value.clone(), version, now)
            {
                acks.push(latency);
            }
        }
        let landed = !acks.is_empty();
        let outcome = self.quorum_latency(key, acks);
        let mut meta = self.meta.lock();
        let meta = &mut *meta;
        match (meta.keys.entry(handle), &outcome) {
            (Entry::Occupied(mut e), Ok(_)) if version > e.get().version => {
                *e.get_mut() = KeyMeta { version, deleted: false };
                meta.failed.advanced(key, version);
            }
            // Its copies are residue: ahead of every version served from
            // now on, and purged by the next repair that meets them.
            (Entry::Occupied(e), Err(_)) if landed && version > e.get().version => {
                meta.failed.0.entry(e.key().clone()).or_default().push(version);
            }
            (Entry::Vacant(e), Ok(_)) => {
                e.insert(KeyMeta { version, deleted: false });
            }
            _ => {}
        }
        outcome
    }

    /// What a write acknowledged with `acks` is charged: once W owners
    /// have confirmed it is acknowledged, so the W-th fastest.
    fn quorum_latency(
        &self,
        key: &str,
        mut acks: Few<SimDuration>,
    ) -> Result<SimDuration, ClusterError> {
        if acks.len() < self.write_quorum {
            return Err(ClusterError::NoQuorum {
                key: key.to_string(),
                acked: acks.len(),
                needed: self.write_quorum,
            });
        }
        acks.sort_unstable();
        Ok(acks[self.write_quorum - 1])
    }

    /// Replicated delete: a redelivery of `token` (client redial,
    /// coordinator failover) replays the outcome recorded once the first
    /// delivery reached quorum. Acks after W owners confirm and charges
    /// the W-th fastest.
    pub fn delete(&self, token: u64, key: &str, now: SimTime) -> Result<SimDuration, ClusterError> {
        let handle = {
            let mut meta = self.meta.lock();
            if let Some(&recorded) = meta.applied_deletes.get(&token) {
                return recorded.ok_or_else(|| ClusterError::NoSuchObject(key.to_string()));
            }
            let Some((handle, _, _)) = meta.live(key) else {
                meta.applied_deletes.insert(token, None);
                return Err(ClusterError::NoSuchObject(key.to_string()));
            };
            handle
        };
        let (nodes, route) = self.route(key)?;
        let version = self.versions.fetch_add(1, Ordering::Relaxed) + 1;
        let mut acks = Few::new();
        for &pos in route.order.iter() {
            if let Ok(latency) = nodes[pos].apply_delete(&handle, now) {
                acks.push(latency);
            }
        }
        // Short of W acks the delete may be partially applied; it is NOT
        // cached, so a retry with the same token reaches every owner
        // again and finishes the job (a replica delete is idempotent).
        let latency = self.quorum_latency(key, acks)?;
        let mut meta = self.meta.lock();
        if let Some(entry) = meta.keys.get_mut(key) {
            if version > entry.version {
                entry.version = version;
                entry.deleted = true;
                meta.failed.advanced(key, version);
            }
        }
        meta.applied_deletes.insert(token, Some(latency));
        Ok(latency)
    }
}

//! The read plan: `get` and `multi_get` probe a key's route and serve
//! the first copy at its version, and `repair` and `merge` say which
//! copies they pass over are healed, and how.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_core::ObjectKey;
use tiera_sim::{SimDuration, SimTime};
use tiera_support::collections::FxHashMap;
use tiera_support::Bytes;

use crate::node::{ClusterNode, NodeError, ReplicaRead};

use super::route::Route;
use super::{ClusterError, Coordinator};

/// Whether a replica's copy of write `held` (`None`: no copy) is
/// repaired, against its key's authoritative `version` and the `failed`
/// writes that landed: `Some(residue)` for a copy behind, missing, or a
/// failed write's (`residue`, purged first, since no merge lowers a
/// replica); `None` for a fresh copy or one of a write still in flight,
/// which is neither served nor lowered. Reads and the rejoin sweep both
/// repair by it.
pub(super) fn repair(held: Option<u64>, version: u64, failed: &[u64]) -> Option<bool> {
    match held {
        Some(v) if v == version || (v > version && !failed.contains(&v)) => None,
        Some(v) => Some(v > version),
        None => Some(false),
    }
}

/// One live key's read: of a `get`, or one distinct key of a batch.
struct ReadPlan {
    /// Index of the key's first slot in the batch (0 for a `get`).
    slot: usize,
    key: ObjectKey,
    /// The authoritative version a served copy must carry.
    version: u64,
    /// The key's failed writes' versions.
    failed: Vec<u64>,
    route: Route,
}

/// Read-path counters, a snapshot of [`Coordinator::read_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Reads of live keys: the ones the metadata could not answer alone.
    pub reads: u64,
    /// Replica reads issued, to owners and old-ring fallbacks alike.
    /// Equals `reads` while every preferred owner is fresh.
    pub replica_probes: u64,
    /// Replicas passed over as stale, missing or unreachable.
    pub failovers: u64,
    /// Passed-over owners brought up to the authoritative version.
    pub repairs: u64,
    /// Repair writes that failed; the owner stays divergent until it is
    /// probed again, rejoins, or a rebalance copies to it.
    pub repair_failures: u64,
}

#[derive(Default)]
pub(super) struct ReadCounters {
    /// Also the rotation sequence: a `get` starts at owner `reads % R`.
    pub(super) reads: AtomicU64,
    pub(super) replica_probes: AtomicU64,
    pub(super) failovers: AtomicU64,
    pub(super) repairs: AtomicU64,
    pub(super) repair_failures: AtomicU64,
}

impl Coordinator {
    /// Merges write `version` of `key`, `data`, into each of `into`: a
    /// replica takes it only over an older version or none, so a merge
    /// never lowers one, and a replica flagged as holding residue (see
    /// [`repair`]) has it purged first. Read repair, the rebalance copy
    /// and the rejoin sweep all repair through here. Returns how many
    /// replicas took it and how many failed to.
    pub(super) fn merge<'a>(
        &self,
        key: &ObjectKey,
        version: u64,
        data: &Bytes,
        into: impl IntoIterator<Item = (&'a ClusterNode, bool)>,
        now: SimTime,
    ) -> (u64, u64) {
        let (mut written, mut failed) = (0, 0);
        for (node, residue) in into {
            if residue && node.apply_delete(key, now).is_err() {
                failed += 1;
                continue;
            }
            match node.apply_put(key, data.clone(), version, now) {
                Ok((_, landed)) => written += u64::from(landed),
                Err(_) => failed += 1,
            }
        }
        (written, failed)
    }

    /// Read: probes the key's owners from a rotating start and serves
    /// the first copy at the authoritative version, repairing the owners
    /// it passed over as behind, missing or holding a failed write's copy.
    pub fn get(&self, key: &str, now: SimTime) -> Result<(Bytes, SimDuration), ClusterError> {
        let Some((handle, version, failed)) = self.meta.lock().live(key) else {
            return Err(ClusterError::NoSuchObject(key.to_string()));
        };
        let seq = self.read_counters.reads.fetch_add(1, Ordering::Relaxed);
        let (nodes, mut route) = self.route(key)?;
        route.start_at((seq % route.owners as u64) as usize);
        let plan = ReadPlan { slot: 0, key: handle, version, failed, route };
        self.probe(&plan, &nodes, None, now)
    }

    /// Probes the plan's route front to back and serves the first copy at
    /// its version, merging it into the owners it passed over as
    /// divergent (see [`repair`]). `first`, when given, is the answer
    /// the front replica already gave as part of a batched read.
    fn probe(
        &self,
        plan: &ReadPlan,
        nodes: &[Arc<ClusterNode>],
        mut first: Option<ReplicaRead>,
        now: SimTime,
    ) -> Result<(Bytes, SimDuration), ClusterError> {
        let ReadPlan { key, version, failed, route, .. } = plan;
        let version = *version;
        let counters = &self.read_counters;
        let mut divergent: Vec<(usize, bool)> = Vec::new();
        let mut stale = 0usize;
        let mut unreachable = 0usize;
        for (i, &pos) in route.order.iter().enumerate() {
            let answer = match first.take() {
                Some(answer) => answer,
                None => nodes[pos].apply_get(key, now),
            };
            let held = match answer {
                Ok((data, latency, v)) if v == version => {
                    counters.replica_probes.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    if i > 0 {
                        counters.failovers.fetch_add(i as u64, Ordering::Relaxed);
                    }
                    let into =
                        divergent.iter().map(|&(pos, residue)| (nodes[pos].as_ref(), residue));
                    let (written, failed) = self.merge(key, version, &data, into, now);
                    counters.repairs.fetch_add(written, Ordering::Relaxed);
                    counters.repair_failures.fetch_add(failed, Ordering::Relaxed);
                    return Ok((data, latency));
                }
                Err(NodeError::Unavailable { .. }) => {
                    unreachable += 1;
                    continue;
                }
                Ok((_, _, v)) => Some(v),
                // No copy at all (not yet migrated, stale rejoin).
                Err(NodeError::Storage { .. }) => None,
            };
            stale += 1;
            match repair(held, version, failed) {
                // Only an owner is repaired.
                Some(residue) if i < route.owners => divergent.push((pos, residue)),
                _ => {}
            }
        }
        let tried = route.order.len() as u64;
        counters.replica_probes.fetch_add(tried, Ordering::Relaxed);
        counters.failovers.fetch_add(tried, Ordering::Relaxed);
        Err(ClusterError::NoFreshReplica { key: key.to_string(), stale, unreachable })
    }

    /// Routed `MultiGet`: per-item outcomes in key order. The batch is
    /// planned as a whole — one metadata lock, one ring lock — each
    /// distinct key once, and spread over the owners: each key starts at
    /// the owner holding the fewest keys of this batch so far (ties in
    /// ring order), each owner serves its keys as one group, and a key
    /// whose preferred owner is not fresh falls over to its other
    /// replicas on its own. A key repeated in the batch is read once;
    /// every slot it fills gets a clone of that answer — the same bytes
    /// and latency, or the same error.
    pub fn multi_get(
        &self,
        keys: &[&str],
        now: SimTime,
    ) -> Vec<Result<(Bytes, SimDuration), ClusterError>> {
        // Every slot starts as the answer an empty ring gives; the
        // metadata pass overwrites the absent keys, the probes the rest,
        // and a repeated key's slots copy its first slot last.
        let mut out: Vec<_> = keys.iter().map(|_| Err(ClusterError::NoMembers)).collect();
        let mut first_slot: FxHashMap<&str, usize> = FxHashMap::default();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut live: Vec<(usize, ObjectKey, u64, Vec<u64>)> = Vec::with_capacity(keys.len());
        {
            let meta = self.meta.lock();
            for (slot, &key) in keys.iter().enumerate() {
                match first_slot.entry(key) {
                    Entry::Occupied(first) => repeats.push((slot, *first.get())),
                    Entry::Vacant(first) => {
                        first.insert(slot);
                        match meta.live(key) {
                            Some((handle, version, failed)) => {
                                live.push((slot, handle, version, failed))
                            }
                            None => out[slot] = Err(ClusterError::NoSuchObject(key.to_string())),
                        }
                    }
                }
            }
        }
        self.read_distinct(live, &mut out, now);
        for (slot, first) in repeats {
            out[slot] = out[first].clone();
        }
        out
    }

    /// The probes of [`Coordinator::multi_get`]: one read plan per live
    /// key, answers written to the key's slot of `out`.
    fn read_distinct(
        &self,
        live: Vec<(usize, ObjectKey, u64, Vec<u64>)>,
        out: &mut [Result<(Bytes, SimDuration), ClusterError>],
        now: SimTime,
    ) {
        self.read_counters.reads.fetch_add(live.len() as u64, Ordering::Relaxed);
        let (nodes, mut plans) = {
            let mem = self.membership.read();
            if mem.ring.is_empty() {
                return;
            }
            let mut load = vec![0usize; mem.nodes.len()];
            let plans: Vec<ReadPlan> = live
                .into_iter()
                .map(|(slot, key, version, failed)| {
                    let mut route = mem.route(key.as_str(), self.replicas);
                    let start = (0..route.owners)
                        .min_by_key(|&i| load[route.order[i]])
                        .expect("a non-empty ring gives every key an owner");
                    load[route.order[start]] += 1;
                    route.start_at(start);
                    ReadPlan { slot, key, version, failed, route }
                })
                .collect();
            (Arc::clone(&mem.nodes), plans)
        };
        // One batched read per preferred owner; the sort is stable, so a
        // group keeps its keys in input order.
        plans.sort_by_key(|plan| plan.route.order[0]);
        for group in plans.chunk_by(|a, b| a.route.order[0] == b.route.order[0]) {
            let answers = nodes[group[0].route.order[0]]
                .apply_multi_get(group.iter().map(|plan| &plan.key), now)
                .unwrap_or_else(|down| vec![Err(down); group.len()]);
            for (plan, answer) in group.iter().zip(answers) {
                out[plan.slot] = self.probe(plan, &nodes, Some(answer), now);
            }
        }
    }
}

/// The bytes of write `version` of `key`, read from the first of
/// `candidates` that holds that version.
pub(super) fn fresh_copy<'a>(
    key: &ObjectKey,
    version: u64,
    candidates: impl IntoIterator<Item = &'a Arc<ClusterNode>>,
    now: SimTime,
) -> Option<Bytes> {
    candidates.into_iter().find_map(|node| match node.apply_get(key, now) {
        Ok((data, _, v)) if v == version => Some(data),
        _ => None,
    })
}

//! The coordinator: routing, quorum replication, read repair, and the
//! rebalance engine.
//!
//! One coordinator fronts N [`ClusterNode`]s. Every key has R owners on
//! the [`Ring`] (primary + R−1 successors):
//!
//! * **PUT** writes `(version, bytes)` to all R owners, the version taken
//!   from one counter, and acknowledges once W confirm (`W ≤ R`): the
//!   client is charged the W-th fastest acknowledgement, not the slowest
//!   of the R. The version then becomes the key's authoritative one.
//! * **GET** consults the metadata first — an absent or tombstoned key
//!   answers `no such object` without touching any node, which is what
//!   makes phantom reads from stale replicas impossible — then follows
//!   the key's **read plan**: its owners in ring order from a preferred
//!   starting replica, then the old-ring fallbacks of a rebalance in
//!   flight. Replicas are probed in that order and the read stops at the
//!   first copy at the metadata's version, so a healthy read costs one
//!   replica read. Owners probed and found behind or missing are
//!   repaired from the served copy; `NoFreshReplica` is returned only
//!   after every owner and fallback has been tried. A single `get`
//!   starts at a rotating owner, so reads of a hot key spread over its
//!   replicas and R consecutive reads of a key probe every owner;
//!   `multi_get` plans the whole batch under one ring lock, plans each
//!   *distinct* key once — a key repeated in the batch is read once and
//!   every slot it fills gets a clone of that one answer — starts each
//!   key at the owner holding the fewest keys of the batch so far (ties
//!   in ring order) and hands each owner its keys as one group.
//! * **DELETE** carries an idempotency token and tombstones the metadata
//!   after W owners and old-ring fallbacks acknowledge, charging the W-th
//!   fastest acknowledgement like a PUT. The coordinator holds the one
//!   token table: a token delivered again (a client redial racing a
//!   failover) after its delete reached quorum replays the recorded
//!   outcome and reaches no replica, so a key written in between is
//!   spared. One that missed quorum is not recorded; its retry deletes
//!   again on every owner, which is safe because a replica delete of an
//!   absent key acknowledges.
//!
//! **Versions.** Each replica is a last-writer-wins register: a store
//! lands only if its version is newer than the replica's
//! ([`Instance::put_if_newer`]), and a read reports its version. A copy
//! at the metadata's version is fresh; one behind it (or missing) missed
//! a write. One ahead is either a failed write's copy — the metadata
//! records the version of each write that failed its quorum but landed —
//! or a write still in flight, which is neither served nor lowered. Only
//! the coordinator writes a replica, and one *merge* — `(version, bytes)`
//! with `put_if_newer`, after purging a failed write's copy — heals every
//! divergence: a read merges into the owners it probed and found behind
//! or holding such a copy (rotation makes that at most R reads of the key
//! away), the `rejoin` sweep into a returning node, a rebalance into
//! every owner that gained a key. One rule, `repair`, says which
//! copies the read and the sweep repair. [`Coordinator::read_stats`]
//! counts the outcomes.
//!
//! [`Instance::put_if_newer`]: tiera_core::Instance::put_if_newer
//!
//! **One key handle per key.** The metadata map is keyed by
//! [`ObjectKey`], and that one handle is what every [`ClusterNode`] op
//! names the key by — PUT, GET, batch reads, repair, rebalance and
//! rejoin alike. Each replica's instance keeps a clone of it, so a key
//! costs at most one allocation however many replicas hold it (none when
//! it is short enough to be inline), and a replica read allocates no key. Routing allocates nothing either: every vnode
//! point's owner is resolved to its node position once per membership
//! change, so a route walks integers, and keeps them in place.
//!
//! **Rebalance.** A join or leave diffs the old ring against the new one
//! ([`Ring::plan_rebalance`]) into the minimal key-move plan, then
//! [`Coordinator::rebalance_step`] executes it one key at a time under a
//! per-step byte budget — bandwidth-capped, resumable, and safe to run
//! concurrently with live traffic (reads fall back to the old owners
//! until the run completes; writes go to the new owners only, and deletes
//! reach the old owners too).
//! A source that dies mid-run defers its moves to the rejoin
//! anti-entropy sweep instead of failing the run.
//!
//! **Locks.** `cluster.ring` (membership + rebalance run) and
//! `cluster.meta` (per-key metadata + applied-delete cache) are ranked
//! ring → meta → node and never held across node IO: owner sets are
//! snapshotted out of the ring lock, and metadata is read before / written
//! after the replica round trips. A batch read takes each of the two once.

mod read;
mod rebalance;
mod route;
mod write;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_core::ObjectKey;
use tiera_support::sync::{rank, Mutex, RwLock};

use crate::node::ClusterNode;
use crate::ring::{Ring, DEFAULT_VNODES};

use read::ReadCounters;
pub use read::ReadStats;
pub use rebalance::{RebalanceReport, RebalanceStep, RejoinReport};
use route::Membership;
use write::MetaState;

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The ring has no members.
    NoMembers,
    /// `add_node` for a name already on the ring.
    DuplicateNode(String),
    /// An operation named a node the coordinator does not know.
    UnknownNode(String),
    /// The key does not exist (never written, or tombstoned).
    NoSuchObject(String),
    /// Fewer than W owners acknowledged a write or delete. The op may
    /// have landed on some replicas; a retry with the same token is safe.
    NoQuorum {
        /// The key.
        key: String,
        /// Owners that acknowledged.
        acked: usize,
        /// The write quorum W.
        needed: usize,
    },
    /// No reachable replica held the authoritative version (all fresh
    /// copies are on unreachable nodes).
    NoFreshReplica {
        /// The key.
        key: String,
        /// Replicas that were reachable but behind, ahead or missing.
        stale: usize,
        /// Owners that were unreachable.
        unreachable: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoMembers => write!(f, "cluster has no members"),
            ClusterError::DuplicateNode(n) => write!(f, "node {n} already on the ring"),
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::NoSuchObject(k) => write!(f, "no such object: {k}"),
            ClusterError::NoQuorum { key, acked, needed } => {
                write!(f, "no write quorum for {key}: {acked} of {needed} acks")
            }
            ClusterError::NoFreshReplica {
                key,
                stale,
                unreachable,
            } => write!(
                f,
                "no fresh replica of {key} reachable ({stale} stale/missing, {unreachable} unreachable)"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Every node handle the coordinator knows, sorted by name. Shared so a
/// snapshot out of the ring lock is one reference-count bump.
type Handles = Arc<[Arc<ClusterNode>]>;

/// Routes, replicates, and rebalances over a set of [`ClusterNode`]s.
pub struct Coordinator {
    replicas: usize,
    write_quorum: usize,
    membership: RwLock<Membership>,
    meta: Mutex<MetaState>,
    versions: AtomicU64,
    tokens: AtomicU64,
    read_counters: ReadCounters,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("replicas", &self.replicas)
            .field("write_quorum", &self.write_quorum)
            .finish()
    }
}

impl Coordinator {
    /// A coordinator replicating to `replicas` owners and acknowledging
    /// after `write_quorum` of them confirm. Requires
    /// `1 ≤ write_quorum ≤ replicas`.
    pub fn new(replicas: usize, write_quorum: usize) -> Self {
        assert!((1..=replicas).contains(&write_quorum), "write quorum must satisfy 1 <= W <= R");
        Self {
            replicas,
            write_quorum,
            membership: RwLock::named(
                "cluster.ring",
                rank::CLUSTER_RING,
                Membership {
                    ring: Ring::new(DEFAULT_VNODES),
                    points: Vec::new(),
                    nodes: Vec::new().into(),
                    rebalance: None,
                    last_report: None,
                },
            ),
            meta: Mutex::named("cluster.meta", rank::CLUSTER_META, MetaState::default()),
            versions: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            read_counters: ReadCounters::default(),
        }
    }

    /// A fresh idempotency token for a client-originated mutation.
    pub fn next_token(&self) -> u64 {
        self.tokens.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Member names currently on the ring, sorted.
    pub fn node_names(&self) -> Vec<String> {
        self.membership.read().ring.nodes().to_vec()
    }

    /// Read-path counters since construction.
    pub fn read_stats(&self) -> ReadStats {
        let c = &self.read_counters;
        ReadStats {
            reads: c.reads.load(Ordering::Relaxed),
            replica_probes: c.replica_probes.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            repairs: c.repairs.load(Ordering::Relaxed),
            repair_failures: c.repair_failures.load(Ordering::Relaxed),
        }
    }

    /// The ring owners of `key`, primary first.
    pub fn owner_names(&self, key: &str) -> Vec<String> {
        self.membership.read().ring.owners(key, self.replicas)
    }

    /// Whether `key` currently exists (written, not tombstoned).
    pub fn contains(&self, key: &str) -> bool {
        self.meta.lock().keys.get(key).is_some_and(|m| !m.deleted)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.meta.lock().keys.values().filter(|m| !m.deleted).count()
    }

    /// Whether no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live keys, sorted (deterministic iteration for planning/audits):
    /// the handles the replicas hold clones of.
    pub fn live_keys(&self) -> Vec<ObjectKey> {
        let mut keys: Vec<ObjectKey> = self
            .meta
            .lock()
            .keys
            .iter()
            .filter(|(_, m)| !m.deleted)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;
    use tiera_support::Bytes;

    fn mem_node(name: &str, seed: u64) -> Arc<ClusterNode> {
        let inst = InstanceBuilder::new(name, SimEnv::new(seed))
            .tier(MemTier::with_traits(
                "t1",
                64 << 20,
                TierTraits { durable: true, ..TierTraits::default() },
            ))
            .build()
            .unwrap();
        ClusterNode::new(name, inst)
    }

    fn cluster(n: usize, r: usize, w: usize) -> (Coordinator, Vec<Arc<ClusterNode>>) {
        let coord = Coordinator::new(r, w);
        let nodes: Vec<_> =
            (0..n).map(|i| mem_node(&format!("node-{i}"), 100 + i as u64)).collect();
        for node in &nodes {
            coord.add_node(Arc::clone(node)).unwrap();
        }
        (coord, nodes)
    }

    fn b(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    /// Writes `key = value` while `missing` are partitioned away, so each
    /// of them is left a write behind; the write's outcome is returned.
    /// Only the coordinator writes a replica, so this is how one diverges.
    fn put_missing(
        coord: &Coordinator,
        missing: &[&Arc<ClusterNode>],
        key: &str,
        value: &str,
    ) -> std::result::Result<SimDuration, ClusterError> {
        for node in missing {
            node.set_partitioned(true);
        }
        let outcome = coord.put(key, b(value), SimTime::ZERO);
        for node in missing {
            node.set_partitioned(false);
        }
        outcome
    }

    /// The handle of each owner of `key`, in ring order.
    fn owners_of(
        coord: &Coordinator,
        nodes: &[Arc<ClusterNode>],
        key: &str,
    ) -> Vec<Arc<ClusterNode>> {
        coord
            .owner_names(key)
            .iter()
            .map(|name| Arc::clone(nodes.iter().find(|n| n.name() == name).unwrap()))
            .collect()
    }

    /// Reads each node's instance has served so far.
    fn node_reads(nodes: &[Arc<ClusterNode>]) -> Vec<u64> {
        nodes.iter().map(|n| n.instance().stats().reads().count).collect()
    }

    #[test]
    fn put_replicates_to_r_owners_and_get_routes() {
        let (coord, nodes) = cluster(5, 3, 2);
        let t = SimTime::ZERO;
        for i in 0..64 {
            let key = format!("k{i}");
            coord.put(&key, b(&format!("v{i}")), t).unwrap();
        }
        for i in 0..64 {
            let key = format!("k{i}");
            let (data, _) = coord.get(&key, t).unwrap();
            assert_eq!(&data[..], format!("v{i}").as_bytes());
            // Exactly the ring owners hold a copy.
            let owners = coord.owner_names(&key);
            assert_eq!(owners.len(), 3);
            for node in &nodes {
                let holds = node.instance().contains(key.as_str());
                assert_eq!(
                    holds,
                    owners.iter().any(|o| o == node.name()),
                    "key {key} on node {}",
                    node.name()
                );
            }
        }
        assert_eq!(coord.len(), 64);
        // Healthy cluster: one replica read per routed read, no more.
        let stats = coord.read_stats();
        assert_eq!(stats.reads, 64);
        assert_eq!(stats.replica_probes, stats.reads);
        assert_eq!((stats.failovers, stats.repairs, stats.repair_failures), (0, 0, 0));
        assert_eq!(node_reads(&nodes).iter().sum::<u64>(), 64);
    }

    #[test]
    fn acks_require_w_and_survive_r_minus_w_failures() {
        let (coord, nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        // One owner down: W=2 of R=3 still reachable — put must succeed.
        nodes[0].kill();
        let mut acked = Vec::new();
        for i in 0..32 {
            let key = format!("k{i}");
            if coord.put(&key, b(&format!("v{i}")), t).is_ok() {
                acked.push(key);
            }
        }
        assert_eq!(acked.len(), 32, "one dead node of three cannot block W=2");
        // Two owners down: any key owned by both survivors-minus-one fails.
        nodes[1].kill();
        let failures =
            (0..32).filter(|i| coord.put(&format!("fresh{i}"), b("x"), t).is_err()).count();
        assert_eq!(failures, 32, "two dead nodes of three must block W=2");
        // Every acked write is still readable with one node dead.
        nodes[1].revive();
        for key in &acked {
            coord.get(key, t).unwrap();
        }
    }

    /// The repair contract: a divergent owner is never served, is
    /// repaired by the first read that probes it (which need not be the
    /// next read), and R consecutive reads of a key probe every owner.
    #[test]
    fn divergent_owner_is_never_served_and_heals_when_probed() {
        let t = SimTime::ZERO;
        for corrupted in 0..3 {
            let (coord, nodes) = cluster(3, 3, 2);
            coord.put("k", b("stale"), t).unwrap();
            let owners = owners_of(&coord, &nodes, "k");
            // One owner misses the latest write.
            let victim = &owners[corrupted];
            put_missing(&coord, &[victim], "k", "fresh").unwrap();
            let before = node_reads(&owners);
            for read in 0..3 {
                let (data, _) = coord.get("k", t).unwrap();
                assert_eq!(&data[..], b"fresh", "read {read}, owner {corrupted} stale");
                // Read `read` starts at owner `read`: the victim stays
                // stale until the read that starts on it.
                let healed = coord.read_stats().repairs == 1;
                assert_eq!(healed, read >= corrupted, "read {read}, owner {corrupted} stale");
            }
            let stats = coord.read_stats();
            assert_eq!((stats.reads, stats.replica_probes), (3, 4));
            assert_eq!((stats.failovers, stats.repair_failures), (1, 0));
            for (owner, before) in owners.iter().zip(before) {
                let served = owner.instance().stats().reads().count - before;
                assert!(served >= 1, "three reads probe every owner ({})", owner.name());
            }
            let (repaired, _) = victim.instance().get("k", t).unwrap();
            assert_eq!(&repaired[..], b"fresh");
        }
    }

    /// What a test does to one owner's copy before reading.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Damage {
        Intact,
        Corrupted,
        Missing,
        Killed,
    }

    /// For every start offset and every combination of damaged owners,
    /// through `get` and through `multi_get`: the answer is the
    /// authoritative bytes or `NoFreshReplica`, never anything else. A
    /// corrupted owner is one that missed the latest write; when every
    /// owner missed it, the write reached no replica and failed, and the
    /// bytes they all hold stay the authoritative ones.
    #[test]
    fn reads_serve_authoritative_bytes_or_refuse_under_every_damage_pattern() {
        use Damage::*;
        let t = SimTime::ZERO;
        let kinds = [Intact, Corrupted, Missing, Killed];
        for pattern in 0..kinds.len().pow(3) {
            let damage = [pattern % 4, pattern / 4 % 4, pattern / 16].map(|d| kinds[d]);
            for (start, batched) in [(0, false), (1, false), (2, false), (0, true)] {
                // W = 1: the latest write is acknowledged by whichever
                // owners did not miss it.
                let (coord, nodes) = cluster(3, 3, 1);
                coord.put("k", b("stale"), t).unwrap();
                // Healthy reads advance the rotation to `start`.
                for _ in 0..start {
                    coord.get("k", t).unwrap();
                }
                let owners = owners_of(&coord, &nodes, "k");
                let corrupted: Vec<&Arc<ClusterNode>> = owners
                    .iter()
                    .zip(damage)
                    .filter(|(_, d)| *d == Corrupted)
                    .map(|(owner, _)| owner)
                    .collect();
                let written = put_missing(&coord, &corrupted, "k", "fresh").is_ok();
                assert_eq!(written, corrupted.len() < 3);
                for (owner, damage) in owners.iter().zip(damage) {
                    match damage {
                        Intact | Corrupted => {}
                        Missing => {
                            owner.instance().delete("k", t).unwrap();
                        }
                        Killed => owner.kill(),
                    }
                }
                let result = if batched {
                    coord.multi_get(&["k"], t).pop().unwrap()
                } else {
                    coord.get("k", t)
                };
                let case = format!("damage {damage:?}, start {start}, batched {batched}");
                if !written {
                    let (data, _) = result.unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!(&data[..], b"stale", "{case}");
                } else if damage.contains(&Intact) {
                    let (data, _) = result.unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!(&data[..], b"fresh", "{case}");
                } else {
                    let killed = damage.iter().filter(|d| **d == Killed).count();
                    assert_eq!(
                        result.unwrap_err(),
                        ClusterError::NoFreshReplica {
                            key: "k".to_string(),
                            stale: 3 - killed,
                            unreachable: killed,
                        },
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn unreachable_preferred_owner_fails_over_to_the_next_and_charges_its_latency() {
        let (coord, nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        coord.put("k", b("v"), t).unwrap();
        let owners = owners_of(&coord, &nodes, "k");
        // Owner i answers 10·(i+1) s late, so a latency names its server.
        let penalty = |i: usize| SimDuration::from_secs(10 * (i as u64 + 1));
        for (i, owner) in owners.iter().enumerate() {
            owner.set_slow_penalty(penalty(i));
        }
        let served_by = |latency: SimDuration| {
            (0..3)
                .find(|&i| latency >= penalty(i) && latency < penalty(i + 1))
                .expect("latency carries one owner's penalty")
        };
        // Read 0 prefers owner 0: killed, so owner 1 serves.
        owners[0].kill();
        let (data, latency) = coord.get("k", t).unwrap();
        assert_eq!(&data[..], b"v");
        assert_eq!(served_by(latency), 1);
        let stats = coord.read_stats();
        assert_eq!((stats.reads, stats.replica_probes, stats.failovers), (1, 2, 1));
        // Read 1 prefers owner 1: partitioned, so owner 2 serves.
        owners[0].revive();
        owners[1].set_partitioned(true);
        let (_, latency) = coord.get("k", t).unwrap();
        assert_eq!(served_by(latency), 2);
        // A batch prefers owner 0 for its first key; killed again, the key
        // falls over on its own.
        owners[0].kill();
        let (_, latency) = coord.multi_get(&["k"], t).pop().unwrap().unwrap();
        assert_eq!(served_by(latency), 2);
        let stats = coord.read_stats();
        assert_eq!((stats.reads, stats.replica_probes, stats.failovers), (3, 7, 4));
        // An unreachable owner holds the right bytes: nothing to repair.
        assert_eq!((stats.repairs, stats.repair_failures), (0, 0));
    }

    #[test]
    fn repair_failures_are_counted_not_dropped() {
        let (coord, nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        coord.put("k", b("stale"), t).unwrap();
        let owners = owners_of(&coord, &nodes, "k");
        put_missing(&coord, &[&owners[0]], "k", "fresh").unwrap();
        // The stale owner answers the probe, then refuses the repair write.
        owners[0].instance().tier("t1").unwrap().shrink(100.0, t);
        let (data, _) = coord.get("k", t).unwrap();
        assert_eq!(&data[..], b"fresh");
        let stats = coord.read_stats();
        assert_eq!((stats.failovers, stats.repairs, stats.repair_failures), (1, 0, 1));
    }

    #[test]
    fn multi_get_spreads_a_batch_over_the_owners_one_read_per_key() {
        let (coord, nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        let mut keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        for key in &keys {
            coord.put(key, b(&format!("v-{key}")), t).unwrap();
        }
        keys.insert(7, "missing".to_string());
        let batch: Vec<&str> = keys.iter().map(String::as_str).collect();
        let before = node_reads(&nodes);
        let results = coord.multi_get(&batch, t);
        // Outcomes in input order, the missing key reported in place.
        assert_eq!(results.len(), 17);
        for (key, result) in keys.iter().zip(&results) {
            match result {
                Ok((data, _)) => assert_eq!(&data[..], format!("v-{key}").as_bytes()),
                Err(e) => {
                    assert_eq!(key, "missing");
                    assert_eq!(*e, ClusterError::NoSuchObject("missing".to_string()));
                }
            }
        }
        assert!(results[7].is_err());
        // Sixteen replica reads in all, spread 6/5/5 over the three nodes.
        let mut served: Vec<u64> =
            node_reads(&nodes).iter().zip(before).map(|(after, before)| after - before).collect();
        served.sort_unstable();
        assert_eq!(served, [5, 5, 6]);
        let stats = coord.read_stats();
        assert_eq!((stats.reads, stats.replica_probes, stats.failovers), (16, 16, 0));
    }

    /// Twelve live keys `k*`, three tombstoned `gone*`, and three names
    /// never written, `absent*`.
    fn batch_names() -> Vec<String> {
        let names = |prefix: &'static str, n| (0..n).map(move |i| format!("{prefix}{i}"));
        names("k", 12).chain(names("gone", 3)).chain(names("absent", 3)).collect()
    }

    /// A cluster holding [`batch_names`]'s live and tombstoned keys.
    fn batch_cluster() -> (Coordinator, Vec<Arc<ClusterNode>>) {
        let t = SimTime::ZERO;
        let (coord, nodes) = cluster(3, 3, 2);
        for name in batch_names() {
            if !name.starts_with("absent") {
                coord.put(&name, b(&format!("v-{name}")), t).unwrap();
            }
            if name.starts_with("gone") {
                coord.delete(coord.next_token(), &name, t).unwrap();
            }
        }
        (coord, nodes)
    }

    /// Up to 24 slots over at most six distinct names: repeats are the rule.
    fn random_batch<'a>(rng: &mut tiera_support::rng::SimRng, names: &'a [String]) -> Vec<&'a str> {
        use tiera_support::prop::gen;
        let pool: Vec<&str> =
            (0..gen::usize_in(rng, 1..7)).map(|_| gen::pick(rng, names).as_str()).collect();
        (0..gen::usize_in(rng, 1..25)).map(|_| *gen::pick(rng, &pool)).collect()
    }

    /// Slot for slot, a batch answers what reading its keys one by one
    /// answers — bytes, serving latency, error — with repeated, absent and
    /// tombstoned keys in the batch, one node killed and one replica
    /// divergent.
    #[test]
    fn prop_multi_get_answers_what_sequential_gets_answer() {
        use tiera_support::prop::gen;
        let t = SimTime::ZERO;
        let names = batch_names();
        tiera_support::prop_check!(cases = 48, |rng| {
            // Twins, damaged alike: one reads by batch, the other key by
            // key. Every node charges the same penalty, so a latency does
            // not depend on which owner served it, only on the serving.
            let (batched, batched_nodes) = batch_cluster();
            let (sequential, sequential_nodes) = batch_cluster();
            let killed = gen::usize_in(rng, 0..3);
            let holder = gen::usize_in(rng, 0..3);
            let divergent = gen::pick(rng, &names[..12]).as_str();
            for (coord, nodes) in [(&batched, &batched_nodes), (&sequential, &sequential_nodes)] {
                put_missing(coord, &[&nodes[holder]], divergent, "newer").unwrap();
                nodes[killed].kill();
                for node in nodes {
                    node.set_slow_penalty(SimDuration::from_millis(3));
                }
            }
            for _ in 0..3 {
                let batch = random_batch(rng, &names);
                let answers = batched.multi_get(&batch, t);
                assert_eq!(answers.len(), batch.len());
                for (key, answer) in batch.iter().zip(answers) {
                    let one = sequential.get(key, t);
                    assert_eq!(
                        answer, one,
                        "{key} in {batch:?}, {divergent} stale on node-{holder}"
                    );
                }
            }
        });
    }

    /// The exact count: on a healthy cluster a batch costs one replica read
    /// per distinct live key, however often each is repeated.
    #[test]
    fn prop_healthy_multi_get_reads_each_distinct_live_key_once() {
        let t = SimTime::ZERO;
        let names = batch_names();
        let (coord, nodes) = batch_cluster();
        tiera_support::prop_check!(cases = 64, |rng| {
            let batch = random_batch(rng, &names);
            let distinct_live = batch
                .iter()
                .filter(|key| key.starts_with('k'))
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64;
            let before = coord.read_stats();
            let served_before: u64 = node_reads(&nodes).iter().sum();
            for (key, answer) in batch.iter().zip(coord.multi_get(&batch, t)) {
                match answer {
                    Ok((data, _)) => assert_eq!(&data[..], format!("v-{key}").as_bytes()),
                    Err(e) => assert_eq!(e, ClusterError::NoSuchObject(key.to_string())),
                }
            }
            let after = coord.read_stats();
            let served: u64 = node_reads(&nodes).iter().sum::<u64>() - served_before;
            assert_eq!(after.reads - before.reads, distinct_live, "{batch:?}");
            assert_eq!(after.replica_probes - before.replica_probes, distinct_live);
            assert_eq!(served, distinct_live);
            assert_eq!((after.failovers, after.repairs), (0, 0));
        });
    }

    /// A write is acknowledged once W owners confirm, so a slow third owner
    /// is what W = 3 waits for and W = 2 does not.
    #[test]
    fn writes_charge_the_w_th_fastest_acknowledgement() {
        let t = SimTime::ZERO;
        let penalty = SimDuration::from_secs(2);
        for (w, waits) in [(2, false), (3, true)] {
            let (coord, nodes) = cluster(3, 3, w);
            nodes[1].set_slow_penalty(penalty);
            for i in 0..8 {
                let key = format!("k{i}");
                let put = coord.put(&key, b("v"), t).unwrap();
                assert_eq!(put >= penalty, waits, "W={w}: put of {key} charged {put:?}");
                let delete = coord.delete(coord.next_token(), &key, t).unwrap();
                assert_eq!(delete >= penalty, waits, "W={w}: delete of {key} charged {delete:?}");
            }
        }
    }

    /// A route, walked over resolved point positions, names exactly the
    /// ring's owners and then the old ring's others, through joins and
    /// leaves with a rebalance in flight.
    #[test]
    fn prop_routes_follow_the_rings() {
        use tiera_support::prop::gen;
        tiera_support::prop_check!(cases = 32, |rng| {
            let replicas = gen::usize_in(rng, 1..6);
            let (coord, _nodes) = cluster(gen::usize_in(rng, 1..5), replicas, 1);
            for i in 0..16 {
                coord.put(&format!("k{i}"), b("v"), SimTime::ZERO).unwrap();
            }
            for step in 0..4 {
                let members = coord.node_names();
                if members.len() > 1 && gen::boolean(rng) {
                    let leaving: &String = gen::pick(rng, &members);
                    coord.remove_node(leaving).unwrap();
                } else {
                    coord.add_node(mem_node(&format!("new-{step}"), step)).unwrap();
                }
                let mem = coord.membership.read();
                let name = |pos: usize| mem.nodes[pos].name().to_string();
                for i in 0..32 {
                    let key = format!("key-{i}");
                    let owners = mem.ring.owners(&key, replicas);
                    let mut want = owners.clone();
                    if let Some(run) = &mem.rebalance {
                        for old in run.old_ring.owners(&key, replicas) {
                            if !owners.contains(&old) {
                                want.push(old);
                            }
                        }
                    }
                    let route = mem.route(&key, replicas);
                    let got: Vec<String> = route.order.iter().map(|&pos| name(pos)).collect();
                    assert_eq!(got, want, "{key}, step {step}");
                    assert_eq!(route.owners, owners.len());
                }
            }
        });
    }

    #[test]
    fn mid_rebalance_batch_reads_reach_old_ring_fallbacks() {
        // R = 1: a moved key's only current owner is the newcomer, which
        // holds nothing yet, so every such read has to reach the old ring.
        let (coord, _nodes) = cluster(3, 1, 1);
        let t = SimTime::ZERO;
        let keys: Vec<String> = (0..96).map(|i| format!("k{i}")).collect();
        for key in &keys {
            coord.put(key, b(&format!("v-{key}")), t).unwrap();
        }
        let planned = coord.add_node(mem_node("node-9", 999)).unwrap() as u64;
        assert!(planned > 0 && !coord.rebalance_done());
        for chunk in keys.chunks(16) {
            let batch: Vec<&str> = chunk.iter().map(String::as_str).collect();
            for (key, result) in chunk.iter().zip(coord.multi_get(&batch, t)) {
                let (data, _) = result.unwrap();
                assert_eq!(&data[..], format!("v-{key}").as_bytes());
            }
        }
        // Each moved key passed over the newcomer, was served by its old
        // owner, and was written to the newcomer in passing.
        let stats = coord.read_stats();
        assert_eq!(stats.reads, 96);
        assert_eq!((stats.failovers, stats.repairs), (planned, planned));
        assert_eq!(stats.replica_probes, 96 + planned);
        let report = coord.rebalance_all(t, 64 * 1024);
        assert_eq!((report.moved_keys, report.deferred), (0, 0));
    }

    /// The op sequence of `same_ops_on_two_fresh_clusters_charge_identical_latencies`.
    /// Over simulated EBS volumes, whose latency depends on the volume's
    /// seed and on what is queued on it — on which owner served what.
    fn latency_trace() -> Vec<Option<SimDuration>> {
        let coord = Coordinator::new(3, 2);
        let nodes: Vec<_> = (0..3)
            .map(|i| {
                let name = format!("node-{i}");
                let env = SimEnv::new(100 + i);
                let inst = InstanceBuilder::new(name.as_str(), env.clone())
                    .tier(Arc::new(tiera_tiers::BlockTier::ebs("store", 1 << 30, &env)))
                    .build()
                    .unwrap();
                let node = ClusterNode::new(name, inst);
                coord.add_node(Arc::clone(&node)).unwrap();
                node
            })
            .collect();
        let t = SimTime::ZERO;
        let keys: Vec<String> = (0..24).map(|i| format!("k{i}")).collect();
        let batch: Vec<&str> = keys.iter().map(String::as_str).collect();
        let mut trace = Vec::new();
        for key in &keys {
            trace.push(coord.put(key, b(key), t).ok());
        }
        for round in 0..3 {
            for key in &keys {
                trace.push(coord.get(key, t).ok().map(|(_, l)| l));
            }
            for result in coord.multi_get(&batch[round..round + 16], t) {
                trace.push(result.ok().map(|(_, l)| l));
            }
            // A fault, a divergence and a delete between rounds.
            nodes[round].kill();
            let _ = put_missing(&coord, &[&nodes[(round + 1) % 3]], "k3", "newer");
            trace.push(coord.get("k3", t).ok().map(|(_, l)| l));
            trace.push(coord.delete(coord.next_token(), batch[20 + round], t).ok());
            nodes[round].revive();
        }
        trace
    }

    #[test]
    fn same_ops_on_two_fresh_clusters_charge_identical_latencies() {
        let trace = latency_trace();
        let distinct: std::collections::BTreeSet<_> = trace.iter().flatten().collect();
        assert!(distinct.len() > trace.len() / 2, "latencies vary with the serving owner");
        assert_eq!(trace, latency_trace());
    }

    #[test]
    fn deleted_keys_answer_no_such_object_from_meta() {
        let (coord, nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        coord.put("k", b("v"), t).unwrap();
        // One owner is dead through the delete: it keeps a stale copy.
        let owners = coord.owner_names("k");
        let sleeper = nodes.iter().find(|n| n.name() == owners[2]).unwrap();
        sleeper.kill();
        coord.delete(coord.next_token(), "k", t).unwrap();
        sleeper.revive();
        // The stale copy exists on the node, but the cluster-level read
        // is authoritative: no phantom.
        assert!(sleeper.instance().contains("k"));
        assert!(matches!(coord.get("k", t), Err(ClusterError::NoSuchObject(_))));
        assert!(!coord.contains("k"));
        // Rejoin purges the phantom copy.
        let report = coord.rejoin(sleeper.name(), t).unwrap();
        assert_eq!(report.purged, 1);
        assert!(!sleeper.instance().contains("k"));
    }

    #[test]
    fn the_delete_token_table_keeps_the_newest_tokens() {
        let (coord, _nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        coord.put("first", b("v"), t).unwrap();
        let oldest = coord.next_token();
        coord.delete(oldest, "first", t).unwrap();
        // A delete of an absent key records its outcome too.
        for _ in 1..write::DELETE_TOKENS_KEPT {
            coord.delete(coord.next_token(), "absent", t).unwrap_err();
        }
        coord.put("last", b("v"), t).unwrap();
        let newest = coord.next_token();
        let acked = coord.delete(newest, "last", t);
        assert!(acked.is_ok());
        assert_eq!(coord.meta.lock().applied_deletes.len(), write::DELETE_TOKENS_KEPT);
        // The newest token replays its outcome and spares a later write.
        coord.put("last", b("again"), t).unwrap();
        assert_eq!(coord.delete(newest, "last", t), acked);
        assert!(coord.contains("last"));
        // The oldest was forgotten: its redelivery is a fresh delete.
        coord.put("first", b("again"), t).unwrap();
        coord.delete(oldest, "first", t).unwrap();
        assert!(!coord.contains("first"));
    }

    #[test]
    fn rejoin_repairs_stale_state() {
        let (coord, nodes) = cluster(3, 3, 2);
        let t = SimTime::ZERO;
        for i in 0..48 {
            coord.put(&format!("k{i}"), b(&format!("v{i}-old")), t).unwrap();
        }
        nodes[2].kill();
        // Overwrites happen while node-2 is down (it misses them all).
        for i in 0..48 {
            coord.put(&format!("k{i}"), b(&format!("v{i}-new")), t).unwrap();
        }
        let report = coord.rejoin("node-2", t).unwrap();
        assert!(report.checked > 0);
        // Every key node-2 owns now matches the authoritative bytes.
        for i in 0..48 {
            let key = format!("k{i}");
            if coord.owner_names(&key).iter().any(|o| o == "node-2") {
                let (data, _) = nodes[2].instance().get(key.as_str(), t).unwrap();
                assert_eq!(&data[..], format!("v{i}-new").as_bytes());
            }
        }
    }

    /// A write that fails its quorum leaves its copy ahead of the served
    /// version. Whichever repair meets it first — a read that probes its
    /// owner, or that owner's rejoin sweep — purges it and merges the
    /// served version back in, so the acknowledged value then survives
    /// R − 1 kills.
    #[test]
    fn the_copy_a_failed_write_left_is_healed_by_a_read_or_a_rejoin() {
        for heal in ["read", "rejoin"] {
            let (coord, nodes) = cluster(3, 3, 2);
            let t = SimTime::ZERO;
            coord.put("k", b("acked"), t).unwrap();
            let owners = owners_of(&coord, &nodes, "k");
            owners[1].kill();
            owners[2].kill();
            assert!(coord.put("k", b("failed"), t).is_err());
            for owner in &owners[1..] {
                coord.rejoin(owner.name(), t).unwrap();
            }
            assert_eq!(&owners[0].instance().get("k", t).unwrap().0[..], b"failed");
            if heal == "read" {
                // R reads start at every owner once.
                for _ in 0..3 {
                    assert_eq!(&coord.get("k", t).unwrap().0[..], b"acked");
                }
                assert_eq!(coord.read_stats().repairs, 1);
            } else {
                let report = coord.rejoin(owners[0].name(), t).unwrap();
                assert_eq!(report.repaired, 1);
            }
            assert_eq!(&owners[0].instance().get("k", t).unwrap().0[..], b"acked", "{heal}");
            owners[1].kill();
            owners[2].kill();
            assert_eq!(&coord.get("k", t).unwrap().0[..], b"acked", "{heal}");
        }
    }

    #[test]
    fn join_triggers_minimal_migration_and_routing_follows() {
        let (coord, _nodes) = cluster(3, 2, 1);
        let t = SimTime::ZERO;
        for i in 0..200 {
            coord.put(&format!("k{i}"), b(&format!("v{i}")), t).unwrap();
        }
        let planned = coord.add_node(mem_node("node-9", 999)).unwrap();
        assert!(planned > 0, "a join must claim some keys");
        assert!(planned < 200, "a join must not move everything");
        // Mid-rebalance, every key stays readable (old owners serve as
        // fallbacks).
        let step = coord.rebalance_step(t, 8 * 1024);
        assert!(!step.done || step.remaining == 0);
        for i in 0..200 {
            coord.get(&format!("k{i}"), t).unwrap();
        }
        let report = coord.rebalance_all(t, 64 * 1024);
        assert_eq!(report.planned, planned);
        assert_eq!(report.deferred, 0);
        assert!(coord.rebalance_done());
        // Post-rebalance, reads still work and new owners really hold
        // their keys (no fallbacks left).
        for i in 0..200 {
            coord.get(&format!("k{i}"), t).unwrap();
        }
        // Migration volume is bounded: only planned keys moved.
        assert!(report.moved_keys <= planned as u64);
    }

    #[test]
    fn leave_hands_off_ownership_before_detach() {
        let (coord, nodes) = cluster(4, 2, 2);
        let t = SimTime::ZERO;
        for i in 0..100 {
            coord.put(&format!("k{i}"), b(&format!("v{i}")), t).unwrap();
        }
        let planned = coord.remove_node("node-1").unwrap();
        assert!(planned > 0);
        coord.rebalance_all(t, 32 * 1024);
        // The departed node serves no keys; all reads come from the rest.
        nodes[1].kill();
        for i in 0..100 {
            coord.get(&format!("k{i}"), t).unwrap();
        }
    }

    #[test]
    fn quorum_parameters_are_validated() {
        let err = std::panic::catch_unwind(|| Coordinator::new(2, 3));
        assert!(err.is_err(), "W > R must be rejected");
        let err = std::panic::catch_unwind(|| Coordinator::new(2, 0));
        assert!(err.is_err(), "W = 0 must be rejected");
    }

    #[test]
    fn empty_cluster_and_unknown_nodes_error_cleanly() {
        let coord = Coordinator::new(2, 1);
        let t = SimTime::ZERO;
        assert!(matches!(coord.put("k", b("v"), t), Err(ClusterError::NoMembers)));
        assert!(matches!(coord.get("k", t), Err(ClusterError::NoSuchObject(_))));
        assert!(matches!(coord.rejoin("ghost", t), Err(ClusterError::UnknownNode(_))));
        assert!(matches!(coord.remove_node("ghost"), Err(ClusterError::UnknownNode(_))));
        let node = mem_node("n", 5);
        coord.add_node(Arc::clone(&node)).unwrap();
        assert!(matches!(coord.add_node(node), Err(ClusterError::DuplicateNode(_))));
    }

    #[test]
    fn batch_ops_report_per_item_outcomes() {
        let (coord, _nodes) = cluster(3, 2, 1);
        let t = SimTime::ZERO;
        coord.put("a", b("1"), t).unwrap();
        coord.put("b", b("2"), t).unwrap();
        let got = coord.multi_get(&["a", "missing", "b"], t);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(ClusterError::NoSuchObject(_))));
        assert!(got[2].is_ok());
    }
}

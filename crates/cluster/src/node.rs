//! One cluster member: a full Tiera instance — a last-writer-wins
//! register over the coordinator's write versions — plus the node-level
//! fault flags.
//!
//! Faults model what the chaos matrix needs:
//!
//! * **kill** freezes the node — every routed op fails until
//!   [`ClusterNode::revive`], but state is preserved, so a revived node
//!   comes back with exactly the data it held at kill time (the
//!   "rejoin with stale state" shape: it missed every write in between).
//! * **partition** makes the node unreachable without stopping it; heal
//!   with the same flag.
//! * **slow** adds a fixed virtual-latency penalty per op.

use std::fmt;
use std::sync::Arc;

use tiera_core::{Instance, ObjectKey};
use tiera_sim::{SimDuration, SimTime};
use tiera_support::sync::{rank, Mutex};
use tiera_support::Bytes;

/// Why a routed op failed on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The node is killed or partitioned; the op was not applied.
    Unavailable {
        /// The unreachable node.
        node: String,
    },
    /// The node's instance rejected the op (message from `TieraError`).
    Storage {
        /// The failing node.
        node: String,
        /// The instance's error text.
        message: String,
    },
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Unavailable { node } => write!(f, "node {node} unreachable"),
            NodeError::Storage { node, message } => write!(f, "node {node}: {message}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// One replica's answer to a read: the bytes, the charged latency and
/// the bytes' write version (0 when not known).
pub type ReplicaRead = Result<(Bytes, SimDuration, u64), NodeError>;

#[derive(Debug, Default)]
struct NodeState {
    killed: bool,
    partitioned: bool,
    slow_penalty: SimDuration,
}

/// One member of a Tiera cluster.
pub struct ClusterNode {
    name: String,
    instance: Arc<Instance>,
    /// Fault flags. All nodes share the lock name,
    /// so holding two nodes' state locks at once is a lockcheck
    /// self-cycle by construction.
    state: Mutex<NodeState>,
}

impl fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterNode").field("name", &self.name).finish()
    }
}

impl ClusterNode {
    /// Wraps an instance as a cluster member.
    pub fn new(name: impl Into<String>, instance: Arc<Instance>) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            instance,
            state: Mutex::named("cluster.node", rank::CLUSTER_NODE, NodeState::default()),
        })
    }

    /// The node's name (its identity on the ring).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backing instance.
    pub fn instance(&self) -> &Arc<Instance> {
        &self.instance
    }

    // ---- fault plane (driven by the node-fault chaos schedule) ----

    /// Kills the node: state frozen, every op refused until revived.
    pub fn kill(&self) {
        self.state.lock().killed = true;
    }

    /// Brings a killed node back — with whatever (stale) state it froze
    /// with. Anti-entropy is the coordinator's job
    /// (`Coordinator::rejoin`).
    pub fn revive(&self) {
        self.state.lock().killed = false;
    }

    /// Sets or heals a network partition.
    pub fn set_partitioned(&self, partitioned: bool) {
        self.state.lock().partitioned = partitioned;
    }

    /// Adds a fixed virtual-latency penalty to every op (ZERO clears).
    pub fn set_slow_penalty(&self, penalty: SimDuration) {
        self.state.lock().slow_penalty = penalty;
    }

    // ---- routed ops ----
    //
    // A routed op names its key by the coordinator's handle: the instance
    // keeps a clone of it, so every replica of a key shares the one
    // allocation the coordinator made, and a read allocates no key.

    /// Applies a replicated store of write `version` ([`Instance::put_if_newer`]):
    /// returns the charged latency and whether the bytes landed.
    pub fn apply_put(
        &self,
        key: &ObjectKey,
        value: Bytes,
        version: u64,
        now: SimTime,
    ) -> Result<(SimDuration, bool), NodeError> {
        let penalty = self.admit()?;
        match self.instance.put_if_newer(key.clone(), value, version, now) {
            Ok(receipt) => {
                Ok((receipt.map_or(penalty, |r| r.latency + penalty), receipt.is_some()))
            }
            Err(e) => Err(self.storage_err(e)),
        }
    }

    /// Serves a read.
    pub fn apply_get(&self, key: &ObjectKey, now: SimTime) -> ReplicaRead {
        let penalty = self.admit()?;
        self.read(key, penalty, now)
    }

    /// Serves a group of reads under one admission check: the whole group
    /// is refused if the node is unreachable, otherwise each key gets its
    /// own outcome, in input order.
    pub fn apply_multi_get<'a>(
        &self,
        keys: impl IntoIterator<Item = &'a ObjectKey>,
        now: SimTime,
    ) -> Result<Vec<ReplicaRead>, NodeError> {
        let penalty = self.admit()?;
        Ok(keys.into_iter().map(|key| self.read(key, penalty, now)).collect())
    }

    fn read(&self, key: &ObjectKey, penalty: SimDuration, now: SimTime) -> ReplicaRead {
        match self.instance.get(key.clone(), now) {
            Ok((data, r)) => Ok((data, r.latency + penalty, r.version)),
            Err(e) => Err(self.storage_err(e)),
        }
    }

    /// Applies a replicated delete and returns the charged latency. It is
    /// idempotent by itself: a key already absent acknowledges, since the
    /// requested end state holds. Which deliveries reach a replica is the
    /// coordinator's call (its token table replays an acknowledged one).
    pub fn apply_delete(&self, key: &ObjectKey, now: SimTime) -> Result<SimDuration, NodeError> {
        let penalty = self.admit()?;
        match self.instance.delete(key.clone(), now) {
            Ok(latency) => Ok(latency + penalty),
            Err(tiera_core::TieraError::NoSuchObject(_)) => Ok(penalty),
            Err(e) => Err(self.storage_err(e)),
        }
    }

    fn admit(&self) -> Result<SimDuration, NodeError> {
        let s = self.state.lock();
        if s.killed || s.partitioned {
            return Err(NodeError::Unavailable { node: self.name.clone() });
        }
        Ok(s.slow_penalty)
    }

    fn storage_err(&self, e: tiera_core::TieraError) -> NodeError {
        NodeError::Storage { node: self.name.clone(), message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    fn key(name: &str) -> ObjectKey {
        ObjectKey::new(name)
    }

    fn node(name: &str) -> Arc<ClusterNode> {
        let inst = InstanceBuilder::new(name, SimEnv::new(7))
            .tier(MemTier::with_traits(
                "t1",
                16 << 20,
                TierTraits { durable: true, ..TierTraits::default() },
            ))
            .build()
            .unwrap();
        ClusterNode::new(name, inst)
    }

    #[test]
    fn ops_flow_through_to_the_instance() {
        let n = node("n1");
        let t = SimTime::ZERO;
        n.apply_put(&key("k"), Bytes::from(&b"v"[..]), 1, t).unwrap();
        let (data, _, version) = n.apply_get(&key("k"), t).unwrap();
        assert_eq!((&data[..], version), (&b"v"[..], 1));
        n.apply_delete(&key("k"), t).unwrap();
        assert!(n.apply_get(&key("k"), t).is_err());
    }

    #[test]
    fn killed_and_partitioned_nodes_refuse_ops_but_keep_state() {
        let n = node("n1");
        let t = SimTime::ZERO;
        n.apply_put(&key("k"), Bytes::from(&b"v"[..]), 1, t).unwrap();
        n.kill();
        assert!(matches!(n.apply_get(&key("k"), t), Err(NodeError::Unavailable { .. })));
        assert!(matches!(
            n.apply_put(&key("k2"), Bytes::from(&b"x"[..]), 2, t),
            Err(NodeError::Unavailable { .. })
        ));
        assert!(matches!(n.apply_delete(&key("k"), t), Err(NodeError::Unavailable { .. })));
        n.revive();
        let (data, _, _) = n.apply_get(&key("k"), t).unwrap();
        assert_eq!(&data[..], b"v", "kill froze state, not lost it");
        n.set_partitioned(true);
        assert!(n.apply_get(&key("k"), t).is_err());
        n.set_partitioned(false);
        assert!(n.apply_get(&key("k"), t).is_ok());
    }

    #[test]
    fn grouped_reads_answer_per_key_and_are_refused_as_a_group() {
        let n = node("n1");
        let t = SimTime::ZERO;
        n.apply_put(&key("a"), Bytes::from(&b"1"[..]), 1, t).unwrap();
        n.apply_put(&key("b"), Bytes::from(&b"2"[..]), 2, t).unwrap();
        let answers = n.apply_multi_get(&[key("b"), key("absent"), key("a")], t).unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(&answers[0].as_ref().unwrap().0[..], b"2");
        assert!(matches!(answers[1], Err(NodeError::Storage { .. })));
        assert_eq!(&answers[2].as_ref().unwrap().0[..], b"1");
        n.set_partitioned(true);
        assert!(matches!(
            n.apply_multi_get(&[key("a"), key("b")], t),
            Err(NodeError::Unavailable { .. })
        ));
    }

    #[test]
    fn slow_penalty_inflates_latency() {
        let n = node("n1");
        let t = SimTime::ZERO;
        let base = n.apply_put(&key("k"), Bytes::from(&b"v"[..]), 1, t).unwrap();
        n.set_slow_penalty(SimDuration::from_secs(2));
        let slow = n.apply_put(&key("k"), Bytes::from(&b"v"[..]), 2, t).unwrap();
        assert!(slow.0 >= base.0 + SimDuration::from_secs(2));
    }

    #[test]
    fn a_replica_keeps_the_highest_version_it_was_sent() {
        let n = node("n1");
        let t = SimTime::ZERO;
        let put = |value: &'static [u8], version| {
            n.apply_put(&key("k"), Bytes::from(value), version, t).unwrap().1
        };
        assert!(put(b"v5", 5));
        // An older or repeated version acknowledges without landing.
        assert!(!put(b"v3", 3));
        assert!(!put(b"v5 again", 5));
        let (data, _, version) = n.apply_get(&key("k"), t).unwrap();
        assert_eq!((&data[..], version), (&b"v5"[..], 5));
        assert!(put(b"v9", 9));
        let (data, _, version) = n.apply_get(&key("k"), t).unwrap();
        assert_eq!((&data[..], version), (&b"v9"[..], 9));
    }

    #[test]
    fn deleting_an_absent_key_acks() {
        let n = node("n1");
        let t = SimTime::ZERO;
        n.apply_put(&key("k"), Bytes::from(&b"v"[..]), 1, t).unwrap();
        n.apply_delete(&key("k"), t).unwrap();
        assert!(!n.instance().contains("k"));
        // A second delivery, or a delete of a key never written, finds the
        // end state already holding and acknowledges it.
        n.apply_delete(&key("k"), t).unwrap();
        n.apply_delete(&key("never"), t).unwrap();
    }
}

//! Regression: a client redial racing coordinator-side failover must
//! not double-apply a non-idempotent DELETE.
//!
//! The transport (`tiera_rpc::TieraClient`) redials transparently after
//! any transport error, and `TieraClient::redials()` exposes exactly
//! when that happened — the moment a retried request's first attempt has
//! unknown fate. Without idempotency tokens, the retry of a DELETE whose
//! first attempt *did* apply would hit the now-absent key and surface a
//! spurious `no such object` (or, with a failover coordinator re-routing
//! to a different replica subset, delete a *resurrected* key written in
//! between). With tokens, both orderings are safe:
//!
//! 1. **apply → redial retry**: the first attempt applied; the retry
//!    replays the recorded outcome and touches storage zero more times.
//! 2. **partial-fail → failover retry**: the first attempt reached some
//!    replicas but missed quorum; the retry completes the op, and the
//!    replicas that already applied it ack from their token table
//!    instead of double-applying.

use std::sync::Arc;

use tiera_cluster::{ClusterError, ClusterNode, Coordinator};
use tiera_core::prelude::*;
use tiera_sim::{SimEnv, SimTime};
use tiera_support::Bytes;

fn mem_node(name: &str, seed: u64) -> Arc<ClusterNode> {
    let inst = InstanceBuilder::new(name, SimEnv::new(seed))
        .tier(MemTier::with_traits(
            "store",
            64 << 20,
            TierTraits { durable: true, ..TierTraits::default() },
        ))
        .build()
        .unwrap();
    ClusterNode::new(name, inst)
}

fn cluster() -> (Coordinator, Vec<Arc<ClusterNode>>) {
    let coord = Coordinator::new(3, 2);
    let nodes: Vec<_> = (0..3).map(|i| mem_node(&format!("node-{i}"), 70 + i as u64)).collect();
    for n in &nodes {
        coord.add_node(Arc::clone(n)).unwrap();
    }
    (coord, nodes)
}

fn total_applied(nodes: &[Arc<ClusterNode>]) -> u64 {
    nodes.iter().map(|n| n.deletes_applied()).sum()
}

/// Ordering 1: the DELETE fully applied, the ack was lost on the wire,
/// and the redialed client retries the same token.
#[test]
fn redial_retry_after_successful_apply_replays_not_reapplies() {
    let (coord, nodes) = cluster();
    let t = SimTime::ZERO;
    coord.put("k", Bytes::from(&b"v"[..]), t).unwrap();

    let token = coord.next_token();
    let first = coord.delete(token, "k", t).expect("first delivery applies");
    let applied_once = total_applied(&nodes);
    assert!(applied_once >= 1, "the key existed on its owners");

    // The redial: same token, same key. Must replay the original success
    // — NOT a second apply, and NOT `no such object`.
    let retry = coord.delete(token, "k", t).expect("retry must replay the recorded outcome");
    assert_eq!(retry, first, "replayed outcome matches the original ack");
    assert_eq!(
        total_applied(&nodes),
        applied_once,
        "storage deletes applied exactly once across both deliveries"
    );

    // A genuinely new delete of the (now absent) key still reports
    // no-such-object — the replay path is token-keyed, not key-keyed.
    assert!(matches!(coord.delete(coord.next_token(), "k", t), Err(ClusterError::NoSuchObject(_))));
}

/// Ordering 1b: a write interleaves between apply and retry. The retry
/// must replay the *original* outcome and leave the new value alone
/// (the non-token bug would delete the resurrected key).
#[test]
fn redial_retry_does_not_delete_a_resurrected_key() {
    let (coord, nodes) = cluster();
    let t = SimTime::ZERO;
    coord.put("k", Bytes::from(&b"old"[..]), t).unwrap();
    let token = coord.next_token();
    coord.delete(token, "k", t).unwrap();
    let applied = total_applied(&nodes);

    // The key is re-written before the duplicate delivery lands.
    coord.put("k", Bytes::from(&b"new"[..]), t).unwrap();
    coord.delete(token, "k", t).expect("duplicate replays the old success");
    assert_eq!(total_applied(&nodes), applied, "no second apply");
    let (data, _) = coord.get("k", t).expect("resurrected key survives the dup");
    assert_eq!(&data[..], b"new");
}

/// Ordering 2: the first delivery reaches one replica and then misses
/// quorum (two owners dark). The failover retry with the same token
/// completes the delete; the replica that already applied it must ack
/// from its token table, not double-count.
#[test]
fn failover_retry_after_partial_apply_completes_exactly_once() {
    let (coord, nodes) = cluster();
    let t = SimTime::ZERO;
    coord.put("k", Bytes::from(&b"v"[..]), t).unwrap();

    // Two of the three owners go dark: quorum (W=2) is unreachable, but
    // the one live owner applies its delete before the coordinator gives
    // up — the classic partial failure.
    let owners = coord.owner_names("k");
    let dark: Vec<_> =
        nodes.iter().filter(|n| n.name() == owners[1] || n.name() == owners[2]).collect();
    for n in &dark {
        n.kill();
    }
    let token = coord.next_token();
    let err = coord.delete(token, "k", t).expect_err("quorum must fail");
    assert!(matches!(err, ClusterError::NoQuorum { acked: 1, .. }), "{err}");
    assert_eq!(total_applied(&nodes), 1, "exactly the live owner applied");
    // Half-deleted and under-replicated, the read refuses rather than
    // inventing a phantom delete or serving torn state: the metadata
    // still says the key lives, but no reachable replica is fresh.
    let err = coord.get("k", t).expect_err("no reachable fresh replica");
    assert!(matches!(err, ClusterError::NoFreshReplica { .. }), "{err}");

    // Failover: the dark owners return. A read now succeeds from their
    // fresh copies and read-repairs the half-deleted owner.
    for n in &dark {
        n.revive();
    }
    let (data, _) = coord.get("k", t).expect("fresh replicas back");
    assert_eq!(&data[..], b"v");

    // The client (or a takeover coordinator draining its peer's log)
    // retries the same token: the delete completes. The owner that
    // already applied it acks from its token table — it does NOT delete
    // the copy read repair just restored a second time.
    coord.delete(token, "k", t).expect("retry completes the delete");
    assert!(matches!(coord.get("k", t), Err(ClusterError::NoSuchObject(_))));
    for n in &nodes {
        assert!(n.deletes_applied() <= 1, "node {} applied the same token twice", n.name());
    }
    // And a further duplicate of the now-successful token is pure replay.
    let applied = total_applied(&nodes);
    coord.delete(token, "k", t).expect("third delivery replays");
    assert_eq!(total_applied(&nodes), applied);
}

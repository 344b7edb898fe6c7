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
//! between). The coordinator holds the one token table, and a replica
//! delete is idempotent by itself, so both orderings are safe:
//!
//! 1. **apply → redial retry**: the first attempt reached quorum; the
//!    retry replays the recorded outcome and reaches no replica.
//! 2. **partial-fail → failover retry**: the first attempt reached some
//!    replicas but missed quorum; the retry deletes again on every
//!    owner, so a copy read repair restored in between goes too.
//!
//! Each test checks what the replicas hold, not what they report.

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

/// The names of the nodes whose instance holds `key`, sorted.
fn holders(nodes: &[Arc<ClusterNode>], key: &str) -> Vec<String> {
    let mut names: Vec<String> =
        nodes.iter().filter(|n| n.instance().contains(key)).map(|n| n.name().to_string()).collect();
    names.sort();
    names
}

fn sorted(names: &[String]) -> Vec<String> {
    let mut names = names.to_vec();
    names.sort();
    names
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
    assert!(holders(&nodes, "k").is_empty(), "every owner applied the delete");

    // The redial: same token, same key. Must replay the original success
    // — NOT `no such object`.
    let retry = coord.delete(token, "k", t).expect("retry must replay the recorded outcome");
    assert_eq!(retry, first, "replayed outcome matches the original ack");
    assert!(holders(&nodes, "k").is_empty());

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

    // The key is re-written before the duplicate delivery lands.
    coord.put("k", Bytes::from(&b"new"[..]), t).unwrap();
    coord.delete(token, "k", t).expect("duplicate replays the old success");
    assert_eq!(
        holders(&nodes, "k"),
        sorted(&coord.owner_names("k")),
        "no replica lost the new write"
    );
    let (data, _) = coord.get("k", t).expect("resurrected key survives the dup");
    assert_eq!(&data[..], b"new");
}

/// Ordering 2: the first delivery reaches one replica and then misses
/// quorum (two owners dark). The dark owners return, and reads repair
/// the owner that applied the delete. The failover retry with the same
/// token completes the delete, and no replica keeps a copy.
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
    assert_eq!(holders(&nodes, "k"), sorted(&owners[1..]), "exactly the live owner applied");
    // Half-deleted and under-replicated, the read refuses rather than
    // inventing a phantom delete or serving torn state: the metadata
    // still says the key lives, but no reachable replica is fresh.
    let err = coord.get("k", t).expect_err("no reachable fresh replica");
    assert!(matches!(err, ClusterError::NoFreshReplica { .. }), "{err}");

    // Failover: the dark owners return. R reads start at every owner
    // once, so one of them probes the half-deleted owner first and
    // read-repairs it from a fresh copy.
    for n in &dark {
        n.revive();
    }
    for _ in 0..owners.len() {
        let (data, _) = coord.get("k", t).expect("fresh replicas back");
        assert_eq!(&data[..], b"v");
    }
    assert_eq!(holders(&nodes, "k"), sorted(&owners), "read repair restored the live owner");

    // The client (or a takeover coordinator draining its peer's log)
    // retries the same token: the delete completes on every owner,
    // the copy read repair restored included.
    coord.delete(token, "k", t).expect("retry completes the delete");
    assert!(matches!(coord.get("k", t), Err(ClusterError::NoSuchObject(_))));
    assert_eq!(holders(&nodes, "k"), Vec::<String>::new(), "no replica keeps a phantom copy");
    // And a further duplicate of the now-successful token is pure replay.
    coord.delete(token, "k", t).expect("third delivery replays");
    assert!(holders(&nodes, "k").is_empty());
}

//! Replicas share one payload allocation, and keep sharing it across
//! overwrites; they share the coordinator's key allocation too (a key too
//! long to be held inline has one).
//!
//! `Coordinator::put` hands every owner a clone of one `Bytes`, so a key
//! under three replicas costs one payload. Recycling buffers *inside the
//! tiers* ("overwrite in place when the resident handle is unique") broke
//! that: the third replica's copy becomes unique once the other two have
//! swapped theirs, gets overwritten in place, and the replicas drift onto
//! three allocations (`cluster-r3w2-mixed` `peak_rss_mb` 119.2 → 132.1).
//! The pool under `tiera_support::Bytes` only ever takes a buffer nobody
//! else holds, so this must keep passing.

use std::sync::Arc;

use tiera_cluster::{ClusterNode, Coordinator};
use tiera_core::prelude::*;
use tiera_sim::{SimEnv, SimTime};
use tiera_support::Bytes;
use tiera_tiers::MemoryTier;

#[test]
fn three_replicas_return_one_address_after_three_overwrites() {
    let coord = Coordinator::new(3, 2);
    let nodes: Vec<Arc<ClusterNode>> = (0..3)
        .map(|i| {
            let inst = InstanceBuilder::new(format!("n{i}"), SimEnv::new(180 + i))
                .tier(MemTier::with_capacity("store", 1 << 20))
                .build()
                .unwrap();
            ClusterNode::new(format!("n{i}"), inst)
        })
        .collect();
    for node in &nodes {
        coord.add_node(Arc::clone(node)).unwrap();
    }

    let mut addrs_seen = Vec::new();
    for fill in [1u8, 2, 3] {
        coord.put("k", Bytes::from(vec![fill; 4096]), SimTime::ZERO).unwrap();
        let addrs: Vec<usize> = nodes
            .iter()
            .map(|n| {
                let (data, _) = n.instance().get("k", SimTime::ZERO).unwrap();
                assert!(data.iter().all(|&b| b == fill), "{} holds put {fill}", n.name());
                data.as_slice().as_ptr() as usize
            })
            .collect();
        assert!(
            addrs.iter().all(|&a| a == addrs[0]),
            "after put {fill} the replicas hold {addrs:x?}"
        );
        addrs_seen.push(addrs[0]);
    }
    // And the overwrites recycle: the third value sits where the first did.
    assert_eq!(addrs_seen[2], addrs_seen[0]);
}

/// The same at 128 B over the simulated memory tier, which moves a small
/// value into its slab once it holds the value's buffer alone. A buffer the
/// three replicas share is not alone in any of them, so it stays one
/// buffer, and a GET hands it out rather than a copy of a cell.
#[test]
fn three_small_replicas_return_one_address_after_three_overwrites() {
    let coord = Coordinator::new(3, 2);
    let nodes: Vec<Arc<ClusterNode>> = (0..3)
        .map(|i| {
            let env = SimEnv::new(200 + i);
            let inst = InstanceBuilder::new(format!("n{i}"), env.clone())
                .tier(Arc::new(MemoryTier::same_az("store", 1 << 20, &env)))
                .build()
                .unwrap();
            ClusterNode::new(format!("n{i}"), inst)
        })
        .collect();
    for node in &nodes {
        coord.add_node(Arc::clone(node)).unwrap();
    }

    let mut addrs_seen = Vec::new();
    for fill in [1u8, 2, 3] {
        coord.put("k", Bytes::from(vec![fill; 128]), SimTime::ZERO).unwrap();
        // Reads after the coordinator has let go: each tier's next call
        // finds the buffer still held by the other two.
        for _ in 0..2 {
            let addrs: Vec<usize> = nodes
                .iter()
                .map(|n| {
                    let (data, _) = n.instance().get("k", SimTime::ZERO).unwrap();
                    assert!(data.len() == 128 && data.iter().all(|&b| b == fill));
                    data.as_slice().as_ptr() as usize
                })
                .collect();
            assert!(
                addrs.iter().all(|&a| a == addrs[0]),
                "after put {fill} the replicas hold {addrs:x?}"
            );
            addrs_seen.push(addrs[0]);
        }
    }
    assert_eq!(addrs_seen[2], addrs_seen[3], "one buffer from read to read");
    // And the overwrites recycle: the third value sits where the first did.
    assert_eq!(addrs_seen[4], addrs_seen[0]);
}

/// The coordinator allocates each key once and hands that handle to every
/// replica: the three registries and the coordinator's metadata hold one
/// string between them, through overwrites and reads. The keys are longer
/// than 22 bytes: a shorter one is held inline and allocates nothing.
#[test]
fn coordinator_and_three_replicas_hold_one_key_allocation() {
    let coord = Coordinator::new(3, 2);
    let nodes: Vec<Arc<ClusterNode>> = (0..3)
        .map(|i| {
            let inst = InstanceBuilder::new(format!("n{i}"), SimEnv::new(190 + i))
                .tier(MemTier::with_capacity("store", 1 << 20))
                .build()
                .unwrap();
            ClusterNode::new(format!("n{i}"), inst)
        })
        .collect();
    for node in &nodes {
        coord.add_node(Arc::clone(node)).unwrap();
    }
    let keys: Vec<String> = (0..16).map(|i| format!("a-key-too-long-for-inline-{i}")).collect();
    for fill in [1u8, 2] {
        for key in &keys {
            coord.put(key, Bytes::from(vec![fill; 64]), SimTime::ZERO).unwrap();
        }
    }
    let batch: Vec<&str> = keys.iter().map(String::as_str).collect();
    assert!(coord.multi_get(&batch, SimTime::ZERO).iter().all(|r| r.is_ok()));

    let handles = coord.live_keys();
    assert_eq!(handles.len(), keys.len());
    for node in &nodes {
        let held = node.instance().registry().keys_in("store");
        assert_eq!(held.len(), keys.len(), "{} holds every key", node.name());
        for key in held {
            let handle = handles.iter().find(|h| **h == key).unwrap();
            assert_eq!(
                key.as_str().as_ptr(),
                handle.as_str().as_ptr(),
                "{} holds its own copy of {key}",
                node.name()
            );
        }
    }
}

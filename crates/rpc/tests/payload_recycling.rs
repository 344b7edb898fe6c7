//! A served overwrite recycles its payload buffer (ISSUE 18).
//!
//! The connection worker that serves a PUT builds the stored `Bytes` and,
//! inside the same `Instance::put`, drops the value it replaces. With the
//! per-thread pool under `tiera_support::Bytes` the second of those feeds
//! the first of the next PUT, so a key overwritten at one size ping-pongs
//! between two allocations instead of taking a new one from the worker's
//! malloc arena every time (the loader's arena meanwhile staying resident:
//! 94.5 → 49 MiB `peak_rss_mb` on `rpc-pipe16-4k`).

use std::collections::BTreeSet;
use std::sync::Arc;

use tiera_core::prelude::*;
use tiera_rpc::{ServerConfig, TieraClient, TieraServer};
use tiera_sim::{SimEnv, SimTime};

/// Address of the resident payload. The probe handle dies here, before
/// the next PUT: a held handle would — rightly — keep its buffer out of
/// the pool.
fn resident_addr(instance: &Instance, key: &str) -> usize {
    let (data, _) = instance.get(key, SimTime::ZERO).unwrap();
    data.as_slice().as_ptr() as usize
}

#[test]
fn served_same_size_overwrites_alternate_between_two_buffers() {
    let instance: Arc<Instance> = InstanceBuilder::new("recycling", SimEnv::new(18))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .build()
        .unwrap();
    let server = TieraServer::start(
        Arc::clone(&instance),
        "127.0.0.1:0",
        ServerConfig { request_threads: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = TieraClient::connect(server.addr()).unwrap();

    client.put("k", &[1u8; 4096]).unwrap();
    let first = resident_addr(&instance, "k");
    client.put("k", &[2u8; 4096]).unwrap();
    let second = resident_addr(&instance, "k");
    assert_ne!(first, second, "the replaced value is still resident while the new one is built");
    client.put("k", &[3u8; 4096]).unwrap();
    assert_eq!(
        resident_addr(&instance, "k"),
        first,
        "the third PUT adopts the buffer the second one retired"
    );

    let mut seen = BTreeSet::new();
    for i in 0..200u32 {
        let fill = (i % 251) as u8;
        client.put("k", &[fill; 4096]).unwrap();
        let (data, _) = instance.get("k", SimTime::ZERO).unwrap();
        assert!(data.iter().all(|&b| b == fill), "overwrite {i} reads back whole");
        seen.insert(data.as_slice().as_ptr() as usize);
    }
    assert!(seen.len() <= 2, "200 overwrites visited {} addresses", seen.len());
    assert!(seen.is_subset(&BTreeSet::from([first, second])));

    // A reader's handle is never written through: it keeps its buffer out
    // of the pool, so the overwrites behind it go elsewhere.
    let (held, _) = instance.get("k", SimTime::ZERO).unwrap();
    let expected = held.to_vec();
    for fill in [7u8, 8, 9] {
        client.put("k", &[fill; 4096]).unwrap();
    }
    assert_eq!(held.as_slice(), &expected[..]);
    assert!(instance.get("k", SimTime::ZERO).unwrap().0.iter().all(|&b| b == 9));

    server.shutdown();
}

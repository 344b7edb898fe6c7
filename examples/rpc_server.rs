//! Run a live Tiera server (the paper's Thrift deployment, §3) and talk to
//! it over TCP: PUT/GET/DELETE plus server-side statistics. Policies run in
//! wall time while the server is live.
//!
//! Run with: `cargo run -p tiera --example rpc_server`

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::tier::MemTier;
use tiera::core::tier::TierTraits;
use tiera::core::{InstanceBuilder, Rule};
use tiera::prelude::*;
use tiera::rpc::{ServerConfig, TieraClient, TieraServer};

fn main() {
    let env = SimEnv::new(1);
    // A small write-through instance: fast volatile tier + durable tier.
    let instance = InstanceBuilder::new("served", env)
        .tier(MemTier::with_capacity("fast", 64 << 20))
        .tier(MemTier::with_traits(
            "durable",
            256 << 20,
            TierTraits {
                durable: true,
                availability_zone: "zone-a".into(),
                class: tiera::sim::StorageClass::BlockStore,
            },
        ))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["fast"]))
                .respond(ResponseSpec::copy(Selector::Inserted, ["durable"])),
        )
        .build()
        .unwrap();

    let handle = TieraServer::start(
        Arc::clone(&instance),
        "127.0.0.1:0",
        ServerConfig { request_threads: 4, ..ServerConfig::default() },
    )
    .expect("server starts");
    println!("tiera server listening on {}", handle.addr());

    // A client stores and retrieves objects over the wire.
    let mut client = TieraClient::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    println!("ping ok");

    for i in 0..10 {
        let key = format!("session/{i}");
        client.put_tagged(&key, format!("value-{i}").as_bytes(), &["session"]).expect("put");
    }
    let (value, receipt) = client.get("session/3").expect("get");
    println!(
        "GET session/3 -> {:?} (served by {}, charged {})",
        String::from_utf8_lossy(&value),
        receipt.served_by.as_deref().unwrap_or("?"),
        receipt.latency,
    );

    client.delete("session/9").expect("delete");

    let (objects, reads, writes, events) = client.stats().expect("stats");
    println!("server stats: objects={objects} reads={reads} writes={writes} events={events}");

    // The write-through policy ran for every PUT: both tiers hold the data.
    let meta = instance.registry().get(&"session/3".into()).unwrap();
    println!("session/3 locations: {:?}", meta.locations);

    handle.shutdown();
    println!("server shut down cleanly");
}

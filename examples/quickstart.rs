//! Quickstart: build the paper's LowLatencyInstance (Figure 3) from its
//! specification text, store and fetch objects, and watch the write-back
//! policy persist dirty data.
//!
//! Run with: `cargo run -p tiera --example quickstart`

use std::sync::Arc;

use tiera::prelude::*;
use tiera::spec::{parse, Compiler, ParamValue};

const LOW_LATENCY_SPEC: &str = r#"
Tiera LowLatencyInstance(time t) {
    % two tiers specified with initial sizes
    tier1: { name: Memcached, size: 64M };
    tier2: { name: EBS, size: 64M };

    % action event defined to always store data into Memcached
    event(insert.into) : response {
        insert.object.dirty = true;
        store(what: insert.object, to: tier1);
    }

    % write back policy: copying data to persistent store on a timer event
    event(time=t) : response {
        copy(what: object.location == tier1 && object.dirty == true,
             to: tier2);
    }
}
"#;

fn main() {
    let env = SimEnv::new(7);
    let catalog = tiera::tiers::default_catalog(&env);

    // Compile the spec with the write-back period bound to 30 s.
    let spec = parse(LOW_LATENCY_SPEC).expect("spec parses");
    let instance = Compiler::new(&catalog, env.clone())
        .bind("t", ParamValue::Duration(SimDuration::from_secs(30)))
        .compile(&spec)
        .expect("spec compiles");

    println!("instance : {}", instance.name());
    println!("tiers    : {:?}", instance.tier_names());

    // PUT a few objects; the action event routes them to the memory tier.
    let mut now = SimTime::ZERO;
    for i in 0..5 {
        let key = format!("object-{i}");
        let value = format!("payload for object {i}").into_bytes();
        let receipt = instance.put(key.as_str(), value, now).expect("put");
        println!("PUT {key}: {:>10}", receipt.latency.to_string());
        now += receipt.latency;
    }

    // GETs are served from Memcached (sub-millisecond).
    let (data, receipt) = instance.get("object-0", now).expect("get");
    println!(
        "GET object-0: {} bytes from {} in {}",
        data.len(),
        receipt.served_by,
        receipt.latency
    );

    // Before the timer fires, data is dirty and only in tier1.
    let meta = instance.registry().get(&"object-0".into()).unwrap();
    println!("before write-back: dirty={} locations={:?}", meta.dirty, meta.locations);

    // Advance virtual time past the 30 s timer and pump the control layer.
    // The write-back copy is paced background work: keep pumping (as the
    // server's event thread does) until the queue drains.
    let mut pump_at = SimTime::from_secs(30);
    let report = instance.pump(pump_at).expect("pump");
    println!("pump: {} timer firing(s)", report.timers_fired);
    while instance.background_depth() > 0 {
        pump_at += SimDuration::from_millis(100);
        instance.pump(pump_at).expect("pump");
    }

    let meta = instance.registry().get(&"object-0".into()).unwrap();
    println!("after  write-back: dirty={} locations={:?}", meta.dirty, meta.locations);

    // Monthly cost of the configuration (the paper's cost plots use this).
    println!("\nestimated monthly cost:\n{}", instance.monthly_cost(now));

    let _ = Arc::strong_count(&instance);
}

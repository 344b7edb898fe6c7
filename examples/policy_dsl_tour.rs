//! A tour of the instance-specification DSL: every figure of the paper
//! (Figs 3–6) parsed, compiled, and exercised, plus runtime policy
//! replacement (paper §4.2.3).
//!
//! Run with: `cargo run -p tiera --example policy_dsl_tour`

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::Rule;
use tiera::prelude::*;
use tiera::spec::{parse, Compiler, ParamValue};

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    let env = SimEnv::new(99);
    let catalog = tiera::tiers::default_catalog(&env);

    // ---- Figure 4: PersistentInstance (write-through + capped backup) ----
    banner("Figure 4: PersistentInstance");
    let spec = parse(
        r#"
Tiera PersistentInstance() {
    tier1: { name: Memcached, size: 16M };
    tier2: { name: EBS, size: 64M };
    tier3: { name: S3, size: 256M };
    % write-through policy using action event and copy response
    event(insert.into == tier1) : response {
        copy(what: insert.object, to: tier2);
    }
    % simple backup policy
    event(tier2.filled == 50%) : response {
        copy(what: object.location == tier2, to: tier3, bandwidth: 40KB/s);
    }
}
"#,
    )
    .unwrap();
    let persistent = Compiler::new(&catalog, env.clone()).compile(&spec).unwrap();
    let mut now = SimTime::ZERO;
    let r = persistent.put("row-1", vec![1u8; 4096], now).unwrap();
    now += r.latency;
    let meta = persistent.registry().get(&"row-1".into()).unwrap();
    println!(
        "write-through: locations={:?} dirty={} (PUT took {})",
        meta.locations, meta.dirty, r.latency
    );

    // ---- Figure 5: LRU policy ----
    banner("Figure 5: LRU eviction");
    let spec = parse(
        r#"
Tiera LruInstance() {
    tier1: { name: Memcached, size: 16K };
    tier2: { name: EBS, size: 1M };
    event(insert.into == tier1) : response {
        if (tier1.filled) {
            move(what: tier1.oldest, to: tier2);
        }
        store(what: insert.object, to: tier1);
    }
}
"#,
    )
    .unwrap();
    let lru = Compiler::new(&catalog, env.clone()).compile(&spec).unwrap();
    let mut now = SimTime::ZERO;
    for i in 0..8 {
        let r = lru.put(format!("obj-{i}").as_str(), vec![0u8; 4096], now).unwrap();
        now += r.latency;
    }
    // 16K tier holds 4 × 4K objects; the 4 oldest were evicted to EBS.
    for i in 0..8 {
        let meta = lru.registry().get(&format!("obj-{i}").into()).unwrap();
        println!("obj-{i}: {:?}", meta.locations);
    }

    // ---- Figure 6: GrowingInstance ----
    banner("Figure 6: grow on 75% fill (1 min provisioning)");
    let spec = parse(
        r#"
Tiera GrowingInstance(time t) {
    tier1: { name: Memcached, size: 64K };
    tier2: { name: EBS, size: 4M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(tier1.filled == 75%) : response {
        grow(what: tier1, increment: 100%);
    }
    event(time=t) : response {
        move(what: object.location == tier1, to: tier2);
    }
}
"#,
    )
    .unwrap();
    let growing = Compiler::new(&catalog, env.clone())
        .bind("t", ParamValue::Duration(SimDuration::from_secs(600)))
        .compile(&spec)
        .unwrap();
    let tier1 = growing.tier("tier1").unwrap();
    let mut now = SimTime::ZERO;
    println!("capacity before: {} bytes", tier1.capacity(now));
    for i in 0..13 {
        // 13 × 4 KB crosses 75% of 64 KB.
        let r = growing.put(format!("w-{i}").as_str(), vec![0u8; 4096], now).unwrap();
        now += r.latency;
    }
    println!("capacity right after grow fired (provisioning...): {} bytes", tier1.capacity(now));
    let after_spawn = now + SimDuration::from_secs(61);
    println!("capacity one minute later: {} bytes", tier1.capacity(after_spawn));

    // ---- Runtime policy replacement (paper §4.2.3) ----
    banner("Runtime policy replacement");
    println!("rules before: {}", growing.policy().len());
    growing.policy().replace_all([Rule::on(EventKind::action(ActionOp::Put))
        .respond(ResponseSpec::store(Selector::Inserted, ["tier2"]))
        .labeled("post-reconfiguration placement")]);
    println!("rules after : {}", growing.policy().len());
    let r = growing.put("after-swap", vec![0u8; 128], after_spawn).unwrap();
    let meta = growing.registry().get(&"after-swap".into()).unwrap();
    println!("new placement goes to {:?} (PUT took {})", meta.locations, r.latency);
}

//! Table 1: every supported response, demonstrated live.

use std::sync::Arc;

use tiera_core::instance::Instance;
use tiera_core::prelude::*;
use tiera_core::response::{EvictOrder, Guard};
use tiera_sim::SimEnv;
use tiera_tiers::MemoryTier;

use crate::deployments::MB;
use crate::table::Table;

fn demo_instance(env: &SimEnv) -> Arc<Instance> {
    InstanceBuilder::new("table1", env.clone())
        .tier(Arc::new(MemoryTier::same_az("tier1", 64 * MB, env)))
        .tier(Arc::new(MemoryTier::cross_az("tier2", 64 * MB, env)))
        .build()
        .expect("builds")
}

fn exec(instance: &Arc<Instance>, spec: ResponseSpec, at: SimTime) -> bool {
    // Drive the response through a one-shot timer rule + pump, exactly how
    // policies execute them.
    let id =
        instance.policy().add(Rule::on(EventKind::timer(SimDuration::from_secs(1))).respond(spec));
    let ok = instance.pump(at).is_ok();
    instance.policy().remove(id);
    ok
}

/// Demonstrates each Table 1 response.
pub fn run() {
    let env = SimEnv::new(111);
    let instance = demo_instance(&env);
    instance.add_key("k1", [5u8; 32]);
    let mut t = Table::new(["response", "arguments (paper)", "demonstrated"]);
    let mut at = SimTime::from_secs(1);
    let mut step =
        |name: &str, args: &str, spec: ResponseSpec, inst: &Arc<Instance>, table: &mut Table| {
            let ok = exec(inst, spec, at);
            at += SimDuration::from_secs(1);
            table.row([name.to_string(), args.to_string(), if ok { "✓" } else { "✗" }.to_string()]);
        };

    instance.put("obj", vec![7u8; 8192], SimTime::ZERO).unwrap();
    instance.put("dup-a", &b"same"[..], SimTime::ZERO).unwrap();

    step(
        "store",
        "Objects, Tiers",
        ResponseSpec::store(Selector::Key("obj".into()), ["tier2"]),
        &instance,
        &mut t,
    );
    step(
        "storeOnce",
        "Objects, Tiers",
        ResponseSpec::store_once(Selector::Key("dup-a".into()), ["tier1"]),
        &instance,
        &mut t,
    );
    step(
        "retrieve",
        "Objects",
        ResponseSpec::Retrieve { what: Selector::Key("obj".into()) },
        &instance,
        &mut t,
    );
    step(
        "copy",
        "Objects, Destination Tiers, Bandwidth Cap",
        ResponseSpec::copy_capped(
            Selector::Key("obj".into()),
            ["tier2"],
            tiera_sim::bandwidth::BandwidthCap::kb_per_sec(40.0),
        ),
        &instance,
        &mut t,
    );
    step(
        "encrypt",
        "Objects, Key",
        ResponseSpec::Encrypt { what: Selector::Key("obj".into()), key_id: "k1".into() },
        &instance,
        &mut t,
    );
    step(
        "decrypt",
        "Objects, Key",
        ResponseSpec::Decrypt { what: Selector::Key("obj".into()), key_id: "k1".into() },
        &instance,
        &mut t,
    );
    step(
        "compress",
        "Objects",
        ResponseSpec::Compress { what: Selector::Key("obj".into()) },
        &instance,
        &mut t,
    );
    step(
        "uncompress",
        "Objects",
        ResponseSpec::Uncompress { what: Selector::Key("obj".into()) },
        &instance,
        &mut t,
    );
    step(
        "delete",
        "Objects, Tiers",
        ResponseSpec::Delete { what: Selector::Key("obj".into()), from: Some("tier2".into()) },
        &instance,
        &mut t,
    );
    step(
        "move",
        "Objects, Destination Tiers, Bandwidth Cap",
        ResponseSpec::move_to(Selector::Key("obj".into()), ["tier2"]),
        &instance,
        &mut t,
    );
    step(
        "grow",
        "Tier, Percent Increase",
        ResponseSpec::Grow { tier: "tier1".into(), percent: 50.0 },
        &instance,
        &mut t,
    );
    step(
        "shrink",
        "Tier, Percent Decrease",
        ResponseSpec::Shrink { tier: "tier1".into(), percent: 25.0 },
        &instance,
        &mut t,
    );
    step(
        "(Fig 5) evict-until-fit",
        "From, To, LRU/MRU",
        ResponseSpec::EvictUntilFit {
            from: "tier1".into(),
            to: "tier2".into(),
            order: EvictOrder::Lru,
        },
        &instance,
        &mut t,
    );
    step(
        "(Fig 5) if-guard",
        "tier.filled",
        ResponseSpec::If { guard: Guard::tier_filled("tier1"), then: vec![] },
        &instance,
        &mut t,
    );
    t.print();
}

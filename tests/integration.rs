//! Cross-crate integration tests: the full stack (spec → instance →
//! tiers → fs → db → workloads) wired together the way the paper's
//! experiments use it.

use std::sync::Arc;

use tiera::core::event::{ActionOp, EventKind};
use tiera::core::response::ResponseSpec;
use tiera::core::selector::Selector;
use tiera::core::{InstanceBuilder, Rule};
use tiera::db::{DbConfig, MiniDb};
use tiera::fs::TieraFs;
use tiera::prelude::*;
use tiera::sim::FailureWindow;
use tiera::spec::{parse, Compiler, ParamValue};
use tiera::tiers::{default_catalog, BlockTier, MemoryTier, ObjectStoreTier};
use tiera::workloads::oltp::{self, OltpConfig};
use tiera::workloads::ycsb::{self, YcsbConfig};

const MB: u64 = 1024 * 1024;

#[test]
fn spec_compiled_instance_runs_ycsb() {
    let env = SimEnv::new(100);
    let catalog = default_catalog(&env);
    let spec = parse(
        r#"
Tiera Workhorse(time t) {
    tier1: { name: Memcached, size: 64M };
    tier2: { name: EBS, size: 256M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(time=t) : response {
        copy(what: object.location == tier1 && object.dirty == true,
             to: tier2);
    }
}
"#,
    )
    .unwrap();
    let instance = Compiler::new(&catalog, env.clone())
        .bind("t", ParamValue::Duration(SimDuration::from_secs(10)))
        .compile(&spec)
        .unwrap();

    let mut cfg = YcsbConfig::new(500);
    cfg.read_proportion = 0.8;
    cfg.threads = 4;
    cfg.ops_per_thread = 250;
    let t = ycsb::preload(&instance, &cfg, SimTime::ZERO).unwrap();
    let report = ycsb::run(&instance, &cfg, t);
    assert_eq!(report.ops, 1000);
    assert_eq!(report.failures, 0);
    // Memcached reads are sub-millisecond on average.
    assert!(report.reads.mean() < SimDuration::from_millis(1), "{:?}", report.reads.mean());
    // Advance virtual time past the 10 s write-back period and pump: the
    // dirty working set must reach tier2 (the workload itself is far
    // shorter than 10 s of virtual time).
    let after = instance.env().clock().now() + SimDuration::from_secs(10);
    instance.pump(after).unwrap();
    let agg = instance.registry().aggregates("tier2");
    assert!(agg.objects > 0, "write-back copied objects to tier2");
}

#[test]
fn full_db_stack_over_simulated_tiers() {
    let env = SimEnv::new(101);
    let instance = InstanceBuilder::new("stack", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 512 * MB, &env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 512 * MB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
        )
        .build()
        .unwrap();
    let fs = Arc::new(TieraFs::new(instance));
    let (db, load) = MiniDb::create(
        fs,
        DbConfig { rows: 5_000, buffer_pool_pages: 64, ..DbConfig::default() },
        SimTime::ZERO,
    )
    .unwrap();
    let db = Arc::new(db);
    assert!(load > SimDuration::ZERO, "bulk load charged latency");

    let mut cfg = OltpConfig::paper(5_000, 0.10, false);
    cfg.threads = 4;
    cfg.txns_per_thread = 25;
    let report = oltp::run(&db, &cfg, SimTime::ZERO + load);
    assert_eq!(report.ops, 100);
    assert_eq!(report.failures, 0);
    assert!(report.throughput() > 1.0, "tps = {}", report.throughput());
}

#[test]
fn dedup_instance_reduces_object_store_requests() {
    let env = SimEnv::new(102);
    let instance = InstanceBuilder::new("dedup", env.clone())
        .tier(Arc::new(ObjectStoreTier::s3("s3", 512 * MB, &env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store_once(Selector::Inserted, ["s3"])),
        )
        .build()
        .unwrap();
    let mut now = SimTime::ZERO;
    // 100 logical objects, only 10 distinct payloads.
    for i in 0..100 {
        let body = vec![(i % 10) as u8; 4096];
        let r = instance.put(format!("doc-{i}").as_str(), body, now).unwrap();
        now += r.latency;
    }
    let s3 = instance.tier("s3").unwrap();
    assert_eq!(s3.request_counts().puts, 10, "one PUT per distinct payload");
    assert_eq!(s3.used(), 10 * 4096);
    // Every logical object remains readable.
    for i in 0..100 {
        let (data, _) = instance.get(format!("doc-{i}").as_str(), now).unwrap();
        assert_eq!(data[0], (i % 10) as u8);
    }
}

#[test]
fn spec_error_paths_are_reported_with_lines() {
    let bad = "Tiera X() {\n  tier1: { name: Memcached size: 1G };\n}";
    let err = parse(bad).unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.to_string().contains("line 2"));
}

#[test]
fn metadata_survives_instance_restart() {
    let dir = std::env::temp_dir().join(format!("tiera-it-meta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = SimEnv::new(103);
    {
        let instance = InstanceBuilder::new("persist", env.clone())
            .tier(MemTier::with_capacity("t1", 64 << 20))
            .metadata_dir(&dir)
            .build()
            .unwrap();
        instance
            .put_with(
                "remembered",
                &b"v"[..],
                tiera::core::instance::PutOptions { tags: vec![Tag::new("keep")] },
                SimTime::ZERO,
            )
            .unwrap();
        instance.registry().sync().unwrap();
    }
    // A new instance over the same metadata directory sees the object's
    // metadata (the data bytes live in tiers, which here were volatile —
    // exactly the paper's BerkeleyDB split of data vs metadata).
    let instance = InstanceBuilder::new("persist", env)
        .tier(MemTier::with_capacity("t1", 64 << 20))
        .metadata_dir(&dir)
        .build()
        .unwrap();
    let meta = instance.registry().get(&"remembered".into()).unwrap();
    assert!(meta.has_tag(&Tag::new("keep")));
    assert_eq!(meta.size, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// ROADMAP 8(d): the stale copy an overwrite leaves behind is deleted on
/// a best-effort basis, but a refused delete is counted, not dropped.
#[test]
fn overwrite_whose_old_tier_refuses_the_delete_succeeds_and_counts_the_orphan() {
    let env = SimEnv::new(104);
    let store_into = |tier: &str| {
        Rule::on(EventKind::action(ActionOp::Put))
            .respond(ResponseSpec::store(Selector::Inserted, [tier]))
    };
    let ebs = Arc::new(BlockTier::ebs("ebs", 64 * MB, &env));
    let instance = InstanceBuilder::new("orphan", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 64 * MB, &env)))
        .tier(Arc::clone(&ebs))
        .rule(store_into("ebs"))
        .build()
        .unwrap();
    instance.put("k", vec![1u8; 4096], SimTime::ZERO).unwrap();
    assert_eq!(instance.stats().cleanup_failures(), 0);

    // The overwrite lands in memcached; ebs, holding the old copy, has
    // stopped taking writes by then.
    instance.policy().replace_all([store_into("memcached")]);
    ebs.failures().schedule(FailureWindow::write_outage(SimTime::from_secs(5)));
    let now = SimTime::from_secs(10);
    instance.put("k", vec![2u8; 4096], now).unwrap();

    assert_eq!(instance.stats().cleanup_failures(), 1);
    let key = ObjectKey::new("k");
    assert!(ebs.contains(&key), "the orphan is still in the tier");
    assert_eq!(ebs.used(), 4096, "and the tier still counts it");
    let meta = instance.registry().get(&key).unwrap();
    assert!(meta.in_tier("memcached") && !meta.in_tier("ebs"), "{meta:?}");
    let (data, _) = instance.get("k", now).unwrap();
    assert_eq!(data.as_ref(), &[2u8; 4096][..]);
}

#[test]
fn cost_report_orders_deployments_like_the_paper() {
    // More Memcached ⇒ strictly higher monthly cost (Table 2 / Fig 11b).
    let env = SimEnv::new(104);
    let cost_of = |mem_mb: u64, ebs_mb: u64| {
        let inst = InstanceBuilder::new("cost", env.clone())
            .tier(Arc::new(MemoryTier::same_az("mem", mem_mb * MB, &env)))
            .tier(Arc::new(BlockTier::ebs("ebs", ebs_mb * MB, &env)))
            .tier(Arc::new(ObjectStoreTier::s3("s3", 2048 * MB, &env)))
            .build()
            .unwrap();
        inst.monthly_cost(SimTime::ZERO).total()
    };
    let ti1 = cost_of(500, 300);
    let ti2 = cost_of(600, 200);
    let ti3 = cost_of(700, 100);
    assert!(ti1 < ti2 && ti2 < ti3, "{ti1} {ti2} {ti3}");
}

#[test]
fn encrypted_compressed_pipeline_roundtrips() {
    // Policy composition: compress cold data, then encrypt before it goes
    // to the (untrusted) object store — then read it back transparently.
    let env = SimEnv::new(105);
    let instance = InstanceBuilder::new("pipeline", env.clone())
        .tier(MemTier::with_capacity("t1", 64 << 20))
        .build()
        .unwrap();
    instance.add_key("vault", [9u8; 32]);
    let payload: Vec<u8> = b"confidential ".iter().cycle().take(50_000).copied().collect();
    instance.put("report", payload.clone(), SimTime::ZERO).unwrap();

    // Compress then encrypt via policy rules added at runtime.
    instance.policy().add(
        Rule::on(EventKind::timer(SimDuration::from_secs(60)))
            .respond(ResponseSpec::Compress { what: Selector::Key("report".into()) })
            .respond(ResponseSpec::Encrypt {
                what: Selector::Key("report".into()),
                key_id: "vault".into(),
            }),
    );
    instance.pump(SimTime::from_secs(60)).unwrap();

    let meta = instance.registry().get(&"report".into()).unwrap();
    assert!(meta.compressed && meta.encrypted);
    assert!(meta.stored_size() < meta.size / 2);

    let (data, _) = instance.get("report", SimTime::from_secs(61)).unwrap();
    assert_eq!(&data[..], &payload[..], "transparent decrypt+decompress");
}

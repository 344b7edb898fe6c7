//! The named deployments of the paper's evaluation (§4.1–§4.2), built on
//! demand for experiments.

use std::sync::Arc;

use tiera_core::event::{ActionOp, EventKind};
use tiera_core::instance::Instance;
use tiera_core::object::Tag;
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::{InstanceBuilder, Rule};
use tiera_db::{DbConfig, MiniDb};
use tiera_fs::TieraFs;
use tiera_sim::{SimDuration, SimEnv, SimTime};
use tiera_tiers::{BlockTier, MemoryTier, ObjectStoreTier};

/// 1 MiB.
pub const MB: u64 = 1024 * 1024;
/// 1 GiB.
pub const GB: u64 = 1024 * MB;

/// The standard deployment: everything on one EBS volume.
pub fn mysql_on_ebs(env: &SimEnv) -> Arc<Instance> {
    InstanceBuilder::new("MySQL-on-EBS", env.clone())
        .tier(Arc::new(BlockTier::ebs("ebs", 8 * GB, env)))
        .build()
        .expect("valid deployment")
}

/// §4.1.1 `MemcachedEBS`: write to Memcached *and* EBS on PUT, serve GETs
/// from Memcached. The Memcached tier is large enough for the database.
pub fn memcached_ebs(env: &SimEnv) -> Arc<Instance> {
    InstanceBuilder::new("MemcachedEBS", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", 4 * GB, env)))
        .tier(Arc::new(BlockTier::ebs("ebs", 8 * GB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
        )
        .build()
        .expect("valid deployment")
}

/// §4.1.1 `MemcachedReplicated`: two Memcached tiers, one per availability
/// zone; a PUT is acknowledged only after both replicas hold the data.
pub fn memcached_replicated(env: &SimEnv) -> Arc<Instance> {
    InstanceBuilder::new("MemcachedReplicated", env.clone())
        .tier(Arc::new(MemoryTier::same_az("mem-a", 4 * GB, env)))
        .tier(Arc::new(MemoryTier::cross_az("mem-b", 4 * GB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::store(Selector::Inserted, ["mem-a", "mem-b"])),
        )
        .build()
        .expect("valid deployment")
}

/// §4.1.1 `MemcachedS3` (cost optimization): S3 is the persistent store —
/// every write lands there synchronously — and a Memcached tier too small
/// for the database caches recently accessed data under an LRU policy.
/// Writes paying the S3 round trip is precisely why the paper's read-write
/// throughput collapses on this instance while read-only stays comparable.
pub fn memcached_s3(env: &SimEnv, memcached_bytes: u64) -> Arc<Instance> {
    InstanceBuilder::new("MemcachedS3", env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", memcached_bytes, env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", 64 * GB, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                // The redo log is hinted (tagged) by the database; it stays
                // in the cache tier and is not round-tripped through S3.
                .respond(ResponseSpec::store(
                    Selector::Inserted.and(Selector::Tagged(Tag::new("redo-log"))),
                    ["memcached"],
                ))
                // Data pages persist to S3 synchronously and are cached.
                .respond(ResponseSpec::store(
                    Selector::Inserted.and(Selector::Tagged(Tag::new("redo-log")).negate()),
                    ["s3"],
                ))
                .respond(ResponseSpec::evict_lru("memcached", "s3"))
                .respond(ResponseSpec::copy(
                    Selector::Inserted.and(Selector::Tagged(Tag::new("redo-log")).negate()),
                    ["memcached"],
                )),
        )
        // LRU cache semantics: a read of an S3-resident object promotes it
        // into the Memcached tier ("Portions of the database are cached in
        // the Memcached tier using an LRU policy", §4.1.1).
        .rule(
            Rule::on(EventKind::action(ActionOp::Get))
                .respond(ResponseSpec::evict_lru("memcached", "s3"))
                .respond(ResponseSpec::copy(Selector::Inserted, ["memcached"])),
        )
        .build()
        .expect("valid deployment")
}

/// Table 2's TI:n instances: exclusive Memcached→EBS→S3 LRU hierarchy with
/// the given capacities.
pub fn tiered_instance(
    env: &SimEnv,
    name: &str,
    memcached: u64,
    ebs: u64,
    s3: u64,
) -> Arc<Instance> {
    InstanceBuilder::new(name, env.clone())
        .tier(Arc::new(MemoryTier::same_az("memcached", memcached, env)))
        .tier(Arc::new(BlockTier::ebs("ebs", ebs, env)))
        .tier(Arc::new(ObjectStoreTier::s3("s3", s3, env)))
        .rule(
            Rule::on(EventKind::action(ActionOp::Put))
                .respond(ResponseSpec::evict_lru("ebs", "s3"))
                .respond(ResponseSpec::evict_lru("memcached", "ebs"))
                .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
        )
        .build()
        .expect("valid deployment")
}

/// The database configuration used by the §4.1.1 experiments.
///
/// ~1 GB of data; the plain EBS deployment gets the EC2 instance's buffer
/// cache (the paper's "served from the local instance's buffer cache"),
/// the Tiera deployments go through FUSE and do not.
pub fn paper_db_config(with_os_cache: bool) -> DbConfig {
    DbConfig {
        rows: 2_500_000, // × 200 B ≈ 500 MB
        row_size: 200,
        buffer_pool_pages: 4096, // 16 MB of MySQL-side cache
        os_cache_pages: if with_os_cache { 38_400 } else { 0 }, // 150 MB
        cpu_per_op: SimDuration::from_micros(500),
        cpu_write_factor: 2.0,
    }
}

/// Builds a minidb over a deployment, returning `(db, time-after-load)`.
pub fn db_over(instance: Arc<Instance>, cfg: DbConfig) -> (Arc<MiniDb>, SimTime) {
    let fs = Arc::new(TieraFs::new(instance));
    let (db, load) = MiniDb::create(fs, cfg, SimTime::ZERO).expect("bulk load");
    (Arc::new(db), SimTime::ZERO + load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployments_build_and_serve() {
        let env = SimEnv::new(1);
        for inst in [
            mysql_on_ebs(&env),
            memcached_ebs(&env),
            memcached_replicated(&env),
            memcached_s3(&env, 64 * MB),
            tiered_instance(&env, "TI:1", 500 * MB, 300 * MB, 8 * GB),
        ] {
            inst.put("probe", &b"x"[..], SimTime::ZERO).unwrap();
            let (data, _) = inst.get("probe", SimTime::from_millis(100)).unwrap();
            assert_eq!(&data[..], b"x", "{}", inst.name());
        }
    }
}

//! The generic simulated tier and its four service profiles.

use std::sync::Arc;

use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, Mutex};
use tiera_support::Bytes;

use tiera_core::error::{Result, TieraError};
use tiera_core::object::ObjectKey;
use tiera_core::tier::{OpReceipt, RequestCounts, Tier, TierTraits};
use tiera_sim::failure::Verdict;
use tiera_sim::{
    FailureInjector, LatencyModel, Provisioner, SharedBandwidth, SimDuration, SimEnv, SimRng,
    SimTime, StorageClass,
};

/// A simulated storage service implementing [`Tier`].
///
/// The four Amazon-service profiles are constructed via [`MemoryTier`],
/// [`BlockTier`], [`ObjectStoreTier`], and [`EphemeralTier`]; all share
/// this implementation and differ only in latency models, traits, pricing
/// class, bandwidth contention, and provisioning delay.
pub struct SimulatedTier {
    name: String,
    traits_: TierTraits,
    read_model: LatencyModel,
    write_model: LatencyModel,
    provisioner: Provisioner,
    failures: Arc<FailureInjector>,
    /// Shared device bandwidth (block tiers): foreground and background
    /// transfers queue FIFO on this path (paper Figure 14).
    bandwidth: Option<SharedBandwidth>,
    /// Per-operation device occupancy (seek/queue slot) for reads/writes.
    /// Smaller than the client-observed base latency because the device
    /// overlaps requests; `1 / occupancy` bounds the tier's IOPS in each
    /// direction. Reads are cheaper than writes on 2014-era EBS (the
    /// backend caches and read-aheads; writes must reach disk).
    op_occupancy_read: SimDuration,
    op_occupancy_write: SimDuration,
    rng: Mutex<SimRng>,
    state: Mutex<TierState>,
    /// Memory-cache clusters reshard when a node is added: a matured grow
    /// remaps the key space and roughly `old/new` of cached entries land on
    /// different nodes, turning into cache misses (the paper's Figure 16
    /// warm-up spike).
    reshard_on_grow: bool,
    last_seen_capacity: Mutex<u64>,
    /// Fast path for small (≤ 1 KiB) writes on block devices: sequential
    /// log appends are absorbed by the device's write cache (`(base
    /// latency, device occupancy)`); database redo logs live on this path.
    small_write: Option<(SimDuration, SimDuration)>,
}

#[derive(Default)]
struct TierState {
    /// Fx-hashed: a matured grow picks the entries it drops by walking
    /// this map while drawing from the seeded rng, so the walk order must
    /// be the same in every run (Figure 16's timeline depends on it).
    ///
    /// Whole buffers, not `Bytes` views: a slot is 32 bytes, not 48. A
    /// value leaves the map only as a `Bytes` (`Bytes::from`), so the
    /// last handle's drop still retires its buffer to the thread's pool.
    map: FxHashMap<ObjectKey, Arc<[u8]>>,
    used: u64,
    puts: u64,
    gets: u64,
}

// One per object held, beside the key the registry shares.
const _: () = assert!(std::mem::size_of::<(ObjectKey, Arc<[u8]>)>() <= 32);

/// Memcached-style in-memory cache tier.
pub type MemoryTier = SimulatedTier;
/// EBS-style persistent block store tier.
pub type BlockTier = SimulatedTier;
/// S3-style durable object store tier.
pub type ObjectStoreTier = SimulatedTier;
/// EC2 instance-store (ephemeral) tier.
pub type EphemeralTier = SimulatedTier;

impl SimulatedTier {
    #[allow(clippy::too_many_arguments)] // internal constructor; each profile names all knobs
    fn build(
        name: &str,
        capacity: u64,
        env: &SimEnv,
        traits_: TierTraits,
        read_model: LatencyModel,
        write_model: LatencyModel,
        spawn_delay: SimDuration,
        bandwidth: Option<SharedBandwidth>,
        op_occupancy: (SimDuration, SimDuration),
    ) -> Self {
        let reshard_on_grow = traits_.class == StorageClass::MemoryCache;
        let small_write = if bandwidth.is_some() {
            Some((SimDuration::from_micros(2500), SimDuration::from_micros(1000)))
        } else {
            None
        };
        Self {
            name: name.to_string(),
            traits_,
            read_model,
            write_model,
            provisioner: Provisioner::new(capacity, spawn_delay),
            failures: Arc::new(FailureInjector::new()),
            bandwidth,
            op_occupancy_read: op_occupancy.0,
            op_occupancy_write: op_occupancy.1,
            rng: Mutex::named("simtier.rng", rank::SIMTIER_RNG, env.rng_for(name)),
            state: Mutex::named("simtier.state", rank::SIMTIER_STATE, TierState::default()),
            reshard_on_grow,
            last_seen_capacity: Mutex::named(
                "simtier.last_seen",
                rank::SIMTIER_LAST_SEEN,
                capacity,
            ),
            small_write,
        }
    }

    /// Applies the consistent-hashing reshard when a grow has matured:
    /// entries whose keys remap to the new node become cache misses (they
    /// are dropped here; the data's durable copies live in other tiers).
    fn maybe_reshard(&self, now: SimTime) {
        if !self.reshard_on_grow {
            return;
        }
        let cap = self.provisioner.capacity_at(now);
        let mut last = self.last_seen_capacity.lock();
        if cap > *last {
            let remapped = 1.0 - (*last as f64 / cap as f64);
            *last = cap;
            drop(last);
            let mut rng = self.rng.lock();
            let mut st = self.state.lock();
            let keys: Vec<ObjectKey> =
                st.map.keys().filter(|_| rng.chance(remapped)).cloned().collect();
            for k in keys {
                if let Some(b) = st.map.remove(&k).map(Bytes::from) {
                    st.used -= b.len() as u64;
                }
            }
        } else if cap < *last {
            *last = cap;
        }
    }

    /// Memcached in the client's availability zone (paper's default cache
    /// tier). Growing spawns a cache node: ~60 s provisioning delay.
    pub fn same_az(name: &str, capacity: u64, env: &SimEnv) -> SimulatedTier {
        Self::build(
            name,
            capacity,
            env,
            TierTraits {
                durable: false,
                availability_zone: "zone-a".into(),
                class: StorageClass::MemoryCache,
            },
            LatencyModel::memcached_same_az(),
            LatencyModel::memcached_same_az(),
            SimDuration::from_secs(60),
            None,
            (SimDuration::ZERO, SimDuration::ZERO),
        )
    }

    /// Memcached replica in a different availability zone (the second tier
    /// of the paper's `MemcachedReplicated` instance).
    pub fn cross_az(name: &str, capacity: u64, env: &SimEnv) -> SimulatedTier {
        Self::build(
            name,
            capacity,
            env,
            TierTraits {
                durable: false,
                availability_zone: "zone-b".into(),
                class: StorageClass::MemoryCache,
            },
            LatencyModel::memcached_cross_az(),
            LatencyModel::memcached_cross_az(),
            SimDuration::from_secs(60),
            None,
            (SimDuration::ZERO, SimDuration::ZERO),
        )
    }

    /// EBS-style block store with a shared ~90 MiB/s disk path.
    pub fn ebs(name: &str, capacity: u64, env: &SimEnv) -> SimulatedTier {
        Self::build(
            name,
            capacity,
            env,
            TierTraits {
                durable: true,
                availability_zone: "zone-a".into(),
                class: StorageClass::BlockStore,
            },
            LatencyModel::ebs_read(),
            LatencyModel::ebs_write(),
            SimDuration::from_secs(10),
            Some(SharedBandwidth::new(90.0 * 1024.0 * 1024.0)),
            // A 2014 standard (magnetic) volume sustains ~250 random IOPS
            // in each direction.
            (SimDuration::from_micros(4000), SimDuration::from_micros(4000)),
        )
    }

    /// S3-style object store.
    pub fn s3(name: &str, capacity: u64, env: &SimEnv) -> SimulatedTier {
        Self::build(
            name,
            capacity,
            env,
            TierTraits {
                durable: true,
                availability_zone: "region".into(),
                class: StorageClass::ObjectStore,
            },
            LatencyModel::s3_read(),
            LatencyModel::s3_write(),
            SimDuration::ZERO, // S3 capacity is elastic
            None,
            (SimDuration::ZERO, SimDuration::ZERO),
        )
    }

    /// EC2 ephemeral (instance-store) volume: fast, free, non-durable.
    pub fn new(name: &str, capacity: u64, env: &SimEnv) -> SimulatedTier {
        Self::build(
            name,
            capacity,
            env,
            TierTraits {
                durable: false,
                availability_zone: "zone-a".into(),
                class: StorageClass::Ephemeral,
            },
            LatencyModel::ephemeral_read(),
            LatencyModel::ephemeral_write(),
            SimDuration::ZERO,
            Some(SharedBandwidth::new(110.0 * 1024.0 * 1024.0)),
            (SimDuration::from_micros(3000), SimDuration::from_micros(2800)),
        )
    }

    /// The tier's failure injector (schedule outages here, Figure 17).
    pub fn failures(&self) -> &Arc<FailureInjector> {
        &self.failures
    }

    /// Simulates an instance reboot: a non-durable tier loses its contents.
    pub fn reboot(&self) {
        if !self.traits_.durable {
            let mut st = self.state.lock();
            st.map.drain().for_each(|(_, b)| drop(Bytes::from(b)));
            st.used = 0;
        }
    }

    /// Latency of one operation on `bytes`, including queueing on the
    /// shared disk path if any.
    ///
    /// Block-style devices are occupied for the *whole* service time
    /// (seek/queue + transfer), which is what makes background replication
    /// contend with foreground IO (paper Figure 14): the device serializes
    /// operations, so a replication stream visibly inflates foreground
    /// latency unless it is bandwidth-capped.
    fn charge(
        &self,
        bytes: usize,
        now: SimTime,
        model: &LatencyModel,
        occupancy: SimDuration,
    ) -> SimDuration {
        let base = model.sample(0, &mut self.rng.lock());
        match &self.bandwidth {
            Some(bw) => {
                // The device is *occupied* for the op slot + transfer
                // (bounding IOPS); the client additionally experiences the
                // access latency on top of any queueing delay.
                let transfer = bw.service_time(bytes);
                let res = bw.reserve_for(now, occupancy + transfer);
                let queue_wait = res.start - now;
                queue_wait + base + transfer
            }
            None => {
                let transfer = model.deterministic(bytes).saturating_sub(model.base);
                base + transfer
            }
        }
    }
}

impl Tier for SimulatedTier {
    fn name(&self) -> &str {
        &self.name
    }

    fn tier_traits(&self) -> TierTraits {
        self.traits_.clone()
    }

    fn capacity(&self, now: SimTime) -> u64 {
        self.provisioner.capacity_at(now)
    }

    fn used(&self) -> u64 {
        self.state.lock().used
    }

    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
        self.maybe_reshard(now);
        let mut spike = SimDuration::ZERO;
        let torn_wait = match self.failures.check_write(now) {
            Verdict::Healthy => None,
            Verdict::Spiked(extra) => {
                spike = extra;
                None
            }
            Verdict::Torn(waited) => Some(waited),
            Verdict::TimedOut(waited) => {
                return Err(TieraError::Timeout { tier: self.name.clone(), waited });
            }
            Verdict::TransientFull => {
                return Err(TieraError::TierFull {
                    tier: self.name.clone(),
                    needed: data.len() as u64,
                    available: 0,
                });
            }
        };
        let len = data.len() as u64;
        // Admission happens BEFORE any bandwidth is reserved: a write the
        // tier rejects must not occupy the shared device path, otherwise a
        // failed multi-part write inflates every later op's queueing delay
        // while `used` says the bytes were never stored.
        let prev = {
            let mut st = self.state.lock();
            let old = st.map.get(key).map(|b| b.len() as u64).unwrap_or(0);
            let new_used = st.used - old + len;
            let cap = self.capacity(now);
            if new_used > cap {
                return Err(TieraError::TierFull {
                    tier: self.name.clone(),
                    needed: len,
                    available: cap.saturating_sub(st.used - old),
                });
            }
            let prev = st.map.insert(key.clone(), data.into_shared()).map(Bytes::from);
            st.used = new_used;
            st.puts += 1;
            prev
        };
        let latency = match self.small_write {
            Some((base, occ)) if len <= 1024 => {
                // Sequential small append absorbed by the write cache.
                match &self.bandwidth {
                    Some(bw) => {
                        let res = bw.reserve_for(now, occ);
                        (res.start - now) + base
                    }
                    None => base,
                }
            }
            _ => self.charge(len as usize, now, &self.write_model, self.op_occupancy_write),
        };
        if let Some(waited) = torn_wait {
            // Torn write: the transfer occupied the device but no bytes
            // become visible; map and capacity accounting roll back to the
            // pre-op value and the client is charged the timeout.
            let mut st = self.state.lock();
            let cur = st.map.get(key).map(|b| b.len() as u64).unwrap_or(0);
            match prev {
                Some(old_bytes) => {
                    let old_len = old_bytes.len() as u64;
                    drop(st.map.insert(key.clone(), old_bytes.into_shared()).map(Bytes::from));
                    st.used = st.used - cur + old_len;
                }
                None => {
                    drop(st.map.remove(key).map(Bytes::from));
                    st.used -= cur;
                }
            }
            st.puts -= 1;
            return Err(TieraError::Timeout { tier: self.name.clone(), waited });
        }
        Ok(OpReceipt::took(latency + spike))
    }

    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
        self.maybe_reshard(now);
        let mut spike = SimDuration::ZERO;
        match self.failures.check_read(now) {
            Verdict::Healthy => {}
            Verdict::Spiked(extra) => spike = extra,
            Verdict::TimedOut(waited) | Verdict::Torn(waited) => {
                return Err(TieraError::Timeout { tier: self.name.clone(), waited });
            }
            Verdict::TransientFull => {
                return Err(TieraError::Timeout {
                    tier: self.name.clone(),
                    waited: SimDuration::ZERO,
                });
            }
        }
        let data = {
            let mut st = self.state.lock();
            st.gets += 1;
            st.map
                .get(key)
                .map(|b| Bytes::from(Arc::clone(b)))
                .ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?
        };
        let latency = self.charge(data.len(), now, &self.read_model, self.op_occupancy_read);
        Ok((data, OpReceipt::took(latency + spike)))
    }

    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        let mut spike = SimDuration::ZERO;
        match self.failures.check_write(now) {
            Verdict::Healthy => {}
            Verdict::Spiked(extra) => spike = extra,
            Verdict::TimedOut(waited) | Verdict::Torn(waited) => {
                return Err(TieraError::Timeout { tier: self.name.clone(), waited });
            }
            Verdict::TransientFull => {
                // A delete frees space; a transiently-full backend still
                // refuses the round trip.
                return Err(TieraError::TierFull {
                    tier: self.name.clone(),
                    needed: 0,
                    available: 0,
                });
            }
        }
        let latency = self.charge(0, now, &self.write_model, self.op_occupancy_write);
        let mut st = self.state.lock();
        if let Some(b) = st.map.remove(key).map(Bytes::from) {
            st.used -= b.len() as u64;
        }
        st.puts += 1;
        Ok(OpReceipt::took(latency + spike))
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.state.lock().map.contains_key(key)
    }

    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        self.provisioner.grow_percent(now, percent)
    }

    fn shrink(&self, percent: f64, _now: SimTime) {
        self.provisioner.shrink_percent(percent);
    }

    fn request_counts(&self) -> RequestCounts {
        let st = self.state.lock();
        RequestCounts { puts: st.puts, gets: st.gets }
    }

    fn monthly_cost(&self, now: SimTime) -> f64 {
        // Object stores bill for bytes *used* (elastic, pay-per-use);
        // provisioned tiers bill for capacity.
        let bytes = if self.traits_.class == StorageClass::ObjectStore {
            self.used()
        } else {
            self.capacity(now)
        };
        let gb = bytes as f64 / (1024.0 * 1024.0 * 1024.0);
        tiera_sim::PricePlan::for_class(self.traits_.class).capacity_cost(gb)
    }
}

impl std::fmt::Debug for SimulatedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedTier")
            .field("name", &self.name)
            .field("class", &self.traits_.class)
            .field("used", &self.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_sim::{FailureKind, FailureWindow, FaultSpec};

    const MB: u64 = 1024 * 1024;

    fn env() -> SimEnv {
        SimEnv::new(42)
    }

    fn key(s: &str) -> ObjectKey {
        ObjectKey::new(s)
    }

    #[test]
    fn latency_ordering_memcached_ebs_s3() {
        let e = env();
        let mem = MemoryTier::same_az("mem", 64 * MB, &e);
        let ebs = BlockTier::ebs("ebs", 64 * MB, &e);
        let s3 = ObjectStoreTier::s3("s3", 64 * MB, &e);
        let data = Bytes::from(vec![0u8; 4096]);
        let t = SimTime::ZERO;
        let lm = mem.put(&key("k"), data.clone(), t).unwrap().latency;
        let le = ebs.put(&key("k"), data.clone(), t).unwrap().latency;
        let ls = s3.put(&key("k"), data, t).unwrap().latency;
        assert!(lm < le, "memcached {lm} < ebs {le}");
        assert!(le < ls, "ebs {le} < s3 {ls}");
        assert!(lm.as_micros() < 1000, "memcached sub-ms: {lm}");
        assert!(ls.as_millis() >= 20, "s3 tens of ms: {ls}");
    }

    #[test]
    fn cross_az_slower_than_same_az() {
        let e = env();
        let near = MemoryTier::same_az("near", MB, &e);
        let far = MemoryTier::cross_az("far", MB, &e);
        let data = Bytes::from(vec![0u8; 4096]);
        let mut near_total = SimDuration::ZERO;
        let mut far_total = SimDuration::ZERO;
        for i in 0..50 {
            let k = key(&format!("k{i}"));
            near_total += near.put(&k, data.clone(), SimTime::ZERO).unwrap().latency;
            far_total += far.put(&k, data.clone(), SimTime::ZERO).unwrap().latency;
        }
        assert!(far_total > near_total.mul_f64(2.0));
    }

    #[test]
    fn write_outage_times_out_writes_only() {
        let e = env();
        let ebs = BlockTier::ebs("ebs", 64 * MB, &e);
        ebs.put(&key("pre"), Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        ebs.failures().schedule(FailureWindow::write_outage(SimTime::from_secs(240)));
        // Reads still work during a write outage.
        assert!(ebs.get(&key("pre"), SimTime::from_secs(300)).is_ok());
        let err =
            ebs.put(&key("post"), Bytes::from_static(b"y"), SimTime::from_secs(300)).unwrap_err();
        match err {
            TieraError::Timeout { waited, .. } => {
                assert_eq!(waited, SimDuration::from_secs(5));
            }
            e => panic!("expected timeout, got {e}"),
        }
        // Repair restores service.
        ebs.failures().clear();
        assert!(ebs.put(&key("post"), Bytes::from_static(b"y"), SimTime::from_secs(400)).is_ok());
    }

    #[test]
    fn shared_bandwidth_contention_raises_latency() {
        let e = env();
        let ebs = BlockTier::ebs("ebs", 1024 * MB, &e);
        // A quiet 4 KB write.
        let quiet =
            ebs.put(&key("quiet"), Bytes::from(vec![0u8; 4096]), SimTime::ZERO).unwrap().latency;
        // Hog the disk with a 50 MB transfer, then measure a 4 KB write
        // issued in its shadow.
        let t = SimTime::from_secs(100);
        ebs.put(&key("hog"), Bytes::from(vec![0u8; 50 * MB as usize]), t).unwrap();
        let contended = ebs.put(&key("small"), Bytes::from(vec![0u8; 4096]), t).unwrap().latency;
        assert!(contended > quiet.mul_f64(10.0), "contended {contended} vs quiet {quiet}");
    }

    #[test]
    fn grow_has_provisioning_delay() {
        let e = env();
        let mem = MemoryTier::same_az("mem", 200 * MB, &e);
        let matured = mem.grow(100.0, SimTime::from_secs(360));
        assert_eq!(matured, SimTime::from_secs(420), "60 s EC2 spawn");
        assert_eq!(mem.capacity(SimTime::from_secs(419)), 200 * MB);
        assert_eq!(mem.capacity(SimTime::from_secs(420)), 400 * MB);
    }

    #[test]
    fn ephemeral_reboot_loses_data_durable_does_not() {
        let e = env();
        let eph = EphemeralTier::new("eph", 64 * MB, &e);
        let ebs = BlockTier::ebs("ebs", 64 * MB, &e);
        eph.put(&key("k"), Bytes::from_static(b"v"), SimTime::ZERO).unwrap();
        ebs.put(&key("k"), Bytes::from_static(b"v"), SimTime::ZERO).unwrap();
        eph.reboot();
        ebs.reboot();
        assert!(!eph.contains(&key("k")), "ephemeral loses data");
        assert!(ebs.contains(&key("k")), "durable keeps data");
        assert_eq!(eph.used(), 0);
    }

    #[test]
    fn request_counts_for_s3_billing() {
        let e = env();
        let s3 = ObjectStoreTier::s3("s3", 64 * MB, &e);
        for i in 0..10 {
            s3.put(&key(&format!("k{i}")), Bytes::from_static(b"v"), SimTime::ZERO).unwrap();
        }
        for _ in 0..3 {
            let _ = s3.get(&key("k0"), SimTime::ZERO);
        }
        let c = s3.request_counts();
        assert_eq!(c.puts, 10);
        assert_eq!(c.gets, 3);
    }

    #[test]
    fn capacity_enforced_at_current_time() {
        let e = env();
        let mem = MemoryTier::same_az("mem", 10, &e);
        assert!(mem.put(&key("too-big"), Bytes::from(vec![0u8; 64]), SimTime::ZERO).is_err());
        // After a grow matures it fits.
        mem.grow(1000.0, SimTime::ZERO);
        assert!(mem
            .put(&key("too-big"), Bytes::from(vec![0u8; 64]), SimTime::from_secs(61))
            .is_ok());
    }

    #[test]
    fn deterministic_across_identical_envs() {
        let data = Bytes::from(vec![0u8; 4096]);
        let run = || {
            let e = SimEnv::new(7);
            let t = MemoryTier::same_az("m", MB, &e);
            (0..20)
                .map(|i| {
                    t.put(&key(&format!("k{i}")), data.clone(), SimTime::ZERO).unwrap().latency
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed → same latencies");
    }

    #[test]
    fn matured_grow_drops_the_same_keys_for_the_same_seed() {
        // Two same-seed tiers fed the same puts and one grow must keep the
        // identical key set: the reshard draws `rng.chance` per entry in
        // map order, so a per-process-random order picks different victims.
        let survivors = || {
            let e = SimEnv::new(16);
            let t = MemoryTier::same_az("m", MB, &e);
            for i in 0..200 {
                t.put(&key(&format!("k{i}")), Bytes::from(vec![0u8; 512]), SimTime::ZERO).unwrap();
            }
            t.grow(100.0, SimTime::ZERO);
            // The first op after the grow matures applies the reshard.
            let later = SimTime::from_secs(3600);
            assert!(t.capacity(later) > MB, "grow matured");
            t.put(&key("after"), Bytes::from_static(b"x"), later).unwrap();
            (0..200).filter(|i| t.contains(&key(&format!("k{i}")))).collect::<Vec<_>>()
        };
        let kept = survivors();
        assert!(kept.len() > 50 && kept.len() < 150, "about half remap: {}", kept.len());
        assert_eq!(kept, survivors(), "same seed → same surviving keys");
    }

    #[test]
    fn rejected_write_reserves_no_bandwidth() {
        // Regression: an over-capacity write used to reserve the shared
        // device path (and draw a latency sample) before the capacity
        // check, so a failed multi-part write inflated the queueing delay
        // of every subsequent op. Two same-seed tiers — one that first
        // rejects a huge write, one that doesn't — must now report
        // byte-identical latency for the same small write.
        let dirty = {
            let e = SimEnv::new(42);
            let t = BlockTier::ebs("ebs", MB, &e);
            let err = t
                .put(&key("huge"), Bytes::from(vec![0u8; 50 * MB as usize]), SimTime::ZERO)
                .unwrap_err();
            assert!(matches!(err, TieraError::TierFull { .. }));
            assert_eq!(t.used(), 0, "failed write must not consume capacity");
            t.put(&key("small"), Bytes::from(vec![0u8; 4096]), SimTime::ZERO).unwrap().latency
        };
        let clean = {
            let e = SimEnv::new(42);
            let t = BlockTier::ebs("ebs", MB, &e);
            t.put(&key("small"), Bytes::from(vec![0u8; 4096]), SimTime::ZERO).unwrap().latency
        };
        assert_eq!(dirty, clean, "rejected write left residue on the device path");
    }

    #[test]
    fn torn_write_rolls_back_capacity_and_contents() {
        let e = env();
        let mem = MemoryTier::same_az("mem", 64 * MB, &e);
        mem.put(&key("k"), Bytes::from_static(b"original"), SimTime::ZERO).unwrap();
        let used_before = mem.used();
        let puts_before = mem.request_counts().puts;
        mem.failures().set_seed(9);
        mem.failures().install(FaultSpec::new(FailureKind::Writes, SimTime::ZERO, None).torn(1.0));
        // Torn overwrite: error, old value and accounting intact.
        let err =
            mem.put(&key("k"), Bytes::from(vec![7u8; 4096]), SimTime::from_secs(1)).unwrap_err();
        assert!(matches!(err, TieraError::Timeout { .. }), "got {err}");
        assert_eq!(mem.used(), used_before);
        // Torn first write: no phantom bytes appear.
        let err =
            mem.put(&key("fresh"), Bytes::from(vec![7u8; 512]), SimTime::from_secs(2)).unwrap_err();
        assert!(matches!(err, TieraError::Timeout { .. }), "got {err}");
        assert!(!mem.contains(&key("fresh")));
        assert_eq!(mem.used(), used_before);
        assert_eq!(mem.request_counts().puts, puts_before, "torn ops not billed");
        mem.failures().clear();
        let (data, _) = mem.get(&key("k"), SimTime::from_secs(3)).unwrap();
        assert_eq!(&data[..], b"original");
    }

    #[test]
    fn values_the_map_replaces_or_removes_reach_the_retire_pool() {
        use tiera_support::bytes::pool_held;
        // A thread of its own, so the pool starts empty.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mem = MemoryTier::same_az("mem", 64 * MB, &env());
                let put = |k: &str, len: usize, t: u64| {
                    mem.put(&key(k), Bytes::from(vec![7u8; len]), SimTime::from_secs(t))
                };
                put("k", 4096, 0).unwrap();
                assert_eq!(pool_held(), Some((0, 0)));
                // Overwrite: the replaced value is the buffer's last handle.
                put("k", 4096, 1).unwrap();
                assert_eq!(pool_held(), Some((1, 4096)));
                // Delete: a reader's handle keeps the value out of the pool
                // until the reader drops it.
                let (read, _) = mem.get(&key("k"), SimTime::from_secs(2)).unwrap();
                mem.delete(&key("k"), SimTime::from_secs(2)).unwrap();
                assert_eq!(pool_held(), Some((1, 4096)));
                drop(read);
                assert_eq!(pool_held(), Some((2, 8192)));
                // Torn write rollback: the value that never became visible.
                mem.failures().set_seed(9);
                mem.failures()
                    .install(FaultSpec::new(FailureKind::Writes, SimTime::ZERO, None).torn(1.0));
                put("t", 2048, 3).unwrap_err();
                assert_eq!(pool_held(), Some((3, 8192 + 2048)));
            })
            .join()
            .expect("pool thread");
        });
    }

    #[test]
    fn transient_full_fails_without_mutation() {
        let e = env();
        let mem = MemoryTier::same_az("mem", 64 * MB, &e);
        mem.failures().set_seed(4);
        mem.failures()
            .install(FaultSpec::new(FailureKind::Writes, SimTime::ZERO, None).transient_full(1.0));
        let err = mem.put(&key("k"), Bytes::from_static(b"v"), SimTime::ZERO).unwrap_err();
        match err {
            TieraError::TierFull { available, .. } => assert_eq!(available, 0),
            e => panic!("expected transient TierFull, got {e}"),
        }
        assert!(!mem.contains(&key("k")));
        assert_eq!(mem.used(), 0);
        mem.failures().clear();
        assert!(mem.put(&key("k"), Bytes::from_static(b"v"), SimTime::ZERO).is_ok());
    }

    #[test]
    fn latency_spike_adds_exactly_the_configured_extra() {
        // The spec draw comes from the injector's own seeded stream, so the
        // tier's latency-model stream is unperturbed and the spiked run
        // differs from the plain run by exactly the configured extra.
        let run = |spike: Option<SimDuration>| {
            let e = SimEnv::new(42);
            let t = MemoryTier::same_az("mem", 64 * MB, &e);
            if let Some(extra) = spike {
                t.failures().set_seed(2);
                t.failures().install(
                    FaultSpec::new(FailureKind::All, SimTime::ZERO, None).spikes(1.0, extra),
                );
            }
            t.put(&key("k"), Bytes::from(vec![0u8; 4096]), SimTime::ZERO).unwrap().latency
        };
        let extra = SimDuration::from_millis(250);
        assert_eq!(run(Some(extra)), run(None) + extra);
    }

    #[test]
    fn monthly_cost_ordering() {
        let e = env();
        let gb = 1024 * MB;
        let mem = MemoryTier::same_az("mem", gb, &e);
        let ebs = BlockTier::ebs("ebs", gb, &e);
        let s3 = ObjectStoreTier::s3("s3", gb, &e);
        let eph = EphemeralTier::new("eph", gb, &e);
        let now = SimTime::ZERO;
        assert!(mem.monthly_cost(now) > 10.0 * ebs.monthly_cost(now));
        assert!(ebs.monthly_cost(now) > s3.monthly_cost(now));
        assert_eq!(eph.monthly_cost(now), 0.0);
    }
}

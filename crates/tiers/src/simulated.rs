//! The generic simulated tier and its four service profiles.

use std::collections::VecDeque;
use std::sync::Arc;

use tiera_support::collections::FxHashMap;
use tiera_support::sync::{rank, Mutex, MutexGuard};
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
    /// Everything an op reads or changes but the fault plane and the
    /// device schedule: `put`, `get` and `delete` each hold it once, from
    /// the reshard check to the latency draw.
    state: Mutex<TierState>,
    /// Memory-cache clusters reshard when a node is added: a matured grow
    /// remaps the key space and roughly `old/new` of cached entries land on
    /// different nodes, turning into cache misses (the paper's Figure 16
    /// warm-up spike).
    reshard_on_grow: bool,
    /// Fast path for small (≤ 1 KiB) writes on block devices: sequential
    /// log appends are absorbed by the device's write cache (`(base
    /// latency, device occupancy)`); database redo logs live on this path.
    small_write: Option<(SimDuration, SimDuration)>,
}

struct TierState {
    /// Fx-hashed: a matured grow picks the entries it drops by walking
    /// this map while drawing from the seeded rng, so the walk order must
    /// be the same in every run (Figure 16's timeline depends on it).
    ///
    /// A value is a whole buffer, not a `Bytes` view (a slot is 40 bytes,
    /// not 56), or a cell of `slab` once the tier holds a small value
    /// alone: the cell costs its bytes rounded up to 16, where a buffer
    /// costs 16 B of header and ≈ 16 B of malloc chunk besides. A buffer
    /// leaves the map only as a `Bytes` (`Bytes::from`), so the last
    /// handle's drop still retires it to the thread's pool.
    map: FxHashMap<ObjectKey, Stored>,
    slab: Slab,
    /// Keys whose small value this tier stored or handed out as a buffer,
    /// oldest first. Each value goes into `slab` at the first call that
    /// finds this tier holding its buffer alone; one still shared with
    /// another holder (a replica, another tier's copy, a request in
    /// flight) holds the queue up until [`PENDING_MAX`] later keys push it
    /// out, and stays a buffer until its next GET queues it again. So
    /// replicas keep costing one payload; a copy taken from a cell is a
    /// payload of its own.
    pending: VecDeque<ObjectKey>,
    used: u64,
    puts: u64,
    gets: u64,
    provisioner: Provisioner,
    /// The latency models' draws, and a reshard's.
    rng: SimRng,
    /// Capacity at the last reshard check.
    last_seen_capacity: u64,
}

impl TierState {
    /// Moves pending values into the slab, oldest first, while this tier
    /// is their buffer's only holder; each buffer then retires to this
    /// thread's pool, where the next copy-in adopts it.
    fn settle(&mut self) {
        while let Some(key) = self.pending.front() {
            if let Some(slot) = self.map.get_mut(key) {
                match slot {
                    // Still held elsewhere: tried again at the next call.
                    Stored::Shared(buf) if fits_cell(buf.len()) && Arc::strong_count(buf) > 1 => {
                        return;
                    }
                    Stored::Shared(buf) if fits_cell(buf.len()) => {
                        let cell = self.slab.store(buf);
                        if let Stored::Shared(buf) = std::mem::replace(slot, cell) {
                            drop(Bytes::from(buf));
                        }
                    }
                    _ => {}
                }
            }
            self.pending.pop_front();
        }
    }

    /// Queues `key`, whose value this tier holds as a buffer small enough
    /// for a cell, for [`TierState::settle`].
    fn note(&mut self, key: &ObjectKey) {
        if self.pending.len() == PENDING_MAX {
            self.pending.pop_front();
        }
        self.pending.push_back(key.clone());
    }

    /// `value`'s bytes as a `Bytes`: the buffer itself, or a copy of the
    /// cell (pool-backed, as every copy-in is).
    fn read(&self, value: &Stored) -> Bytes {
        match value {
            Stored::Shared(buf) => Bytes::from(Arc::clone(buf)),
            Stored::Cell { len, index } => Bytes::copy_from_slice(self.slab.read(*len, *index)),
        }
    }

    /// Takes `key` out of the map, and its bytes out of `used`.
    fn remove(&mut self, key: &ObjectKey) {
        if let Some(value) = self.map.remove(key) {
            self.used -= value.len();
            self.slab.release(value);
        }
    }

    /// Applies the consistent-hashing reshard when a grow has matured:
    /// entries whose keys remap to the new node become cache misses (they
    /// are dropped here; the data's durable copies live in other tiers).
    fn reshard(&mut self, now: SimTime) {
        let cap = self.provisioner.capacity_at(now);
        if cap > self.last_seen_capacity {
            let remapped = 1.0 - (self.last_seen_capacity as f64 / cap as f64);
            let rng = &mut self.rng;
            let keys: Vec<ObjectKey> =
                self.map.keys().filter(|_| rng.chance(remapped)).cloned().collect();
            for k in keys {
                self.remove(&k);
            }
        }
        self.last_seen_capacity = cap;
    }
}

/// Values of 1 to this many bytes go into the slab.
const CELL_MAX: usize = 256;
/// The slab's size classes are this many bytes apart.
const CLASS_STEP: usize = 16;
/// Bytes of one slab page, whatever its class.
const PAGE_BYTES: usize = 8 << 10;
/// Keys a tier queues for the slab at most.
const PENDING_MAX: usize = 64;

fn fits_cell(len: usize) -> bool {
    (1..=CELL_MAX).contains(&len)
}

/// One value a tier holds.
enum Stored {
    /// The buffer `put` was handed, shared with whoever else holds it.
    Shared(Arc<[u8]>),
    /// `len` bytes in cell `index` of the slab's class for `len`.
    Cell { len: u16, index: u32 },
}

impl Stored {
    fn len(&self) -> u64 {
        match self {
            Stored::Shared(buf) => buf.len() as u64,
            Stored::Cell { len, .. } => u64::from(*len),
        }
    }
}

// One per object held: the key (inline when short, else shared with the
// registry) and the value, a cell sitting in the niche of a buffer's
// pointer.
const _: () = assert!(std::mem::size_of::<Stored>() == 16);
const _: () = assert!(std::mem::size_of::<(ObjectKey, Stored)>() <= 40);

/// Small values packed by size: classes of cells [`CLASS_STEP`] bytes
/// apart, each in pages of [`PAGE_BYTES`] allocated as the class fills. A
/// freed cell goes on its class's free list and the class's next value
/// takes it, so a served overwrite grows nothing. A class keeps its pages
/// while it holds any cell, and gives them all back when it holds none.
#[derive(Default)]
struct Slab {
    classes: [Class; CELL_MAX / CLASS_STEP],
}

#[derive(Default)]
struct Class {
    pages: Vec<Box<[u8]>>,
    /// Cells handed out from the front of the pages, freed ones included.
    handed_out: u32,
    /// Cells holding a value.
    live: u32,
    /// The first free cell; a free cell's first four bytes name the next,
    /// `u32::MAX` ending the list.
    free: Option<u32>,
}

impl Slab {
    /// A cell holding `data`, of 1 to [`CELL_MAX`] bytes.
    fn store(&mut self, data: &[u8]) -> Stored {
        let (at, size) = class_of(data.len());
        let class = &mut self.classes[at];
        let index = match class.free {
            Some(index) => {
                let (page, from) = locate(size, index);
                let mut next = [0; 4];
                next.copy_from_slice(&class.pages[page][from..from + 4]);
                class.free = Some(u32::from_le_bytes(next)).filter(|&n| n != u32::MAX);
                index
            }
            None => {
                let index = class.handed_out;
                if locate(size, index).1 == 0 {
                    class.pages.push(vec![0; PAGE_BYTES].into_boxed_slice());
                }
                class.handed_out += 1;
                index
            }
        };
        class.live += 1;
        let (page, from) = locate(size, index);
        class.pages[page][from..from + data.len()].copy_from_slice(data);
        Stored::Cell { len: data.len() as u16, index }
    }

    /// The `len` bytes of cell `index`.
    fn read(&self, len: u16, index: u32) -> &[u8] {
        let len = usize::from(len);
        let (at, size) = class_of(len);
        let (page, from) = locate(size, index);
        &self.classes[at].pages[page][from..from + len]
    }

    /// Gives back a value the map no longer holds: a cell to its class's
    /// free list, a buffer to `Bytes`'s drop, which retires it to the pool.
    fn release(&mut self, value: Stored) {
        match value {
            Stored::Shared(buf) => drop(Bytes::from(buf)),
            Stored::Cell { len, index } => self.free(len, index),
        }
    }

    /// Puts cell `index` of `len`'s class on the class's free list, or
    /// gives the class's pages back if it was the last cell in use.
    fn free(&mut self, len: u16, index: u32) {
        let (at, size) = class_of(usize::from(len));
        let class = &mut self.classes[at];
        class.live -= 1;
        if class.live == 0 {
            *class = Class::default();
            return;
        }
        let (page, from) = locate(size, index);
        let next = class.free.unwrap_or(u32::MAX);
        class.pages[page][from..from + 4].copy_from_slice(&next.to_le_bytes());
        class.free = Some(index);
    }
}

/// The class of a `len`-byte value, and its cell size.
fn class_of(len: usize) -> (usize, usize) {
    let at = (len - 1) / CLASS_STEP;
    (at, (at + 1) * CLASS_STEP)
}

/// The page of cell `index` among `size`-byte cells, and its offset there.
fn locate(size: usize, index: u32) -> (usize, usize) {
    let per_page = PAGE_BYTES / size;
    (index as usize / per_page, index as usize % per_page * size)
}

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
            failures: Arc::new(FailureInjector::new()),
            bandwidth,
            op_occupancy_read: op_occupancy.0,
            op_occupancy_write: op_occupancy.1,
            state: Mutex::named(
                "simtier.state",
                rank::SIMTIER_STATE,
                TierState {
                    map: FxHashMap::default(),
                    slab: Slab::default(),
                    pending: VecDeque::new(),
                    used: 0,
                    puts: 0,
                    gets: 0,
                    provisioner: Provisioner::new(capacity, spawn_delay),
                    rng: env.rng_for(name),
                    last_seen_capacity: capacity,
                },
            ),
            reshard_on_grow,
            small_write,
        }
    }

    /// The tier's state, its pending small values settled first.
    fn state(&self) -> MutexGuard<'_, TierState> {
        let mut st = self.state.lock();
        st.settle();
        st
    }

    /// The tier's state for an op at `now`, settled and, on a memory
    /// cache whose grow has matured, resharded.
    fn state_at(&self, now: SimTime) -> MutexGuard<'_, TierState> {
        let mut st = self.state();
        if self.reshard_on_grow {
            st.reshard(now);
        }
        st
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
            let TierState { map, slab, .. } = &mut *st;
            map.drain().for_each(|(_, value)| slab.release(value));
            st.pending.clear();
            st.used = 0;
        }
    }

    /// Latency of one operation on `bytes`, including queueing on the
    /// shared disk path if any; the access latency is drawn from `st`'s rng.
    ///
    /// Block-style devices are occupied for the *whole* service time
    /// (seek/queue + transfer), which is what makes background replication
    /// contend with foreground IO (paper Figure 14): the device serializes
    /// operations, so a replication stream visibly inflates foreground
    /// latency unless it is bandwidth-capped.
    fn charge(
        &self,
        st: &mut TierState,
        bytes: usize,
        now: SimTime,
        model: &LatencyModel,
        occupancy: SimDuration,
    ) -> SimDuration {
        let base = model.sample(0, &mut st.rng);
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
        self.state.lock().provisioner.capacity_at(now)
    }

    fn used(&self) -> u64 {
        self.state().used
    }

    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
        let mut st = self.state_at(now);
        let st = &mut *st;
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
        let old = st.map.get(key).map(Stored::len).unwrap_or(0);
        let cap = st.provisioner.capacity_at(now);
        if st.used - old + len > cap {
            return Err(TieraError::TierFull {
                tier: self.name.clone(),
                needed: len,
                available: cap.saturating_sub(st.used - old),
            });
        }
        // A torn write mutates nothing: its bytes never become visible.
        if torn_wait.is_none() {
            if fits_cell(data.len()) {
                st.note(key);
            }
            if let Some(prev) = st.map.insert(key.clone(), Stored::Shared(data.into_shared())) {
                st.slab.release(prev);
            }
            st.used = st.used - old + len;
            st.puts += 1;
        }
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
            _ => self.charge(st, len as usize, now, &self.write_model, self.op_occupancy_write),
        };
        if let Some(waited) = torn_wait {
            // The transfer occupied the device, and the client is charged
            // the timeout.
            return Err(TieraError::Timeout { tier: self.name.clone(), waited });
        }
        Ok(OpReceipt::took(latency + spike))
    }

    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
        let mut st = self.state_at(now);
        let st = &mut *st;
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
        st.gets += 1;
        let value = st.map.get(key).ok_or_else(|| TieraError::NoSuchObject(key.to_string()))?;
        let data = st.read(value);
        // A buffer pushed out of the queue while still shared gets another
        // chance once this reader lets go of it.
        if matches!(value, Stored::Shared(buf) if fits_cell(buf.len())) {
            st.note(key);
        }
        let latency = self.charge(st, data.len(), now, &self.read_model, self.op_occupancy_read);
        Ok((data, OpReceipt::took(latency + spike)))
    }

    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        let mut st = self.state();
        let st = &mut *st;
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
        st.remove(key);
        st.puts += 1;
        let latency = self.charge(st, 0, now, &self.write_model, self.op_occupancy_write);
        Ok(OpReceipt::took(latency + spike))
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.state().map.contains_key(key)
    }

    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        self.state.lock().provisioner.grow_percent(now, percent)
    }

    fn shrink(&self, percent: f64, _now: SimTime) {
        self.state.lock().provisioner.shrink_percent(percent);
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
    fn a_small_value_let_go_moves_into_the_slab_and_its_buffer_into_the_pool() {
        use tiera_support::bytes::pool_held;
        let in_cell = |mem: &MemoryTier, k: &str| {
            matches!(mem.state.lock().map.get(&key(k)), Some(Stored::Cell { .. }))
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let mem = MemoryTier::same_az("mem", 64 * MB, &env());
                let t = SimTime::ZERO;
                mem.put(&key("a"), Bytes::from(vec![1u8; 128]), t).unwrap();
                assert!(!in_cell(&mem, "a"), "settled at the tier's next call, not in the PUT");
                assert_eq!(pool_held(), Some((0, 0)));
                // The next call finds the tier the buffer's only holder.
                assert!(mem.contains(&key("a")));
                assert!(in_cell(&mem, "a"));
                assert_eq!(pool_held(), Some((1, 128)));
                let (read, _) = mem.get(&key("a"), t).unwrap();
                assert_eq!(&read[..], &[1u8; 128][..]);
                assert_eq!(pool_held(), Some((0, 0)), "the copy-out adopted the retired buffer");
                drop(read);

                // A buffer the caller keeps stays shared, and the tier never
                // writes through it. It holds the queue up, and moves into
                // the slab once the caller lets go.
                let kept = Bytes::from(vec![2u8; 100]);
                mem.put(&key("b"), kept.clone(), t).unwrap();
                assert_eq!(mem.used(), 228);
                assert!(!in_cell(&mem, "b"));
                let (read, _) = mem.get(&key("b"), t).unwrap();
                assert_eq!(read.as_ptr(), kept.as_ptr(), "a shared value is not copied");
                drop(read);
                mem.put(&key("c"), Bytes::from(vec![3u8; 16]), t).unwrap();
                assert!(mem.contains(&key("c")) && !in_cell(&mem, "c"), "queued behind b");
                drop(kept);
                assert!(mem.contains(&key("b")));
                assert!(in_cell(&mem, "b") && in_cell(&mem, "c"));

                // One still shared when PENDING_MAX later keys come is pushed
                // out of the queue; its next GET queues it again.
                let kept = Bytes::from(vec![4u8; 64]);
                mem.put(&key("p"), kept.clone(), t).unwrap();
                for k in 0..PENDING_MAX {
                    mem.put(&key(&format!("q{k}")), Bytes::from(vec![1u8; 32]), t).unwrap();
                }
                drop(kept);
                assert!(mem.contains(&key("p")) && !in_cell(&mem, "p"));
                assert!(in_cell(&mem, "q0") && in_cell(&mem, &format!("q{}", PENDING_MAX - 1)));
                drop(mem.get(&key("p"), t).unwrap());
                assert!(mem.contains(&key("p")) && in_cell(&mem, "p"));

                // Empty and over-256 B values never enter the slab.
                mem.put(&key("d"), Bytes::new(), t).unwrap();
                mem.put(&key("e"), Bytes::from(vec![5u8; 257]), t).unwrap();
                assert!(mem.contains(&key("e")));
                assert!(!in_cell(&mem, "d") && !in_cell(&mem, "e"));

                // Overwrites take the cell they free, and a class that holds
                // no cell gives its pages back.
                let handed_out = |mem: &MemoryTier| {
                    mem.state.lock().slab.classes.iter().map(|c| c.handed_out).sum::<u32>()
                };
                let pages = |mem: &MemoryTier| {
                    mem.state.lock().slab.classes.iter().map(|c| c.pages.len()).sum::<usize>()
                };
                let (before, pages_before) = (handed_out(&mem), pages(&mem));
                for round in 0..1_000u32 {
                    let k = format!("o{}", round % 10);
                    mem.put(&key(&k), Bytes::from(vec![round as u8; 200]), t).unwrap();
                }
                assert!(mem.contains(&key("o0")));
                assert_eq!(handed_out(&mem), before + 10, "a cell a key, never a second");
                assert_eq!(pages(&mem), pages_before + 1);
                for k in 0..9 {
                    mem.delete(&key(&format!("o{k}")), t).unwrap();
                }
                assert_eq!(pages(&mem), pages_before + 1, "o9 keeps its class's page");
                mem.delete(&key("o9"), t).unwrap();
                assert_eq!((handed_out(&mem), pages(&mem)), (before, pages_before));
                for k in 0..10 {
                    mem.put(&key(&format!("n{k}")), Bytes::from(vec![k; 200]), t).unwrap();
                }
                assert!(mem.contains(&key("n9")));
                assert_eq!(handed_out(&mem), before + 10);
                let small = 128 + 100 + 16 + 64 + PENDING_MAX as u64 * 32;
                assert_eq!(mem.used(), small + 257 + 10 * 200);
                mem.reboot();
                assert_eq!(pages(&mem), 0, "an empty slab keeps no page");
            })
            .join()
            .expect("pool thread");
        });
    }

    #[test]
    fn small_values_from_concurrent_writers_all_reach_the_slab() {
        // Four writers, each still holding its last two values' buffers, as
        // a connection with requests in flight does.
        let mem = MemoryTier::same_az("mem", 64 * MB, &env());
        let names = |w: u8| (0..500).map(move |i| key(&format!("w{w}-{i}")));
        std::thread::scope(|s| {
            for w in 0..4u8 {
                let (mem, names) = (&mem, &names);
                s.spawn(move || {
                    let mut held = VecDeque::new();
                    for k in names(w) {
                        let data = Bytes::from(vec![w; 128]);
                        held.push_back(data.clone());
                        if held.len() > 2 {
                            held.pop_front();
                        }
                        mem.put(&k, data, SimTime::ZERO).unwrap();
                    }
                });
            }
        });
        let cells = |mem: &MemoryTier| {
            assert_eq!(mem.used(), 4 * 500 * 128);
            mem.state.lock().map.values().filter(|v| matches!(v, Stored::Cell { .. })).count()
        };
        let settled = cells(&mem);
        // A key pushed out of the queue while a writer held its buffer
        // settles after its next GET.
        for w in 0..4 {
            for k in names(w) {
                drop(mem.get(&k, SimTime::ZERO).unwrap());
            }
        }
        assert_eq!(cells(&mem), 4 * 500, "{settled} of 2000 settled before the reads");
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

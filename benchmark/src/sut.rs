//! The systems under test: how each workload's stack is built, preloaded,
//! called, counted and torn down. Everything here goes through the public
//! API of the layer it names; nothing inside the program is touched.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiera_cluster::{ClusterNode, Coordinator};
use tiera_core::tier::TierHandle;
use tiera_core::{Instance, InstanceBuilder};
use tiera_rpc::{PipelinedClient, ServerConfig, ServerHandle, TieraClient, TieraServer};
use tiera_sim::{SimDuration, SimEnv, SimTime};
use tiera_spec::{Compiler, ParamValue};
use tiera_support::Bytes;
use tiera_tiers::{default_catalog, BlockTier, MemoryTier};

use crate::stream::{Stream, MULTI_GET_KEYS};

/// Which stack a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One in-process `Instance`: a 1 GiB `MemoryTier`, no rules, metadata
    /// persisted to a fresh directory.
    Embedded,
    /// `specs/lru_spill.tiera` compiled by `tiera_spec::Compiler`.
    LruSpill,
    /// `specs/backup.tiera`, 1 s write-back timer, `pump` every
    /// [`PUMP_EVERY`] ops.
    Backup,
    /// `Coordinator::new(3, 2)` over three in-process nodes.
    Cluster,
    /// `TieraServer` (one request thread) and one `TieraClient`.
    RpcSync,
    /// The same server and one `PipelinedClient`.
    RpcPipe,
}

/// Ops between two `Instance::pump` calls on [`Kind::Backup`].
pub const PUMP_EVERY: u64 = 256;

/// The simulation seed of every system under test. A constant: the program
/// is the same program on every run, only its inputs follow `--seed`.
const ENV_SEED: u64 = 7;

/// Source of `specs/lru_spill.tiera` (also the `spec.compile_us` rung).
pub const LRU_SPILL_SPEC: &str = include_str!("../specs/lru_spill.tiera");
const BACKUP_SPEC: &str = include_str!("../specs/backup.tiera");

/// Where trace files and temporary metadata directories go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under [`out_dir`] that is removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory.
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes in the files directly inside.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is under `out/`, which is ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 1 GiB simulated same-zone Memcached: the whole store of the embedded
/// and rpc workloads.
pub fn memory_tier() -> TierHandle {
    Arc::new(MemoryTier::same_az("mem", 1 << 30, &SimEnv::new(ENV_SEED)))
}

/// A memory-only, rule-free instance: the `core.instance_bare` rung and the
/// instance behind both rpc workloads.
pub fn bare_instance() -> Arc<Instance> {
    InstanceBuilder::new("sut", SimEnv::new(ENV_SEED))
        .tier_handle(memory_tier())
        .build()
        .expect("one tier, no rules")
}

/// A rule-free instance over `tier` with its metadata persisted under
/// `dir`; on a directory that already holds metadata this is a restart.
pub fn meta_instance(dir: &Path, tier: TierHandle) -> Result<Arc<Instance>, String> {
    InstanceBuilder::new("sut", SimEnv::new(ENV_SEED))
        .tier_handle(tier)
        .metadata_dir(dir)
        .build()
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Parses, analyzes and compiles one of the benchmark's own specs.
fn compile(spec_text: &str) -> Arc<Instance> {
    let env = SimEnv::new(ENV_SEED);
    let catalog = default_catalog(&env);
    let spec = tiera_spec::parse(spec_text).expect("benchmark spec parses");
    Compiler::new(&catalog, env)
        .bind("t", ParamValue::Duration(SimDuration::from_secs(1)))
        .compile(&spec)
        .expect("benchmark spec compiles")
}

/// The `lru_spill` instance (also the `core.instance_lru` rung).
pub fn lru_spill_instance() -> Arc<Instance> {
    compile(LRU_SPILL_SPEC)
}

/// `replicas`/`write_quorum` over `nodes` in-process nodes, each a
/// rule-free instance over one simulated EBS volume: durable, as a replica
/// must be, and with a simulated latency, so that a routed read has one.
pub fn cluster(
    nodes: usize,
    replicas: usize,
    write_quorum: usize,
) -> (Coordinator, Vec<Arc<Instance>>) {
    let coord = Coordinator::new(replicas, write_quorum);
    let mut instances = Vec::new();
    for i in 0..nodes {
        let name = format!("node-{i}");
        let env = SimEnv::new(ENV_SEED + i as u64);
        let inst = InstanceBuilder::new(name.as_str(), env.clone())
            .tier(Arc::new(BlockTier::ebs("store", 1 << 30, &env)))
            .build()
            .expect("one tier, no rules");
        instances.push(Arc::clone(&inst));
        coord
            .add_node(ClusterNode::new(name, inst))
            .expect("node names are distinct");
    }
    (coord, instances)
}

/// A server over `inst` with one request thread: the generator on one core
/// and the request thread on the other are all that is ever runnable for
/// long (a `PipelinedClient`'s reader and writer threads mostly wait).
pub fn serve(inst: Arc<Instance>) -> ServerHandle {
    let cfg = ServerConfig {
        request_threads: 1,
        ..ServerConfig::default()
    };
    TieraServer::start(inst, "127.0.0.1:0", cfg).expect("loopback server starts")
}

enum Front {
    Instance {
        inst: Arc<Instance>,
        pump_every: u64,
        since_pump: u64,
    },
    Cluster(Box<Coordinator>),
    RpcSync(TieraClient),
    RpcPipe(PipelinedClient),
}

/// Bytes a read returned, in whichever container the layer hands back.
pub enum Got {
    /// `Instance` and `Coordinator` reads.
    Shared(Bytes),
    /// rpc client reads.
    Owned(Vec<u8>),
}

impl Got {
    /// The payload.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Got::Shared(b) => b.as_slice(),
            Got::Owned(v) => v,
        }
    }
}

/// A read's payload and the simulated latency the middleware charged, ns.
pub type ReadResult = Result<(Got, u64), String>;

/// Counters read from the program's own public statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Reads every instance has served.
    pub reads: u64,
    /// Of those, reads served by the instance's first tier.
    pub first_tier_hits: u64,
    /// Policy events fired.
    pub events: u64,
    /// Policy responses run.
    pub responses: u64,
    /// PUT-class requests the second tier has received.
    pub tier2_puts: u64,
    /// `Tier::used()` summed over every tier of every instance.
    pub stored_bytes: u64,
    /// Logical ÷ physical bytes of the first payload-transforming tier.
    pub compression_ratio: f64,
    /// Dedup hits ÷ (hits + unique blobs) over all content-addressed tiers.
    pub dedup_hit_rate: f64,
    /// Bytes in the metadata directory.
    pub meta_disk_bytes: u64,
}

/// One workload's stack, preloaded and ready for its op stream. Dropping it
/// tears the stack down: fields drop in declaration order, so the client in
/// `front` disconnects before the server shuts down and joins its threads.
pub struct Sut {
    front: Front,
    /// The rpc workloads' server; it lives as long as the client.
    server: Option<ServerHandle>,
    instances: Vec<Arc<Instance>>,
    now: SimTime,
    meta_dir: Option<TempDir>,
}

impl Sut {
    /// Builds the stack for `kind`, preloads every key of `stream` at its
    /// initial stamp through the stack's own write path (the instance's, on
    /// the rpc workloads), and connects.
    pub fn setup(kind: Kind, stream: &Stream) -> Result<Self, String> {
        let mut meta_dir = None;
        let (front, instances) = match kind {
            Kind::Embedded => {
                let dir = TempDir::new("meta").map_err(|e| format!("metadata dir: {e}"))?;
                let inst = meta_instance(dir.path(), memory_tier())?;
                meta_dir = Some(dir);
                (instance_front(&inst, 0), vec![inst])
            }
            Kind::LruSpill => {
                let inst = lru_spill_instance();
                (instance_front(&inst, 0), vec![inst])
            }
            Kind::Backup => {
                let inst = compile(BACKUP_SPEC);
                (instance_front(&inst, PUMP_EVERY), vec![inst])
            }
            Kind::Cluster => {
                let (coord, instances) = cluster(3, 3, 2);
                (Front::Cluster(Box::new(coord)), instances)
            }
            // The store is loaded before the server starts, as a deployment
            // restores its data before it takes traffic.
            Kind::RpcSync | Kind::RpcPipe => {
                let inst = bare_instance();
                (instance_front(&inst, 0), vec![inst])
            }
        };
        let mut sut = Self {
            front,
            server: None,
            instances,
            now: SimTime::ZERO,
            meta_dir,
        };
        let mut buf = Vec::new();
        for k in 0..stream.shape().keys {
            stream.fill(k, stream.stamp(k), &mut buf);
            sut.put(k, stream, &buf)
                .map_err(|e| format!("preload key {k}: {e}"))?;
            sut.after_op().map_err(|e| format!("preload pump: {e}"))?;
        }
        if matches!(kind, Kind::RpcSync | Kind::RpcPipe) {
            let addr = sut
                .server
                .insert(serve(Arc::clone(&sut.instances[0])))
                .addr();
            let connect_err = |e| format!("connect: {e}");
            sut.front = if kind == Kind::RpcSync {
                Front::RpcSync(TieraClient::connect(addr).map_err(connect_err)?)
            } else {
                Front::RpcPipe(PipelinedClient::connect(addr).map_err(connect_err)?)
            };
        }
        Ok(sut)
    }

    /// Span name of the call a GET makes.
    pub fn get_span(&self) -> &'static str {
        match self.front {
            Front::Instance { .. } => "call.core.instance.get",
            Front::Cluster(_) => "call.cluster.coordinator.get",
            Front::RpcSync(_) | Front::RpcPipe(_) => "call.rpc.client.get",
        }
    }

    /// Span name of the call a PUT makes.
    pub fn put_span(&self) -> &'static str {
        match self.front {
            Front::Instance { .. } => "call.core.instance.put",
            Front::Cluster(_) => "call.cluster.coordinator.put",
            Front::RpcSync(_) | Front::RpcPipe(_) => "call.rpc.client.put",
        }
    }

    /// Reads one key. The simulated clock advances by the charged latency:
    /// the caller is a closed-loop client in simulated time too.
    pub fn get(&mut self, key: u32, stream: &Stream) -> ReadResult {
        let k = key as usize;
        match &mut self.front {
            Front::Instance { inst, .. } => {
                let (data, receipt) = inst
                    .get(stream.object_keys[k].clone(), self.now)
                    .map_err(|e| e.to_string())?;
                self.now += receipt.latency;
                Ok((Got::Shared(data), receipt.latency.as_nanos()))
            }
            Front::Cluster(coord) => {
                let (data, latency) = coord
                    .get(&stream.names[k], self.now)
                    .map_err(|e| e.to_string())?;
                self.now += latency;
                Ok((Got::Shared(data), latency.as_nanos()))
            }
            Front::RpcSync(client) => {
                let (data, receipt) = client.get(&stream.names[k]).map_err(|e| e.to_string())?;
                Ok((Got::Owned(data), receipt.latency.as_nanos()))
            }
            Front::RpcPipe(client) => {
                let token = client
                    .submit_get(&stream.names[k])
                    .map_err(|e| e.to_string())?;
                let (data, receipt) = client.wait_get(token).map_err(|e| e.to_string())?;
                Ok((Got::Owned(data), receipt.latency.as_nanos()))
            }
        }
    }

    /// Overwrites one key with `data`; returns the simulated latency, ns.
    pub fn put(&mut self, key: u32, stream: &Stream, data: &[u8]) -> Result<u64, String> {
        let k = key as usize;
        match &mut self.front {
            Front::Instance { inst, .. } => {
                let receipt = inst
                    .put(stream.object_keys[k].clone(), data, self.now)
                    .map_err(|e| e.to_string())?;
                self.now += receipt.latency;
                Ok(receipt.latency.as_nanos())
            }
            Front::Cluster(coord) => {
                let latency = coord
                    .put(&stream.names[k], Bytes::copy_from_slice(data), self.now)
                    .map_err(|e| e.to_string())?;
                self.now += latency;
                Ok(latency.as_nanos())
            }
            Front::RpcSync(client) => client
                .put(&stream.names[k], data)
                .map(|r| r.latency.as_nanos())
                .map_err(|e| e.to_string()),
            Front::RpcPipe(client) => {
                let token = client
                    .submit_put(&stream.names[k], data)
                    .map_err(|e| e.to_string())?;
                client
                    .wait_put(token)
                    .map(|r| r.latency.as_nanos())
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// The routed batch read, or `None` where the stack has no such call
    /// (the caller then reads the keys one by one).
    pub fn multi_get(
        &mut self,
        keys: &[u32; MULTI_GET_KEYS],
        stream: &Stream,
    ) -> Option<Vec<ReadResult>> {
        let Front::Cluster(coord) = &mut self.front else {
            return None;
        };
        let names: Vec<&str> = keys
            .iter()
            .map(|&k| stream.names[k as usize].as_str())
            .collect();
        let results = coord.multi_get(&names, self.now);
        let mut slowest = SimDuration::ZERO;
        let out = results
            .into_iter()
            .map(|r| {
                r.map(|(data, latency)| {
                    slowest = slowest.max(latency);
                    (Got::Shared(data), latency.as_nanos())
                })
                .map_err(|e| e.to_string())
            })
            .collect();
        self.now += slowest;
        Some(out)
    }

    /// Housekeeping the driver owes the stack after each op: on
    /// [`Kind::Backup`], `Instance::pump` every [`PUMP_EVERY`] ops.
    pub fn after_op(&mut self) -> Result<(), String> {
        if let Front::Instance {
            inst,
            pump_every,
            since_pump,
        } = &mut self.front
        {
            if *pump_every > 0 {
                *since_pump += 1;
                if *since_pump == *pump_every {
                    *since_pump = 0;
                    inst.pump(self.now).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// Whether `after_op` will pump on its next call (so a traced driver
    /// can time it).
    pub fn pump_due(&self) -> bool {
        matches!(&self.front, Front::Instance { pump_every, since_pump, .. }
            if *pump_every > 0 && since_pump + 1 == *pump_every)
    }

    /// The pipelined client, on [`Kind::RpcPipe`].
    pub fn pipelined(&mut self) -> Option<&mut PipelinedClient> {
        match &mut self.front {
            Front::RpcPipe(client) => Some(client),
            _ => None,
        }
    }

    /// Reads the program's public counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            compression_ratio: 1.0,
            ..Counters::default()
        };
        for inst in &self.instances {
            let names = inst.tier_names();
            let hits = inst.stats().tier_read_hits();
            c.reads += inst.stats().reads().count;
            c.first_tier_hits += names
                .first()
                .and_then(|n| hits.get(n))
                .copied()
                .unwrap_or(0);
            let (events, responses, _) = inst.stats().dispatch_counters();
            c.events += events;
            c.responses += responses;
            for (i, name) in names.iter().enumerate() {
                if let Ok(tier) = inst.tier(name) {
                    c.stored_bytes += tier.used();
                    if i == 1 {
                        c.tier2_puts += tier.request_counts().puts;
                    }
                }
            }
            if let Some((_, first)) = inst.capacity_profiles().first() {
                c.compression_ratio = first.compression_ratio();
            }
            c.dedup_hit_rate = inst.capacity_summary().dedup_hit_rate();
        }
        c.meta_disk_bytes = self.meta_dir.as_ref().map_or(0, TempDir::disk_bytes);
        c
    }
}

fn instance_front(inst: &Arc<Instance>, pump_every: u64) -> Front {
    Front::Instance {
        inst: Arc::clone(inst),
        pump_every,
        since_pump: 0,
    }
}

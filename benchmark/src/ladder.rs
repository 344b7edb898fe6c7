//! The layer ladder: the first [`LADDER_OPS`] ops of the
//! `embedded-read-heavy` stream — same keys, same 1 KiB payload, same mix —
//! replayed against each rung's public API, one rung at a time. A layer's
//! cost is the difference between a rung and the rung it stands on.
//!
//! Beside the rungs sit the micro-measurements of layers the replay cannot
//! isolate (codec, tier wrappers, wire format, metastore, spec compiler).
//! Every number is a median of per-call times taken with `Instant` around
//! the public call; throughputs are medians over repeats.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tiera_cluster::Coordinator;
use tiera_codec::{lzss, sha256};
use tiera_core::event::EventKind;
use tiera_core::meta::ObjectMeta;
use tiera_core::registry::Registry;
use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_core::tier::{MemTier, Tier, TierHandle};
use tiera_core::{Instance, InstanceBuilder, ObjectKey, Rule};
use tiera_metastore::MetaStore;
use tiera_rpc::proto::{Request, Response};
use tiera_rpc::{LocalClient, PipelinedClient, TieraClient};
use tiera_sim::{SimDuration, SimEnv, SimTime};
use tiera_support::Bytes;
use tiera_tiers::{default_catalog, BlockTier};
use tiera_tierx::{CompressedTier, DedupTier};

use crate::measure::{median, percentile};
use crate::stream::{Op, Shape, Stream, MULTI_GET_KEYS};
use crate::sut::{self, TempDir};
use crate::workloads::WORKLOADS;

/// Ops each rung replays.
pub const LADDER_OPS: usize = 50_000;

/// One rung: median GET and PUT cost of one public call at that layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Rung name; its metrics are `<name>.get_ns` and `<name>.put_ns`.
    pub name: &'static str,
    /// The rung it stands on, if the difference between the two is a layer.
    pub over: Option<&'static str>,
    /// Median GET, ns.
    pub get_ns: f64,
    /// Median PUT, ns.
    pub put_ns: f64,
}

/// Everything the ladder pass measured.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    /// The rungs, bottom first.
    pub rungs: Vec<Rung>,
    /// Every per-layer metric the pass produces, by name.
    pub metrics: Vec<(String, f64)>,
}

impl Ladder {
    fn rung(
        &mut self,
        name: &'static str,
        over: Option<&'static str>,
        (get_ns, put_ns): (f64, f64),
    ) {
        self.rungs.push(Rung {
            name,
            over,
            get_ns,
            put_ns,
        });
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn value(&self, metric: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == metric)
            .expect("metric was measured")
            .1
    }

    fn get(&self, rung: &str) -> &Rung {
        self.rungs
            .iter()
            .find(|r| r.name == rung)
            .expect("rung was measured")
    }

    /// The rungs as a table: rung, get ns, put ns, and the delta to the rung
    /// it stands on.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<22} {:>10} {:>10}  {:<20} {:>10} {:>10}\n",
            "rung", "get ns", "put ns", "over", "d get", "d put"
        );
        for r in &self.rungs {
            let (over, dg, dp) = match r.over {
                Some(base) => {
                    let b = self.get(base);
                    (
                        base,
                        format!("{:+.0}", r.get_ns - b.get_ns),
                        format!("{:+.0}", r.put_ns - b.put_ns),
                    )
                }
                None => ("-", String::new(), String::new()),
            };
            out += &format!(
                "{:<22} {:>10.0} {:>10.0}  {:<20} {:>10} {:>10}\n",
                r.name, r.get_ns, r.put_ns, over, dg, dp
            );
        }
        out
    }
}

fn median_ns(samples: &mut [u32]) -> f64 {
    samples.sort_unstable();
    percentile(samples, 0.5)
}

fn elapsed_ns(since: Instant) -> u32 {
    since.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// Replays `ops`, timing each `call(key, is_put)`; returns the median GET
/// and PUT times in ns.
fn replay(ops: &[(u32, bool)], mut call: impl FnMut(u32, bool)) -> (f64, f64) {
    let (mut gets, mut puts) = (Vec::with_capacity(ops.len()), Vec::new());
    for &(key, is_put) in ops {
        let t = Instant::now();
        call(key, is_put);
        let ns = elapsed_ns(t);
        if is_put { &mut puts } else { &mut gets }.push(ns);
    }
    (median_ns(&mut gets), median_ns(&mut puts))
}

/// Median ns of `n` timed calls of `call(i)`.
fn time_calls(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        call(i);
        samples.push(elapsed_ns(t));
    }
    median_ns(&mut samples)
}

/// Milliseconds `work` takes.
fn time_ms<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = work();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// What every rung shares: the replayed ops, the keys and one payload.
struct Inputs {
    ops: Vec<(u32, bool)>,
    stream: Stream,
    payload: Vec<u8>,
}

impl Inputs {
    fn key(&self, k: u32) -> ObjectKey {
        self.stream.object_keys[k as usize].clone()
    }

    fn name(&self, k: u32) -> &str {
        &self.stream.names[k as usize]
    }

    fn keys(&self) -> u32 {
        self.stream.shape().keys
    }
}

fn tier_rung(tier: &dyn Tier, inp: &Inputs) -> (f64, f64) {
    // The clock advances by each receipt, as it does under an instance: a
    // simulated device queues requests that arrive at the same instant.
    let mut now = SimTime::ZERO;
    for k in 0..inp.keys() {
        let receipt = tier.put(&inp.key(k), Bytes::copy_from_slice(&inp.payload), now);
        now += receipt.expect("preload fits the tier").latency;
    }
    replay(&inp.ops, |k, is_put| {
        let key = &inp.stream.object_keys[k as usize];
        now = now
            + if is_put {
                tier.put(key, Bytes::copy_from_slice(&inp.payload), now)
                    .expect("tier put")
                    .latency
            } else {
                black_box(tier.get(key, now)).expect("tier get").1.latency
            };
    })
}

fn instance_rung(inst: &Instance, inp: &Inputs) -> (f64, f64) {
    let mut now = SimTime::ZERO;
    for k in 0..inp.keys() {
        now = now
            + inst
                .put(inp.key(k), &inp.payload[..], now)
                .expect("preload put")
                .latency;
    }
    replay(&inp.ops, |k, is_put| {
        let key = inp.key(k);
        now = now
            + if is_put {
                inst.put(key, &inp.payload[..], now)
                    .expect("instance put")
                    .latency
            } else {
                black_box(inst.get(key, now))
                    .expect("instance get")
                    .1
                    .latency
            };
    })
}

fn coordinator_rung(coord: &Coordinator, inp: &Inputs) -> (f64, f64) {
    let mut now = SimTime::ZERO;
    let put = |k: u32, now: SimTime| {
        coord
            .put(inp.name(k), Bytes::copy_from_slice(&inp.payload), now)
            .expect("routed put")
    };
    for k in 0..inp.keys() {
        now = now + put(k, now);
    }
    replay(&inp.ops, |k, is_put| {
        now = now
            + if is_put {
                put(k, now)
            } else {
                black_box(coord.get(inp.name(k), now))
                    .expect("routed get")
                    .1
            };
    })
}

/// Wall-clock ns per op of a `PipelinedClient` keeping `window` requests in
/// flight (fill to the window, redeem half): median over ten chunks.
fn pipelined_op_ns(
    client: &mut PipelinedClient,
    window: usize,
    ops: &[(u32, bool)],
    inp: &Inputs,
) -> f64 {
    let mut tokens = VecDeque::with_capacity(window);
    let per_chunk: Vec<f64> = ops
        .chunks(ops.len().div_ceil(10))
        .map(|chunk| {
            let start = Instant::now();
            for &(k, is_put) in chunk {
                let token = if is_put {
                    client.submit_put(inp.name(k), &inp.payload)
                } else {
                    client.submit_get(inp.name(k))
                };
                tokens.push_back(token.expect("submit"));
                if tokens.len() >= window {
                    for _ in 0..window.div_ceil(2) {
                        let token = tokens.pop_front().expect("window is full");
                        black_box(client.wait(token)).expect("wait");
                    }
                }
            }
            while let Some(token) = tokens.pop_front() {
                black_box(client.wait(token)).expect("drain");
            }
            start.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    median(&per_chunk)
}

/// MB/s of `work` over `bytes` input bytes: median of five repeats.
fn mb_per_s(bytes: usize, mut work: impl FnMut()) -> f64 {
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            work();
            bytes as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Runs the whole ladder pass. `scale` divides key and op counts (1 for a
/// real run, 50 for smoke).
pub fn run(seed: u64, scale: u32) -> Result<Ladder, String> {
    let embedded = &WORKLOADS[0];
    let shape = Shape {
        keys: embedded.shape.keys / scale,
        ..embedded.shape
    };
    let mut stream = Stream::new(shape, seed);
    let mut ops = Vec::with_capacity(LADDER_OPS / scale as usize);
    while ops.len() < LADDER_OPS / scale as usize {
        match stream.next_op() {
            Op::Get(k) => ops.push((k, false)),
            Op::Put(k) => ops.push((k, true)),
            Op::MultiGet(_) => {}
        }
    }
    let mut payload = Vec::new();
    stream.fill(0, 1, &mut payload);
    let inp = Inputs {
        ops,
        stream,
        payload,
    };
    let mut l = Ladder::default();

    // ---- tiers: bare `Tier` calls ----
    let env = SimEnv::new(7);
    l.rung(
        "tiers.memory",
        None,
        tier_rung(sut::memory_tier().as_ref(), &inp),
    );
    l.rung(
        "tiers.block",
        None,
        tier_rung(&BlockTier::ebs("ebs", 1 << 30, &env), &inp),
    );

    // ---- core: the registry alone ----
    {
        let registry = Registry::in_memory();
        let now = SimTime::ZERO;
        let meta = || {
            let mut m = ObjectMeta::new(inp.payload.len() as u64, now);
            m.locations.insert("mem".to_string());
            m
        };
        for k in 0..inp.keys() {
            registry.upsert(inp.key(k), meta());
        }
        let mut touch = Vec::with_capacity(inp.ops.len());
        let (get, upsert) = replay(&inp.ops, |k, is_put| {
            let key = &inp.stream.object_keys[k as usize];
            if is_put {
                registry.upsert(key.clone(), meta());
            } else {
                black_box(registry.get(key));
            }
        });
        for &(k, is_put) in &inp.ops {
            if !is_put {
                let key = &inp.stream.object_keys[k as usize];
                let t = Instant::now();
                black_box(registry.touch(key, now));
                touch.push(elapsed_ns(t));
            }
        }
        l.metric("core.registry.get_ns", get);
        l.metric("core.registry.touch_ns", median_ns(&mut touch));
        l.metric("core.registry.upsert_ns", upsert);
    }

    // ---- core: instances; rpc: the three transports over the bare one ----
    let bare = sut::bare_instance();
    l.rung(
        "core.instance_bare",
        Some("tiers.memory"),
        instance_rung(&bare, &inp),
    );
    l.rung(
        "core.instance_lru",
        Some("core.instance_bare"),
        instance_rung(&sut::lru_spill_instance(), &inp),
    );
    {
        let dir = TempDir::new("ladder-meta").map_err(|e| format!("metadata dir: {e}"))?;
        let tier = sut::memory_tier();
        let inst = sut::meta_instance(dir.path(), Arc::clone(&tier))?;
        l.rung(
            "core.instance_meta",
            Some("core.instance_bare"),
            instance_rung(&inst, &inp),
        );
        // Restart: what the metadata directory buys. First the store alone,
        // then a rebuilt instance until the last key has been read back.
        inst.registry().sync().map_err(|e| format!("sync: {e}"))?;
        drop(inst);
        let (store, ms) = time_ms(|| MetaStore::open(dir.path()));
        drop(store.map_err(|e| format!("reopen: {e}"))?);
        l.metric("metastore.reopen_ms", ms);
        let (read_back, ms) = time_ms(|| {
            let inst = sut::meta_instance(dir.path(), tier)?;
            for k in 0..inp.keys() {
                let (data, _) = inst
                    .get(inp.key(k), SimTime::ZERO)
                    .map_err(|e| format!("reopen: {e}"))?;
                if data.as_slice() != inp.payload {
                    return Err(format!("reopen: key {k} came back with other bytes"));
                }
            }
            Ok(())
        });
        read_back?;
        l.metric("core.instance_meta.reopen_ms", ms);
    }
    {
        // One timer rule re-copying `mem.oldest` in place: each pump
        // evaluates timers, fires one, runs one index-driven response.
        let env = SimEnv::new(7);
        let inst = InstanceBuilder::new("sut", env)
            .tier_handle(sut::memory_tier())
            .rule(
                Rule::on(EventKind::timer(SimDuration::from_secs(1))).respond(ResponseSpec::copy(
                    Selector::OldestIn("mem".into()),
                    ["mem"],
                )),
            )
            .build()
            .map_err(|e| e.to_string())?;
        for k in 0..inp.keys().min(10_000) {
            inst.put(inp.key(k), &inp.payload[..], SimTime::ZERO)
                .map_err(|e| e.to_string())?;
        }
        let ticks = time_calls(inp.ops.len() / 4, |i| {
            black_box(inst.pump(SimTime::from_secs(i as u64 + 1))).expect("pump");
        });
        l.metric("core.pump.tick_ns", ticks);
    }
    {
        let local = LocalClient::new(Arc::clone(&bare));
        let call = |k: u32, is_put: bool| {
            if is_put {
                local.put(inp.name(k), &inp.payload).expect("local put");
            } else {
                black_box(local.get(inp.name(k))).expect("local get");
            }
        };
        l.rung(
            "rpc.local",
            Some("core.instance_bare"),
            replay(&inp.ops, call),
        );

        let server = sut::serve(Arc::clone(&bare));
        let mut sync = TieraClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let call = |k: u32, is_put: bool| {
            if is_put {
                sync.put(inp.name(k), &inp.payload).expect("tcp put");
            } else {
                black_box(sync.get(inp.name(k))).expect("tcp get");
            }
        };
        l.rung("rpc.tcp_sync", Some("rpc.local"), replay(&inp.ops, call));
        drop(sync);

        let mut piped =
            PipelinedClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        l.metric(
            "rpc.tcp_pipe1.op_ns",
            pipelined_op_ns(&mut piped, 1, &inp.ops, &inp),
        );
        l.metric(
            "rpc.tcp_pipe16.op_ns",
            pipelined_op_ns(&mut piped, 16, &inp.ops, &inp),
        );
        l.metric(
            "rpc.tcp_pipe128.op_ns",
            pipelined_op_ns(&mut piped, 128, &inp.ops, &inp),
        );
        drop(piped);
        server.shutdown();
    }

    // ---- cluster: the coordinator over one node, then over three ----
    l.rung(
        "cluster.single",
        Some("core.instance_bare"),
        coordinator_rung(&sut::cluster(1, 1, 1).0, &inp),
    );
    {
        let (coord, _) = sut::cluster(3, 3, 2);
        l.rung(
            "cluster.r3w2",
            Some("cluster.single"),
            coordinator_rung(&coord, &inp),
        );
        let gets: Vec<u32> = inp.ops.iter().filter(|o| !o.1).map(|o| o.0).collect();
        let batches: Vec<Vec<&str>> = gets
            .chunks_exact(MULTI_GET_KEYS)
            .take(inp.ops.len() / 64)
            .map(|c| c.iter().map(|&k| inp.name(k)).collect())
            .collect();
        // Far enough ahead that the volumes' queues have drained.
        let mut now = SimTime::from_secs(1 << 20);
        let call_ns = time_calls(batches.len(), |i| {
            let results = black_box(coord.multi_get(&batches[i], now));
            let slowest = results
                .into_iter()
                .flatten()
                .map(|(_, latency)| latency)
                .max();
            now += slowest.expect("every key was preloaded");
        });
        l.metric("cluster.multi_get16.call_ns", call_ns);
    }

    // ---- metastore: direct calls with ObjectMeta-sized values ----
    {
        let dir = TempDir::new("ladder-store").map_err(|e| format!("metastore dir: {e}"))?;
        let store = MetaStore::open(dir.path()).map_err(|e| format!("metastore open: {e}"))?;
        let mut meta = ObjectMeta::new(inp.payload.len() as u64, SimTime::ZERO);
        meta.locations.insert("mem".to_string());
        let value = meta.encode();
        for k in 0..inp.keys() {
            store
                .put(inp.name(k).as_bytes(), &value)
                .map_err(|e| format!("metastore put: {e}"))?;
        }
        let (get, put) = replay(&inp.ops, |k, is_put| {
            if is_put {
                store
                    .put(inp.name(k).as_bytes(), &value)
                    .expect("metastore put");
            } else {
                black_box(store.get(inp.name(k).as_bytes()));
            }
        });
        l.metric("metastore.get_ns", get);
        l.metric("metastore.put_ns", put);
    }

    // ---- codec and tierx: over the backup-write-heavy block pool ----
    {
        let backup = WORKLOADS[2].shape;
        let pool_stream = Stream::new(backup, seed);
        // The whole pool; an eighth of it in smoke.
        let blocks: Vec<Vec<u8>> = (0..crate::stream::POOL_BLOCKS / scale.min(8))
            .map(|b| {
                let mut buf = Vec::new();
                pool_stream.fill(0, b, &mut buf);
                buf
            })
            .collect();
        let bytes = blocks.len() * backup.value_bytes;
        let packed: Vec<Vec<u8>> = blocks.iter().map(|b| lzss::compress(b)).collect();
        l.metric(
            "codec.lzss.compress_mb_per_s",
            mb_per_s(bytes, || {
                blocks
                    .iter()
                    .for_each(|b| drop(black_box(lzss::compress(b))))
            }),
        );
        l.metric(
            "codec.lzss.decompress_mb_per_s",
            mb_per_s(bytes, || {
                packed
                    .iter()
                    .for_each(|p| drop(black_box(lzss::decompress(p))))
            }),
        );
        l.metric(
            "codec.sha256.mb_per_s",
            mb_per_s(bytes, || {
                blocks.iter().for_each(|b| {
                    black_box(sha256::digest(b));
                })
            }),
        );

        let now = SimTime::ZERO;
        let keys: Vec<ObjectKey> = (0..blocks.len() * 4)
            .map(|i| ObjectKey::new(format!("blk{i:06}")))
            .collect();
        let backing = |name: &str| -> TierHandle { MemTier::with_capacity(name, 1 << 30) };
        let compressed = CompressedTier::new(backing("c"));
        let put = time_calls(keys.len(), |i| {
            compressed
                .put(
                    &keys[i],
                    Bytes::copy_from_slice(&blocks[i % blocks.len()]),
                    now,
                )
                .expect("compressed put");
        });
        let get = time_calls(keys.len(), |i| {
            black_box(compressed.get(&keys[i], now)).expect("compressed get");
        });
        l.metric("tierx.compressed.put_ns", put);
        l.metric("tierx.compressed.get_ns", get);

        // Miss: content the tier has not seen (hash + store). Hit: the same
        // content under a second key (hash + refcount).
        let dedup = DedupTier::new(backing("d"));
        let miss = time_calls(blocks.len(), |i| {
            dedup
                .put(&keys[i], Bytes::copy_from_slice(&blocks[i]), now)
                .expect("dedup put");
        });
        let hit = time_calls(blocks.len() * 3, |i| {
            dedup
                .put(
                    &keys[blocks.len() + i],
                    Bytes::copy_from_slice(&blocks[i % blocks.len()]),
                    now,
                )
                .expect("dedup put");
        });
        l.metric("tierx.dedup.put_miss_ns", miss);
        l.metric("tierx.dedup.put_hit_ns", hit);
    }

    // ---- spec: parse + analyze + compile of lru_spill.tiera ----
    {
        let env = SimEnv::new(7);
        let catalog = default_catalog(&env);
        let compile_ns = time_calls(40, |_| {
            let spec = tiera_spec::parse(sut::LRU_SPILL_SPEC).expect("spec parses");
            black_box(tiera_spec::Compiler::new(&catalog, env.clone()).compile(&spec))
                .expect("spec compiles");
        });
        l.metric("spec.compile_us", compile_ns / 1e3);
    }

    // ---- rpc wire format: one 1 KiB PUT request, one 1 KiB GET reply ----
    {
        let request = Request::Put {
            key: inp.name(0).to_string(),
            value: inp.payload.clone(),
            tags: Vec::new(),
        };
        let response = Response::GetOk {
            value: inp.payload.clone(),
            latency_ns: 250_000,
            served_by: "mem".to_string(),
        };
        let (req_bytes, resp_bytes) = (request.encode(), response.encode());
        let n = inp.ops.len() / 2;
        l.metric(
            "rpc.proto.encode_request_ns",
            time_calls(n, |_| drop(black_box(request.encode()))),
        );
        l.metric(
            "rpc.proto.decode_request_ns",
            time_calls(n, |_| drop(black_box(Request::decode(&req_bytes)))),
        );
        l.metric(
            "rpc.proto.encode_response_ns",
            time_calls(n, |_| drop(black_box(response.encode()))),
        );
        l.metric(
            "rpc.proto.decode_response_ns",
            time_calls(n, |_| drop(black_box(Response::decode(&resp_bytes)))),
        );
    }

    // ---- rung metrics and the layers that fall out as differences ----
    for r in l.rungs.clone() {
        l.metric(&format!("{}.get_ns", r.name), r.get_ns);
        l.metric(&format!("{}.put_ns", r.name), r.put_ns);
    }
    let bare = l.get("core.instance_bare").clone();
    let self_get = bare.get_ns
        - l.value("core.registry.get_ns")
        - l.value("core.registry.touch_ns")
        - l.get("tiers.memory").get_ns;
    l.metric("core.instance.self_get_ns", self_get);
    l.metric(
        "core.policy.self_put_ns",
        l.get("core.instance_lru").put_ns - bare.put_ns,
    );
    l.metric(
        "metastore.self_get_ns",
        l.get("core.instance_meta").get_ns - bare.get_ns,
    );
    l.metric(
        "metastore.self_put_ns",
        l.get("core.instance_meta").put_ns - bare.put_ns,
    );
    l.metric(
        "rpc.local.self_get_ns",
        l.get("rpc.local").get_ns - bare.get_ns,
    );
    l.metric(
        "rpc.tcp_sync.self_get_ns",
        l.get("rpc.tcp_sync").get_ns - l.get("rpc.local").get_ns,
    );
    l.metric(
        "cluster.self_get_ns",
        l.get("cluster.r3w2").get_ns - l.get("cluster.single").get_ns,
    );
    Ok(l)
}

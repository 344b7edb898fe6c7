//! The six workloads. Names are fixed: later issues cite them.

use crate::stream::{Dist, Payload, Shape};
use crate::sut::Kind;

/// One workload: a stack, an op stream shape, and how it is sliced.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The fixed name.
    pub name: &'static str,
    /// Why it exists: which layers do the work and which sit idle.
    pub why: &'static str,
    /// The stack.
    pub kind: Kind,
    /// The op stream.
    pub shape: Shape,
    /// Ops per slice; every timing metric is a median over slices. Sized so
    /// a slice is 50 to 150 ms at this commit's speed and holds at least
    /// 50 samples beyond the 95th percentile of either op type.
    pub slice_ops: u64,
    /// Slices to the checkpoint at which the exact metrics (hit ratio,
    /// simulated latency, bytes stored, policy counts) are read. A fixed op
    /// count, so those metrics repeat bit for bit whatever the speed; a
    /// third to a half of what a run of [`crate::DEFAULT_SECONDS`] completes
    /// when the box is undisturbed.
    pub checkpoint_slices: u64,
}

impl Workload {
    /// Ops from the end of warm-up to the checkpoint.
    pub fn checkpoint_ops(&self) -> u64 {
        self.slice_ops * self.checkpoint_slices
    }
}

/// All workloads, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "embedded-read-heavy",
        why: "Metadata hot path alone: registry get/touch, Instance::get, stats stripe, metastore append per touch. Fits the fast tier; policy, rpc, cluster, tierx idle.",
        kind: Kind::Embedded,
        shape: Shape {
            keys: 100_000,
            value_bytes: 1024,
            put_pct: 5,
            multi_get_pct: 0,
            dist: Dist::Zipfian,
            payload: Payload::Patterned,
        },
        slice_ops: 20_000,
        checkpoint_slices: 40,
    },
    Workload {
        name: "lru-spill-4k",
        why: "Same core path, writes beside reads, working set 4x the cache: every PUT into a full tier1 runs move(tier1.oldest -> tier2). Policy match, responses, order indexes, two tiers.",
        kind: Kind::LruSpill,
        shape: Shape {
            keys: 32_768,
            value_bytes: 4096,
            put_pct: 50,
            multi_get_pct: 0,
            dist: Dist::Zipfian,
            payload: Payload::Patterned,
        },
        slice_ops: 10_000,
        checkpoint_slices: 80,
    },
    Workload {
        name: "backup-write-heavy",
        why: "Payload-bound and write-heavy: lzss, sha256, crc32, the tierx wrappers and the write-back pump do the work; the only workload where bytes stored are in play.",
        kind: Kind::Backup,
        shape: Shape {
            keys: 8_192,
            value_bytes: 8192,
            put_pct: 70,
            multi_get_pct: 0,
            dist: Dist::Uniform,
            payload: Payload::Pool,
        },
        slice_ops: 1_500,
        checkpoint_slices: 20,
    },
    Workload {
        name: "cluster-r3w2-mixed",
        why: "Ring lookup, replica fan-out, quorum ack, meta-first read and read-repair scan over three in-process nodes; 5% of calls are multi_get(16). rpc, metastore, policy idle.",
        kind: Kind::Cluster,
        shape: Shape {
            keys: 50_000,
            value_bytes: 1024,
            put_pct: 15,
            multi_get_pct: 5,
            dist: Dist::Zipfian,
            payload: Payload::Patterned,
        },
        slice_ops: 10_000,
        checkpoint_slices: 40,
    },
    Workload {
        name: "rpc-sync-small",
        why: "Per-message cost at the smallest payload, one request in flight: framing, encode/decode, two syscalls and a thread hand-off per op. What a synchronous application thread sees.",
        kind: Kind::RpcSync,
        shape: Shape {
            keys: 100_000,
            value_bytes: 128,
            put_pct: 5,
            multi_get_pct: 0,
            dist: Dist::Zipfian,
            payload: Payload::Patterned,
        },
        slice_ops: 20_000,
        // Few: when the hypervisor is slow to wake the other CPU (60 us a
        // round trip, not 8) the checkpoint alone would take 18 s.
        checkpoint_slices: 5,
    },
    Workload {
        name: "rpc-pipe16-4k",
        why: "The rpc layer used the other way: 16 requests in flight on one connection, 4 KiB payloads; the v2 reader/writer split, write coalescing and per-byte copies. A bulk loader's view.",
        kind: Kind::RpcPipe,
        shape: Shape {
            keys: 10_000,
            value_bytes: 4096,
            put_pct: 50,
            multi_get_pct: 0,
            dist: Dist::Uniform,
            payload: Payload::Patterned,
        },
        slice_ops: 8_000,
        checkpoint_slices: 30,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

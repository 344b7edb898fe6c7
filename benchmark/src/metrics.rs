//! The metric tables: name, unit, direction and, for end-to-end metrics, the
//! bound by which the median may worsen before it is a regression.
//! `BENCHMARK.json` at the repository root carries the same tables; a test
//! holds the two together.

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The fixed name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may get worse.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

/// What a user of the system sees, on every workload, and what `compare`
/// and the PR driver hold a change to.
///
/// Only what repeats is here. The simulated GET latency is the paper's
/// y-axis: what the tiers charged for the reads of the stream, a pure
/// function of the seed. Wall-clock and CPU time are not: the virtual
/// machine this was written on ran `embedded-read-heavy` at 76 k, 111 k and
/// 160 k ops/s within one afternoon, and CPU time per op moved with it. So
/// throughput, latency percentiles and CPU time per op are per-layer metrics
/// (`client.*`): reported by every traced run, judged by interleaved runs of
/// two builds, gated by nobody. `setup_s` is the one wall-clock time kept,
/// because the driver's contract asks for it; it has the widest bound the
/// contract allows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_get_mean_us", "us", false, 0.02),
    e2e("fast_tier_hit_ratio", "ratio", true, 0.01),
    e2e("stored_bytes_per_user_byte", "ratio", false, 0.01),
    e2e("peak_rss_mb", "MiB", false, 0.05),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers; no bound. Medians in ns unless the unit says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    // The workload as its one client sees it, in wall-clock time: medians
    // over slices, then the tails over every op of the untraced segment.
    higher("client.ops_per_s", "ops/s"),
    lower("client.get_p50_us", "us"),
    lower("client.put_p50_us", "us"),
    lower("client.cpu_us_per_op", "us"),
    lower("client.get_p95_us", "us"),
    lower("client.put_p95_us", "us"),
    lower("client.get_p99_us", "us"),
    lower("client.put_p99_us", "us"),
    lower("client.get_p999_us", "us"),
    lower("client.put_p999_us", "us"),
    // Counts on the workload itself, exact with one client.
    lower("core.stats.events_per_op", "count"),
    lower("core.stats.responses_per_op", "count"),
    lower("tiers.tier2.puts_per_user_put", "count"),
    higher("tierx.compression_ratio", "ratio"),
    higher("tierx.dedup_hit_rate", "ratio"),
    lower("metastore.disk_bytes_per_op", "bytes"),
    higher("trace.overhead_ratio", "ratio"),
    // The ladder.
    lower("tiers.memory.get_ns", "ns"),
    lower("tiers.memory.put_ns", "ns"),
    lower("tiers.block.get_ns", "ns"),
    lower("tiers.block.put_ns", "ns"),
    lower("core.registry.get_ns", "ns"),
    lower("core.registry.touch_ns", "ns"),
    lower("core.registry.upsert_ns", "ns"),
    lower("core.instance_bare.get_ns", "ns"),
    lower("core.instance_bare.put_ns", "ns"),
    lower("core.instance_lru.get_ns", "ns"),
    lower("core.instance_lru.put_ns", "ns"),
    lower("core.instance_meta.get_ns", "ns"),
    lower("core.instance_meta.put_ns", "ns"),
    lower("core.instance_meta.reopen_ms", "ms"),
    lower("core.pump.tick_ns", "ns"),
    lower("core.instance.self_get_ns", "ns"),
    lower("core.policy.self_put_ns", "ns"),
    lower("metastore.self_get_ns", "ns"),
    lower("metastore.self_put_ns", "ns"),
    lower("metastore.get_ns", "ns"),
    lower("metastore.put_ns", "ns"),
    lower("metastore.reopen_ms", "ms"),
    higher("codec.lzss.compress_mb_per_s", "MB/s"),
    higher("codec.lzss.decompress_mb_per_s", "MB/s"),
    higher("codec.sha256.mb_per_s", "MB/s"),
    lower("tierx.compressed.get_ns", "ns"),
    lower("tierx.compressed.put_ns", "ns"),
    lower("tierx.dedup.put_hit_ns", "ns"),
    lower("tierx.dedup.put_miss_ns", "ns"),
    lower("spec.compile_us", "us"),
    lower("rpc.proto.encode_request_ns", "ns"),
    lower("rpc.proto.decode_request_ns", "ns"),
    lower("rpc.proto.encode_response_ns", "ns"),
    lower("rpc.proto.decode_response_ns", "ns"),
    lower("rpc.local.get_ns", "ns"),
    lower("rpc.local.put_ns", "ns"),
    lower("rpc.local.self_get_ns", "ns"),
    lower("rpc.tcp_sync.get_ns", "ns"),
    lower("rpc.tcp_sync.put_ns", "ns"),
    lower("rpc.tcp_sync.self_get_ns", "ns"),
    lower("rpc.tcp_pipe1.op_ns", "ns"),
    lower("rpc.tcp_pipe16.op_ns", "ns"),
    lower("rpc.tcp_pipe128.op_ns", "ns"),
    lower("cluster.single.get_ns", "ns"),
    lower("cluster.single.put_ns", "ns"),
    lower("cluster.r3w2.get_ns", "ns"),
    lower("cluster.r3w2.put_ns", "ns"),
    lower("cluster.self_get_ns", "ns"),
    lower("cluster.multi_get16.call_ns", "ns"),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

//! # tiera-benchmark — one benchmark for the whole stack
//!
//! Six named workloads, each a closed-loop, seeded op stream against one
//! configuration of the stack, every read checked against an oracle; a layer
//! ladder that replays one stream against each layer's public API; and a
//! `compare` gate over two result files. See `README.md` beside this crate
//! for the metric glossary and how the numbers interact.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. Nothing under `crates/` is changed or instrumented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod ladder;
pub mod measure;
pub mod metrics;
pub mod stream;
pub mod sut;
pub mod trace;
pub mod workloads;

use std::time::Instant;

use driver::{Driver, Phase, SliceStat};
use ladder::Ladder;
use measure::{percentile, Spread};
use stream::{Shape, Stream};
use sut::Sut;
use trace::{NameTotals, Tracer};
use workloads::Workload;

/// Seconds a run measures for when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke` divides op counts by this.
pub const SMOKE_SCALE: u64 = 50;
/// Set-ups per untraced run, `setup_s` being their median: at least
/// `SETUPS_MIN`, then more until they add up to `SETUPS_SECONDS` or there are
/// `SETUPS_MAX` (a 40 ms set-up repeats less steadily than a 1 s one).
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 15;
const SETUPS_SECONDS: f64 = 3.0;
/// Slices the traced segment records spans for.
const TRACE_SLICES: u64 = 5;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the op stream.
    pub seed: u64,
    /// Wall-clock seconds to measure for (the run also always reaches the
    /// workload's checkpoint).
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: an untraced segment, a traced
    /// segment whose spans go to `out/trace-<workload>.jsonl`, and the
    /// per-layer metrics.
    pub trace: bool,
    /// With `trace`: also run the ladder pass.
    pub ladder: bool,
    /// Op counts ÷ [`SMOKE_SCALE`], half the keys, one set-up, no time
    /// target: the code paths of a real run in a second or so.
    pub smoke: bool,
}

impl RunConfig {
    /// The op stream's shape: the workload's, with half the keys in smoke
    /// (still twice the cache on `lru-spill-4k`).
    fn shape(&self) -> Shape {
        let shape = self.workload.shape;
        Shape {
            keys: if self.smoke {
                shape.keys / 2
            } else {
                shape.keys
            },
            ..shape
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`metrics::END_TO_END`] or [`metrics::PER_LAYER`].
    pub name: String,
    /// Unit from the same table.
    pub unit: &'static str,
    /// Value and the spread it was taken from.
    pub spread: Spread,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted, sweep included.
    pub attempted: u64,
    /// Operations that failed or returned bytes the oracle rejects.
    pub failed: u64,
    /// The first failure, if any.
    pub first_error: Option<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Hash of every op the stream generated.
    pub stream_hash: u64,
    /// Stream ops completed in the measured phase.
    pub ops: u64,
    /// The exact metrics, whichever of them this run reports.
    pub exact: Exact,
    /// The ladder pass, if it ran.
    pub ladder: Option<Ladder>,
    /// Per-span-name totals of the traced segment.
    pub span_totals: Vec<NameTotals>,
}

impl RunResult {
    /// Whether every op succeeded and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.spread.value.is_finite())
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line the driver reads: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics` (name → value, unit). Names and
    /// units come from the metric tables and need no escaping; a value that
    /// is not a number (which also makes `correct` false) is `null`.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = match m.spread.value {
                    v if v.is_finite() => v.to_string(),
                    _ => "null".to_string(),
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
        .unit
}

fn metric(name: &str, spread: Spread) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit_of(name),
        spread,
    }
}

fn over_slices(phase: &Phase, pick: impl Fn(&SliceStat) -> f64) -> Spread {
    Spread::of(&phase.slices.iter().map(pick).collect::<Vec<_>>())
}

/// The exact metrics: counts between the start of the measured phase and the
/// checkpoint, a fixed number of ops later. An untraced run reports the first
/// three and a traced run the rest, but both compute them all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// `sim_get_mean_us`.
    pub sim_get_mean_us: f64,
    /// `fast_tier_hit_ratio`.
    pub fast_tier_hit_ratio: f64,
    /// `stored_bytes_per_user_byte`.
    pub stored_bytes_per_user_byte: f64,
    /// `core.stats.events_per_op`.
    pub events_per_op: f64,
    /// `core.stats.responses_per_op`.
    pub responses_per_op: f64,
    /// `tiers.tier2.puts_per_user_put`.
    pub tier2_puts_per_user_put: f64,
    /// `tierx.compression_ratio`.
    pub compression_ratio: f64,
    /// `tierx.dedup_hit_rate`.
    pub dedup_hit_rate: f64,
    /// `metastore.disk_bytes_per_op`.
    pub meta_disk_bytes_per_op: f64,
}

fn exact(phase: &Phase, shape: &Shape) -> Exact {
    let (t0, c0) = phase.start;
    let (t1, c1) = phase
        .checkpoint
        .expect("a phase runs at least to its checkpoint");
    let per = |num: u64, den: u64| num as f64 / den as f64;
    let ops = t1.ops - t0.ops;
    Exact {
        sim_get_mean_us: per(t1.sim_get_ns - t0.sim_get_ns, t1.gets - t0.gets) / 1e3,
        fast_tier_hit_ratio: per(c1.first_tier_hits - c0.first_tier_hits, c1.reads - c0.reads),
        stored_bytes_per_user_byte: per(
            c1.stored_bytes,
            shape.keys as u64 * shape.value_bytes as u64,
        ),
        events_per_op: per(c1.events - c0.events, ops),
        responses_per_op: per(c1.responses - c0.responses, ops),
        tier2_puts_per_user_put: per(c1.tier2_puts - c0.tier2_puts, t1.puts - t0.puts),
        compression_ratio: c1.compression_ratio,
        dedup_hit_rate: c1.dedup_hit_rate,
        meta_disk_bytes_per_op: (c1.meta_disk_bytes as f64 - c0.meta_disk_bytes as f64)
            / ops as f64,
    }
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    if tiera_support::sync::LOCKCHECK {
        return Err(
            "refusing to measure: tiera-support was built with the lockcheck sanitizer".into(),
        );
    }
    let w = cfg.workload;
    let scale = if cfg.smoke { SMOKE_SCALE } else { 1 };
    let slice_ops = (w.slice_ops / scale).max(16);
    let seconds = if cfg.smoke { 0.0 } else { cfg.seconds };
    std::fs::create_dir_all(sut::out_dir())
        .map_err(|e| format!("create {}: {e}", sut::out_dir().display()))?;

    let (sut, stream, first_setup_s) = timed_setup(cfg)?;
    let mut driver = Driver::new(sut, stream);

    // Warm-up: the preload plus one slice, discarded.
    driver.run_slice(slice_ops);

    let (measured, mut values, ladder, span_totals);
    if !cfg.trace {
        measured = driver.run_phase(slice_ops, seconds, w.checkpoint_slices, w.checkpoint_slices);
        (values, ladder, span_totals) = (Vec::new(), None, Vec::new());
    } else {
        // Untraced segment first: the baseline the traced one is compared
        // with, the exact counts, and enough samples for the tails.
        driver.all_latencies = Some((Vec::new(), Vec::new()));
        measured = driver.run_phase(
            slice_ops,
            seconds / 2.0,
            w.checkpoint_slices,
            w.checkpoint_slices,
        );
        let (mut gets, mut puts) = driver.all_latencies.take().expect("set above");
        gets.sort_unstable();
        puts.sort_unstable();

        driver.tracer = Some(Tracer::new());
        let traced = driver.run_phase(slice_ops, 0.0, TRACE_SLICES, 0);
        driver.drain();
        let tracer = driver.tracer.take().expect("set above");
        let path = sut::out_dir().join(format!("trace-{}.jsonl", w.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        span_totals = tracer.totals();

        let rate = |p: &Phase| over_slices(p, |s| s.ops_per_s).value;
        values = vec![
            metric("client.ops_per_s", over_slices(&measured, |s| s.ops_per_s)),
            metric(
                "client.get_p50_us",
                over_slices(&measured, |s| s.get_p50_us),
            ),
            metric(
                "client.put_p50_us",
                over_slices(&measured, |s| s.put_p50_us),
            ),
            metric(
                "client.cpu_us_per_op",
                over_slices(&measured, |s| s.cpu_us_per_op),
            ),
            metric(
                "client.get_p95_us",
                over_slices(&measured, |s| s.get_p95_us),
            ),
            metric(
                "client.put_p95_us",
                over_slices(&measured, |s| s.put_p95_us),
            ),
            metric(
                "client.get_p99_us",
                Spread::exact(percentile(&gets, 0.99) / 1e3),
            ),
            metric(
                "client.put_p99_us",
                Spread::exact(percentile(&puts, 0.99) / 1e3),
            ),
            metric(
                "client.get_p999_us",
                Spread::exact(percentile(&gets, 0.999) / 1e3),
            ),
            metric(
                "client.put_p999_us",
                Spread::exact(percentile(&puts, 0.999) / 1e3),
            ),
            metric(
                "trace.overhead_ratio",
                Spread::exact(rate(&traced) / rate(&measured)),
            ),
        ];
        ladder = match cfg.ladder {
            true => Some(ladder::run(cfg.seed, scale as u32)?),
            false => None,
        };
        let from_ladder = ladder.iter().flat_map(|l| &l.metrics);
        values.extend(from_ladder.map(|(n, v)| metric(n, Spread::exact(*v))));
    }

    let x = exact(&measured, &cfg.shape());
    let exact_values: &[(&str, f64)] = if cfg.trace {
        &[
            ("core.stats.events_per_op", x.events_per_op),
            ("core.stats.responses_per_op", x.responses_per_op),
            ("tiers.tier2.puts_per_user_put", x.tier2_puts_per_user_put),
            ("tierx.compression_ratio", x.compression_ratio),
            ("tierx.dedup_hit_rate", x.dedup_hit_rate),
            ("metastore.disk_bytes_per_op", x.meta_disk_bytes_per_op),
        ]
    } else {
        &[
            ("sim_get_mean_us", x.sim_get_mean_us),
            ("fast_tier_hit_ratio", x.fast_tier_hit_ratio),
            ("stored_bytes_per_user_byte", x.stored_bytes_per_user_byte),
        ]
    };
    values.extend(
        exact_values
            .iter()
            .map(|(n, v)| metric(n, Spread::exact(*v))),
    );

    driver.sweep();
    let Driver {
        sut,
        stream,
        tally,
        first_error,
        ..
    } = driver;
    drop(sut);
    if !cfg.trace {
        // Read at the checkpoint: after the same ops on every run, and while
        // one stack is all the process has ever held (VmHWM only grows, and
        // how much of a torn-down stack's memory the allocator hands to the
        // next one varies from run to run).
        values.push(metric(
            "peak_rss_mb",
            Spread::exact(measured.checkpoint_peak_rss_mib),
        ));
        // Set-up time is itself a gated metric, so set up several times:
        // more often where one set-up is short.
        let mut setup_s = vec![first_setup_s];
        while !cfg.smoke
            && (setup_s.len() < SETUPS_MIN
                || (setup_s.len() < SETUPS_MAX && setup_s.iter().sum::<f64>() < SETUPS_SECONDS))
        {
            let (sut, _, seconds) = timed_setup(cfg)?;
            drop(sut);
            setup_s.push(seconds);
        }
        values.push(metric("setup_s", Spread::of(&setup_s)));
    }

    // Report in the order of the metric tables.
    let tables = || metrics::END_TO_END.iter().chain(metrics::PER_LAYER);
    values.sort_by_key(|m| tables().position(|d| d.name == m.name));
    Ok(RunResult {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        first_error,
        metrics: values,
        stream_hash: stream.hash(),
        ops: measured.ops,
        exact: x,
        ladder,
        span_totals,
    })
}

/// Builds the stack, preloads it and connects; returns how long that took,
/// in seconds.
fn timed_setup(cfg: &RunConfig) -> Result<(Sut, Stream, f64), String> {
    let start = Instant::now();
    let stream = Stream::new(cfg.shape(), cfg.seed);
    let sut = Sut::setup(cfg.workload.kind, &stream)?;
    Ok((sut, stream, start.elapsed().as_secs_f64()))
}

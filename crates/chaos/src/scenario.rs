//! Chaos scenarios: YCSB/OLTP-shaped load driven through a seeded fault
//! schedule, followed by quiesce, invariant checking, and a steady-state
//! recovery probe.
//!
//! A scenario is a pure function of its [`ChaosConfig`]: the same config
//! (in particular the same seed) replays the identical fault schedule,
//! op sequence, and event log. A failing run therefore reports exactly one
//! thing to remember — the seed — and its report prints the
//! `scenario::run` call that reproduces it.
//!
//! The [`Stack`] picks the tiers the instance sees. [`Stack::Raw`] drives
//! the simulated tiers directly. [`Stack::Wrapped`] puts the `tiera-tierx`
//! wrappers in the data path — the cache transparently lzss-compressed, the
//! durable tier behind the canonical dedup-over-compressed stack — and
//! extends the invariant sweep with the wrapper contract:
//!
//! 1. Everything the ledger already checks (no acked write lost, no
//!    phantom metadata, aggregates == recount) holds with the transforms
//!    in the chain, including under injected tier faults.
//! 2. **Refcounts never strand a live key's blob**:
//!    [`DedupTier::check_integrity`] comes back clean after the run.
//! 3. The run is not vacuous: the compressed cache reports a
//!    logical/physical split and the dedup store reports unique blobs.
//!
//! The wrapped payload mix alternates compressible templates (which
//! collapse under both lzss and dedup) with YCSB's incompressible
//! `record_value` payloads (which exercise the per-object raw-fallback
//! path), all derived from the seed so runs replay byte for byte.

use std::sync::Arc;

use tiera_core::monitor::FailureMonitor;
use tiera_core::prelude::*;
use tiera_sim::SimEnv;
use tiera_support::Bytes;
use tiera_tiers::{BlockTier, MemoryTier, ObjectStoreTier};
use tiera_tierx::{CompressedTier, DedupTier};
use tiera_workloads::dist::KeyChooser;
use tiera_workloads::ycsb::{record_key, record_value};

use crate::invariants::{InvariantReport, WriteLedger};
use crate::schedule::FaultSchedule;

/// The workload shape a chaos run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Write-through: every PUT lands synchronously in cache + EBS
    /// (Figure 3's write-through variant; the Figure 17 shape).
    WriteThrough,
    /// Write-back: PUTs land in cache only; a 30 s timer persists dirty
    /// data to EBS (Figure 15's shape).
    WriteBack,
    /// OLTP-style mix: zipfian keys, 50 % reads, write-back persistence.
    OltpMix,
}

impl ScenarioKind {
    /// Stable name used in event logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::WriteThrough => "write-through",
            ScenarioKind::WriteBack => "write-back",
            ScenarioKind::OltpMix => "oltp-mix",
        }
    }

    /// Every scenario kind, in report order.
    pub fn all() -> [ScenarioKind; 3] {
        [
            ScenarioKind::WriteThrough,
            ScenarioKind::WriteBack,
            ScenarioKind::OltpMix,
        ]
    }
}

/// The tiers a chaos run's instance is built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The simulated tiers themselves.
    Raw,
    /// The cache behind `CompressedTier`, EBS behind
    /// `DedupTier(CompressedTier)`; S3 stays raw.
    Wrapped,
}

impl Stack {
    /// Instance name; also the prefix of the load rng stream and of the
    /// report header.
    fn name(self) -> &'static str {
        match self {
            Stack::Raw => "chaos",
            Stack::Wrapped => "wrapped-chaos",
        }
    }

    /// The value the run writes for `(key_idx, op)`. Raw: distinct bytes
    /// per (key, op), so checksum mismatches catch torn or stale values,
    /// not just lost keys. Wrapped: about half the time a compressible
    /// template shared by every eighth key instead.
    fn payload(self, key_idx: u64, op: u64, size: usize) -> Bytes {
        if self == Stack::Wrapped && (key_idx ^ op).is_multiple_of(2) {
            let phrase = format!("tiera wrapped-chaos template {} ", key_idx % 8);
            let bytes: Vec<u8> = phrase.bytes().cycle().take(size).collect();
            return Bytes::from(bytes);
        }
        record_value(key_idx ^ op.wrapping_mul(0x9e37_79b9), size)
    }
}

/// Configuration for one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the fault schedule, the injectors, and the op stream.
    pub seed: u64,
    /// Workload shape.
    pub kind: ScenarioKind,
    /// Tiers the instance sees.
    pub stack: Stack,
    /// Distinct keys addressed.
    pub records: u64,
    /// Operations issued in the fault phase.
    pub ops: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Virtual-time horizon the fault schedule is generated against; all
    /// generated faults clear by 60 % of it.
    pub horizon: SimDuration,
}

impl ChaosConfig {
    /// The configuration for `seed` over the raw stack.
    pub fn new(seed: u64, kind: ScenarioKind) -> Self {
        Self {
            seed,
            kind,
            stack: Stack::Raw,
            records: 512,
            ops: 1500,
            value_size: 1024,
            horizon: SimDuration::from_secs(240),
        }
    }
}

/// The result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The seed that reproduces this run.
    pub seed: u64,
    /// Workload shape that ran.
    pub kind: ScenarioKind,
    /// Tiers it ran over.
    pub stack: Stack,
    /// Write operations issued.
    pub writes_issued: u64,
    /// Writes the instance acknowledged.
    pub writes_acked: u64,
    /// Writes the instance failed.
    pub writes_failed: u64,
    /// Reads that returned data.
    pub reads_ok: u64,
    /// Reads that failed (including reads of never-written keys).
    pub reads_failed: u64,
    /// FAILURE_ALERT events the instance emitted.
    pub alerts: u64,
    /// Times the failure monitor saw trouble.
    pub monitor_signals: u64,
    /// Whether the steady-state probe after quiesce fully succeeded.
    pub recovered: bool,
    /// Invariant check results (includes inline read-verification
    /// violations).
    pub invariants: InvariantReport,
    /// Deterministic event log: two runs with the same config produce
    /// byte-identical logs (the replay contract).
    pub event_log: Vec<String>,
}

impl ChaosOutcome {
    /// Whether the run upheld the storage contract and recovered.
    pub fn ok(&self) -> bool {
        self.recovered && self.invariants.ok()
    }

    /// A human-readable report; embeds the seed and the replay call.
    pub fn report(&self) -> String {
        let config = format!("ChaosConfig::new({}, {:?})", self.seed, self.kind);
        let replay = match self.stack {
            Stack::Raw => config,
            Stack::Wrapped => format!("ChaosConfig {{ stack: Stack::Wrapped, ..{config} }}"),
        };
        let mut out = format!(
            "{} {} seed={} — {}\n  replay: scenario::run(&{replay})\n",
            self.stack.name(),
            self.kind.name(),
            self.seed,
            if self.ok() { "OK" } else { "FAILED" },
        );
        out.push_str(&format!(
            "  writes: {} issued, {} acked, {} failed; reads: {} ok, {} failed; alerts: {}; recovered: {}\n",
            self.writes_issued,
            self.writes_acked,
            self.writes_failed,
            self.reads_ok,
            self.reads_failed,
            self.alerts,
            self.recovered,
        ));
        for v in &self.invariants.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        for line in &self.event_log {
            out.push_str(&format!("  | {line}\n"));
        }
        out
    }
}

/// The wrapped stack's handles, kept for the post-run wrapper checks.
struct Wrappers {
    cache: Arc<CompressedTier>,
    store: Arc<DedupTier>,
}

impl Wrappers {
    /// The wrapper contract: dedup refcounts intact, and both transforms
    /// actually exercised. Ends with the profile line for the event log.
    fn check(&self, invariants: &mut InvariantReport, event_log: &mut Vec<String>) {
        for problem in self.store.check_integrity() {
            invariants
                .violations
                .push(format!("dedup integrity (ebs): {problem}"));
        }
        let cache = self.cache.capacity_profile().unwrap_or_default();
        let store = self.store.capacity_profile().unwrap_or_default();
        if cache.objects > 0 && cache.objects == cache.raw_fallback_objects {
            invariants.violations.push(
                "compressed cache never compressed anything — payload mix is broken".into(),
            );
        }
        if store.objects > 0 && store.unique_blobs == 0 {
            invariants
                .violations
                .push("dedup store holds keys but no blobs".into());
        }
        event_log.push(format!(
            "wrapper profiles: cache logical={} physical={} raw_fallback={} | \
             store blobs={} dedup_hits={}",
            cache.logical_bytes,
            cache.physical_bytes,
            cache.raw_fallback_objects,
            store.unique_blobs,
            store.dedup_hits
        ));
    }
}

/// Pumps `instance` to `t`, logging a failed tick: its metadata did not
/// become durable.
fn pump_logged(instance: &Instance, t: SimTime, event_log: &mut Vec<String>) {
    if let Err(e) = instance.pump(t) {
        event_log.push(format!("pump at t={:.3}s failed: {e}", t.as_secs_f64()));
    }
}

/// Runs one chaos scenario to completion.
pub fn run(cfg: &ChaosConfig) -> ChaosOutcome {
    let env = SimEnv::new(cfg.seed);
    // The raw tiers keep the fault injectors whichever stack the instance
    // sees.
    let mem = Arc::new(MemoryTier::same_az("memcached", 64 << 20, &env));
    let ebs = Arc::new(BlockTier::ebs("ebs", 256 << 20, &env));
    let s3 = Arc::new(ObjectStoreTier::s3("s3", 1 << 30, &env));
    let wrappers = (cfg.stack == Stack::Wrapped).then(|| Wrappers {
        cache: CompressedTier::new(mem.clone()),
        store: DedupTier::new(CompressedTier::new(ebs.clone())),
    });
    let (cache, store): (TierHandle, TierHandle) = match &wrappers {
        None => (mem.clone(), ebs.clone()),
        Some(w) => (w.cache.clone(), w.store.clone()),
    };

    let builder = InstanceBuilder::new(cfg.stack.name(), env.clone())
        .tier_handle(cache)
        .tier_handle(store)
        .tier(Arc::clone(&s3));
    let builder = match cfg.kind {
        ScenarioKind::WriteThrough => builder.rule(
            Rule::on(EventKind::action(ActionOp::Put)).respond(ResponseSpec::store(
                Selector::Inserted,
                ["memcached", "ebs"],
            )),
        ),
        ScenarioKind::WriteBack | ScenarioKind::OltpMix => builder
            .rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
            )
            .rule(
                Rule::on(EventKind::timer(SimDuration::from_secs(30))).respond(
                    ResponseSpec::copy(
                        Selector::InTier("memcached".into()).and(Selector::Dirty),
                        ["ebs"],
                    ),
                ),
            ),
    };
    let instance = builder.build().expect("chaos instance builds");
    instance.set_retry_policy(RetryPolicy::robust());

    // S3 is deliberately left out of the schedule: it is the failover
    // target of last resort, so every generated schedule is survivable.
    let schedule = FaultSchedule::random(cfg.seed, &["memcached", "ebs"], cfg.horizon);
    let injectors = [("memcached", mem.failures()), ("ebs", ebs.failures())];
    let injector_refs: Vec<(&str, &tiera_sim::FailureInjector)> = injectors
        .iter()
        .map(|(n, i)| (*n, i.as_ref() as &tiera_sim::FailureInjector))
        .collect();
    schedule.apply(&injector_refs);

    let mut event_log: Vec<String> = schedule
        .describe()
        .lines()
        .map(|l| l.trim_start().to_string())
        .collect();

    let mut monitor =
        FailureMonitor::new(Arc::clone(&instance), SimDuration::from_secs(60), u32::MAX, |_| {})
            .observing_alerts();

    let mut ledger = WriteLedger::new();
    let mut inline = InvariantReport::default();
    let mut outcome_counts = (0u64, 0u64, 0u64, 0u64, 0u64); // issued, acked, failed, reads_ok, reads_failed

    let chooser = match cfg.kind {
        ScenarioKind::OltpMix => KeyChooser::zipfian(cfg.records),
        _ => KeyChooser::uniform(cfg.records),
    };
    let read_proportion = match cfg.kind {
        ScenarioKind::OltpMix => 0.5,
        _ => 0.25,
    };
    let mut rng = env.rng_for(&format!("{}-load", cfg.stack.name()));
    let mut monitor_signals = 0u64;
    let mut t = SimTime::ZERO;
    for op in 0..cfg.ops {
        let key_idx = chooser.next(&mut rng);
        let key = record_key(key_idx);
        if rng.chance(read_proportion) {
            match instance.get(key.as_str(), t) {
                Ok((data, receipt)) => {
                    t += receipt.latency;
                    outcome_counts.3 += 1;
                    if !ledger.verify_read(&key, &data) {
                        inline.violations.push(format!(
                            "mid-run read of key={key} returned bytes outside the acknowledged set"
                        ));
                    }
                }
                Err(_) => {
                    outcome_counts.4 += 1;
                    t += SimDuration::from_millis(250);
                }
            }
        } else {
            let value = cfg.stack.payload(key_idx, op, cfg.value_size);
            outcome_counts.0 += 1;
            match instance.put(key.as_str(), value.clone(), t) {
                Ok(r) => {
                    t += r.latency;
                    outcome_counts.1 += 1;
                    ledger.record_ack(&key, &value);
                }
                Err(_) => {
                    outcome_counts.2 += 1;
                    ledger.record_failure(&key, &value);
                    t += SimDuration::from_millis(250);
                }
            }
        }
        if op % 16 == 0 {
            pump_logged(&instance, t, &mut event_log);
            monitor_signals += monitor
                .tick(t)
                .iter()
                .filter(|o| !matches!(o, tiera_core::monitor::ProbeOutcome::Healthy))
                .count() as u64;
        }
    }
    event_log.push(format!(
        "load-phase done: issued={} acked={} failed={} reads_ok={} reads_failed={} t={:.3}s",
        outcome_counts.0,
        outcome_counts.1,
        outcome_counts.2,
        outcome_counts.3,
        outcome_counts.4,
        t.as_secs_f64()
    ));

    // ---- quiesce: clear the fault plane, let deadlines and queues drain.
    schedule.clear(&injector_refs);
    if let Some(clears) = schedule.clears_by() {
        if t < clears {
            t = clears;
        }
    }
    t += SimDuration::from_secs(1);
    let mut drain_rounds = 0u32;
    loop {
        t += SimDuration::from_secs(31); // past the 30 s write-back timer
        pump_logged(&instance, t, &mut event_log);
        let dirty = instance.registry().select(&Selector::Dirty, None, t);
        if instance.background_depth() == 0 && dirty.is_empty() {
            break;
        }
        drain_rounds += 1;
        if drain_rounds > 64 {
            event_log.push(format!(
                "quiesce stalled: background_depth={} dirty={}",
                instance.background_depth(),
                dirty.len()
            ));
            break;
        }
    }
    event_log.push(format!("quiesced after {drain_rounds} extra round(s)"));

    // ---- steady-state probe: fresh operations must succeed again.
    let mut recovered = true;
    for i in 0..20u64 {
        let key = format!("recovery-{i}");
        let value = cfg.stack.payload(1_000_000 + i, 0, cfg.value_size);
        match instance.put(key.as_str(), value.clone(), t) {
            Ok(r) => {
                t += r.latency;
                ledger.record_ack(&key, &value);
            }
            Err(e) => {
                recovered = false;
                event_log.push(format!("recovery put {key} failed: {e}"));
            }
        }
        match instance.get(key.as_str(), t) {
            Ok((data, receipt)) => {
                t += receipt.latency;
                if !ledger.verify_read(&key, &data) {
                    recovered = false;
                    event_log.push(format!("recovery read {key} returned wrong bytes"));
                }
            }
            Err(e) => {
                recovered = false;
                event_log.push(format!("recovery get {key} failed: {e}"));
            }
        }
    }
    pump_logged(&instance, t + SimDuration::from_secs(31), &mut event_log);
    event_log.push(format!("recovery probe: recovered={recovered}"));

    // ---- the invariant sweep.
    let mut invariants = ledger.check(&instance, t, true);
    invariants.merge(inline);
    if let Some(w) = &wrappers {
        w.check(&mut invariants, &mut event_log);
    }
    let alerts = instance.alerts_emitted();
    event_log.push(format!(
        "invariants: {} violation(s); alerts={alerts}; monitor_signals={monitor_signals}",
        invariants.violations.len()
    ));

    ChaosOutcome {
        seed: cfg.seed,
        kind: cfg.kind,
        stack: cfg.stack,
        writes_issued: outcome_counts.0,
        writes_acked: outcome_counts.1,
        writes_failed: outcome_counts.2,
        reads_ok: outcome_counts.3,
        reads_failed: outcome_counts.4,
        alerts,
        monitor_signals,
        recovered,
        invariants,
        event_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ScenarioKind::WriteThrough.name(), "write-through");
        assert_eq!(ScenarioKind::WriteBack.name(), "write-back");
        assert_eq!(ScenarioKind::OltpMix.name(), "oltp-mix");
        assert_eq!(ScenarioKind::all().len(), 3);
    }

    #[test]
    fn outcome_report_embeds_seed_and_replay_command() {
        let outcome = run(&ChaosConfig::new(77, ScenarioKind::WriteThrough));
        let report = outcome.report();
        assert!(report.contains("seed=77"), "{report}");
        assert!(
            report.contains("scenario::run(&ChaosConfig::new(77, WriteThrough))"),
            "{report}"
        );
    }

    #[test]
    fn compressible_template_actually_compresses_and_duplicates() {
        let a = Stack::Wrapped.payload(0, 0, 1024);
        let b = Stack::Wrapped.payload(8, 2, 1024); // same template (8 % 8 == 0), even parity
        assert_eq!(a.as_slice(), b.as_slice(), "templates fold the keyspace 8:1");
        let compressed = tiera_codec::lzss::compress(a.as_slice());
        assert!(compressed.len() < a.len() / 2, "template must be compressible");
    }

    #[test]
    fn incompressible_arm_differs_per_op() {
        let a = Stack::Wrapped.payload(1, 2, 256); // (1 ^ 2) % 2 == 1 -> record_value
        let b = Stack::Wrapped.payload(1, 4, 256);
        assert_ne!(a.as_slice(), b.as_slice());
        assert_eq!(a.as_slice(), Stack::Raw.payload(1, 2, 256).as_slice());
    }
}

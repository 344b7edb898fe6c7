//! Chaos scenarios: YCSB/OLTP-shaped load driven through a seeded fault
//! [`Schedule`], followed by quiesce, invariant checking, and a
//! steady-state recovery probe.
//!
//! A scenario is a pure function of its [`ChaosConfig`]: the same config
//! (in particular the same seed) replays the identical fault schedule,
//! op sequence, and event log. A failing run therefore reports exactly one
//! thing to remember — the seed — and its report prints the
//! `scenario::run` call that reproduces it.
//!
//! The [`Stack`] picks what the load runs against. [`Stack::Raw`] drives
//! an instance over the simulated tiers directly. [`Stack::Wrapped`] puts
//! the `tiera-tierx` wrappers in the data path — the cache transparently
//! lzss-compressed, the durable tier behind the canonical
//! dedup-over-compressed stack — and extends the invariant sweep with the
//! wrapper contract:
//!
//! 1. Everything the ledger already checks (no acked write lost, no
//!    phantom metadata, aggregates == recount) holds with the transforms
//!    in the chain, including under injected tier faults.
//! 2. **Refcounts never strand a live key's blob**:
//!    [`DedupTier::check_integrity`] comes back clean after the run.
//! 3. The run is not vacuous: the compressed cache reports a
//!    logical/physical split and the dedup store reports unique blobs.
//!
//! [`Stack::Cluster`] routes the load through a replicated `tiera-cluster`
//! deployment while node faults kill, partition and slow whole members;
//! [`crate::cluster_scenario`] holds what that stack adds.
//!
//! Every stack runs the one loop in [`run`]: one op stream, one
//! [`WriteLedger`], one event log, one replay line. Tier faults act
//! through the tiers' injector windows; node-fault edges are taken from
//! the schedule as op time passes.
//!
//! The wrapped payload mix alternates compressible templates (which
//! collapse under both lzss and dedup) with YCSB's incompressible
//! `record_value` payloads (which exercise the per-object raw-fallback
//! path), all derived from the seed so runs replay byte for byte.

use std::sync::Arc;

use tiera_cluster::RebalanceReport;
use tiera_core::monitor::{FailureMonitor, ProbeOutcome};
use tiera_core::prelude::*;
use tiera_sim::SimEnv;
use tiera_support::{Bytes, SimRng};
use tiera_tiers::{BlockTier, MemoryTier, ObjectStoreTier};
use tiera_tierx::{CompressedTier, DedupTier};
use tiera_workloads::dist::KeyChooser;
use tiera_workloads::ycsb::{record_key, record_value};

use crate::cluster_scenario::{ClusterRig, ClusterScenarioKind};
use crate::invariants::{InvariantReport, WriteLedger};
use crate::schedule::{Edge, Schedule};

/// The workload shape a chaos run drives: its key distribution and read
/// share and, on the instance stacks, its policy.
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
        [ScenarioKind::WriteThrough, ScenarioKind::WriteBack, ScenarioKind::OltpMix]
    }
}

/// What a chaos run's load is driven against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// An instance over the simulated tiers themselves.
    Raw,
    /// An instance with the cache behind `CompressedTier` and EBS behind
    /// `DedupTier(CompressedTier)`; S3 stays raw.
    Wrapped,
    /// A `Coordinator` over rule-free single-tier nodes, driven through a
    /// node-fault shape. Its nodes carry no policy, so only the kind's key
    /// distribution and read share apply; 8 % of its ops are deletes.
    Cluster {
        /// Cluster size at start.
        nodes: usize,
        /// Replica count R.
        replicas: usize,
        /// Write quorum W.
        write_quorum: usize,
        /// Migration byte budget per op step (the bandwidth cap).
        rebalance_budget: u64,
        /// The node-fault shape.
        shape: ClusterScenarioKind,
    },
}

impl Stack {
    /// Report-header name; for the instance stacks also the instance name
    /// and the prefix of the load rng stream.
    fn name(self) -> &'static str {
        match self {
            Stack::Raw => "chaos",
            Stack::Wrapped => "wrapped-chaos",
            Stack::Cluster { .. } => "cluster-chaos",
        }
    }

    /// The value the run writes for `(key_idx, op)`. Raw and Cluster:
    /// distinct bytes per (key, op), so checksum mismatches catch torn or
    /// stale values, not just lost keys. Wrapped: about half the time a
    /// compressible template shared by every eighth key instead.
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
    /// What the load runs against.
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

    /// The configuration for `seed` over four nodes, R=3, W=2, under the
    /// node-fault `shape`, with write-through's key distribution and read
    /// share.
    pub fn cluster(seed: u64, shape: ClusterScenarioKind) -> Self {
        Self {
            stack: Stack::Cluster {
                nodes: 4,
                replicas: 3,
                write_quorum: 2,
                rebalance_budget: 32 * 1024,
                shape,
            },
            records: 192,
            ops: 700,
            value_size: 512,
            ..Self::new(seed, ScenarioKind::WriteThrough)
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
    /// What it ran against.
    pub stack: Stack,
    /// Write operations issued.
    pub writes_issued: u64,
    /// Writes acknowledged.
    pub writes_acked: u64,
    /// Writes that failed.
    pub writes_failed: u64,
    /// Reads that returned data.
    pub reads_ok: u64,
    /// Reads that failed (including reads of never-written keys).
    pub reads_failed: u64,
    /// Deletes acknowledged (cluster stack only).
    pub deletes_acked: u64,
    /// Deletes that failed (cluster stack only).
    pub deletes_failed: u64,
    /// FAILURE_ALERT events the instance emitted (instance stacks only).
    pub alerts: u64,
    /// Times the failure monitor saw trouble (instance stacks only).
    pub monitor_signals: u64,
    /// The completed rebalance run, if the cluster scenario triggered one.
    pub rebalance: Option<RebalanceReport>,
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
        let (seed, kind) = (self.seed, self.kind);
        let (case, replay) = match self.stack {
            Stack::Raw => (kind.name(), format!("ChaosConfig::new({seed}, {kind:?})")),
            Stack::Wrapped => (
                kind.name(),
                format!(
                    "ChaosConfig {{ stack: Stack::Wrapped, ..ChaosConfig::new({seed}, {kind:?}) }}"
                ),
            ),
            Stack::Cluster { shape, .. } => {
                (shape.name(), format!("ChaosConfig::cluster({seed}, {shape:?})"))
            }
        };
        let mut out = format!(
            "{} {case} seed={seed} — {}\n  replay: scenario::run(&{replay})\n",
            self.stack.name(),
            if self.ok() { "OK" } else { "FAILED" },
        );
        out.push_str(&format!(
            "  writes: {} issued, {} acked, {} failed; reads: {} ok, {} failed; deletes: {} acked, {} failed; alerts: {}; recovered: {}\n",
            self.writes_issued,
            self.writes_acked,
            self.writes_failed,
            self.reads_ok,
            self.reads_failed,
            self.deletes_acked,
            self.deletes_failed,
            self.alerts,
            self.recovered,
        ));
        if let Some(r) = &self.rebalance {
            out.push_str(&format!(
                "  rebalance: planned={} moved_keys={} moved_bytes={} deferred={}\n",
                r.planned, r.moved_keys, r.moved_bytes, r.deferred
            ));
        }
        for v in &self.invariants.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        for line in &self.event_log {
            out.push_str(&format!("  | {line}\n"));
        }
        out
    }
}

/// A load op's result. Errors come back as their display text: the loop
/// only counts them, and logs the recovery probe's.
pub(crate) type OpResult<T> = std::result::Result<T, String>;

/// What a stack plugs into the one loop in [`run`].
pub(crate) trait Rig {
    /// Reads `key`: its bytes and the op's virtual latency.
    fn get(&self, key: &str, t: SimTime) -> OpResult<(Bytes, SimDuration)>;
    /// Writes `key`; the op's virtual latency.
    fn put(&self, key: &str, value: Bytes, t: SimTime) -> OpResult<SimDuration>;
    /// Deletes `key`; the op's virtual latency.
    fn delete(&self, key: &str, t: SimTime) -> OpResult<SimDuration>;
    /// Applies and logs one node-fault edge at `t` (`sweep`: from the
    /// quiesce sweep rather than the load phase).
    fn apply(&self, _edge: Edge<'_>, _t: SimTime, _sweep: bool, _log: &mut Vec<String>) {}
    /// Runs before each load op, after its fault edges.
    fn before_op(&mut self, _t: SimTime, _log: &mut Vec<String>) {}
    /// Settles the stack once every fault has cleared; returns the time
    /// it settled at. Violations found on the way go to `inline`.
    fn quiesce(
        &mut self,
        t: SimTime,
        ledger: &WriteLedger,
        inline: &mut InvariantReport,
        log: &mut Vec<String>,
    ) -> SimTime;
    /// Runs after the steady-state probe.
    fn after_recovery(&self, _t: SimTime, _log: &mut Vec<String>) {}
    /// The invariant sweep: fills `out.invariants` (with `inline` merged)
    /// and the stack's own counters, and returns the tail of the closing
    /// event-log line.
    fn check(
        &mut self,
        ledger: &WriteLedger,
        inline: InvariantReport,
        t: SimTime,
        out: &mut ChaosOutcome,
    ) -> String;
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
            invariants.violations.push(format!("dedup integrity (ebs): {problem}"));
        }
        let cache = self.cache.capacity_profile().unwrap_or_default();
        let store = self.store.capacity_profile().unwrap_or_default();
        if cache.objects > 0 && cache.objects == cache.raw_fallback_objects {
            invariants
                .violations
                .push("compressed cache never compressed anything — payload mix is broken".into());
        }
        if store.objects > 0 && store.unique_blobs == 0 {
            invariants.violations.push("dedup store holds keys but no blobs".into());
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

/// The instance stacks: memcached, EBS and S3 under the kind's policy,
/// watched by a failure monitor.
struct InstanceRig {
    instance: Arc<Instance>,
    // The raw tiers keep the fault injectors whichever stack the instance
    // sees.
    mem: Arc<MemoryTier>,
    ebs: Arc<BlockTier>,
    wrappers: Option<Wrappers>,
    monitor: FailureMonitor,
    monitor_signals: u64,
}

impl InstanceRig {
    /// The rig for `cfg`'s instance stack, and its tier schedule, applied.
    fn build(cfg: &ChaosConfig) -> (Box<dyn Rig>, Schedule) {
        let env = SimEnv::new(cfg.seed);
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

        let builder = InstanceBuilder::new(cfg.stack.name(), env)
            .tier_handle(cache)
            .tier_handle(store)
            .tier(s3);
        let builder = match cfg.kind {
            ScenarioKind::WriteThrough => builder.rule(
                Rule::on(EventKind::action(ActionOp::Put))
                    .respond(ResponseSpec::store(Selector::Inserted, ["memcached", "ebs"])),
            ),
            ScenarioKind::WriteBack | ScenarioKind::OltpMix => builder
                .rule(
                    Rule::on(EventKind::action(ActionOp::Put))
                        .respond(ResponseSpec::store(Selector::Inserted, ["memcached"])),
                )
                .rule(Rule::on(EventKind::timer(SimDuration::from_secs(30))).respond(
                    ResponseSpec::copy(
                        Selector::InTier("memcached".into()).and(Selector::Dirty),
                        ["ebs"],
                    ),
                )),
        };
        let instance = builder.build().expect("chaos instance builds");
        instance.set_retry_policy(RetryPolicy::robust());

        // S3 is deliberately left out of the schedule: it is the failover
        // target of last resort, so every generated schedule is survivable.
        let schedule = Schedule::random(cfg.seed, &["memcached", "ebs"], cfg.horizon);
        schedule.apply(&[("memcached", mem.failures()), ("ebs", ebs.failures())]);
        let monitor = FailureMonitor::new(
            Arc::clone(&instance),
            SimDuration::from_secs(60),
            u32::MAX,
            |_| {},
        )
        .observing_alerts();
        let rig = Self { instance, mem, ebs, wrappers, monitor, monitor_signals: 0 };
        (Box::new(rig), schedule)
    }
}

impl Rig for InstanceRig {
    fn get(&self, key: &str, t: SimTime) -> OpResult<(Bytes, SimDuration)> {
        let (data, receipt) = self.instance.get(key, t).map_err(|e| e.to_string())?;
        Ok((data, receipt.latency))
    }

    fn put(&self, key: &str, value: Bytes, t: SimTime) -> OpResult<SimDuration> {
        Ok(self.instance.put(key, value, t).map_err(|e| e.to_string())?.latency)
    }

    fn delete(&self, key: &str, t: SimTime) -> OpResult<SimDuration> {
        self.instance.delete(key, t).map_err(|e| e.to_string())
    }

    /// Catches the instance up to the op's start, then ticks the monitor.
    fn before_op(&mut self, t: SimTime, log: &mut Vec<String>) {
        pump_logged(&self.instance, t, log);
        self.monitor_signals +=
            self.monitor.tick(t).iter().filter(|o| !matches!(o, ProbeOutcome::Healthy)).count()
                as u64;
    }

    /// Clears the fault plane and lets deadlines and queues drain.
    fn quiesce(
        &mut self,
        mut t: SimTime,
        _ledger: &WriteLedger,
        _inline: &mut InvariantReport,
        log: &mut Vec<String>,
    ) -> SimTime {
        self.mem.failures().clear();
        self.ebs.failures().clear();
        let mut drain_rounds = 0u32;
        loop {
            t += SimDuration::from_secs(31); // past the 30 s write-back timer
            pump_logged(&self.instance, t, log);
            let dirty = self.instance.registry().select(&Selector::Dirty, None);
            if self.instance.background_depth() == 0 && dirty.is_empty() {
                break;
            }
            drain_rounds += 1;
            if drain_rounds > 64 {
                log.push(format!(
                    "quiesce stalled: background_depth={} dirty={}",
                    self.instance.background_depth(),
                    dirty.len()
                ));
                break;
            }
        }
        log.push(format!("quiesced after {drain_rounds} extra round(s)"));
        t
    }

    fn after_recovery(&self, t: SimTime, log: &mut Vec<String>) {
        pump_logged(&self.instance, t + SimDuration::from_secs(31), log);
    }

    fn check(
        &mut self,
        ledger: &WriteLedger,
        inline: InvariantReport,
        t: SimTime,
        out: &mut ChaosOutcome,
    ) -> String {
        let mut invariants = ledger.check(&self.instance, t, true);
        invariants.merge(inline);
        if let Some(w) = &self.wrappers {
            w.check(&mut invariants, &mut out.event_log);
        }
        out.invariants = invariants;
        out.alerts = self.instance.alerts_emitted();
        out.monitor_signals = self.monitor_signals;
        format!("alerts={}; monitor_signals={}", out.alerts, out.monitor_signals)
    }
}

/// Runs one chaos scenario to completion.
pub fn run(cfg: &ChaosConfig) -> ChaosOutcome {
    let (mut rig, schedule) = match cfg.stack {
        Stack::Cluster { .. } => ClusterRig::build(cfg),
        _ => InstanceRig::build(cfg),
    };
    // The cluster paces its ops across ~55 % of the horizon so the
    // node-fault windows engage, deletes 8 % of the time, and charges a
    // failed op no virtual time. The instance stacks issue ops back to back
    // and charge a failure 250 ms.
    let (pace, delete_share, penalty, mut rng) = match cfg.stack {
        Stack::Cluster { .. } => (
            cfg.horizon.mul_f64(0.55 / cfg.ops as f64),
            0.08,
            SimDuration::ZERO,
            SimRng::new(cfg.seed ^ 0xc105_7e12_10ad_5eed),
        ),
        _ => (
            SimDuration::ZERO,
            0.0,
            SimDuration::from_millis(250),
            SimEnv::new(cfg.seed).rng_for(&format!("{}-load", cfg.stack.name())),
        ),
    };
    let chooser = match cfg.kind {
        ScenarioKind::OltpMix => KeyChooser::zipfian(cfg.records),
        _ => KeyChooser::uniform(cfg.records),
    };
    let read_share = match cfg.kind {
        ScenarioKind::OltpMix => 0.5,
        _ => 0.25,
    };

    let mut out = ChaosOutcome {
        seed: cfg.seed,
        kind: cfg.kind,
        stack: cfg.stack,
        writes_issued: 0,
        writes_acked: 0,
        writes_failed: 0,
        reads_ok: 0,
        reads_failed: 0,
        deletes_acked: 0,
        deletes_failed: 0,
        alerts: 0,
        monitor_signals: 0,
        rebalance: None,
        recovered: true,
        invariants: InvariantReport::default(),
        event_log: schedule.describe().lines().map(|l| l.trim_start().to_string()).collect(),
    };
    let log = &mut out.event_log;
    let mut ledger = WriteLedger::new();
    let mut inline = InvariantReport::default();
    let mut t = SimTime::ZERO;
    let mut edges_upto = None;
    for op in 0..cfg.ops {
        t += pace;
        for edge in schedule.edges(edges_upto, Some(t)) {
            rig.apply(edge, t, false, log);
        }
        edges_upto = Some(t);
        rig.before_op(t, log);

        let key_idx = chooser.next(&mut rng);
        let key = record_key(key_idx);
        let roll = rng.next_f64();
        if roll < read_share {
            match rig.get(&key, t) {
                Ok((data, latency)) => {
                    t += latency;
                    out.reads_ok += 1;
                    if !ledger.verify_read(&key, &data) {
                        inline.violations.push(format!(
                            "mid-run read of key={key} returned bytes outside the acknowledged set"
                        ));
                    }
                }
                Err(_) => {
                    out.reads_failed += 1;
                    t += penalty;
                }
            }
        } else if roll < read_share + delete_share {
            match rig.delete(&key, t) {
                Ok(latency) => {
                    t += latency;
                    out.deletes_acked += 1;
                    ledger.record_delete(&key);
                }
                // NoSuchObject: the key was never written (or already
                // deleted). NoQuorum: ambiguous — meta stays live, so the
                // previous acked value must remain readable; the ledger
                // keeps expecting it.
                Err(_) => {
                    out.deletes_failed += 1;
                    t += penalty;
                }
            }
        } else {
            let value = cfg.stack.payload(key_idx, op, cfg.value_size);
            out.writes_issued += 1;
            match rig.put(&key, value.clone(), t) {
                Ok(latency) => {
                    t += latency;
                    out.writes_acked += 1;
                    ledger.record_ack(&key, &value);
                }
                Err(_) => {
                    out.writes_failed += 1;
                    ledger.record_failure(&key, &value);
                    t += penalty;
                }
            }
        }
    }
    log.push(match cfg.stack {
        Stack::Cluster { .. } => format!(
            "load-phase done: writes={}/{}/{} reads={}/{} deletes={}/{} t={:.3}s",
            out.writes_issued,
            out.writes_acked,
            out.writes_failed,
            out.reads_ok,
            out.reads_failed,
            out.deletes_acked,
            out.deletes_failed,
            t.as_secs_f64()
        ),
        _ => format!(
            "load-phase done: issued={} acked={} failed={} reads_ok={} reads_failed={} t={:.3}s",
            out.writes_issued,
            out.writes_acked,
            out.writes_failed,
            out.reads_ok,
            out.reads_failed,
            t.as_secs_f64()
        ),
    });

    // ---- quiesce: past the last fault, sweep every edge still due, and
    //      let the stack settle.
    if let Some(clears) = schedule.clears_by() {
        t = t.max(clears);
    }
    t += SimDuration::from_secs(1);
    for edge in schedule.edges(edges_upto, None) {
        rig.apply(edge, t, true, log);
    }
    t = rig.quiesce(t, &ledger, &mut inline, log);

    // ---- steady-state probe: fresh operations must succeed again.
    for i in 0..20u64 {
        let key = format!("recovery-{i}");
        let value = cfg.stack.payload(1_000_000 + i, 0, cfg.value_size);
        match rig.put(&key, value.clone(), t) {
            Ok(latency) => {
                t += latency;
                ledger.record_ack(&key, &value);
            }
            Err(e) => {
                out.recovered = false;
                log.push(format!("recovery put {key} failed: {e}"));
            }
        }
        match rig.get(&key, t) {
            Ok((data, latency)) => {
                t += latency;
                if !ledger.verify_read(&key, &data) {
                    out.recovered = false;
                    log.push(format!("recovery read {key} returned wrong bytes"));
                }
            }
            Err(e) => {
                out.recovered = false;
                log.push(format!("recovery get {key} failed: {e}"));
            }
        }
    }
    rig.after_recovery(t, log);
    log.push(format!("recovery probe: recovered={}", out.recovered));

    // ---- the invariant sweep.
    let tail = rig.check(&ledger, inline, t, &mut out);
    let closing = format!("invariants: {} violation(s); {tail}", out.invariants.violations.len());
    out.event_log.push(closing);
    out
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
        assert!(report.contains("scenario::run(&ChaosConfig::new(77, WriteThrough))"), "{report}");
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

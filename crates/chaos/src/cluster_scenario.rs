//! Cluster chaos scenarios: routed load through a [`Coordinator`] while
//! a seeded [`NodeFaultSchedule`] kills, partitions, and slows whole
//! nodes — including mid-rebalance — followed by recovery, a
//! survivability probe, and the replication-aware invariant sweep.
//!
//! A run is a pure function of its [`ClusterChaosConfig`]: the same
//! (seed, scenario) replays the identical schedule, op sequence, and
//! event log byte for byte, and the `run_cluster` call its report prints
//! reproduces a failure from the one number it names.
//!
//! The invariants, phrased at the level the cluster client observes:
//!
//! 1. **Every W-acked write survives any R−1 node kills** — checked
//!    directly: after recovery the probe kills R−1 members and reads
//!    every acked key back through the coordinator.
//! 2. **No phantom keys after rejoin** — failed brand-new PUTs and
//!    acked DELETEs stay unreadable even though stale replicas held
//!    copies, and rejoined owners of deleted keys are physically purged.
//! 3. **Ring convergence within bounded migration volume** — a
//!    membership change moves at most the keys whose owner set changed
//!    ([`tiera_cluster::Ring::plan_rebalance`] is minimal by
//!    construction and the run asserts `moved_keys ≤ planned`).

use std::sync::Arc;

use tiera_cluster::coordinator::RejoinReport;
use tiera_cluster::{ClusterNode, Coordinator, RebalanceReport};
use tiera_core::prelude::*;
use tiera_sim::SimEnv;
use tiera_support::{Bytes, SimRng};
use tiera_workloads::dist::KeyChooser;
use tiera_workloads::ycsb::{record_key, record_value};

use crate::invariants::{InvariantReport, WriteLedger};
use crate::node_schedule::{NodeFaultAction, NodeFaultDriver, NodeFaultSchedule};

/// The node-fault shape a cluster chaos run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScenarioKind {
    /// Nodes die (state frozen) and later rejoin stale.
    NodeKill,
    /// Nodes are partitioned away and heal.
    NodePartition,
    /// One node dies almost immediately and rejoins near the end with
    /// maximally stale state; another crawls.
    RejoinStale,
    /// A node joins mid-run (starting a bandwidth-capped rebalance) and
    /// a migration source dies while the run is in flight.
    KillDuringRebalance,
}

impl ClusterScenarioKind {
    /// Stable name used in event logs and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            ClusterScenarioKind::NodeKill => "node-kill",
            ClusterScenarioKind::NodePartition => "node-partition",
            ClusterScenarioKind::RejoinStale => "rejoin-stale",
            ClusterScenarioKind::KillDuringRebalance => "kill-during-rebalance",
        }
    }

    /// Every scenario kind, in report order.
    pub fn all() -> [ClusterScenarioKind; 4] {
        [
            ClusterScenarioKind::NodeKill,
            ClusterScenarioKind::NodePartition,
            ClusterScenarioKind::RejoinStale,
            ClusterScenarioKind::KillDuringRebalance,
        ]
    }
}

/// Configuration for one cluster chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterChaosConfig {
    /// Seed for the schedule, the op stream, and every node's sim env.
    pub seed: u64,
    /// Node-fault shape.
    pub kind: ClusterScenarioKind,
    /// Cluster size at start.
    pub nodes: usize,
    /// Replica count R.
    pub replicas: usize,
    /// Write quorum W.
    pub write_quorum: usize,
    /// Distinct keys addressed.
    pub records: u64,
    /// Operations issued in the fault phase.
    pub ops: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Virtual-time horizon; all node faults clear by 60 % of it.
    pub horizon: SimDuration,
    /// Migration byte budget per op step (the bandwidth cap).
    pub rebalance_budget: u64,
}

impl ClusterChaosConfig {
    /// The configuration for `seed`: four nodes, R=3, W=2.
    pub fn new(seed: u64, kind: ClusterScenarioKind) -> Self {
        Self {
            seed,
            kind,
            nodes: 4,
            replicas: 3,
            write_quorum: 2,
            records: 192,
            ops: 700,
            value_size: 512,
            horizon: SimDuration::from_secs(240),
            rebalance_budget: 32 * 1024,
        }
    }
}

/// The result of one cluster chaos run.
#[derive(Debug, Clone)]
pub struct ClusterChaosOutcome {
    /// The seed that reproduces this run.
    pub seed: u64,
    /// The node-fault shape that ran.
    pub kind: ClusterScenarioKind,
    /// Write operations issued / acked / failed.
    pub writes: (u64, u64, u64),
    /// Reads that returned data / failed.
    pub reads: (u64, u64),
    /// Deletes acked / failed.
    pub deletes: (u64, u64),
    /// The completed rebalance run, if the scenario triggered one.
    pub rebalance: Option<RebalanceReport>,
    /// Whether every acked key survived the R−1-kill probe.
    pub survivability_ok: bool,
    /// Whether the post-recovery probe fully succeeded.
    pub recovered: bool,
    /// Replication-aware invariant sweep (plus inline violations).
    pub invariants: InvariantReport,
    /// Deterministic event log — byte-identical per (seed, scenario).
    pub event_log: Vec<String>,
}

impl ClusterChaosOutcome {
    /// Whether the run upheld the replicated storage contract.
    pub fn ok(&self) -> bool {
        self.recovered && self.survivability_ok && self.invariants.ok()
    }

    /// A human-readable report embedding the seed and the replay call.
    pub fn report(&self) -> String {
        let mut out = format!(
            "cluster-chaos {} seed={} — {}\n  replay: run_cluster(&ClusterChaosConfig::new({}, {:?}))\n",
            self.kind.name(),
            self.seed,
            if self.ok() { "OK" } else { "FAILED" },
            self.seed,
            self.kind,
        );
        out.push_str(&format!(
            "  writes: {} issued, {} acked, {} failed; reads: {} ok, {} failed; deletes: {} acked, {} failed\n",
            self.writes.0, self.writes.1, self.writes.2, self.reads.0, self.reads.1,
            self.deletes.0, self.deletes.1,
        ));
        if let Some(r) = &self.rebalance {
            out.push_str(&format!(
                "  rebalance: planned={} moved_keys={} moved_bytes={} deferred={}\n",
                r.planned, r.moved_keys, r.moved_bytes, r.deferred
            ));
        }
        out.push_str(&format!(
            "  survivability(R-1 kills)={} recovered={}\n",
            self.survivability_ok, self.recovered
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

fn build_node(name: &str, seed: u64) -> Arc<ClusterNode> {
    let inst = InstanceBuilder::new(name, SimEnv::new(seed))
        .tier(MemTier::with_traits(
            "store",
            256 << 20,
            TierTraits {
                durable: true,
                ..TierTraits::default()
            },
        ))
        .build()
        .expect("cluster chaos node builds");
    ClusterNode::new(name, inst)
}

fn log_rejoin(event_log: &mut Vec<String>, name: &str, report: &RejoinReport) {
    event_log.push(format!(
        "rejoin node={name}: checked={} repaired={} purged={}",
        report.checked, report.repaired, report.purged
    ));
}

/// Runs one cluster chaos scenario to completion.
pub fn run_cluster(cfg: &ClusterChaosConfig) -> ClusterChaosOutcome {
    let replicas = cfg.replicas.min(cfg.nodes).max(1);
    let write_quorum = cfg.write_quorum.min(replicas).max(1);
    let coord = Coordinator::new(replicas, write_quorum);
    let mut nodes: Vec<Arc<ClusterNode>> = Vec::new();
    for i in 0..cfg.nodes {
        let node = build_node(
            &format!("node-{i}"),
            cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64),
        );
        coord.add_node(Arc::clone(&node)).expect("distinct node names");
        nodes.push(node);
    }
    let names: Vec<String> = nodes.iter().map(|n| n.name().to_string()).collect();

    let schedule = match cfg.kind {
        ClusterScenarioKind::NodeKill => NodeFaultSchedule::kills(cfg.seed, &names, cfg.horizon),
        ClusterScenarioKind::NodePartition => {
            NodeFaultSchedule::partitions(cfg.seed, &names, cfg.horizon)
        }
        ClusterScenarioKind::RejoinStale => {
            NodeFaultSchedule::rejoin_stale(cfg.seed, &names, cfg.horizon)
        }
        ClusterScenarioKind::KillDuringRebalance => {
            NodeFaultSchedule::kill_during_window(cfg.seed, &names, cfg.horizon)
        }
    };
    let mut driver = NodeFaultDriver::new(schedule.clone());
    let mut event_log: Vec<String> = schedule
        .describe()
        .lines()
        .map(|l| l.trim_start().to_string())
        .collect();

    let join_at = match cfg.kind {
        ClusterScenarioKind::KillDuringRebalance => {
            Some(SimTime::ZERO + cfg.horizon.mul_f64(0.2))
        }
        _ => None,
    };
    let mut joined = false;
    let mut rebalancing = false;

    let mut ledger = WriteLedger::new();
    let mut inline = InvariantReport::default();
    let chooser = KeyChooser::uniform(cfg.records);
    let mut rng = SimRng::new(cfg.seed ^ 0xc105_7e12_10ad_5eed);
    let mut counts = ClusterChaosOutcome {
        seed: cfg.seed,
        kind: cfg.kind,
        writes: (0, 0, 0),
        reads: (0, 0),
        deletes: (0, 0),
        rebalance: None,
        survivability_ok: true,
        recovered: true,
        invariants: InvariantReport::default(),
        event_log: Vec::new(),
    };

    // Fixed per-op pacing spreads the op stream across ~55 % of the
    // horizon so the schedule's fault windows actually engage.
    let pace = cfg.horizon.mul_f64(0.55 / cfg.ops as f64);
    let mut t = SimTime::ZERO;
    let apply = |action: &NodeFaultAction,
                 nodes: &[Arc<ClusterNode>],
                 coord: &Coordinator,
                 t: SimTime,
                 event_log: &mut Vec<String>| {
        let target = |name: &str| nodes.iter().find(|n| n.name() == name).cloned();
        match action {
            NodeFaultAction::Kill(n) => {
                if let Some(node) = target(n) {
                    node.kill();
                }
            }
            NodeFaultAction::Rejoin(n) => {
                if let Ok(report) = coord.rejoin(n, t) {
                    log_rejoin(event_log, n, &report);
                }
            }
            NodeFaultAction::Partition(n) => {
                if let Some(node) = target(n) {
                    node.set_partitioned(true);
                }
            }
            NodeFaultAction::Heal(n) => {
                if let Some(node) = target(n) {
                    node.set_partitioned(false);
                }
                // A healed node syncs like a rejoiner: it may have missed
                // writes and deletes while isolated.
                if let Ok(report) = coord.rejoin(n, t) {
                    log_rejoin(event_log, n, &report);
                }
            }
            NodeFaultAction::Slow(n, p) => {
                if let Some(node) = target(n) {
                    node.set_slow_penalty(*p);
                }
            }
            NodeFaultAction::Unslow(n) => {
                if let Some(node) = target(n) {
                    node.set_slow_penalty(SimDuration::ZERO);
                }
            }
        }
    };

    for op in 0..cfg.ops {
        t = t + pace;
        for action in driver.actions(t) {
            event_log.push(format!("t={:.3}s {}", t.as_secs_f64(), action.describe()));
            apply(&action, &nodes, &coord, t, &mut event_log);
        }
        if let Some(at) = join_at {
            if !joined && t >= at {
                joined = true;
                let newcomer = build_node("node-new", cfg.seed.wrapping_mul(31).wrapping_add(997));
                nodes.push(Arc::clone(&newcomer));
                let planned = coord.add_node(newcomer).expect("fresh node name");
                rebalancing = planned > 0;
                event_log.push(format!(
                    "t={:.3}s join node=node-new planned_moves={planned}",
                    t.as_secs_f64()
                ));
            }
        }
        if rebalancing {
            let step = coord.rebalance_step(t, cfg.rebalance_budget);
            if step.done {
                rebalancing = false;
                let r = coord.last_rebalance().unwrap_or_default();
                event_log.push(format!(
                    "t={:.3}s rebalance done: planned={} moved_keys={} moved_bytes={} deferred={}",
                    t.as_secs_f64(),
                    r.planned,
                    r.moved_keys,
                    r.moved_bytes,
                    r.deferred
                ));
            }
        }

        let key_idx = chooser.next(&mut rng);
        let key = record_key(key_idx);
        let roll = rng.next_f64();
        if roll < 0.25 {
            match coord.get(&key, t) {
                Ok((data, latency)) => {
                    t = t + latency;
                    counts.reads.0 += 1;
                    if !ledger.verify_read(&key, &data) {
                        inline.violations.push(format!(
                            "mid-run read of key={key} returned bytes outside the acknowledged set"
                        ));
                    }
                }
                Err(_) => counts.reads.1 += 1,
            }
        } else if roll < 0.33 {
            match coord.delete(coord.next_token(), &key, t) {
                Ok(latency) => {
                    t = t + latency;
                    counts.deletes.0 += 1;
                    ledger.record_delete(&key);
                }
                // NoSuchObject: the key was never written (or already
                // deleted). NoQuorum: ambiguous — meta stays live, so the
                // previous acked value must remain readable; the ledger
                // keeps expecting it.
                Err(_) => counts.deletes.1 += 1,
            }
        } else {
            let value = record_value(key_idx ^ op.wrapping_mul(0x9e37_79b9), cfg.value_size);
            counts.writes.0 += 1;
            match coord.put(&key, Bytes::from(value.clone()), t) {
                Ok(latency) => {
                    t = t + latency;
                    counts.writes.1 += 1;
                    ledger.record_ack(&key, &value);
                }
                Err(_) => {
                    counts.writes.2 += 1;
                    ledger.record_failure(&key, &value);
                }
            }
        }
    }
    event_log.push(format!(
        "load-phase done: writes={}/{}/{} reads={}/{} deletes={}/{} t={:.3}s",
        counts.writes.0,
        counts.writes.1,
        counts.writes.2,
        counts.reads.0,
        counts.reads.1,
        counts.deletes.0,
        counts.deletes.1,
        t.as_secs_f64()
    ));

    // ---- quiesce: clear every outstanding fault, finish the rebalance,
    //      and run the anti-entropy sweep over every member.
    let clears = schedule.clears_by();
    if t < clears {
        t = clears;
    }
    t = t + SimDuration::from_secs(1);
    for action in driver.finish() {
        event_log.push(format!("t={:.3}s (sweep) {}", t.as_secs_f64(), action.describe()));
        apply(&action, &nodes, &coord, t, &mut event_log);
    }
    if !coord.rebalance_done() {
        let report = coord.rebalance_all(t, cfg.rebalance_budget);
        event_log.push(format!(
            "rebalance drained: planned={} moved_keys={} moved_bytes={} deferred={}",
            report.planned, report.moved_keys, report.moved_bytes, report.deferred
        ));
    }
    counts.rebalance = coord.last_rebalance();
    if let Some(r) = &counts.rebalance {
        // Ring convergence within bounded migration volume: the plan is
        // minimal, so actual copies can never exceed it.
        if r.moved_keys > r.planned as u64 {
            inline.violations.push(format!(
                "migration volume exceeded the plan: moved {} of {} planned keys",
                r.moved_keys, r.planned
            ));
        }
    }
    for node in &nodes {
        node.set_partitioned(false);
        node.set_slow_penalty(SimDuration::ZERO);
        if let Ok(report) = coord.rejoin(node.name(), t) {
            if report.repaired > 0 || report.purged > 0 {
                log_rejoin(&mut event_log, node.name(), &report);
            }
        }
    }

    // ---- survivability probe: every W-acked write must survive any
    //      R−1 node kills. Kill R−1 seeded-chosen members and read every
    //      acked key through the coordinator.
    let mut probe_rng = SimRng::new(cfg.seed ^ 0x5042_0be5_a17e_d00d);
    let mut member_names = coord.node_names();
    let mut victims = Vec::new();
    for _ in 0..replicas.saturating_sub(1).min(member_names.len().saturating_sub(1)) {
        let i = probe_rng.next_below(member_names.len() as u64) as usize;
        victims.push(member_names.swap_remove(i));
    }
    victims.sort();
    for v in &victims {
        if let Some(node) = nodes.iter().find(|n| n.name() == *v) {
            node.kill();
        }
    }
    event_log.push(format!("survivability probe: killed {victims:?}"));
    let probe = ledger.check_cluster(|key| match coord.get(key, t) {
        Ok((data, _)) => Ok(data.to_vec()),
        Err(e) => Err(e.to_string()),
    });
    if !probe.ok() {
        counts.survivability_ok = false;
        for v in probe.violations {
            inline
                .violations
                .push(format!("under R-1 kills: {v}"));
        }
    }
    for v in &victims {
        if let Some(node) = nodes.iter().find(|n| n.name() == *v) {
            node.revive();
        }
        if let Ok(report) = coord.rejoin(v, t) {
            if report.repaired > 0 || report.purged > 0 {
                log_rejoin(&mut event_log, v, &report);
            }
        }
    }

    // ---- steady-state probe: fresh operations must succeed again.
    for i in 0..20u64 {
        let key = format!("recovery-{i}");
        let value = record_value(1_000_000 + i, cfg.value_size);
        match coord.put(&key, Bytes::from(value.clone()), t) {
            Ok(latency) => {
                t = t + latency;
                ledger.record_ack(&key, &value);
            }
            Err(e) => {
                counts.recovered = false;
                event_log.push(format!("recovery put {key} failed: {e}"));
            }
        }
        match coord.get(&key, t) {
            Ok((data, latency)) => {
                t = t + latency;
                if !ledger.verify_read(&key, &data) {
                    counts.recovered = false;
                    event_log.push(format!("recovery read {key} returned wrong bytes"));
                }
            }
            Err(e) => {
                counts.recovered = false;
                event_log.push(format!("recovery get {key} failed: {e}"));
            }
        }
    }
    event_log.push(format!("recovery probe: recovered={}", counts.recovered));

    // ---- the replication-aware invariant sweep, all nodes healthy.
    let mut invariants = ledger.check_cluster(|key| match coord.get(key, t) {
        Ok((data, _)) => Ok(data.to_vec()),
        Err(e) => Err(e.to_string()),
    });
    // No phantom copies on rejoined owners: a node that owns a deleted
    // key must no longer physically hold it after the sweep.
    let deleted_phantoms = {
        let mut hits = 0usize;
        for node in &nodes {
            for key in ledger_deleted_keys(&ledger) {
                if coord.owner_names(&key).iter().any(|o| o == node.name())
                    && node.instance().contains(key.as_str())
                {
                    invariants.violations.push(format!(
                        "phantom copy: rejoined owner {} still holds deleted key={key}",
                        node.name()
                    ));
                    hits += 1;
                }
            }
        }
        hits
    };
    invariants.merge(inline);
    event_log.push(format!(
        "invariants: {} violation(s); phantom_copies={deleted_phantoms}",
        invariants.violations.len()
    ));

    counts.invariants = invariants;
    counts.event_log = event_log;
    counts
}

/// The ledger's deleted keys (the ledger keeps them private; the runner
/// re-derives the set it needs for the per-node phantom check).
fn ledger_deleted_keys(ledger: &WriteLedger) -> Vec<String> {
    ledger.deleted_snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ClusterScenarioKind::NodeKill.name(), "node-kill");
        assert_eq!(ClusterScenarioKind::NodePartition.name(), "node-partition");
        assert_eq!(ClusterScenarioKind::RejoinStale.name(), "rejoin-stale");
        assert_eq!(
            ClusterScenarioKind::KillDuringRebalance.name(),
            "kill-during-rebalance"
        );
        assert_eq!(ClusterScenarioKind::all().len(), 4);
    }

    #[test]
    fn quick_matrix_upholds_the_replicated_contract() {
        // The acceptance matrix: every (seed, scenario) cell must hold
        // every invariant.
        for kind in ClusterScenarioKind::all() {
            for seed in [11, 29] {
                let outcome = run_cluster(&ClusterChaosConfig::new(seed, kind));
                assert!(outcome.ok(), "{}", outcome.report());
            }
        }
    }

    #[test]
    fn replay_is_byte_identical_per_seed_and_scenario() {
        for kind in ClusterScenarioKind::all() {
            let cfg = ClusterChaosConfig::new(42, kind);
            let a = run_cluster(&cfg);
            let b = run_cluster(&cfg);
            assert_eq!(
                a.event_log,
                b.event_log,
                "kind={} replays diverged",
                kind.name()
            );
            assert_eq!(a.writes, b.writes);
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.deletes, b.deletes);
        }
    }

    #[test]
    fn kill_during_rebalance_actually_rebalances() {
        let cfg = ClusterChaosConfig::new(7, ClusterScenarioKind::KillDuringRebalance);
        let outcome = run_cluster(&cfg);
        assert!(outcome.ok(), "{}", outcome.report());
        let r = outcome.rebalance.expect("the join must trigger a rebalance");
        assert!(r.planned > 0);
        assert!(r.moved_keys <= r.planned as u64, "migration volume bounded");
    }

    #[test]
    fn outcome_report_embeds_seed_and_replay_command() {
        let outcome = run_cluster(&ClusterChaosConfig::new(
            77,
            ClusterScenarioKind::NodePartition,
        ));
        let report = outcome.report();
        assert!(report.contains("seed=77"), "{report}");
        assert!(
            report.contains("run_cluster(&ClusterChaosConfig::new(77, NodePartition))"),
            "{report}"
        );
    }
}

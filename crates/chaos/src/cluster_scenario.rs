//! The cluster stack of [`crate::scenario::run`]: routed load through a
//! [`Coordinator`] while the schedule's node faults kill, partition, and
//! slow whole nodes — including mid-rebalance — followed by recovery, a
//! survivability probe, and the replication-aware invariant sweep.
//!
//! `ChaosConfig::cluster(seed, shape)` picks it; the run's report prints
//! that call, which replays the identical schedule, op sequence, and event
//! log byte for byte.
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

use crate::invariants::{InvariantReport, WriteLedger};
use crate::scenario::{ChaosConfig, ChaosOutcome, OpResult, Rig, Stack};
use crate::schedule::{Edge, Fault, Schedule};

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

fn build_node(name: &str, seed: u64) -> Arc<ClusterNode> {
    let inst = InstanceBuilder::new(name, SimEnv::new(seed))
        .tier(MemTier::with_traits(
            "store",
            256 << 20,
            TierTraits { durable: true, ..TierTraits::default() },
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

/// A [`Coordinator`] over rule-free single-tier nodes, plus the node that
/// joins mid-run in [`ClusterScenarioKind::KillDuringRebalance`].
pub(crate) struct ClusterRig {
    seed: u64,
    coord: Coordinator,
    nodes: Vec<Arc<ClusterNode>>,
    replicas: usize,
    rebalance_budget: u64,
    /// When the newcomer joins; `None` once it has (or if it never does).
    join_at: Option<SimTime>,
    rebalancing: bool,
    rebalance: Option<RebalanceReport>,
}

impl ClusterRig {
    /// The rig for `cfg`'s cluster stack, and its node-fault schedule.
    pub(crate) fn build(cfg: &ChaosConfig) -> (Box<dyn Rig>, Schedule) {
        let Stack::Cluster { nodes: size, replicas, write_quorum, rebalance_budget, shape } =
            cfg.stack
        else {
            unreachable!("a cluster rig runs the cluster stack")
        };
        let replicas = replicas.min(size).max(1);
        let coord = Coordinator::new(replicas, write_quorum.min(replicas).max(1));
        let mut nodes = Vec::new();
        for i in 0..size {
            let node = build_node(
                &format!("node-{i}"),
                cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64),
            );
            coord.add_node(Arc::clone(&node)).expect("distinct node names");
            nodes.push(node);
        }
        let names: Vec<String> = nodes.iter().map(|n| n.name().to_string()).collect();
        let generate = match shape {
            ClusterScenarioKind::NodeKill => Schedule::kills,
            ClusterScenarioKind::NodePartition => Schedule::partitions,
            ClusterScenarioKind::RejoinStale => Schedule::rejoin_stale,
            ClusterScenarioKind::KillDuringRebalance => Schedule::kill_during_window,
        };
        let join_at = (shape == ClusterScenarioKind::KillDuringRebalance)
            .then(|| SimTime::ZERO + cfg.horizon.mul_f64(0.2));
        let rig = Self {
            seed: cfg.seed,
            coord,
            nodes,
            replicas,
            rebalance_budget,
            join_at,
            rebalancing: false,
            rebalance: None,
        };
        (Box::new(rig), generate(cfg.seed, &names, cfg.horizon))
    }

    fn node(&self, name: &str) -> Option<&Arc<ClusterNode>> {
        self.nodes.iter().find(|n| n.name() == name)
    }

    fn read(&self, key: &str, t: SimTime) -> OpResult<Vec<u8>> {
        self.get(key, t).map(|(data, _)| data.to_vec())
    }
}

impl Rig for ClusterRig {
    fn get(&self, key: &str, t: SimTime) -> OpResult<(Bytes, SimDuration)> {
        self.coord.get(key, t).map_err(|e| e.to_string())
    }

    fn put(&self, key: &str, value: Bytes, t: SimTime) -> OpResult<SimDuration> {
        self.coord.put(key, value, t).map_err(|e| e.to_string())
    }

    fn delete(&self, key: &str, t: SimTime) -> OpResult<SimDuration> {
        self.coord.delete(self.coord.next_token(), key, t).map_err(|e| e.to_string())
    }

    fn apply(&self, edge: Edge<'_>, t: SimTime, sweep: bool, log: &mut Vec<String>) {
        let (Fault::Kill { node: name, .. }
        | Fault::Partition { node: name, .. }
        | Fault::Slow { node: name, .. }) = edge.fault
        else {
            return;
        };
        let node = self.node(name);
        let mut say = |what: &str, extra: String| {
            log.push(format!(
                "t={:.3}s {}{what} node={name}{extra}",
                t.as_secs_f64(),
                if sweep { "(sweep) " } else { "" }
            ))
        };
        let sync = match (edge.fault, edge.onset) {
            (Fault::Kill { .. }, true) => {
                say("kill", String::new());
                if let Some(n) = node {
                    n.kill();
                }
                false
            }
            (Fault::Kill { .. }, false) => {
                say("rejoin", String::new());
                true
            }
            (Fault::Partition { .. }, onset) => {
                say(if onset { "partition" } else { "heal" }, String::new());
                if let Some(n) = node {
                    n.set_partitioned(onset);
                }
                // A healed node syncs like a rejoiner: it may have missed
                // writes and deletes while isolated.
                !onset
            }
            (Fault::Slow { penalty, .. }, onset) => {
                let penalty = if onset { *penalty } else { SimDuration::ZERO };
                if onset {
                    say("slow", format!(" penalty={:.3}s", penalty.as_secs_f64()));
                } else {
                    say("unslow", String::new());
                }
                if let Some(n) = node {
                    n.set_slow_penalty(penalty);
                }
                false
            }
            _ => false,
        };
        if sync {
            if let Ok(report) = self.coord.rejoin(name, t) {
                log_rejoin(log, name, &report);
            }
        }
    }

    /// The newcomer's join, then one budgeted rebalance step while a
    /// rebalance runs.
    fn before_op(&mut self, t: SimTime, log: &mut Vec<String>) {
        if self.join_at.is_some_and(|at| t >= at) {
            self.join_at = None;
            let newcomer = build_node("node-new", self.seed.wrapping_mul(31).wrapping_add(997));
            self.nodes.push(Arc::clone(&newcomer));
            let planned = self.coord.add_node(newcomer).expect("fresh node name");
            self.rebalancing = planned > 0;
            log.push(format!(
                "t={:.3}s join node=node-new planned_moves={planned}",
                t.as_secs_f64()
            ));
        }
        if self.rebalancing && self.coord.rebalance_step(t, self.rebalance_budget).done {
            self.rebalancing = false;
            let r = self.coord.last_rebalance().unwrap_or_default();
            log.push(format!(
                "t={:.3}s rebalance done: planned={} moved_keys={} moved_bytes={} deferred={}",
                t.as_secs_f64(),
                r.planned,
                r.moved_keys,
                r.moved_bytes,
                r.deferred
            ));
        }
    }

    /// Finishes the rebalance, runs the anti-entropy sweep over every
    /// member, then the survivability probe: every W-acked write must
    /// survive any R−1 node kills, so it kills R−1 seeded-chosen members
    /// and reads every acked key through the coordinator.
    fn quiesce(
        &mut self,
        t: SimTime,
        ledger: &WriteLedger,
        inline: &mut InvariantReport,
        log: &mut Vec<String>,
    ) -> SimTime {
        if !self.coord.rebalance_done() {
            let report = self.coord.rebalance_all(t, self.rebalance_budget);
            log.push(format!(
                "rebalance drained: planned={} moved_keys={} moved_bytes={} deferred={}",
                report.planned, report.moved_keys, report.moved_bytes, report.deferred
            ));
        }
        self.rebalance = self.coord.last_rebalance();
        if let Some(r) = &self.rebalance {
            // Ring convergence within bounded migration volume: the plan is
            // minimal, so actual copies can never exceed it.
            if r.moved_keys > r.planned as u64 {
                inline.violations.push(format!(
                    "migration volume exceeded the plan: moved {} of {} planned keys",
                    r.moved_keys, r.planned
                ));
            }
        }
        let resync = |name: &str, log: &mut Vec<String>| {
            if let Ok(report) = self.coord.rejoin(name, t) {
                if report.repaired > 0 || report.purged > 0 {
                    log_rejoin(log, name, &report);
                }
            }
        };
        for node in &self.nodes {
            node.set_partitioned(false);
            node.set_slow_penalty(SimDuration::ZERO);
            resync(node.name(), log);
        }

        let mut probe_rng = SimRng::new(self.seed ^ 0x5042_0be5_a17e_d00d);
        let mut member_names = self.coord.node_names();
        let mut victims = Vec::new();
        for _ in 0..self.replicas.saturating_sub(1).min(member_names.len().saturating_sub(1)) {
            let i = probe_rng.next_below(member_names.len() as u64) as usize;
            victims.push(member_names.swap_remove(i));
        }
        victims.sort();
        for v in &victims {
            if let Some(n) = self.node(v) {
                n.kill();
            }
        }
        log.push(format!("survivability probe: killed {victims:?}"));
        let probe = ledger.check_cluster(|key| self.read(key, t));
        for v in probe.violations {
            inline.violations.push(format!("under R-1 kills: {v}"));
        }
        for v in &victims {
            if let Some(n) = self.node(v) {
                n.revive();
            }
            resync(v, log);
        }
        t
    }

    /// The replication-aware sweep, all nodes healthy, plus the check that
    /// no rejoined owner of a deleted key still physically holds it.
    fn check(
        &mut self,
        ledger: &WriteLedger,
        inline: InvariantReport,
        t: SimTime,
        out: &mut ChaosOutcome,
    ) -> String {
        let mut invariants = ledger.check_cluster(|key| self.read(key, t));
        let deleted = ledger.deleted_snapshot();
        let mut phantoms = 0usize;
        for node in &self.nodes {
            for key in &deleted {
                if self.coord.owner_names(key).iter().any(|o| o == node.name())
                    && node.instance().contains(key.as_str())
                {
                    invariants.violations.push(format!(
                        "phantom copy: rejoined owner {} still holds deleted key={key}",
                        node.name()
                    ));
                    phantoms += 1;
                }
            }
        }
        invariants.merge(inline);
        out.invariants = invariants;
        out.rebalance = self.rebalance.take();
        format!("phantom_copies={phantoms}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ClusterScenarioKind::NodeKill.name(), "node-kill");
        assert_eq!(ClusterScenarioKind::NodePartition.name(), "node-partition");
        assert_eq!(ClusterScenarioKind::RejoinStale.name(), "rejoin-stale");
        assert_eq!(ClusterScenarioKind::KillDuringRebalance.name(), "kill-during-rebalance");
        assert_eq!(ClusterScenarioKind::all().len(), 4);
    }

    #[test]
    fn quick_matrix_upholds_the_replicated_contract() {
        // The acceptance matrix: every (seed, scenario) cell must hold
        // every invariant.
        for kind in ClusterScenarioKind::all() {
            for seed in [11, 29] {
                let outcome = run(&ChaosConfig::cluster(seed, kind));
                assert!(outcome.ok(), "{}", outcome.report());
            }
        }
    }

    #[test]
    fn replay_is_byte_identical_per_seed_and_scenario() {
        for kind in ClusterScenarioKind::all() {
            let cfg = ChaosConfig::cluster(42, kind);
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a.event_log, b.event_log, "kind={} replays diverged", kind.name());
            let counts = |o: &ChaosOutcome| {
                [
                    o.writes_issued,
                    o.writes_acked,
                    o.writes_failed,
                    o.reads_ok,
                    o.reads_failed,
                    o.deletes_acked,
                    o.deletes_failed,
                ]
            };
            assert_eq!(counts(&a), counts(&b));
        }
    }

    #[test]
    fn kill_during_rebalance_actually_rebalances() {
        let cfg = ChaosConfig::cluster(7, ClusterScenarioKind::KillDuringRebalance);
        let outcome = run(&cfg);
        assert!(outcome.ok(), "{}", outcome.report());
        let r = outcome.rebalance.expect("the join must trigger a rebalance");
        assert!(r.planned > 0);
        assert!(r.moved_keys <= r.planned as u64, "migration volume bounded");
    }

    #[test]
    fn outcome_report_embeds_seed_and_replay_command() {
        let outcome = run(&ChaosConfig::cluster(77, ClusterScenarioKind::NodePartition));
        let report = outcome.report();
        assert!(report.contains("cluster-chaos node-partition seed=77"), "{report}");
        assert!(
            report.contains("scenario::run(&ChaosConfig::cluster(77, NodePartition))"),
            "{report}"
        );
    }
}

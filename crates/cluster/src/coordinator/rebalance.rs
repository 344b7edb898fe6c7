//! Membership changes and the data they move: the rebalance run a join
//! or leave plans, and the rejoin sweep that repairs a returning node.

use std::sync::Arc;

use tiera_core::ObjectKey;
use tiera_sim::SimTime;

use crate::node::ClusterNode;
use crate::ring::{KeyMove, Ring};

use super::read::{fresh_copy, repair};
use super::route::{find, position, Membership};
use super::write::KeyMeta;
use super::{ClusterError, Coordinator, Handles};

/// An in-flight migration run.
pub(super) struct RebalanceRun {
    pub(super) old_ring: Ring,
    /// `old_ring`'s point owners as handle positions (see
    /// [`Membership::reindex`]).
    pub(super) old_points: Vec<usize>,
    moves: Vec<KeyMove>,
    cursor: usize,
    completed: usize,
    /// What the moves completed so far did.
    report: RebalanceReport,
}

/// Summary of a completed (or in-flight) rebalance run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Key moves the plan contained.
    pub planned: usize,
    /// Keys whose bytes were actually copied.
    pub moved_keys: u64,
    /// Bytes copied.
    pub moved_bytes: u64,
    /// Moves deferred to anti-entropy (no reachable fresh source, or the
    /// target was unreachable).
    pub deferred: u64,
}

impl RebalanceReport {
    /// What one move that copied `bytes`, or was `deferred`, adds.
    fn count(mut self, bytes: u64, deferred: bool) -> Self {
        self.moved_bytes += bytes;
        if deferred {
            self.deferred += 1;
        } else if bytes > 0 {
            self.moved_keys += 1;
        }
        self
    }
}

/// Outcome of one bandwidth-capped [`Coordinator::rebalance_step`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStep {
    /// What this step's moves did (`planned` stays 0).
    pub moved: RebalanceReport,
    /// Moves still unclaimed after this step.
    pub remaining: usize,
    /// Whether the run is fully finished.
    pub done: bool,
}

/// Result of a rejoin anti-entropy sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejoinReport {
    /// Keys owned by the rejoining node that were checked.
    pub checked: u64,
    /// Copies on the rejoining node — behind, missing, or left by a
    /// failed write — brought to the authoritative version.
    pub repaired: u64,
    /// Tombstoned keys purged from the rejoining node.
    pub purged: u64,
}

impl Coordinator {
    // ---- membership ----

    /// Adds a node to the ring and plans the migration of every key
    /// whose owner set changed. Returns the number of planned moves;
    /// drive them with [`Coordinator::rebalance_step`] (or
    /// [`Coordinator::rebalance_all`]).
    pub fn add_node(&self, node: Arc<ClusterNode>) -> Result<usize, ClusterError> {
        let name = node.name().to_string();
        let keys = self.live_keys();
        let mut mem = self.membership.write();
        if mem.ring.contains(&name) {
            return Err(ClusterError::DuplicateNode(name));
        }
        let old_ring = mem.ring.clone();
        mem.ring.join(&name);
        if position(&mem.nodes, &name).is_none() {
            let mut nodes = mem.nodes.to_vec();
            nodes.push(node);
            nodes.sort_by(|a, b| a.name().cmp(b.name()));
            mem.nodes = nodes.into();
        }
        let planned = self.install_plan(&mut mem, &old_ring, &keys);
        mem.reindex();
        Ok(planned)
    }

    /// Removes a node from the ring (its handle stays known as a
    /// migration source) and plans the hand-off of everything it owned.
    pub fn remove_node(&self, name: &str) -> Result<usize, ClusterError> {
        let keys = self.live_keys();
        let mut mem = self.membership.write();
        if !mem.ring.contains(name) {
            return Err(ClusterError::UnknownNode(name.to_string()));
        }
        let old_ring = mem.ring.clone();
        mem.ring.leave(name);
        let planned = self.install_plan(&mut mem, &old_ring, &keys);
        mem.reindex();
        Ok(planned)
    }

    /// Diffs `old_ring` against the (already updated) membership and
    /// installs the resulting run. A run already in flight is extended
    /// by re-planning from the union ring — the old ring of record stays
    /// the *oldest* one, so reads keep falling back far enough.
    fn install_plan(&self, mem: &mut Membership, old_ring: &Ring, keys: &[ObjectKey]) -> usize {
        let base = match &mem.rebalance {
            Some(run) => run.old_ring.clone(),
            None => old_ring.clone(),
        };
        let plan =
            base.plan_rebalance(&mem.ring, keys.iter().map(ObjectKey::as_str), self.replicas);
        let planned = plan.moves.len();
        if planned == 0 {
            // Nothing to move; finish any stale in-flight bookkeeping.
            if mem.rebalance.is_none() {
                mem.last_report = Some(RebalanceReport::default());
            }
            return 0;
        }
        mem.rebalance = Some(RebalanceRun {
            old_ring: base,
            old_points: Vec::new(),
            moves: plan.moves,
            cursor: 0,
            completed: 0,
            report: RebalanceReport { planned, ..RebalanceReport::default() },
        });
        planned
    }

    /// Whether no migration run is in flight.
    pub fn rebalance_done(&self) -> bool {
        self.membership.read().rebalance.is_none()
    }

    /// The summary of the most recently completed run.
    pub fn last_rebalance(&self) -> Option<RebalanceReport> {
        self.membership.read().last_report
    }

    /// Executes migration moves until `byte_budget` bytes have been
    /// copied (at least one move makes progress per call), then returns.
    /// Safe to call from several threads and while traffic is flowing.
    pub fn rebalance_step(&self, now: SimTime, byte_budget: u64) -> RebalanceStep {
        let mut step = RebalanceStep::default();
        loop {
            let Some((mv, handles)) = self.claim_move(&mut step) else {
                return step;
            };
            let (bytes, deferred) = self.execute_move(&mv, &handles, now);
            step.moved = step.moved.count(bytes, deferred);
            self.retire_move(&mut step, bytes, deferred);
            if step.done || step.moved.moved_bytes >= byte_budget {
                return step;
            }
        }
    }

    /// Drives the in-flight run to completion in budget-sized steps;
    /// returns the completed run's report.
    pub fn rebalance_all(&self, now: SimTime, byte_budget: u64) -> RebalanceReport {
        loop {
            let step = self.rebalance_step(now, byte_budget.max(1));
            if step.done {
                return self.last_rebalance().unwrap_or_default();
            }
        }
    }

    fn claim_move(&self, step: &mut RebalanceStep) -> Option<(KeyMove, Handles)> {
        let mut mem = self.membership.write();
        let Some(run) = mem.rebalance.as_mut() else {
            step.done = true;
            step.remaining = 0;
            return None;
        };
        if run.cursor >= run.moves.len() {
            // Every move is claimed; another thread is finishing the rest.
            step.remaining = 0;
            return None;
        }
        let mv = run.moves[run.cursor].clone();
        run.cursor += 1;
        step.remaining = run.moves.len() - run.cursor;
        Some((mv, Arc::clone(&mem.nodes)))
    }

    fn retire_move(&self, step: &mut RebalanceStep, bytes: u64, deferred: bool) {
        let mut mem = self.membership.write();
        let Some(run) = mem.rebalance.as_mut() else {
            step.done = true;
            return;
        };
        run.completed += 1;
        run.report = run.report.count(bytes, deferred);
        if run.completed == run.moves.len() {
            mem.last_report = Some(run.report);
            mem.rebalance = None;
            step.done = true;
            step.remaining = 0;
        }
    }

    /// Copies one key to the owners that gained it. Returns
    /// `(bytes copied, deferred)`.
    fn execute_move(
        &self,
        mv: &KeyMove,
        handles: &[Arc<ClusterNode>],
        now: SimTime,
    ) -> (u64, bool) {
        if mv.targets.is_empty() {
            return (0, false);
        }
        // Deleted or vanished since planning: nothing to copy.
        let Some((key, version, _)) = self.meta.lock().live(&mv.key) else {
            return (0, false);
        };
        // From an old owner, or a target a concurrent write already
        // reached; if every such copy is unreachable right now, the rejoin
        // anti-entropy sweep repairs this key later.
        let sources = mv.sources.iter().chain(&mv.targets);
        let Some(data) = fresh_copy(&key, version, sources.filter_map(|n| find(handles, n)), now)
        else {
            return (0, true);
        };
        let targets: Vec<&ClusterNode> =
            mv.targets.iter().filter_map(|n| find(handles, n)).map(Arc::as_ref).collect();
        let into = targets.iter().map(|&node| (node, false));
        let (written, failed) = self.merge(&key, version, &data, into, now);
        let deferred = failed > 0 || targets.len() < mv.targets.len();
        (written * data.len() as u64, deferred)
    }

    // ---- rejoin anti-entropy ----

    /// Revives a killed node and repairs its stale state: each live key it
    /// owns and holds divergent, by the rule reads repair by (behind,
    /// missing, or a failed write's copy), gets the authoritative version
    /// merged in from a co-owner; each tombstoned key it holds is purged.
    pub fn rejoin(&self, name: &str, now: SimTime) -> Result<RejoinReport, ClusterError> {
        let (node, ring, handles) = {
            let mem = self.membership.read();
            let Some(node) = find(&mem.nodes, name).cloned() else {
                return Err(ClusterError::UnknownNode(name.to_string()));
            };
            (node, mem.ring.clone(), Arc::clone(&mem.nodes))
        };
        node.revive();
        let mut entries: Vec<(ObjectKey, KeyMeta, Vec<u64>)> = {
            let meta = self.meta.lock();
            meta.keys.iter().map(|(k, m)| (k.clone(), *m, meta.failed.of(k.as_str()))).collect()
        };
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut report = RejoinReport::default();
        for (key, km, failed) in entries {
            let owners: Vec<&str> = ring.owners_iter(key.as_str(), self.replicas).collect();
            if !owners.contains(&name) {
                continue;
            }
            report.checked += 1;
            let held = node.apply_get(&key, now).map(|(_, _, v)| v);
            if km.deleted {
                if held.is_ok() && node.apply_delete(&key, now).is_ok() {
                    report.purged += 1;
                }
                continue;
            }
            let Some(residue) = repair(held.ok(), km.version, &failed) else {
                continue;
            };
            let peers =
                owners.iter().filter(|&&peer| peer != name).filter_map(|peer| find(&handles, peer));
            let Some(data) = fresh_copy(&key, km.version, peers, now) else {
                continue;
            };
            report.repaired +=
                self.merge(&key, km.version, &data, [(node.as_ref(), residue)], now).0;
        }
        Ok(report)
    }
}

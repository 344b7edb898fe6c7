//! The node-fault generators of the one [`Schedule`]: seeded kill,
//! partition and slow-node shapes over a cluster's members.
//!
//! Where [`Schedule::random`] fails individual *tiers* inside one
//! instance, these fail whole *cluster members*: kill (freeze state,
//! refuse ops, later rejoin with whatever stale state was frozen),
//! partition (unreachable, heals), and slow (fixed virtual-latency penalty
//! per op). Every generator is a pure function of its seed, every fault is
//! bounded, and every fault's window closes by `0.6 × horizon` — the same
//! replay contract the tier generator honours: one number reproduces the
//! run. A run consumes the windows as [`Schedule::edges`].

use tiera_sim::{SimDuration, SimTime};
use tiera_support::SimRng;

use crate::schedule::{Fault, Schedule};

fn frac(horizon: SimDuration, f: f64) -> SimTime {
    SimTime::ZERO + horizon.mul_f64(f)
}

fn pick_distinct(rng: &mut SimRng, names: &[String], k: usize) -> Vec<String> {
    let mut pool: Vec<String> = names.to_vec();
    let mut out = Vec::new();
    for _ in 0..k.min(pool.len()) {
        let i = rng.next_below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(i));
    }
    out.sort();
    out
}

impl Schedule {
    /// Kill 1–2 nodes (never all of them) at seeded instants in
    /// `[0.10, 0.35] × horizon`, each rejoining `[0.10, 0.20] × horizon`
    /// later — pure function of `seed`.
    pub fn kills(seed: u64, nodes: &[String], horizon: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0x6b11_6b11_6b11_6b11);
        let mut s = Self::new(seed);
        let k = (1 + rng.next_below(2) as usize).min(nodes.len().saturating_sub(1)).max(1);
        for node in pick_distinct(&mut rng, nodes, k) {
            let at = frac(horizon, 0.10 + rng.next_f64() * 0.25);
            let rejoin_at = at + horizon.mul_f64(0.10 + rng.next_f64() * 0.10);
            s.faults.push(Fault::Kill { node, at, rejoin_at });
        }
        s
    }

    /// Partition 1–2 nodes over seeded windows inside
    /// `[0.10, 0.55] × horizon`.
    pub fn partitions(seed: u64, nodes: &[String], horizon: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0x9a27_9a27_9a27_9a27);
        let mut s = Self::new(seed);
        let k = (1 + rng.next_below(2) as usize).min(nodes.len().saturating_sub(1)).max(1);
        for node in pick_distinct(&mut rng, nodes, k) {
            let from = frac(horizon, 0.10 + rng.next_f64() * 0.25);
            let until = from + horizon.mul_f64(0.05 + rng.next_f64() * 0.15);
            s.faults.push(Fault::Partition { node, from, until });
        }
        s
    }

    /// The long-staleness shape: one node dies almost immediately and
    /// only rejoins near the end of the fault window (missing most of
    /// the run's writes), while another node crawls for a while.
    pub fn rejoin_stale(seed: u64, nodes: &[String], horizon: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0x4e10_4e10_4e10_4e10);
        let mut s = Self::new(seed);
        let picked = pick_distinct(&mut rng, nodes, 2);
        if let Some(victim) = picked.first() {
            s.faults.push(Fault::Kill {
                node: victim.clone(),
                at: frac(horizon, 0.05),
                rejoin_at: frac(horizon, 0.45 + rng.next_f64() * 0.10),
            });
        }
        if let Some(slowpoke) = picked.get(1) {
            let from = frac(horizon, 0.10 + rng.next_f64() * 0.10);
            s.faults.push(Fault::Slow {
                node: slowpoke.clone(),
                from,
                until: from + horizon.mul_f64(0.20),
                penalty: SimDuration::from_millis(40 + rng.next_below(80)),
            });
        }
        s
    }

    /// A kill window timed to overlap a rebalance that starts around
    /// `0.2 × horizon`: one node dies inside `[0.22, 0.30] × horizon`
    /// (while it is still a migration source) and rejoins before
    /// `0.55 × horizon`.
    pub fn kill_during_window(seed: u64, nodes: &[String], horizon: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0x2eba_2eba_2eba_2eba);
        let mut s = Self::new(seed);
        for node in pick_distinct(&mut rng, nodes, 1) {
            let at = frac(horizon, 0.22 + rng.next_f64() * 0.08);
            let rejoin_at = at + horizon.mul_f64(0.15 + rng.next_f64() * 0.10);
            s.faults.push(Fault::Kill { node, at, rejoin_at });
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Edge;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node-{i}")).collect()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let h = SimDuration::from_secs(600);
        let nodes = names(5);
        for seed in 0..20u64 {
            assert_eq!(Schedule::kills(seed, &nodes, h), Schedule::kills(seed, &nodes, h));
            assert_eq!(
                Schedule::partitions(seed, &nodes, h).describe(),
                Schedule::partitions(seed, &nodes, h).describe()
            );
            assert_eq!(
                Schedule::rejoin_stale(seed, &nodes, h),
                Schedule::rejoin_stale(seed, &nodes, h)
            );
            assert_eq!(
                Schedule::kill_during_window(seed, &nodes, h),
                Schedule::kill_during_window(seed, &nodes, h)
            );
        }
    }

    #[test]
    fn every_generator_clears_by_sixty_percent_of_horizon() {
        let h = SimDuration::from_secs(1000);
        let bound = SimTime::ZERO + h.mul_f64(0.6) + SimDuration::from_secs(1);
        let nodes = names(5);
        for seed in 0..40u64 {
            for s in [
                Schedule::kills(seed, &nodes, h),
                Schedule::partitions(seed, &nodes, h),
                Schedule::rejoin_stale(seed, &nodes, h),
                Schedule::kill_during_window(seed, &nodes, h),
            ] {
                let clears = s.clears_by().expect("node faults are bounded");
                assert!(
                    clears <= bound,
                    "seed {seed}: clears at {:.1}s\n{}",
                    clears.as_secs_f64(),
                    s.describe()
                );
            }
        }
    }

    #[test]
    fn kills_never_take_every_node() {
        let h = SimDuration::from_secs(600);
        let nodes = names(2);
        for seed in 0..30u64 {
            let s = Schedule::kills(seed, &nodes, h);
            assert!(s.faults.len() < nodes.len(), "seed {seed} killed all nodes");
        }
    }

    fn edge(s: &Schedule, i: usize, onset: bool) -> Edge<'_> {
        Edge { fault: &s.faults[i], onset }
    }

    #[test]
    fn edges_fire_each_phase_exactly_once_and_in_order() {
        let mut s = Schedule::new(1);
        s.faults.push(Fault::Kill {
            node: "a".into(),
            at: SimTime::from_secs(10),
            rejoin_at: SimTime::from_secs(20),
        });
        s.faults.push(Fault::Slow {
            node: "b".into(),
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(15),
            penalty: SimDuration::from_millis(50),
        });
        // A tier fault has no edges: it acts through injector windows.
        let s = s.outage("ebs", SimTime::from_secs(1), None, tiera_sim::FailureKind::All);
        let at = |secs| Some(SimTime::from_secs(secs));
        assert!(s.edges(None, at(1)).is_empty());
        assert_eq!(s.edges(at(1), at(7)), vec![edge(&s, 1, true)]);
        assert_eq!(s.edges(at(7), at(12)), vec![edge(&s, 0, true)]);
        // Asking again from the same instant fires nothing twice.
        assert!(s.edges(at(12), at(12)).is_empty());
        // The finish sweep fires the rest, in fault order.
        assert_eq!(s.edges(at(12), None), vec![edge(&s, 0, false), edge(&s, 1, false)]);
        assert!(s.edges(at(20), None).is_empty());
        // Consecutive windows partition the edges: each fires exactly
        // once, and a fault's onset before its clearance.
        let mut seen = Vec::new();
        let mut last = None;
        for t in (0..=30).step_by(3) {
            seen.extend(s.edges(last, at(t)));
            last = at(t);
        }
        seen.extend(s.edges(last, None));
        assert_eq!(seen.len(), 4);
        for i in 0..2 {
            let pos = |onset| seen.iter().position(|e| *e == edge(&s, i, onset));
            assert!(pos(true).unwrap() < pos(false).unwrap(), "{seen:?}");
        }
    }

    #[test]
    fn onset_and_clearance_can_fire_in_one_call() {
        let mut s = Schedule::new(1);
        s.faults.push(Fault::Partition {
            node: "a".into(),
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
        });
        let both = s.edges(None, Some(SimTime::from_secs(30)));
        assert_eq!(both, vec![edge(&s, 0, true), edge(&s, 0, false)]);
    }

    #[test]
    fn describe_is_stable_and_names_every_event() {
        let h = SimDuration::from_secs(600);
        let nodes = names(4);
        let s = Schedule::rejoin_stale(3, &nodes, h);
        let text = s.describe();
        assert!(text.starts_with("node-fault-schedule seed=3\n"), "{text}");
        assert!(text.contains("kill node="));
        assert!(text.contains("slow node="));
        assert_eq!(text, Schedule::rejoin_stale(3, &nodes, h).describe());
    }
}

//! The consistent-hash ring.
//!
//! Placement is deterministic: vnode positions hash `(node name, vnode
//! index)` and keys hash their bytes, both through
//! [`tiera_support::collections::fx_hash_one`], so any two rings built
//! from the same membership (in any join order) place every key
//! identically. A key's owners are the first `r` *distinct* nodes at or
//! clockwise of its hash.
//!
//! [`Ring::plan_rebalance`] diffs two rings over a key set and emits the
//! minimal migration plan: one [`KeyMove`] per key whose owner set
//! changed, listing only the nodes that must *gain* a copy. Keys whose
//! owners are unchanged never appear (the property test in this module
//! pins that down over random join/leave sequences).

use tiera_support::collections::fx_hash_one;

/// Default virtual nodes per member. 64 points per node keeps the
/// per-node keyspace share within a few percent of uniform for small
/// clusters while membership changes stay cheap to apply.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over named nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    vnodes: usize,
    /// Sorted vnode points: (position hash, owning node). Ties are broken
    /// by node name so identical memberships yield identical rings.
    points: Vec<(u64, String)>,
    /// Sorted member names.
    names: Vec<String>,
}

/// One key that must move because its owner set changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMove {
    /// The key to migrate.
    pub key: String,
    /// Owners under the old ring (copy sources), in ring order.
    pub sources: Vec<String>,
    /// Nodes that own the key under the new ring but did not before
    /// (copy targets), in ring order. Empty when the owner set only
    /// shrank — the key changed owners but no data has to move.
    pub targets: Vec<String>,
}

/// The minimal migration plan between two rings over a key set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Keys whose owner set changed, in input order.
    pub moves: Vec<KeyMove>,
}

impl RebalancePlan {
    /// Number of keys that need data copied (non-empty target list).
    pub fn copies(&self) -> usize {
        self.moves.iter().filter(|m| !m.targets.is_empty()).count()
    }

    /// Whether nothing has to move.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

impl Ring {
    /// An empty ring with `vnodes` virtual nodes per member.
    pub fn new(vnodes: usize) -> Self {
        Self { vnodes: vnodes.max(1), points: Vec::new(), names: Vec::new() }
    }

    /// A ring pre-populated with `names`.
    pub fn with_nodes<I, S>(vnodes: usize, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut ring = Self::new(vnodes);
        for n in names {
            ring.join(&n.into());
        }
        ring
    }

    /// The hash a key is placed by.
    pub fn key_hash(key: &str) -> u64 {
        fx_hash_one(key.as_bytes())
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Member names, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.names
    }

    /// Whether `name` is a member.
    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Adds a member; returns false (and changes nothing) if it was
    /// already present.
    pub fn join(&mut self, name: &str) -> bool {
        if self.contains(name) {
            return false;
        }
        self.names.push(name.to_string());
        self.names.sort();
        for i in 0..self.vnodes {
            let pos = fx_hash_one(&(name, i as u64));
            self.points.push((pos, name.to_string()));
        }
        self.points.sort();
        true
    }

    /// Removes a member; returns false if it was not present.
    pub fn leave(&mut self, name: &str) -> bool {
        if !self.contains(name) {
            return false;
        }
        self.names.retain(|n| n != name);
        self.points.retain(|(_, n)| n != name);
        true
    }

    /// The first `r` distinct nodes at or clockwise of the key's hash —
    /// the key's replica set, primary first. Returns fewer than `r`
    /// names when the ring has fewer members.
    pub fn owners(&self, key: &str, r: usize) -> Vec<String> {
        self.owners_iter(key, r).map(str::to_string).collect()
    }

    /// [`Ring::owners`] as borrowed names: what a caller that resolves
    /// each owner under the lock guarding this ring wants, since nothing
    /// is cloned.
    pub fn owners_iter<'a>(&'a self, key: &str, r: usize) -> impl Iterator<Item = &'a str> {
        let want = r.min(self.names.len());
        let (before, from) = self.points.split_at(self.first_point(key));
        let mut seen: Vec<&str> = Vec::with_capacity(want);
        from.iter()
            .chain(before)
            .map(|(_, name)| name.as_str())
            .filter(move |name| {
                let fresh = !seen.contains(name);
                if fresh {
                    seen.push(*name);
                }
                fresh
            })
            .take(want)
    }

    /// Index of the first vnode point at or clockwise of the key's hash;
    /// the point count when the hash lies past the last point, where the
    /// walk wraps to the start.
    pub(crate) fn first_point(&self, key: &str) -> usize {
        let hash = Self::key_hash(key);
        self.points.partition_point(|&(pos, _)| pos < hash)
    }

    /// The member owning each vnode point, in ring order: what the
    /// coordinator resolves once per membership change so that routing
    /// walks handle positions instead of comparing names.
    pub(crate) fn point_owners(&self) -> impl Iterator<Item = &str> {
        self.points.iter().map(|(_, name)| name.as_str())
    }

    /// The primary owner of `key`, if the ring is non-empty.
    pub fn primary(&self, key: &str) -> Option<String> {
        self.owners_iter(key, 1).next().map(str::to_string)
    }

    /// Diffs this ring against `target` over `keys` with replica count
    /// `r`: the returned plan holds one [`KeyMove`] for exactly the keys
    /// whose owner set changed, and its targets are exactly the nodes
    /// that gained ownership.
    pub fn plan_rebalance<'a, I>(&self, target: &Ring, keys: I, r: usize) -> RebalancePlan
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut moves = Vec::new();
        for key in keys {
            let old = self.owners(key, r);
            let new = target.owners(key, r);
            if old == new {
                continue;
            }
            let targets: Vec<String> = new.iter().filter(|n| !old.contains(n)).cloned().collect();
            moves.push(KeyMove { key: key.to_string(), sources: old, targets });
        }
        RebalancePlan { moves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_support::prop::gen;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("key-{i}")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_join_order_independent() {
        let a = Ring::with_nodes(DEFAULT_VNODES, ["n1", "n2", "n3"]);
        let b = Ring::with_nodes(DEFAULT_VNODES, ["n3", "n1", "n2"]);
        assert_eq!(a, b);
        for key in keys(200) {
            assert_eq!(a.owners(&key, 2), b.owners(&key, 2));
        }
    }

    #[test]
    fn owners_are_distinct_and_capped_by_membership() {
        let ring = Ring::with_nodes(DEFAULT_VNODES, ["a", "b", "c"]);
        for key in keys(100) {
            let owners = ring.owners(&key, 3);
            assert_eq!(owners.len(), 3);
            let mut dedup = owners.clone();
            dedup.dedup();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners must be distinct: {owners:?}");
        }
        assert_eq!(ring.owners("k", 5).len(), 3, "capped at member count");
        assert!(Ring::new(8).owners("k", 2).is_empty());
        assert!(Ring::new(8).primary("k").is_none());
    }

    #[test]
    fn vnodes_spread_load_roughly_evenly() {
        let ring = Ring::with_nodes(DEFAULT_VNODES, ["a", "b", "c", "d"]);
        let mut counts = std::collections::BTreeMap::new();
        for key in keys(4000) {
            *counts.entry(ring.primary(&key).unwrap()).or_insert(0usize) += 1;
        }
        for (node, count) in &counts {
            // Perfect balance is 1000; vnode placement should stay within
            // a generous 2x band.
            assert!((400..=2000).contains(count), "node {node} owns {count} of 4000 keys");
        }
    }

    #[test]
    fn join_and_leave_are_reversible() {
        let mut ring = Ring::with_nodes(32, ["a", "b"]);
        let before = ring.clone();
        assert!(ring.join("c"));
        assert!(!ring.join("c"), "double join is a no-op");
        assert!(ring.leave("c"));
        assert!(!ring.leave("c"), "double leave is a no-op");
        assert_eq!(ring, before);
    }

    #[test]
    fn single_join_moves_a_minority_of_keys() {
        let old = Ring::with_nodes(DEFAULT_VNODES, ["a", "b", "c"]);
        let mut new = old.clone();
        new.join("d");
        let all = keys(2000);
        let plan = old.plan_rebalance(&new, all.iter().map(String::as_str), 2);
        // A 4th node should claim roughly 1/4 of the key-replica space,
        // certainly not a majority of keys.
        assert!(!plan.is_empty());
        assert!(
            plan.moves.len() < all.len() / 2,
            "join moved {} of {} keys",
            plan.moves.len(),
            all.len()
        );
        // Every move targets only the joining node.
        for m in &plan.moves {
            assert!(m.targets.iter().all(|t| t == "d"), "{m:?}");
        }
    }

    #[test]
    fn prop_plan_rebalance_moves_exactly_the_changed_keys() {
        // Random join/leave sequences: at every step the plan lists
        // exactly the keys whose owner set changed (never more, never
        // fewer), and its targets are exactly the gained owners.
        let pool = ["n0", "n1", "n2", "n3", "n4", "n5"];
        let all = keys(150);
        tiera_support::prop_check!(cases = 48, |rng| {
            let r = gen::usize_in(rng, 1..4);
            let mut ring = Ring::with_nodes(16, ["n0", "n1", "n2"]);
            for _ in 0..gen::usize_in(rng, 1..6) {
                let prev = ring.clone();
                let node = gen::pick(rng, &pool);
                let leaving = gen::boolean(rng) && ring.len() > r;
                if leaving {
                    ring.leave(node);
                } else {
                    ring.join(node);
                }
                let plan = prev.plan_rebalance(&ring, all.iter().map(String::as_str), r);
                let planned: std::collections::BTreeSet<&str> =
                    plan.moves.iter().map(|m| m.key.as_str()).collect();
                for key in &all {
                    let old = prev.owners(key, r);
                    let new = ring.owners(key, r);
                    assert_eq!(
                        planned.contains(key.as_str()),
                        old != new,
                        "key {key}: old={old:?} new={new:?} planned={}",
                        planned.contains(key.as_str())
                    );
                }
                for m in &plan.moves {
                    let old = prev.owners(&m.key, r);
                    let new = ring.owners(&m.key, r);
                    assert_eq!(m.sources, old);
                    let gained: Vec<String> =
                        new.iter().filter(|n| !old.contains(n)).cloned().collect();
                    assert_eq!(m.targets, gained, "targets are exactly the gained owners");
                }
            }
        });
    }

    #[test]
    fn identical_rings_need_no_rebalance() {
        let ring = Ring::with_nodes(DEFAULT_VNODES, ["a", "b", "c"]);
        let all = keys(500);
        let plan = ring.plan_rebalance(&ring, all.iter().map(String::as_str), 3);
        assert!(plan.is_empty());
        assert_eq!(plan.copies(), 0);
    }
}

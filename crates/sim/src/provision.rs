//! Delayed capacity provisioning.
//!
//! When the paper's `grow` response fires (Figure 6 / Figure 16), a new
//! ElastiCache node must be spawned — which "took approximately 1 minute to
//! complete". The [`Provisioner`] models that: capacity changes are
//! *scheduled* and only become effective after the provisioning delay.
//! Shrinks are immediate (releasing a node needs no spawn).
//!
//! A provisioner is plain data: the tier that owns it keeps it under its
//! own state lock.

use crate::clock::{SimDuration, SimTime};

/// A pending capacity change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    effective_at: SimTime,
    new_capacity: u64,
}

/// Models a tier's capacity with provisioning delays on growth.
#[derive(Debug)]
pub struct Provisioner {
    spawn_delay: SimDuration,
    capacity: u64,
    pending: Vec<Pending>,
}

impl Provisioner {
    /// Creates a provisioner with an initial capacity (bytes) and a spawn
    /// delay applied to every grow.
    pub fn new(initial_capacity: u64, spawn_delay: SimDuration) -> Self {
        Self { spawn_delay, capacity: initial_capacity, pending: Vec::new() }
    }

    /// Convenience: the paper's ~1 minute EC2 node spawn.
    pub fn with_ec2_spawn(initial_capacity: u64) -> Self {
        Self::new(initial_capacity, SimDuration::from_secs(60))
    }

    /// The capacity visible at virtual time `now` (applies matured changes).
    pub fn capacity_at(&mut self, now: SimTime) -> u64 {
        // Apply matured pending changes in scheduling order.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].effective_at <= now {
                self.capacity = self.pending[i].new_capacity;
                self.pending.remove(i);
            } else {
                i += 1;
            }
        }
        self.capacity
    }

    /// Schedules a grow by `percent` of the *target* capacity at `now`,
    /// effective after the spawn delay. Returns the instant it matures.
    ///
    /// The target capacity is the latest scheduled capacity, so chained
    /// grows compound rather than racing.
    pub fn grow_percent(&mut self, now: SimTime, percent: f64) -> SimTime {
        let effective_at = now + self.spawn_delay;
        let base = self.pending.last().map(|p| p.new_capacity).unwrap_or(self.capacity);
        let add = (base as f64 * (percent / 100.0).max(0.0)).round() as u64;
        self.pending.push(Pending { effective_at, new_capacity: base + add });
        effective_at
    }

    /// Shrinks capacity by `percent` immediately (no spawn needed).
    pub fn shrink_percent(&mut self, percent: f64) {
        let cut = (self.capacity as f64 * (percent / 100.0).clamp(0.0, 1.0)) as u64;
        self.capacity = self.capacity.saturating_sub(cut);
        self.pending.clear();
    }

    /// Whether a grow is still in flight at `now`.
    pub fn growing_at(&self, now: SimTime) -> bool {
        self.pending.iter().any(|p| p.effective_at > now)
    }

    /// The configured spawn delay.
    pub fn spawn_delay(&self) -> SimDuration {
        self.spawn_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn grow_matures_after_delay() {
        let mut p = Provisioner::with_ec2_spawn(200 * MB);
        let t0 = SimTime::from_secs(360); // the paper's t = 6 min trigger
        let matures = p.grow_percent(t0, 100.0);
        assert_eq!(matures, SimTime::from_secs(420));
        assert_eq!(p.capacity_at(SimTime::from_secs(419)), 200 * MB);
        assert_eq!(p.capacity_at(SimTime::from_secs(420)), 400 * MB);
    }

    #[test]
    fn chained_grows_compound() {
        let mut p = Provisioner::new(100, SimDuration::from_secs(10));
        p.grow_percent(SimTime::ZERO, 100.0); // → 200 at t=10
        p.grow_percent(SimTime::from_secs(1), 50.0); // 50% of 200 → 300 at t=11
        assert_eq!(p.capacity_at(SimTime::from_secs(12)), 300);
    }

    #[test]
    fn shrink_is_immediate() {
        let mut p = Provisioner::with_ec2_spawn(100);
        p.shrink_percent(25.0);
        assert_eq!(p.capacity_at(SimTime::ZERO), 75);
    }

    #[test]
    fn growing_at_reports_in_flight() {
        let mut p = Provisioner::new(100, SimDuration::from_secs(60));
        assert!(!p.growing_at(SimTime::ZERO));
        p.grow_percent(SimTime::ZERO, 10.0);
        assert!(p.growing_at(SimTime::from_secs(30)));
        assert!(!p.growing_at(SimTime::from_secs(61)));
    }
}

//! Serialization of virtual-time critical sections.
//!
//! Models a resource held in *virtual* time: a database's CPU, a table
//! lock, a device's transfer path ([`crate::SharedBandwidth`] is a rate
//! over one). Grants are placed into the earliest idle gap at or after the
//! requested time, so slightly skewed clients do not convoy behind each
//! other's future reservations — only genuine contention queues.

use std::collections::{BTreeMap, BTreeSet};

use crate::clock::{SimDuration, SimTime};
use tiera_support::sync::{rank, Mutex};

/// Prune horizon for completed intervals (callers stay far closer together
/// than this: the workload drivers' executor steps clients in virtual-time
/// order, so they are at most one step apart).
const PRUNE_HORIZON: SimDuration = SimDuration::from_secs(30);

/// A gap-filling virtual-time lock / serial executor.
#[derive(Debug)]
pub struct SerialResource {
    busy: Mutex<Bookings>,
}

impl Default for SerialResource {
    fn default() -> Self {
        Self { busy: Mutex::named("serial.busy", rank::SERIAL_BUSY, Bookings::default()) }
    }
}

/// The booked virtual time, in nanoseconds. Grants that follow one another
/// back to back share one interval, so a device booked solid into the
/// future costs one lookup per grant, not one per booking.
#[derive(Debug, Default)]
struct Bookings {
    /// Start → end of each booked interval; no two touch.
    runs: BTreeMap<u64, u64>,
    /// The points inside an interval where one grant ended and the next
    /// began: the prune drops whole grants, so it needs them.
    cuts: BTreeSet<u64>,
}

impl Bookings {
    /// Forgets every grant that ended before `cutoff`.
    fn prune(&mut self, cutoff: u64) {
        while let Some(run) = self.runs.first_entry() {
            let end = *run.get();
            if end < cutoff {
                run.remove();
                while self.cuts.first().is_some_and(|&cut| cut < end) {
                    self.cuts.pop_first();
                }
                continue;
            }
            // Cuts below `cutoff` all lie inside this first interval.
            if let Some(&cut) = self.cuts.range(..cutoff).next_back() {
                run.remove();
                self.runs.insert(cut, end);
                while self.cuts.first().is_some_and(|&c| c <= cut) {
                    self.cuts.pop_first();
                }
            }
            return;
        }
    }

    /// Books the earliest idle gap of `occ` at or after `asked`, joining
    /// the intervals it abuts, and returns its start.
    fn book(&mut self, asked: u64, occ: u64) -> u64 {
        // The start of the interval the grant ends, if it abuts one.
        let mut left = None;
        let mut start = asked;
        if let Some((&from, &end)) = self.runs.range(..=asked).next_back() {
            if end >= asked {
                (left, start) = (Some(from), end);
            }
        }
        // The end of the interval the grant begins, if it abuts one.
        let mut right = None;
        for (&from, &end) in self.runs.range(start..) {
            if start + occ <= from {
                right = (start + occ == from).then_some(end);
                break;
            }
            (left, start) = (Some(from), end);
        }
        let end = start + occ;
        if right.is_some() {
            self.runs.remove(&end);
            self.cuts.insert(end);
        }
        if left.is_some() {
            self.cuts.insert(start);
        }
        self.runs.insert(left.unwrap_or(start), right.unwrap_or(end));
        start
    }
}

/// An interval granted by [`SerialResource::acquire`] (and by
/// [`crate::SharedBandwidth::reserve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the critical section actually started (≥ requested time).
    pub start: SimTime,
    /// When the critical section ends.
    pub end: SimTime,
}

impl Grant {
    /// Total time the acquirer experienced (queueing + hold).
    pub fn latency_from(&self, asked: SimTime) -> SimDuration {
        self.end - asked
    }
}

impl SerialResource {
    /// Creates an uncontended resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the resource at `now` for `hold`, taking the earliest idle
    /// gap at or after `now`.
    pub fn acquire(&self, now: SimTime, hold: SimDuration) -> Grant {
        let occ = hold.as_nanos().max(1);
        let asked = now.as_nanos();
        let mut busy = self.busy.lock();
        busy.prune(asked.saturating_sub(PRUNE_HORIZON.as_nanos()));
        let start = busy.book(asked, occ);
        Grant { start: SimTime::from_nanos(start), end: SimTime::from_nanos(start + occ) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_is_immediate() {
        let r = SerialResource::new();
        let g = r.acquire(SimTime::from_secs(1), SimDuration::from_millis(10));
        assert_eq!(g.start, SimTime::from_secs(1));
        assert_eq!(g.latency_from(SimTime::from_secs(1)), SimDuration::from_millis(10));
    }

    #[test]
    fn contended_acquires_serialize() {
        let r = SerialResource::new();
        // Eight "threads" all ask at t=0 for 10 ms each: the last one
        // finishes at 80 ms — the Memory-engine collapse.
        let mut last_end = SimTime::ZERO;
        for _ in 0..8 {
            let g = r.acquire(SimTime::ZERO, SimDuration::from_millis(10));
            assert_eq!(g.start, last_end);
            last_end = g.end;
        }
        assert_eq!(last_end, SimTime::from_millis(80));
    }

    #[test]
    fn idle_gaps_are_not_accumulated() {
        let r = SerialResource::new();
        r.acquire(SimTime::ZERO, SimDuration::from_millis(1));
        // Asking long after the lock freed starts immediately.
        let g = r.acquire(SimTime::from_secs(5), SimDuration::from_millis(1));
        assert_eq!(g.start, SimTime::from_secs(5));
    }

    #[test]
    fn earlier_request_uses_idle_gap_before_future_reservation() {
        let r = SerialResource::new();
        // A thread slightly ahead in virtual time reserves a future slot...
        let future = r.acquire(SimTime::from_millis(100), SimDuration::from_millis(10));
        assert_eq!(future.start, SimTime::from_millis(100));
        // ...a thread slightly behind must not queue behind it.
        let early = r.acquire(SimTime::from_millis(5), SimDuration::from_millis(10));
        assert_eq!(early.start, SimTime::from_millis(5));
        // But an overlapping request does queue.
        let overlap = r.acquire(SimTime::from_millis(12), SimDuration::from_millis(10));
        assert_eq!(overlap.start, SimTime::from_millis(15));
    }

    /// `acquire` as it was before bookings merged: one interval per grant.
    /// The merged bookings must grant exactly what it grants.
    #[derive(Default)]
    struct Reference(BTreeMap<u64, u64>);

    impl Reference {
        fn acquire(&mut self, now: SimTime, hold: SimDuration) -> Grant {
            let occ = hold.as_nanos().max(1);
            let asked = now.as_nanos();
            let busy = &mut self.0;
            let cutoff = asked.saturating_sub(PRUNE_HORIZON.as_nanos());
            while let Some((&s, &e)) = busy.first_key_value() {
                if e < cutoff {
                    busy.remove(&s);
                } else {
                    break;
                }
            }
            let mut candidate = asked;
            if let Some((_, &e)) = busy.range(..=candidate).next_back() {
                if e > candidate {
                    candidate = e;
                }
            }
            for (&s, &e) in busy.range(candidate..) {
                if candidate + occ <= s {
                    break;
                }
                candidate = candidate.max(e);
            }
            busy.insert(candidate, candidate + occ);
            Grant {
                start: SimTime::from_nanos(candidate),
                end: SimTime::from_nanos(candidate + occ),
            }
        }
    }

    #[test]
    fn merged_bookings_grant_what_one_interval_per_grant_did() {
        use tiera_support::SimRng;
        const MS: u64 = 1_000_000;
        for seed in 0..48 {
            let mut rng = SimRng::new(seed);
            let (merged, mut reference) = (SerialResource::new(), Reference::default());
            let mut t = 0u64;
            for op in 0..3_000 {
                let asked = match rng.next_below(100) {
                    // Into the backlog, back to back.
                    0..=44 => t,
                    // Ahead of it, leaving gaps.
                    45..=54 => t + rng.next_below(2_000 * MS),
                    // Behind it, some beyond the prune horizon.
                    55..=74 => t.saturating_sub(rng.next_below(45_000 * MS)),
                    75..=98 => {
                        t += rng.next_below(5 * MS);
                        t
                    }
                    // Past the prune horizon: the prune drops the grants
                    // that ended, part of an interval's among them.
                    _ => {
                        t += 30_000 * MS + rng.next_below(3_000 * MS);
                        t
                    }
                };
                let hold = match rng.next_below(4) {
                    0 => rng.next_below(3),
                    1 => rng.next_below(5 * MS),
                    _ => rng.next_range(10 * MS, 200 * MS),
                };
                let (now, hold) = (SimTime::from_nanos(asked), SimDuration::from_nanos(hold));
                assert_eq!(
                    merged.acquire(now, hold),
                    reference.acquire(now, hold),
                    "seed {seed}, op {op}"
                );
            }
        }
    }

    #[test]
    fn a_back_to_back_backlog_is_one_interval() {
        let r = SerialResource::new();
        for i in 0..10_000u64 {
            let g = r.acquire(SimTime::ZERO, SimDuration::from_millis(4));
            assert_eq!(g.start, SimTime::from_millis(4 * i));
        }
        assert_eq!(r.busy.lock().runs.len(), 1);
    }
}

//! Serialization of virtual-time critical sections.
//!
//! Models a resource held in *virtual* time: a database's CPU, a table
//! lock, a device's transfer path ([`crate::SharedBandwidth`] is a rate
//! over one). Grants are placed into the earliest idle gap at or after the
//! requested time, so slightly skewed clients do not convoy behind each
//! other's future reservations — only genuine contention queues.

use std::collections::BTreeMap;

use crate::clock::{SimDuration, SimTime};
use tiera_support::sync::{rank, Mutex};

/// Prune horizon for completed intervals (callers stay far closer together
/// than this: the workload drivers' executor steps clients in virtual-time
/// order, so they are at most one step apart).
const PRUNE_HORIZON: SimDuration = SimDuration::from_secs(30);

/// A gap-filling virtual-time lock / serial executor.
#[derive(Debug)]
pub struct SerialResource {
    busy: Mutex<BTreeMap<u64, u64>>,
}

impl Default for SerialResource {
    fn default() -> Self {
        Self { busy: Mutex::named("serial.busy", rank::SERIAL_BUSY, BTreeMap::new()) }
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
        Grant { start: SimTime::from_nanos(candidate), end: SimTime::from_nanos(candidate + occ) }
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
}

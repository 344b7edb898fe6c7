//! Contended-bandwidth modeling.
//!
//! The paper's Figure 14 shows foreground IO latency rising ~50 % while a
//! background replication job copies 50 MB between EBS volumes, and the
//! spike disappearing when the `copy` response is given a 40 KB/s bandwidth
//! cap. That behaviour requires a *shared* resource: both foreground
//! requests and background transfers queue on the same device bandwidth.
//!
//! [`SharedBandwidth`] is a FIFO queue over virtual time: each reservation
//! occupies the device for `bytes / rate` and pushes back every later
//! reservation. A bandwidth-capped transfer *paces itself* (spacing chunk
//! start times at the cap rate via [`BandwidthCap::pace`]) so it only ever
//! holds the device for tiny intervals, which is exactly why capping helps.

use crate::clock::{SimDuration, SimTime};
use crate::serial::{Grant, SerialResource};

/// A contended bandwidth resource (e.g. one EBS volume's disk path): a
/// rate over a [`SerialResource`], which schedules the transfers.
///
/// Reservations are placed into the earliest idle *gap* at or after the
/// requested time, so the outcome depends on virtual-time order rather than
/// call order — concurrent clients whose clocks are slightly skewed
/// do not convoy behind each other's future reservations.
#[derive(Debug)]
pub struct SharedBandwidth {
    bytes_per_sec: f64,
    busy: SerialResource,
}

impl SharedBandwidth {
    /// Creates a resource with the given capacity in bytes per second.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive, got {bytes_per_sec}");
        Self { bytes_per_sec, busy: SerialResource::new() }
    }

    /// Device capacity in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Time the device needs to move `bytes` uncontended.
    pub fn service_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Reserves the device for a transfer of `bytes` starting no earlier
    /// than `asked`. FIFO: the transfer begins when the device frees up.
    pub fn reserve(&self, asked: SimTime, bytes: usize) -> Grant {
        self.reserve_for(asked, self.service_time(bytes))
    }

    /// Reserves the device for an explicit occupancy duration (used when an
    /// operation holds the device for seek/queue time beyond pure transfer).
    ///
    /// The reservation takes the earliest idle gap at or after `asked`.
    pub fn reserve_for(&self, asked: SimTime, occupancy: SimDuration) -> Grant {
        self.busy.acquire(asked, occupancy)
    }
}

/// A self-imposed rate limit for background transfers, as passed to the
/// paper's `copy` response (`bandwidth: 40KB/s`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthCap {
    /// Maximum transfer rate in bytes per second.
    pub bytes_per_sec: f64,
}

impl BandwidthCap {
    /// Creates a cap from bytes per second.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive.
    pub fn bytes_per_sec(rate: f64) -> Self {
        assert!(rate > 0.0, "bandwidth cap must be positive, got {rate}");
        Self { bytes_per_sec: rate }
    }

    /// Creates a cap from kilobytes per second (the paper's unit).
    pub fn kb_per_sec(kb: f64) -> Self {
        Self::bytes_per_sec(kb * 1000.0)
    }

    /// How long the paced transfer of `bytes` must take under this cap.
    pub fn pace(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_transfer_takes_service_time() {
        let bw = SharedBandwidth::new(1_000_000.0); // 1 MB/s
        let r = bw.reserve(SimTime::from_secs(1), 500_000);
        assert_eq!(r.start, SimTime::from_secs(1));
        assert_eq!(r.end.as_millis(), 1500);
    }

    #[test]
    fn fifo_queueing_pushes_back_later_requests() {
        let bw = SharedBandwidth::new(1_000_000.0);
        // Background hog: 10 MB starting at t=0 → busy until t=10 s.
        let hog = bw.reserve(SimTime::ZERO, 10_000_000);
        assert_eq!(hog.end, SimTime::from_secs(10));
        // Foreground 4 KB op asked at t=1 s must wait for the hog.
        let fg = bw.reserve(SimTime::from_secs(1), 4096);
        assert_eq!(fg.start, SimTime::from_secs(10));
        assert!(fg.latency_from(SimTime::from_secs(1)).as_secs_f64() > 8.9);
    }

    #[test]
    fn paced_transfers_barely_disturb_foreground() {
        let bw = SharedBandwidth::new(1_000_000.0);
        let cap = BandwidthCap::kb_per_sec(40.0);
        // A paced copy issues 4 KB chunks spaced at the cap rate: each chunk
        // occupies the device for only ~4 ms.
        let chunk = 4096;
        let spacing = cap.pace(chunk);
        assert!(spacing.as_millis() >= 100, "spacing={spacing}");
        // Reservations are FIFO in virtual-time order: the paced copier and
        // the foreground client interleave as the simulation advances.
        bw.reserve(SimTime::ZERO, chunk); // background chunk at t=0
        let fg = bw.reserve(SimTime::from_millis(50), 4096);
        bw.reserve(SimTime::ZERO + spacing, chunk); // next background chunk
                                                    // The foreground op between chunks sees (almost) no queueing.
        assert!(fg.latency_from(SimTime::from_millis(50)).as_millis() < 10);
    }

    #[test]
    fn cap_pace_matches_rate() {
        let cap = BandwidthCap::kb_per_sec(40.0);
        // 50 MB at 40 KB/s = 1250 s — the slow-backup tradeoff the paper notes.
        assert_eq!(cap.pace(50_000_000).as_secs_f64().round() as u64, 1250);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = SharedBandwidth::new(0.0);
    }

    #[test]
    fn gap_filling_is_call_order_independent() {
        let bw = SharedBandwidth::new(1_000_000.0);
        // A reservation far in the future must not delay an earlier one
        // made later in call order (idle gaps are usable).
        let future = bw.reserve(SimTime::from_secs(10), 4096);
        assert_eq!(future.start, SimTime::from_secs(10));
        let early = bw.reserve(SimTime::from_secs(1), 4096);
        assert_eq!(early.start, SimTime::from_secs(1), "gap before the future slot");
        // A request overlapping the future slot lands right after it.
        let overlapping = bw.reserve(SimTime::from_secs(10), 4096);
        assert_eq!(overlapping.start, future.end);
    }

    #[test]
    fn gaps_between_slots_are_filled_in_order() {
        let bw = SharedBandwidth::new(1_000_000.0);
        let a = bw.reserve_for(SimTime::ZERO, SimDuration::from_millis(10));
        let c = bw.reserve_for(SimTime::from_millis(30), SimDuration::from_millis(10));
        // Fits exactly between a and c.
        let b = bw.reserve_for(SimTime::from_millis(5), SimDuration::from_millis(15));
        assert_eq!(b.start, a.end);
        assert_eq!(b.end, SimTime::from_millis(25));
        // Does not fit between b and c → goes after c.
        let d = bw.reserve_for(SimTime::from_millis(5), SimDuration::from_millis(8));
        assert_eq!(d.start, c.end);
    }
}

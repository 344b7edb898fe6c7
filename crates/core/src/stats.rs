//! Instance statistics: latency histograms, per-tier hit counters, and
//! event-dispatch counters (used by the overhead experiment, Figure 18).
//!
//! The counters sit on the client hot path (every PUT/GET records here), so
//! the implementation is contention-free where it can be and striped where
//! it cannot:
//!
//! * dispatch counters are plain `AtomicU64`s — one `fetch_add`, no lock;
//! * latency histograms and tier hit counts are striped across
//!   `STRIPES` independently-locked slots picked by thread identity, so
//!   concurrent request threads record into different stripes and never
//!   serialize against each other. Readers merge the stripes on demand —
//!   reads are rare (experiment reporting), writes are constant.

use std::sync::atomic::{AtomicU64, Ordering};

use tiera_sim::{Histogram, SimDuration};
use tiera_support::collections::{fx_hash_one, FxHashMap};
use tiera_support::sync::{rank, Mutex};

use crate::tier::TierId;

/// Number of latency-recording stripes. Matches the largest request pool
/// the RPC server runs by default; more threads than stripes just share.
const STRIPES: usize = 8;

/// Snapshot of one histogram's key numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// 95th percentile (the paper's headline latency metric).
    pub p95: SimDuration,
    /// Maximum observed.
    pub max: SimDuration,
}

/// One stripe of lock-protected latency state.
#[derive(Default)]
struct Stripe {
    reads: Histogram,
    writes: Histogram,
    tier_read_hits: FxHashMap<TierId, u64>,
}

/// Thread-safe statistics collected by an instance.
pub struct InstanceStats {
    stripes: Vec<Mutex<Stripe>>,
    events_fired: AtomicU64,
    responses_run: AtomicU64,
    background_queued: AtomicU64,
    cleanup_failures: AtomicU64,
    stale_copies: AtomicU64,
}

impl Default for InstanceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self {
            stripes: (0..STRIPES)
                .map(|_| Mutex::named("stats.stripe", rank::STATS_STRIPE, Stripe::default()))
                .collect(),
            events_fired: AtomicU64::new(0),
            responses_run: AtomicU64::new(0),
            background_queued: AtomicU64::new(0),
            cleanup_failures: AtomicU64::new(0),
            stale_copies: AtomicU64::new(0),
        }
    }

    /// The calling thread's stripe. Thread identity keeps a steady request
    /// thread on one stripe, so its samples stay cache-warm.
    fn stripe(&self) -> &Mutex<Stripe> {
        let h = fx_hash_one(&std::thread::current().id());
        &self.stripes[(h % STRIPES as u64) as usize]
    }

    /// Records a client read and the tier that served it.
    pub fn record_read(&self, latency: SimDuration, tier: TierId) {
        let mut g = self.stripe().lock();
        g.reads.record(latency);
        *g.tier_read_hits.entry(tier).or_default() += 1;
    }

    /// Records a client write.
    pub fn record_write(&self, latency: SimDuration) {
        self.stripe().lock().writes.record(latency);
    }

    /// Counts an event firing.
    pub fn record_event(&self) {
        self.events_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a response execution.
    pub fn record_response(&self) {
        self.responses_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a background enqueue.
    pub fn record_background(&self) {
        self.background_queued.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a tier delete that failed while cleaning up after a PUT: a
    /// rollback, a stale copy, a dedup blob nothing references any more.
    pub fn record_cleanup_failure(&self) {
        self.cleanup_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a copy, move or re-store that published nothing: an
    /// overwrite replaced the version whose bytes it read.
    pub fn record_stale_copy(&self) {
        self.stale_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Read-latency summary (stripes merged).
    pub fn reads(&self) -> LatencySummary {
        summarize(&self.merged(|s| &s.reads))
    }

    /// Write-latency summary (stripes merged).
    pub fn writes(&self) -> LatencySummary {
        summarize(&self.merged(|s| &s.writes))
    }

    /// Reads served per tier name (stripes merged).
    #[allow(
        clippy::disallowed_types,
        reason = "a public signature the benchmark harness reads; nothing iterates it in order"
    )]
    pub fn tier_read_hits(&self) -> std::collections::HashMap<String, u64> {
        let mut merged = std::collections::HashMap::new();
        for stripe in &self.stripes {
            let g = stripe.lock();
            for (tier, n) in &g.tier_read_hits {
                *merged.entry(tier.to_string()).or_default() += n;
            }
        }
        merged
    }

    /// `(events fired, responses run, background queued)`.
    pub fn dispatch_counters(&self) -> (u64, u64, u64) {
        (
            self.events_fired.load(Ordering::Relaxed),
            self.responses_run.load(Ordering::Relaxed),
            self.background_queued.load(Ordering::Relaxed),
        )
    }

    /// Tier deletes that failed while cleaning up after a PUT. Each left
    /// bytes no metadata points at: the tier's `used()` counts them and
    /// only the tier's own `contains` still finds them.
    pub fn cleanup_failures(&self) -> u64 {
        self.cleanup_failures.load(Ordering::Relaxed)
    }

    /// Copies, moves and re-stores that an overwrite made stale before
    /// they could publish: each wrote and published nothing, and left the
    /// object dirty if it was.
    pub fn stale_copies(&self) -> u64 {
        self.stale_copies.load(Ordering::Relaxed)
    }

    /// Clears all statistics (between experiment phases).
    pub fn reset(&self) {
        for stripe in &self.stripes {
            *stripe.lock() = Stripe::default();
        }
        self.events_fired.store(0, Ordering::Relaxed);
        self.responses_run.store(0, Ordering::Relaxed);
        self.background_queued.store(0, Ordering::Relaxed);
        self.cleanup_failures.store(0, Ordering::Relaxed);
        self.stale_copies.store(0, Ordering::Relaxed);
    }

    fn merged(&self, pick: impl Fn(&Stripe) -> &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for stripe in &self.stripes {
            out.merge(pick(&stripe.lock()));
        }
        out
    }
}

fn summarize(h: &Histogram) -> LatencySummary {
    LatencySummary { count: h.count(), mean: h.mean(), p95: h.quantile(0.95), max: h.max() }
}

impl std::fmt::Debug for InstanceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceStats")
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_summaries() {
        let s = InstanceStats::new();
        for ms in [1u64, 2, 3] {
            s.record_read(SimDuration::from_millis(ms), "cache".into());
        }
        s.record_write(SimDuration::from_millis(10));
        let r = s.reads();
        assert_eq!(r.count, 3);
        assert_eq!(r.mean, SimDuration::from_millis(2));
        assert_eq!(s.writes().count, 1);
        assert_eq!(s.tier_read_hits()["cache"], 3);
    }

    #[test]
    fn dispatch_counters_accumulate_and_reset() {
        let s = InstanceStats::new();
        s.record_event();
        s.record_event();
        s.record_response();
        s.record_background();
        assert_eq!(s.dispatch_counters(), (2, 1, 1));
        s.reset();
        assert_eq!(s.dispatch_counters(), (0, 0, 0));
        assert_eq!(s.reads().count, 0);
    }

    #[test]
    fn striped_recording_merges_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(InstanceStats::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        s.record_read(SimDuration::from_micros(i + 1), "cache".into());
                        s.record_write(SimDuration::from_micros(t * 10 + 1));
                        s.record_event();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.reads().count, 800);
        assert_eq!(s.writes().count, 800);
        assert_eq!(s.tier_read_hits()["cache"], 800);
        assert_eq!(s.dispatch_counters().0, 800);
    }
}

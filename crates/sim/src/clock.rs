//! Virtual time.
//!
//! All Tiera experiments run on a virtual clock so that a "14 minute"
//! timeline (paper Figure 16) executes in milliseconds of real time and is
//! byte-for-byte reproducible. Time is a monotone `u64` nanosecond counter.
//!
//! Concurrency model: closed-loop clients each keep a *local* notion of
//! time (the sum of latencies charged to them) and publish it into the
//! shared [`VirtualClock`] with [`VirtualClock::advance_to`], which is a
//! `fetch_max`. Components that need globally-ordered time (timer events,
//! provisioning deadlines, failure windows) read [`VirtualClock::now`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point in virtual time, in nanoseconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the origin as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds (negative values clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Milliseconds as a float (the unit the paper's figures use).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scales the duration by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// Checked integer division of two durations (how many `rhs` fit in `self`).
    pub fn div_duration(self, rhs: SimDuration) -> u64 {
        self.0.checked_div(rhs.0).unwrap_or(0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.as_micros())
        }
    }
}

/// Shared monotone virtual clock.
///
/// The clock only moves forward: [`advance_to`](VirtualClock::advance_to)
/// performs an atomic `fetch_max`, so racing client threads can publish
/// their local times in any order without the global time going backwards.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self { now_ns: AtomicU64::new(0) }
    }

    /// The current global virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_ns.load(Ordering::Acquire))
    }

    /// Publishes `t` as a lower bound on global time.
    ///
    /// Returns the resulting global time (which may exceed `t` if another
    /// thread published a later instant).
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let prev = self.now_ns.fetch_max(t.0, Ordering::AcqRel);
        SimTime(prev.max(t.0))
    }

    /// Advances the global clock by `d` and returns the new time.
    pub fn advance_by(&self, d: SimDuration) -> SimTime {
        let new = self.now_ns.fetch_add(d.0, Ordering::AcqRel) + d.0;
        SimTime(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_under_advance_to() {
        let c = VirtualClock::new();
        c.advance_to(SimTime::from_secs(10));
        // Publishing an older time must not move the clock backwards.
        c.advance_to(SimTime::from_secs(4));
        assert_eq!(c.now(), SimTime::from_secs(10));
    }

    #[test]
    fn advance_by_accumulates() {
        let c = VirtualClock::new();
        c.advance_by(SimDuration::from_millis(3));
        c.advance_by(SimDuration::from_millis(4));
        assert_eq!(c.now().as_millis(), 7);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a - b, SimDuration::from_millis(6));
        // Subtraction saturates rather than panicking.
        assert_eq!(b - a, SimDuration::ZERO);
        assert_eq!(b + SimDuration::from_millis(6), a);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn concurrent_fetch_max_settles_on_maximum() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let handles: Vec<_> = (1..=8u64)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for k in 0..100 {
                        c.advance_to(SimTime::from_nanos(i * 1000 + k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), SimTime::from_nanos(8 * 1000 + 99));
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }
}

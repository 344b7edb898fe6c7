//! Load-run reports shared by all drivers.

use tiera_sim::{Histogram, SimDuration, SimTime};

/// Outcome of a closed-loop load run.
pub struct LoadReport {
    /// Completed operations (or transactions / interactions).
    pub ops: u64,
    /// Failed operations (timeouts during outages, etc.).
    pub failures: u64,
    /// `Instance::pump` calls that failed: the tick could not make the
    /// metadata durable (`Registry::sync()`'s error).
    pub pump_failures: u64,
    /// Virtual elapsed time: until the last client finished.
    pub elapsed: SimDuration,
    /// Read-latency histogram.
    pub reads: Histogram,
    /// Write-latency histogram (or transaction latency for OLTP).
    pub writes: Histogram,
}

impl LoadReport {
    /// An empty report.
    pub fn new() -> Self {
        Self {
            ops: 0,
            failures: 0,
            pump_failures: 0,
            elapsed: SimDuration::ZERO,
            reads: Histogram::new(),
            writes: Histogram::new(),
        }
    }

    /// Throughput in operations per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Counts `pump`, an `Instance::pump` result, in `pump_failures` if it
    /// failed.
    pub fn pumped<T, E>(&mut self, pump: Result<T, E>) {
        if pump.is_err() {
            self.pump_failures += 1;
        }
    }

    /// Records a client that started at `start` finishing at `end`. Elapsed
    /// takes the max (closed-loop: the run lasts until the slowest client
    /// finishes).
    pub fn finish(&mut self, start: SimTime, end: SimTime) {
        self.elapsed = self.elapsed.max(end - start);
    }
}

impl Default for LoadReport {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadReport")
            .field("ops", &self.ops)
            .field("failures", &self.failures)
            .field("pump_failures", &self.pump_failures)
            .field("elapsed", &self.elapsed)
            .field("throughput", &self.throughput())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let mut r = LoadReport::new();
        r.ops = 100;
        r.elapsed = SimDuration::from_secs(10);
        assert!((r.throughput() - 10.0).abs() < 1e-9);
        assert_eq!(LoadReport::new().throughput(), 0.0);
    }

    #[test]
    fn failed_pumps_are_counted() {
        let mut r = LoadReport::new();
        r.pumped::<(), ()>(Ok(()));
        r.pumped::<(), &str>(Err("metadata not durable"));
        assert_eq!(r.pump_failures, 1);
    }
}

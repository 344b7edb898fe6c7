//! Clocks, counters and order statistics the harness measures with.

use std::fs;

/// CPU time this process has used, all threads, in nanoseconds.
///
/// Summed from each live thread's `schedstat` (nanosecond resolution); the
/// `utime + stime` ticks of `/proc/self/stat` are the fallback and are good
/// to 10 ms only. Server threads outlive the measured phase, so no thread's
/// time is lost between the two readings a phase takes.
pub fn process_cpu_ns() -> u64 {
    let from_schedstat: Option<u64> = fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .map(|t| {
                let text = fs::read_to_string(t.ok()?.path().join("schedstat")).ok()?;
                text.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum()
    });
    from_schedstat.unwrap_or_else(|| {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line.
        let ticks: u64 = stat
            .rsplit(')')
            .next()
            .map(|rest| {
                rest.split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|f| f.parse::<u64>().ok())
                    .sum()
            })
            .unwrap_or(0);
        ticks * 10_000_000
    })
}

/// `Cpus_allowed_list` of `/proc/self/status`, e.g. `0-1`.
pub fn cpus_allowed_list() -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// The `p`-quantile (0 < p ≤ 1) of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. NaN when empty.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// First quartile, median and third quartile of `values`, by linear
/// interpolation between order statistics. NaN when empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of `values`. NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// A value with the spread it was taken from: for a timing metric, the
/// median over slices and the slices' quartiles; for an exact metric, the
/// value three times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// The reported value.
    pub value: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Median and quartiles of `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(values);
        Self { q1, value, q3 }
    }

    /// A value with no spread.
    pub fn exact(value: f64) -> Self {
        Self {
            q1: value,
            value,
            q3: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s[..1], 0.99), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn this_process_has_used_cpu_and_memory() {
        assert!(process_cpu_ns() > 0);
        assert!(peak_rss_mib() > 0.0);
    }
}

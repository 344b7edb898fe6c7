//! `tiera-benchmark compare <baseline.json> <new.json>`: one row per
//! (workload, end-to-end metric), judged against the metric's own bound.

use std::fmt;

use crate::metrics::{MetricDef, END_TO_END};
use tiera_bench::json::Value;

/// What a row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way, and each file's runs agree well enough
    /// to say so.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but in either file the quartiles of the runs the
    /// value is the median of are further apart than the bound: the runs
    /// cannot tell.
    Unresolved,
    /// The new file lacks the workload or the metric.
    Missing,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        })
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Share of the baseline by which the new value is worse (negative:
    /// better).
    pub worse_by: f64,
    /// The wider of the two files' (q3 − q1) ÷ value.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric) of the baseline.
    pub rows: Vec<Row>,
    /// Workloads whose `failed ÷ attempted` grew, with both rates.
    pub more_failures: Vec<String>,
}

impl Comparison {
    /// Whether the new file passes: no regression, nothing missing, no
    /// workload failing more often. An unresolved row does not fail the
    /// comparison, but it is not a pass for that row either.
    pub fn passed(&self) -> bool {
        self.more_failures.is_empty()
            && self
                .rows
                .iter()
                .all(|r| !matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:<28} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
            "workload", "metric", "baseline", "new", "worse", "spread", "bound"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<20} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                r.workload,
                r.metric,
                r.base,
                r.new,
                r.worse_by * 100.0,
                r.spread * 100.0,
                r.bound * 100.0,
                r.verdict
            )?;
        }
        for line in &self.more_failures {
            writeln!(f, "MORE FAILURES  {line}")?;
        }
        Ok(())
    }
}

struct Reading {
    value: f64,
    spread: f64,
}

fn workload<'a>(file: &'a Value, name: &str) -> Option<&'a Value> {
    file.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn reading(workload: &Value, metric: &str) -> Option<Reading> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_num()?;
    let quartile = |k| m.get(k).and_then(Value::as_num).unwrap_or(value);
    Some(Reading {
        value,
        spread: ((quartile("q3") - quartile("q1")) / value).abs(),
    })
}

fn failure_rate(workload: &Value) -> Option<f64> {
    let n = |k| workload.get(k).and_then(Value::as_num);
    Some(n("failed")? / n("attempted")?)
}

fn judge(def: &MetricDef, base: &Reading, new: &Reading) -> (f64, f64, Verdict) {
    let delta = (new.value - base.value) / base.value.abs();
    let worse_by = if def.higher_is_better { -delta } else { delta };
    let spread = base.spread.max(new.spread);
    let verdict = if worse_by > def.bound {
        Verdict::Regressed
    } else if spread > def.bound {
        Verdict::Unresolved
    } else if worse_by < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// Compares two result files written by the full suite.
pub fn compare(base: &Value, new: &Value) -> Result<Comparison, String> {
    let workloads = base
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("baseline has no `workloads` array")?;
    let mut out = Comparison::default();
    for bw in workloads {
        let name = bw
            .get("name")
            .and_then(Value::as_str)
            .ok_or("baseline workload has no `name`")?;
        let nw = workload(new, name);
        for def in END_TO_END {
            let Some(b) = reading(bw, def.name) else {
                return Err(format!("baseline lacks {name} / {}", def.name));
            };
            let mut row = Row {
                workload: name.to_string(),
                metric: def.name,
                base: b.value,
                new: f64::NAN,
                worse_by: f64::NAN,
                spread: b.spread,
                bound: def.bound,
                verdict: Verdict::Missing,
            };
            if let Some(n) = nw.and_then(|nw| reading(nw, def.name)) {
                row.new = n.value;
                (row.worse_by, row.spread, row.verdict) = judge(def, &b, &n);
            }
            out.rows.push(row);
        }
        if let (Some(before), Some(after)) = (failure_rate(bw), nw.and_then(failure_rate)) {
            if after > before {
                out.more_failures.push(format!(
                    "{name}: failed/attempted {before:.6} -> {after:.6}"
                ));
            }
        }
    }
    Ok(out)
}

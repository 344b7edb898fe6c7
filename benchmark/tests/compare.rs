//! `compare` on hand-made result files.

use tiera_bench::json::Value;
use tiera_benchmark::compare::{compare, Verdict};
use tiera_benchmark::metrics::{end_to_end, END_TO_END};

/// `percent` past the bound of `metric`, in the worse direction, from 100.
fn past_bound(metric: &str, percent: f64) -> f64 {
    let def = end_to_end(metric).unwrap();
    let worse = def.bound * 100.0 + percent;
    if def.higher_is_better {
        100.0 - worse
    } else {
        100.0 + worse
    }
}

/// A result file with two workloads whose metrics all read 100 with no
/// slice spread; `tweak(workload, metric)` may return another
/// `(value, q1, q3)`.
fn file(failed: u64, tweak: impl Fn(&str, &str) -> Option<(f64, f64, f64)>) -> Value {
    let workloads = ["embedded-read-heavy", "rpc-sync-small"].map(|w| {
        let metrics = END_TO_END.iter().map(|m| {
            let (value, q1, q3) = tweak(w, m.name).unwrap_or((100.0, 100.0, 100.0));
            let entry = Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(m.unit.into())),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
            ]);
            (m.name, entry)
        });
        Value::obj([
            ("name", Value::Str(w.into())),
            ("attempted", Value::Num(1000.0)),
            ("failed", Value::Num(failed as f64)),
            ("end_to_end", Value::obj(metrics)),
        ])
    });
    // Through text, as the command reads it.
    Value::parse(&Value::obj([("workloads", Value::Arr(workloads.to_vec()))]).to_pretty()).unwrap()
}

#[test]
fn a_file_compared_with_itself_passes_with_one_row_per_workload_and_metric() {
    let a = file(0, |_, _| None);
    let c = compare(&a, &a).unwrap();
    assert!(c.passed());
    assert_eq!(c.rows.len(), 2 * END_TO_END.len());
    assert!(c.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
}

#[test]
fn a_hit_ratio_drop_beyond_the_bound_fails_naming_the_row() {
    let slow = |w: &str, m: &str| {
        let v = past_bound("fast_tier_hit_ratio", 2.0);
        (w == "rpc-sync-small" && m == "fast_tier_hit_ratio").then_some((v, v, v))
    };
    let c = compare(&file(0, |_, _| None), &file(0, slow)).unwrap();
    assert!(!c.passed());
    let regressed: Vec<_> = c
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .collect();
    assert_eq!(regressed.len(), 1);
    assert_eq!(
        (regressed[0].workload.as_str(), regressed[0].metric),
        ("rpc-sync-small", "fast_tier_hit_ratio")
    );
    assert!(c.to_string().contains("REGRESSED"));
    // A change of that size in the good direction is an improvement.
    let c = compare(&file(0, slow), &file(0, |_, _| None)).unwrap();
    assert!(c.passed());
    assert_eq!(
        c.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Improved)
            .count(),
        1
    );
}

#[test]
fn lower_is_better_metrics_regress_upwards() {
    let slow =
        |_: &str, m: &str| (m == "sim_get_mean_us").then_some((past_bound(m, 1.0), 100.0, 100.0));
    let c = compare(&file(0, |_, _| None), &file(0, slow)).unwrap();
    assert_eq!(
        c.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count(),
        2
    );
}

#[test]
fn more_failures_fail_the_comparison() {
    let c = compare(&file(0, |_, _| None), &file(3, |_, _| None)).unwrap();
    assert!(!c.passed());
    assert_eq!(c.more_failures.len(), 2);
    assert!(compare(&file(3, |_, _| None), &file(3, |_, _| None))
        .unwrap()
        .passed());
}

#[test]
fn a_wide_spread_is_unresolved_not_unchanged() {
    let noisy = |w: &str, m: &str| {
        let half = end_to_end("setup_s").unwrap().bound * 100.0 / 2.0 + 1.0;
        (w == "embedded-read-heavy" && m == "setup_s").then_some((
            100.0,
            100.0 - half,
            100.0 + half,
        ))
    };
    let c = compare(&file(0, |_, _| None), &file(0, noisy)).unwrap();
    assert!(c.passed(), "unresolved is reported, not failed");
    let row = c
        .rows
        .iter()
        .find(|r| r.workload == "embedded-read-heavy" && r.metric == "setup_s")
        .unwrap();
    assert_eq!(row.verdict, Verdict::Unresolved);
    assert_eq!(
        c.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unchanged)
            .count(),
        c.rows.len() - 1
    );
}

#[test]
fn a_missing_workload_or_metric_fails() {
    let a = file(0, |_, _| None);
    let mut b = a.clone();
    if let Value::Obj(top) = &mut b {
        if let Value::Arr(ws) = &mut top[0].1 {
            ws.pop();
        }
    }
    let c = compare(&a, &b).unwrap();
    assert!(!c.passed());
    assert_eq!(
        c.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Missing)
            .count(),
        END_TO_END.len()
    );
    assert!(compare(&Value::Null, &a).is_err());
}

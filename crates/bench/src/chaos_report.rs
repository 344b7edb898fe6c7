//! The `tiera-bench chaos` report: runs every chaos scenario kind at one
//! seed and emits a schema-validated JSON summary.
//!
//! The report is *virtual-time deterministic*: the same seed produces the
//! same JSON byte for byte (no wall-clock fields), so CI can both smoke-run
//! it and, when it fails, hand the seed straight back to
//! `tiera-bench chaos --seed N` for a local replay.

use tiera_chaos::scenario::{self, ChaosConfig, ChaosOutcome, ScenarioKind};

use crate::json::Value;

/// Options for a chaos bench run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Smaller workload (CI smoke).
    pub quick: bool,
    /// The fault-schedule / workload seed.
    pub seed: u64,
}

fn outcome_json(outcome: &ChaosOutcome) -> Value {
    Value::obj([
        ("kind", Value::Str(outcome.kind.name().into())),
        ("writes_issued", Value::Num(outcome.writes_issued as f64)),
        ("writes_acked", Value::Num(outcome.writes_acked as f64)),
        ("writes_failed", Value::Num(outcome.writes_failed as f64)),
        ("reads_ok", Value::Num(outcome.reads_ok as f64)),
        ("reads_failed", Value::Num(outcome.reads_failed as f64)),
        ("alerts", Value::Num(outcome.alerts as f64)),
        ("recovered", Value::Bool(outcome.recovered)),
        (
            "violations",
            Value::Arr(
                outcome
                    .invariants
                    .violations
                    .iter()
                    .map(|v| Value::Str(v.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Runs the three scenario kinds at `opts.seed` and builds the report.
/// Prints each scenario's outcome line to stderr as it completes.
pub fn run(opts: &Options) -> Value {
    let mut scenarios = Vec::new();
    let mut all_ok = true;
    for kind in ScenarioKind::all() {
        let cfg = if opts.quick {
            ChaosConfig::quick(opts.seed, kind)
        } else {
            ChaosConfig::new(opts.seed, kind)
        };
        let outcome = scenario::run(&cfg);
        eprintln!(
            "  chaos {}: {} (acked={} failed={} alerts={})",
            kind.name(),
            if outcome.ok() { "ok" } else { "FAILED" },
            outcome.writes_acked,
            outcome.writes_failed,
            outcome.alerts,
        );
        if !outcome.ok() {
            all_ok = false;
            eprintln!("{}", outcome.report());
        }
        scenarios.push(outcome_json(&outcome));
    }
    Value::obj([
        ("bench", Value::Str("chaos".into())),
        ("seed", Value::Num(opts.seed as f64)),
        ("quick", Value::Bool(opts.quick)),
        ("ok", Value::Bool(all_ok)),
        ("scenarios", Value::Arr(scenarios)),
    ])
}

/// Validates the chaos report schema. Structural plus the one semantic
/// gate CI cares about: `ok` must be true and every scenario must have
/// recovered with zero violations.
pub fn validate(report: &Value) -> Result<(), String> {
    if report.get("bench").and_then(Value::as_str) != Some("chaos") {
        return Err("`bench` must be \"chaos\"".into());
    }
    report
        .get("seed")
        .and_then(Value::as_num)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .ok_or("`seed` must be a non-negative number")?;
    if !matches!(report.get("quick"), Some(Value::Bool(_))) {
        return Err("`quick` must be a boolean".into());
    }
    let scenarios = report
        .get("scenarios")
        .and_then(Value::as_arr)
        .ok_or("missing `scenarios` array")?;
    if scenarios.len() != ScenarioKind::all().len() {
        return Err(format!(
            "`scenarios` must have {} entries",
            ScenarioKind::all().len()
        ));
    }
    for (entry, kind) in scenarios.iter().zip(ScenarioKind::all()) {
        if entry.get("kind").and_then(Value::as_str) != Some(kind.name()) {
            return Err(format!("scenario entry must record kind={}", kind.name()));
        }
        for field in [
            "writes_issued",
            "writes_acked",
            "writes_failed",
            "reads_ok",
            "reads_failed",
            "alerts",
        ] {
            entry
                .get(field)
                .and_then(Value::as_num)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("scenario `{field}` must be a non-negative number"))?;
        }
        if entry.get("recovered") != Some(&Value::Bool(true)) {
            return Err(format!("scenario {} did not recover", kind.name()));
        }
        let violations = entry
            .get("violations")
            .and_then(Value::as_arr)
            .ok_or("scenario missing `violations` array")?;
        if !violations.is_empty() {
            return Err(format!(
                "scenario {} has {} invariant violation(s); replay with --seed {}",
                kind.name(),
                violations.len(),
                report.get("seed").and_then(Value::as_num).unwrap_or(f64::NAN),
            ));
        }
    }
    if report.get("ok") != Some(&Value::Bool(true)) {
        return Err("`ok` must be true".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_validates_and_replays_identically() {
        let opts = Options {
            quick: true,
            seed: 5,
        };
        let a = run(&opts);
        validate(&a).expect("generated report validates");
        let b = run(&opts);
        assert_eq!(
            a.to_pretty(),
            b.to_pretty(),
            "chaos report must be a pure function of the seed"
        );
    }

    #[test]
    fn validate_rejects_wrong_bench_kind() {
        let report = Value::obj([("bench", Value::Str("cluster-chaos".into()))]);
        assert!(validate(&report).is_err());
    }

    #[test]
    fn validate_rejects_unrecovered_scenarios() {
        let opts = Options {
            quick: true,
            seed: 6,
        };
        let report = run(&opts);
        let text = report
            .to_pretty()
            .replace("\"recovered\": true", "\"recovered\": false");
        let tampered = Value::parse(&text).unwrap();
        let err = validate(&tampered).unwrap_err();
        assert!(err.contains("did not recover"), "{err}");
    }
}

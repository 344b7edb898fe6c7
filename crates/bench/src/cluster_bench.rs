//! The `tiera-bench cluster-chaos` report: runs the
//! [`tiera_chaos::run_cluster_matrix`] node-fault matrix (kill, partition,
//! rejoin-stale, kill-during-rebalance × seeds) and emits a replayable,
//! byte-deterministic JSON summary in the style of `chaos_report`.
//! (Routed-operation throughput — what replication costs — is the
//! `cluster.single.*` / `cluster.r3w2.*` rungs of `benchmark/`.)

use tiera_chaos::cluster_scenario::{run_cluster_matrix, ClusterChaosOutcome, ClusterScenarioKind};

use crate::json::Value;

/// Options for the cluster-chaos matrix report.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Smaller workload (CI smoke).
    pub quick: bool,
    /// Base seed; the matrix runs `seed` and `seed + 1` per scenario.
    pub seed: u64,
}

fn outcome_json(outcome: &ClusterChaosOutcome) -> Value {
    let rebalance = match &outcome.rebalance {
        Some(r) => Value::obj([
            ("planned", Value::Num(r.planned as f64)),
            ("moved_keys", Value::Num(r.moved_keys as f64)),
            ("moved_bytes", Value::Num(r.moved_bytes as f64)),
            ("deferred", Value::Num(r.deferred as f64)),
        ]),
        None => Value::Null,
    };
    Value::obj([
        ("kind", Value::Str(outcome.kind.name().into())),
        ("seed", Value::Num(outcome.seed as f64)),
        ("writes_issued", Value::Num(outcome.writes.0 as f64)),
        ("writes_acked", Value::Num(outcome.writes.1 as f64)),
        ("writes_failed", Value::Num(outcome.writes.2 as f64)),
        ("reads_ok", Value::Num(outcome.reads.0 as f64)),
        ("reads_failed", Value::Num(outcome.reads.1 as f64)),
        ("deletes_acked", Value::Num(outcome.deletes.0 as f64)),
        ("deletes_failed", Value::Num(outcome.deletes.1 as f64)),
        ("rebalance", rebalance),
        ("survivability_ok", Value::Bool(outcome.survivability_ok)),
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

/// Runs the node-fault matrix (4 scenarios × 2 seeds) and builds the
/// report. Prints each cell's outcome line to stderr as it completes.
pub fn run_matrix(opts: &MatrixOptions) -> Value {
    let seeds = [opts.seed, opts.seed.wrapping_add(1)];
    let outcomes = run_cluster_matrix(&seeds, opts.quick);
    let mut all_ok = true;
    let mut cells = Vec::new();
    for outcome in &outcomes {
        eprintln!(
            "  cluster-chaos {} seed={}: {} (acked={} survivability={})",
            outcome.kind.name(),
            outcome.seed,
            if outcome.ok() { "ok" } else { "FAILED" },
            outcome.writes.1,
            outcome.survivability_ok,
        );
        if !outcome.ok() {
            all_ok = false;
            eprintln!("{}", outcome.report());
        }
        cells.push(outcome_json(outcome));
    }
    Value::obj([
        ("bench", Value::Str("cluster-chaos".into())),
        ("seed", Value::Num(opts.seed as f64)),
        ("quick", Value::Bool(opts.quick)),
        ("ok", Value::Bool(all_ok)),
        ("scenarios", Value::Arr(cells)),
    ])
}

/// Validates the cluster-chaos matrix report: structural schema plus the
/// CI gates — every cell recovered, survived R−1 kills, and reported
/// zero invariant violations.
pub fn validate_matrix(report: &Value) -> Result<(), String> {
    if report.get("bench").and_then(Value::as_str) != Some("cluster-chaos") {
        return Err("`bench` must be \"cluster-chaos\"".into());
    }
    report
        .get("seed")
        .and_then(Value::as_num)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .ok_or("`seed` must be a non-negative number")?;
    let scenarios = report
        .get("scenarios")
        .and_then(Value::as_arr)
        .ok_or("missing `scenarios` array")?;
    let expected = ClusterScenarioKind::all().len() * 2;
    if scenarios.len() != expected {
        return Err(format!("`scenarios` must have {expected} entries"));
    }
    for entry in scenarios {
        let kind = entry
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("scenario entry missing `kind`")?;
        if entry.get("recovered") != Some(&Value::Bool(true)) {
            return Err(format!("scenario {kind} did not recover"));
        }
        if entry.get("survivability_ok") != Some(&Value::Bool(true)) {
            return Err(format!(
                "scenario {kind}: an acked write did not survive R-1 kills"
            ));
        }
        let violations = entry
            .get("violations")
            .and_then(Value::as_arr)
            .ok_or("scenario missing `violations` array")?;
        if !violations.is_empty() {
            return Err(format!(
                "scenario {kind} has {} invariant violation(s); replay with --seed {}",
                violations.len(),
                entry.get("seed").and_then(Value::as_num).unwrap_or(f64::NAN),
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
    fn quick_matrix_report_validates_and_replays_identically() {
        let opts = MatrixOptions {
            quick: true,
            seed: 3,
        };
        let a = run_matrix(&opts);
        validate_matrix(&a).expect("generated matrix validates");
        let b = run_matrix(&opts);
        assert_eq!(
            a.to_pretty(),
            b.to_pretty(),
            "matrix report must be a pure function of the seed"
        );
    }

    #[test]
    fn validators_reject_wrong_bench_kind() {
        let wrong = Value::obj([("bench", Value::Str("chaos".into()))]);
        assert!(validate_matrix(&wrong).is_err());
    }

    #[test]
    fn matrix_validator_rejects_survivability_failures() {
        let opts = MatrixOptions {
            quick: true,
            seed: 4,
        };
        let report = run_matrix(&opts);
        let text = report
            .to_pretty()
            .replace("\"survivability_ok\": true", "\"survivability_ok\": false");
        let tampered = Value::parse(&text).unwrap();
        let err = validate_matrix(&tampered).unwrap_err();
        assert!(err.contains("survive"), "{err}");
    }
}

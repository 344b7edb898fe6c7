//! The command-line contract and `BENCHMARK.json`.

use std::process::Command;

use tiera_bench::json::Value;
use tiera_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use tiera_benchmark::workloads::WORKLOADS;
use tiera_benchmark::DEFAULT_SECONDS;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tiera-benchmark"))
}

fn names(value: &Value) -> Vec<&str> {
    let Value::Obj(pairs) = value else {
        panic!("not an object: {value:?}");
    };
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

/// Runs one smoke workload through the binary and returns its result line.
fn result_line(workload: &str, trace: &str) -> Value {
    let out = bin()
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = Value::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(names(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::as_num), Some(0.0));
    assert!(line.get("attempted").and_then(Value::as_num).unwrap() >= 1.0);
    line
}

fn assert_reports(line: &Value, table: &[MetricDef]) {
    let metrics = line.get("metrics").unwrap();
    assert_eq!(
        names(metrics),
        table.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for m in table {
        let entry = metrics.get(m.name).unwrap();
        assert_eq!(names(entry), ["value", "unit"]);
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
        assert!(
            entry.get("value").and_then(Value::as_num).is_some(),
            "{} is not a number",
            m.name
        );
    }
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric() {
    assert_reports(&result_line("rpc-pipe16-4k", "0"), END_TO_END);
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let trace = tiera_benchmark::sut::out_dir().join("trace-cluster-r3w2-mixed.jsonl");
    let _ = std::fs::remove_file(&trace);
    assert_reports(&result_line("cluster-r3w2-mixed", "1"), PER_LAYER);
    let spans = std::fs::read_to_string(&trace).unwrap();
    let first = Value::parse(spans.lines().next().unwrap()).unwrap();
    assert_eq!(
        names(&first),
        ["id", "parent", "op", "name", "start_ns", "end_ns"]
    );
    assert!(spans.contains("call.cluster.coordinator.multi_get"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such"][..],
        &["--trace", "2"],
        &["--seed"],
        &["compare", "only-one"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_carries_the_same_tables_as_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        names(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        file.get("run_seconds").and_then(Value::as_num),
        Some(DEFAULT_SECONDS)
    );

    let listed = file.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(w.name));
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} bytes",
            w.name,
            w.why.len()
        );
    }

    let better = |m: &MetricDef| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let listed = file.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(names(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
        assert_eq!(entry.get("better").and_then(Value::as_str), Some(better(m)));
        assert_eq!(entry.get("bound").and_then(Value::as_num), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(
        END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound,
        largest
    );

    let listed = file.get("per_layer").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, m) in listed.iter().zip(PER_LAYER) {
        assert_eq!(names(entry), ["name", "unit", "better"]);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
        assert_eq!(entry.get("better").and_then(Value::as_str), Some(better(m)));
    }
}

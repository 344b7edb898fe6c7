//! `tiera-benchmark`: see `README.md` beside this crate.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload and prints one JSON result line last on stdout.
//! * No `--workload`: the whole suite — every workload untraced three
//!   times, then traced, the ladder with the first — each run in a process of
//!   its own (so that peak RSS is that run's), printed as tables and gathered
//!   into `out/result.json` (or `--out <file>`).
//! * `compare <baseline.json> <new.json>` judges two such files.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tiera_bench::json::Value;
use tiera_benchmark::compare::compare;
use tiera_benchmark::measure::{cpus_allowed_list, Spread};
use tiera_benchmark::metrics::{END_TO_END, PER_LAYER};
use tiera_benchmark::workloads::{by_name, WORKLOADS};
use tiera_benchmark::{run, sut, Metric, RunConfig, RunResult, DEFAULT_SECONDS};

const USAGE: &str = "usage: tiera-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--no-ladder] [--out <file>]\n       \
                     tiera-benchmark compare <baseline.json> <new.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// A traced run skips the ladder pass (the suite runs it once, not six
    /// times).
    no_ladder: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        no_ladder: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                continue;
            }
            "--no-ladder" => {
                parsed.no_ladder = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare_files(&args[1..])
    } else {
        parse_args(&args).and_then(|a| match &a.workload {
            Some(name) => one_workload(name, &a),
            None => whole_suite(&a),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("tiera-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err("compare takes two files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let comparison = compare(&load(base)?, &load(new)?)?;
    print!("{comparison}");
    println!("{}", if comparison.passed() { "PASS" } else { "FAIL" });
    Ok(comparison.passed())
}

fn describe(result: &RunResult) {
    eprintln!(
        "{}: {} ops measured, {} attempted, {} failed, stream hash {:016x}",
        result.workload, result.ops, result.attempted, result.failed, result.stream_hash
    );
    if let Some(e) = &result.first_error {
        eprintln!("  first failure: {e}");
    }
}

/// Where a single run leaves what the suite gathers: the result line's
/// content plus quartiles and stream hash.
fn detail_path(workload: &str, trace: bool) -> PathBuf {
    sut::out_dir().join(format!("run-{workload}-trace{}.json", trace as u8))
}

/// Driver mode: one workload, one JSON line last on stdout.
fn one_workload(name: &str, a: &Args) -> Result<bool, String> {
    let workload = by_name(name).ok_or_else(|| format!("no workload called {name}"))?;
    let result = run(&RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        ladder: a.trace && !a.no_ladder,
        smoke: a.smoke,
    })?;
    describe(&result);
    print_metrics(&result.metrics);
    print_trace(&result);

    let from_ladder = |m: &&Metric| {
        result
            .ladder
            .iter()
            .flat_map(|l| &l.metrics)
            .any(|(n, _)| *n == m.name)
    };
    let (ladder, own): (Vec<&Metric>, Vec<&Metric>) = result.metrics.iter().partition(from_ladder);
    let detail = Value::obj([
        ("name", Value::Str(workload.name.into())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("ops", Value::Num(result.ops as f64)),
        (
            "stream_hash",
            Value::Str(format!("{:016x}", result.stream_hash)),
        ),
        ("metrics", metrics_value(&own)),
        ("ladder", metrics_value(&ladder)),
    ]);
    let path = detail_path(workload.name, a.trace);
    std::fs::write(&path, detail.to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    println!("{}", result.to_line());
    Ok(result.correct())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let s = m.spread;
        if s.q1 == s.q3 {
            println!("  {:<34} {:>16.4} {}", m.name, s.value, m.unit);
        } else {
            println!(
                "  {:<34} {:>16.4} {:<6} (quartiles {:.4} .. {:.4})",
                m.name, s.value, m.unit, s.q1, s.q3
            );
        }
    }
}

fn print_trace(result: &RunResult) {
    if !result.span_totals.is_empty() {
        println!(
            "  {:<38} {:>9} {:>12} {:>12}",
            "span", "count", "mean ns", "self ns"
        );
        for t in &result.span_totals {
            let n = t.count as f64;
            println!(
                "  {:<38} {:>9} {:>12.0} {:>12.0}",
                t.name,
                t.count,
                t.total_ns as f64 / n,
                t.self_ns as f64 / n
            );
        }
    }
    if let Some(ladder) = &result.ladder {
        print!("{}", ladder.table());
    }
}

/// Runs one workload in a child process and returns what it left in its
/// detail file, and whether it exited with success (no failed op, every
/// metric a number). The child's tables go straight to this process's stdout.
fn child_run(workload: &str, a: &Args, trace: bool, ladder: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    if !ladder {
        cmd.arg("--no-ladder");
    }
    let path = detail_path(workload, trace);
    // A stale file must not stand in for a run that died.
    let _ = std::fs::remove_file(&path);
    let status = cmd.status().map_err(|e| format!("start {workload}: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload} ({status}) left no result: {e}"))?;
    let detail = Value::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok((detail, status.success()))
}

/// Untraced runs of each workload in suite mode. `setup_s` follows the
/// state of the machine, which shifts by a quarter and more over a minute or
/// so; the suite's value is the median of runs taken minutes apart, and the
/// quartiles `compare` sees are the runs' own.
const SUITE_RUNS: usize = 3;

/// One workload's end-to-end metrics over its untraced runs: per metric the
/// median of the runs' values and their quartiles.
fn across_runs(runs: &[Value]) -> Value {
    let Some(Value::Obj(first)) = runs.first().and_then(|r| r.get("metrics")) else {
        return Value::Null;
    };
    let merged = first.iter().map(|(name, entry)| {
        let values: Vec<f64> = runs
            .iter()
            .map(|r| {
                r.get("metrics")
                    .and_then(|m| m.get(name)?.get("value")?.as_num())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        let unit = entry.get("unit").cloned().unwrap_or(Value::Null);
        let entry = if values.iter().all(|v| v.is_finite()) {
            let s = Spread::of(&values);
            Value::obj([
                ("value", Value::Num(s.value)),
                ("unit", unit),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
            ])
        } else {
            Value::obj([("value", Value::Null), ("unit", unit)])
        };
        (name.clone(), entry)
    });
    Value::Obj(merged.collect())
}

/// Suite mode: every workload untraced [`SUITE_RUNS`] times, round robin,
/// then every workload traced, the ladder with the first.
fn whole_suite(a: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut untraced = vec![Vec::new(); WORKLOADS.len()];
    for pass in 1..=SUITE_RUNS {
        for (runs, workload) in untraced.iter_mut().zip(&WORKLOADS) {
            println!(
                "== {}, untraced run {pass} of {SUITE_RUNS} ==",
                workload.name
            );
            let (run, ok) = child_run(workload.name, a, false, false)?;
            all_ok &= ok;
            runs.push(run);
        }
    }
    let mut entries = Vec::new();
    let mut ladder = Value::Null;
    for (i, (runs, workload)) in untraced.iter().zip(&WORKLOADS).enumerate() {
        println!("== {}, traced ==", workload.name);
        let (traced, ok) = child_run(workload.name, a, true, i == 0)?;
        all_ok &= ok;
        if i == 0 {
            ladder = traced.get("ladder").cloned().unwrap_or(Value::Null);
        }
        let field = |run: &Value, key: &str| run.get(key).cloned().unwrap_or(Value::Null);
        let sum = |key: &str| {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_num())
                .sum::<f64>()
        };
        entries.push(Value::obj([
            ("name", Value::Str(workload.name.into())),
            ("attempted", Value::Num(sum("attempted"))),
            ("failed", Value::Num(sum("failed"))),
            ("stream_hash", field(&runs[0], "stream_hash")),
            ("slice_ops", Value::Num(workload.slice_ops as f64)),
            (
                "checkpoint_ops",
                Value::Num(workload.checkpoint_ops() as f64),
            ),
            ("end_to_end", across_runs(runs)),
            ("per_layer", field(&traced, "metrics")),
        ]));
    }
    let file = Value::obj([
        ("meta", meta(a)),
        ("workloads", Value::Arr(entries)),
        ("ladder", ladder),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| sut::out_dir().join("result.json"));
    std::fs::write(&path, file.to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// Name → value, unit and quartiles. JSON has no NaN: a value that is not a
/// number is written `null` (and the run that produced it exits non-zero).
fn metrics_value(metrics: &[&Metric]) -> Value {
    let num = |x: f64| {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    };
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let s = m.spread;
                let entry = Value::obj([
                    ("value", num(s.value)),
                    ("unit", Value::Str(m.unit.into())),
                    ("q1", num(s.q1)),
                    ("q3", num(s.q3)),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// Where and how the numbers were taken.
fn meta(a: &Args) -> Value {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        (
            "cpus_allowed_list",
            Value::Str(cpus_allowed_list().unwrap_or_else(|| "unknown".into())),
        ),
        ("commit", Value::Str(commit())),
        ("rustc", Value::Str(rustc)),
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(a.seconds)),
        ("smoke", Value::Bool(a.smoke)),
        ("lockcheck", Value::Bool(tiera_support::sync::LOCKCHECK)),
        ("end_to_end_metrics", Value::Num(END_TO_END.len() as f64)),
        ("per_layer_metrics", Value::Num(PER_LAYER.len() as f64)),
    ])
}

/// The checked-out commit, read from `.git` beside the crate's parent (no
/// subprocess, nothing outside the checkout); `unknown` in an exported tree.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(git.join(reference)).unwrap_or_else(|| head.clone()),
    }
}

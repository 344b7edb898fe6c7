//! `tiera-lint` — the specification analyzer as a command-line gate.
//!
//! Runs the `tiera-spec` semantic analysis pass (lint codes `T001`–`T015`,
//! see DESIGN.md) over one or more `.tiera` files and renders rustc-style
//! diagnostics:
//!
//! ```text
//! tiera-lint [--deny-warnings] [--quiet] <file.tiera>...
//! tiera-lint --explain
//! ```
//!
//! Exit status: 0 when every file parses and has no analyzer errors, 1
//! otherwise. `--deny-warnings` promotes warnings to failures (the mode
//! `scripts/verify.sh` uses over the shipped `specs/`), `--quiet`
//! suppresses the per-file `ok` lines, and `--explain` prints the lint
//! code table.

use std::process::exit;

use tiera::spec::{analyze, parse, LintCode};

fn usage() -> ! {
    eprintln!(
        "usage: tiera-lint [--deny-warnings] [--quiet] <file.tiera>...\n\
         \x20      tiera-lint --explain"
    );
    exit(2)
}

fn explain() {
    println!("{:<6} summary", "code");
    for code in LintCode::ALL {
        println!("{:<6} {} ({} by default)", code.code(), code.summary(), code.default_severity());
    }
}

fn main() {
    let mut deny_warnings = false;
    let mut quiet = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--quiet" | "-q" => quiet = true,
            "--explain" => {
                explain();
                return;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown argument: {other}");
                usage()
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        usage()
    }

    let mut failed = false;
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let spec = match parse(&source) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let analysis = analyze(&spec);
        if !analysis.is_clean() {
            print!("{}", analysis.render(&source, path));
        }
        let errors = analysis.errors().count();
        let warnings = analysis.warnings().count();
        if errors > 0 || (deny_warnings && warnings > 0) {
            eprintln!("{path}: {errors} error(s), {warnings} warning(s)");
            failed = true;
        } else if !quiet {
            let suffix =
                if warnings > 0 { format!(" ({warnings} warning(s))") } else { String::new() };
            println!("{path}: ok{suffix}");
        }
    }
    if failed {
        exit(1)
    }
}

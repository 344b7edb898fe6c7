//! Workspace concurrency/source linter. Mirrors `tiera-lint`'s CLI
//! conventions:
//!
//! ```text
//! tiera-analyze [--deny-warnings] [--quiet] <path>...   # files or directories
//! tiera-analyze --explain                               # print the A-code table
//! ```
//!
//! All inputs are analyzed as ONE workspace (the A001 lock graph spans
//! files), findings render rustc-style per file, and the exit code is 1 if
//! any error (or, with `--deny-warnings`, any warning) fired; 2 on usage
//! errors. `scripts/verify.sh` runs `tiera-analyze --deny-warnings crates`
//! as a CI gate.

use std::path::Path;
use std::process::ExitCode;
use tiera_analyze::{analyze_workspace, collect_rust_sources, Config, FileInput, LintCode};

fn usage() -> ExitCode {
    eprintln!("usage: tiera-analyze [--deny-warnings] [--quiet] <path>...");
    eprintln!("       tiera-analyze --explain");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut quiet = false;
    let mut roots: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--quiet" | "-q" => quiet = true,
            "--explain" => {
                for code in LintCode::ALL {
                    println!("{:<6} {}", code.code(), code.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(),
            other if other.starts_with('-') => {
                eprintln!("tiera-analyze: unknown option `{other}`");
                return usage();
            }
            path => roots.push(path.to_string()),
        }
    }
    if roots.is_empty() {
        return usage();
    }

    let mut inputs = Vec::new();
    for root in &roots {
        let paths = collect_rust_sources(Path::new(root));
        if paths.is_empty() {
            eprintln!("tiera-analyze: no .rs files under `{root}`");
            return ExitCode::from(2);
        }
        for path in paths {
            match std::fs::read_to_string(&path) {
                Ok(source) => inputs.push(FileInput { path: path.display().to_string(), source }),
                Err(e) => {
                    eprintln!("tiera-analyze: read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
    }

    let reports = analyze_workspace(&inputs, &Config::workspace());
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (input, report) in inputs.iter().zip(&reports) {
        if report.analysis.is_clean() {
            continue;
        }
        println!("{}", report.analysis.render(&input.source, &input.path));
        errors += report.analysis.errors().count();
        warnings += report.analysis.warnings().count();
    }

    let failed = errors > 0 || (deny_warnings && warnings > 0);
    if failed {
        eprintln!(
            "tiera-analyze: {} file(s), {errors} error(s), {warnings} warning(s)",
            inputs.len()
        );
    } else if !quiet {
        println!(
            "tiera-analyze: {} file(s) clean{}",
            inputs.len(),
            if warnings > 0 { format!(" ({warnings} warning(s) allowed)") } else { String::new() }
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

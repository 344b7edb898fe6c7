//! The pipeline's contract over every spec file in the repository: the
//! shipped `specs/`, the benchmark's `benchmark/specs/` and the lint
//! fixtures.
//!
//! - Linting and compiling read the same lowered policy, so
//!   `Compiler::compile_checked` fails exactly when `analyze` reports an
//!   error, and with that first error.
//! - `print_spec` is canonical after one round, and the printed text lints
//!   to the same findings as the source.

use std::fs;
use std::path::{Path, PathBuf};

use tiera_sim::{SimDuration, SimEnv};
use tiera_spec::ast::ParamKind;
use tiera_spec::{analyze, parse, print_spec, Analysis, Compiler, ParamValue, Spec};

/// Every `.tiera` file that parses, with its path, in path order.
fn spec_files() -> Vec<(PathBuf, Spec)> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root =
        manifest.ancestors().nth(2).expect("spec crate lives two levels below the workspace root");
    let dirs = [
        root.join("specs"),
        root.join("benchmark").join("specs"),
        manifest.join("tests").join("fixtures"),
    ];
    let mut files = Vec::new();
    for dir in dirs {
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
            .map(|e| e.expect("read a directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "tiera"))
            .collect();
        assert!(!paths.is_empty(), "no .tiera files in {dir:?}");
        paths.sort();
        for path in paths {
            let source = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
            if let Ok(spec) = parse(&source) {
                files.push((path, spec));
            }
        }
    }
    files
}

fn findings(analysis: &Analysis) -> Vec<String> {
    analysis
        .diagnostics()
        .iter()
        .map(|d| format!("{}[{}] {}", d.severity, d.code, d.message))
        .collect()
}

#[test]
fn compile_fails_exactly_when_the_lints_report_an_error() {
    for (path, spec) in spec_files() {
        let env = SimEnv::new(1);
        let catalog = tiera_tiers::default_catalog(&env);
        let mut compiler = Compiler::new(&catalog, env.clone());
        for p in &spec.params {
            let value = match p.kind {
                ParamKind::Time => ParamValue::Duration(SimDuration::from_secs(30)),
                ParamKind::Size => ParamValue::Size(1 << 20),
                ParamKind::Percent => ParamValue::Percent(50.0),
            };
            compiler = compiler.bind(p.name.clone(), value);
        }
        let analysis = analyze(&spec);
        match (analysis.first_error(), compiler.compile_checked(&spec)) {
            (None, Ok((_, warnings))) => {
                assert_eq!(warnings, analysis.into_warnings(), "{path:?}")
            }
            (Some(lint), Err(err)) => {
                assert_eq!(err.message, format!("[{}] {}", lint.code, lint.message), "{path:?}");
                assert_eq!(err.line, lint.line, "{path:?}");
            }
            (lint, compiled) => panic!(
                "{path:?}: first lint error {lint:?}, but compiling gave {:?}",
                compiled.map(|_| "an instance")
            ),
        }
    }
}

#[test]
fn printing_is_canonical_and_keeps_the_findings() {
    for (path, spec) in spec_files() {
        let printed = print_spec(&spec);
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("{path:?}: printed spec must parse: {e}"));
        assert_eq!(print_spec(&reparsed), printed, "{path:?}: printer is not canonical");
        assert_eq!(
            findings(&analyze(&reparsed)),
            findings(&analyze(&spec)),
            "{path:?}: the printed text lints differently"
        );
    }
}

//! Golden diagnostic tests for the spec analyzer.
//!
//! `tests/fixtures/` holds one minimal bad spec per lint code
//! (`t001.tiera` … `t012.tiera`), each with a `.expected` file containing
//! the exact rendered diagnostic. Regenerate an expected file after an
//! intentional rendering change with:
//!
//! ```text
//! cd crates/spec/tests && \
//!   cargo run --bin tiera-lint -- --deny-warnings --quiet fixtures/tNNN.tiera \
//!   > fixtures/tNNN.expected
//! ```
//!
//! The shipped `specs/` directory must stay lint-clean — that is the gate
//! `scripts/verify.sh` enforces with `tiera-lint --deny-warnings`.

use std::fs;
use std::path::{Path, PathBuf};

use tiera_spec::{analyze, parse, LintCode};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("spec crate lives two levels below the workspace root")
        .join("specs")
}

#[test]
fn each_lint_code_has_a_fixture_matching_its_golden_render() {
    for code in LintCode::ALL {
        let name = code.code().to_lowercase(); // "T001" -> "t001"
        let spec_path = fixtures_dir().join(format!("{name}.tiera"));
        let expected_path = fixtures_dir().join(format!("{name}.expected"));
        let source =
            fs::read_to_string(&spec_path).unwrap_or_else(|e| panic!("read {spec_path:?}: {e}"));
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("read {expected_path:?}: {e}"));

        let spec = parse(&source).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let analysis = analyze(&spec);

        // The fixture is minimal: it fires its own code and nothing else.
        let fired: Vec<_> = analysis.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(fired, vec![code], "{name}: expected exactly one {code} finding");

        let rendered = analysis.render(&source, &format!("fixtures/{name}.tiera"));
        assert_eq!(
            rendered, expected,
            "{name}: rendered diagnostic drifted from {expected_path:?}"
        );
    }
}

#[test]
fn shipped_specs_are_lint_clean() {
    let dir = specs_dir();
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| e.expect("read specs/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tiera"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .tiera files found in {dir:?}");
    for path in paths {
        let source = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let spec = parse(&source).unwrap_or_else(|e| panic!("{path:?}: parse: {e}"));
        let analysis = analyze(&spec);
        assert!(
            analysis.is_clean(),
            "{}:\n{}",
            path.display(),
            analysis.render(&source, &path.display().to_string())
        );
    }
}

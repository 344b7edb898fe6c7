//! Golden diagnostic tests: one fixture per live A-code under
//! `tests/fixtures/`, asserting the stable code, the anchor line, and the
//! rustc-style rendering. Fixtures are fed with bare-filename labels so
//! the path-scoping rules (`tests/` exclusion, support exemption) do not
//! apply to them.

use tiera_analyze::{analyze_file, analyze_workspace, Analysis, Config, FileInput};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn line_of(source: &str, needle: &str) -> u32 {
    (source
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"))
        + 1) as u32
}

fn codes(analysis: &Analysis) -> Vec<&'static str> {
    analysis.diagnostics().iter().map(|d| d.code.code()).collect()
}

#[test]
fn a001_cycle_fixture() {
    let src = fixture("a001_cycle.rs");
    let analysis = analyze_file("a001_cycle.rs", &src, &Config::workspace());
    assert_eq!(codes(&analysis), ["A001"], "{analysis:?}");
    let d = &analysis.diagnostics()[0];
    assert!(d.message.contains("`fixture.left`") && d.message.contains("`fixture.right`"));
    let rendered = analysis.render(&src, "a001_cycle.rs");
    assert!(rendered.starts_with("error[A001]: lock-order cycle"));
    assert!(rendered.contains("--> a001_cycle.rs:"));
}

#[test]
fn a002_inversion_fixture_reports_both_rank_and_cycle() {
    let src = fixture("a002_inversion.rs");
    let analysis = analyze_file("a002_inversion.rs", &src, &Config::workspace());
    let got = codes(&analysis);
    assert!(got.contains(&"A002"), "{analysis:?}");
    assert!(got.contains(&"A001"), "{analysis:?}");

    let inversion_line = line_of(&src, "let _s = self.shards.write();");
    let a002 =
        analysis.diagnostics().iter().find(|d| d.code.code() == "A002").expect("A002 finding");
    assert_eq!(a002.line, inversion_line);
    assert!(a002.message.contains("`registry.shard` (rank 50)"));
    assert!(a002.message.contains("`registry.dedup` (rank 56)"));

    let rendered = analysis.render(&src, "a002_inversion.rs");
    assert!(rendered.contains("error[A002]: lock-order inversion"));
    assert!(rendered.contains(&format!("--> a002_inversion.rs:{inversion_line}")));
    assert!(rendered.contains(&format!("{inversion_line} |         let _s = self.shards.write();")));
    assert!(rendered.contains("= note: ranks are declared in `tiera_support::sync::rank`"));
}

#[test]
fn a002_is_reported_past_a_cfg_test_field() {
    let src = fixture("a002_after_gated_field.rs");
    let analysis = analyze_file("a002_after_gated_field.rs", &src, &Config::workspace());
    assert_eq!(codes(&analysis), ["A002"], "{analysis:?}");
    assert_eq!(analysis.diagnostics()[0].line, line_of(&src, "let _s = self.shards.write();"));
}

#[test]
fn a003_blocking_fixture() {
    let src = fixture("a003_blocking.rs");
    let analysis = analyze_file("a003_blocking.rs", &src, &Config::workspace());
    assert_eq!(codes(&analysis), ["A003"], "{analysis:?}");
    let d = &analysis.diagnostics()[0];
    assert_eq!(d.line, line_of(&src, "self.rx.recv()"));
    assert!(d.message.contains("`.recv()`"));
    assert!(d.message.contains("`fixture.queue`"));
    assert!(analysis.render(&src, "a003_blocking.rs").starts_with("warning[A003]: blocking call"));
}

#[test]
fn a007_unnamed_fixture() {
    let src = fixture("a007_unnamed.rs");
    // A007 applies to shipping src/ files.
    let analysis = analyze_file("crates/demo/src/pair.rs", &src, &Config::workspace());
    assert_eq!(codes(&analysis), ["A007", "A007"], "{analysis:?}");
    assert_eq!(analysis.diagnostics()[0].line, line_of(&src, "Mutex::new(0)"));
}

#[test]
fn a008_discarded_result_fixtures() {
    let src = fixture("a008_discarded.rs");
    let analysis = analyze_file("a008_discarded.rs", &src, &Config::workspace());
    assert_eq!(codes(&analysis), ["A008", "A008"], "{analysis:?}");
    let lines: Vec<u32> = analysis.diagnostics().iter().map(|d| d.line).collect();
    let pump = line_of(&src, "let _ = instance.pump(t);");
    assert_eq!(lines, [pump, pump + 1]);
    let rendered = analysis.render(&src, "a008_discarded.rs");
    assert!(rendered.starts_with("error[A008]: `let _ =` discards the `Result` of `.pump(..)`"));
    assert!(rendered.contains("discards the `Result` of `.sync_all(..)`"));
    assert!(rendered.contains("= note: handle or propagate the error"));
    // A reason on the line above clears each; so does a test file.
    let justified = fixture("a008_justified.rs");
    assert!(analyze_file("a008_justified.rs", &justified, &Config::workspace()).is_clean());
    assert!(analyze_file("crates/x/tests/t.rs", &src, &Config::workspace()).is_clean());
}

#[test]
fn a008_flags_a_result_discarded_by_ok() {
    let src = fixture("a008_ok_discarded.rs");
    let analysis = analyze_file("a008_ok_discarded.rs", &src, &Config::workspace());
    assert_eq!(codes(&analysis), ["A008", "A008"], "{analysis:?}");
    let lines: Vec<u32> = analysis.diagnostics().iter().map(|d| d.line).collect();
    let sync = line_of(&src, "    log.sync_all().ok();");
    assert_eq!(lines, [sync, sync + 1]);
    let rendered = analysis.render(&src, "a008_ok_discarded.rs");
    assert!(rendered.starts_with("error[A008]: `.ok();` discards the `Result` of `.sync_all(..)`"));
    assert!(rendered.contains("`.ok();` discards the `Result` of `.pump(..)`"));
}

#[test]
fn a009_dead_pub_fixture() {
    let src = fixture("a009_dead_pub.rs");
    let config = Config { dead_pub: vec!["a009_dead_pub.rs".into()], unbuilt_variant: vec![] };
    let analysis = analyze_file("a009_dead_pub.rs", &src, &config);
    assert_eq!(
        analysis.render(&src, "a009_dead_pub.rs"),
        "\
warning[A009]: `pub` item `run_matrix` is named by no non-test code
  --> a009_dead_pub.rs:18
   |
18 | pub fn run_matrix(seeds: &[u64]) -> Vec<Outcome> {
   |
   = note: delete it, or move it into the test code that uses it

warning[A009]: `pub` item `NEVER_READ` is named by no non-test code
  --> a009_dead_pub.rs:23
   |
23 | pub static NEVER_READ: u64 = 1;
   |
   = note: delete it, or move it into the test code that uses it
"
    );
    // Outside the configured directories the file is clean.
    assert!(analyze_file("a009_dead_pub.rs", &src, &Config::workspace()).is_clean());
    // A use in another non-test file keeps an item alive; one under
    // `tests/` does not.
    let caller = |path: &str| FileInput {
        path: path.into(),
        source: "fn main() { let _ = run_matrix(&[1]); }\n".into(),
    };
    for (path, expected) in [("crates/x/src/bin/main.rs", 1), ("crates/x/tests/t.rs", 2)] {
        let reports = analyze_workspace(
            &[FileInput { path: "a009_dead_pub.rs".into(), source: src.clone() }, caller(path)],
            &config,
        );
        assert_eq!(reports[0].analysis.diagnostics().len(), expected, "{path}");
    }
}

#[test]
fn a010_unbuilt_variant_fixture() {
    let src = fixture("a010_unbuilt_variant.rs");
    let config =
        Config { dead_pub: vec![], unbuilt_variant: vec!["a010_unbuilt_variant.rs".into()] };
    let analysis = analyze_file("a010_unbuilt_variant.rs", &src, &config);
    assert_eq!(
        analysis.render(&src, "a010_unbuilt_variant.rs"),
        "\
warning[A010]: variant `Shape::Hexagon` is constructed by no non-test code
  --> a010_unbuilt_variant.rs:11
   |
11 |     Hexagon,
   |
   = note: delete it, or give the reason it stays on the line above as `// A010: <reason>`

warning[A010]: variant `Shape::Blob` is constructed by no non-test code
  --> a010_unbuilt_variant.rs:12
   |
12 |     Blob,
   |
   = note: delete it, or give the reason it stays on the line above as `// A010: <reason>`
"
    );
    // Outside the configured directories the file is clean.
    assert!(analyze_file("a010_unbuilt_variant.rs", &src, &Config::workspace()).is_clean());
    // A construction in another non-test file builds a variant; one under
    // `tests/` does not.
    let caller = |path: &str| FileInput {
        path: path.into(),
        source: "fn main() { let _ = geometry::Shape::Blob; }\n".into(),
    };
    for (path, expected) in [("crates/x/src/bin/main.rs", 1), ("crates/x/tests/t.rs", 2)] {
        let reports = analyze_workspace(
            &[
                FileInput { path: "a010_unbuilt_variant.rs".into(), source: src.clone() },
                caller(path),
            ],
            &config,
        );
        assert_eq!(reports[0].analysis.diagnostics().len(), expected, "{path}");
    }
}

#[test]
fn cross_file_cycle_is_detected_workspace_wide() {
    // `forward` nests left→right in one "file", `backward` nests
    // right→left in another: neither file alone cycles, the workspace does.
    let file_a = r#"
pub struct A { left: Mutex<u32>, right: Mutex<u32> }
impl A {
    pub fn build() -> Self {
        Self { left: Mutex::named("span.left", 3, 0), right: Mutex::named("span.right", 3, 0) }
    }
    pub fn forward(&self) {
        let l = self.left.lock();
        let _r = self.right.lock();
        drop(l);
    }
}
"#;
    let file_b = r#"
pub struct B { left: Mutex<u32>, right: Mutex<u32> }
impl B {
    pub fn build() -> Self {
        Self { left: Mutex::named("span.left", 3, 0), right: Mutex::named("span.right", 3, 0) }
    }
    pub fn backward(&self) {
        let r = self.right.lock();
        let _l = self.left.lock();
        drop(r);
    }
}
"#;
    let reports = analyze_workspace(
        &[
            FileInput { path: "crates/x/src/a.rs".into(), source: file_a.into() },
            FileInput { path: "crates/x/src/b.rs".into(), source: file_b.into() },
        ],
        &Config::workspace(),
    );
    let total: Vec<&str> =
        reports.iter().flat_map(|r| r.analysis.diagnostics()).map(|d| d.code.code()).collect();
    assert_eq!(total, ["A001"], "reports: {reports:?}");
    // Each file alone is clean.
    assert!(analyze_file("crates/x/src/a.rs", file_a, &Config::workspace()).is_clean());
    assert!(analyze_file("crates/x/src/b.rs", file_b, &Config::workspace()).is_clean());
}

//! The shipped workspace must produce zero findings: `tiera-analyze
//! --deny-warnings crates` is part of the verification gate, and this test
//! is the in-process equivalent so `cargo test` alone catches regressions.

use tiera_analyze::scan::scan;
use tiera_analyze::{analyze_workspace, collect_rust_sources, Config, FileInput};

fn workspace_sources() -> Vec<FileInput> {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let crates = format!("{root}/crates");
    let files = collect_rust_sources(std::path::Path::new(&crates));
    assert!(
        files.len() > 50,
        "workspace walk found only {} files — wrong root?",
        files.len()
    );
    files
        .into_iter()
        .map(|p| {
            let source = std::fs::read_to_string(&p).expect("read source");
            let full = p.to_string_lossy().into_owned();
            let path = full
                .strip_prefix(&root)
                .map(|r| r.trim_start_matches('/').to_string())
                .unwrap_or(full);
            FileInput { path, source }
        })
        .collect()
}

#[test]
fn shipped_sources_are_clean_under_deny_warnings() {
    let inputs = workspace_sources();
    let reports = analyze_workspace(&inputs, &Config::workspace());
    let mut rendered = String::new();
    for (input, report) in inputs.iter().zip(&reports) {
        if !report.analysis.is_clean() {
            rendered.push_str(&report.analysis.render(&input.source, &report.path));
        }
    }
    assert!(rendered.is_empty(), "shipped sources have findings:\n{rendered}");
}

#[test]
fn scanner_extracts_real_facts_from_the_registry() {
    // Canary: an analyzer that silently extracts nothing would also report
    // "clean". Prove the scanner sees the registry's named locks and at
    // least one acquired-while-held edge in the shipped tree.
    let inputs = workspace_sources();
    let registry = inputs
        .iter()
        .find(|i| i.path.ends_with("crates/core/src/registry.rs"))
        .expect("registry source present");
    let facts = scan(&registry.source);
    assert!(
        facts.ctors.iter().any(|c| c.name.as_deref() == Some("registry.shard")),
        "registry shard locks should be named"
    );
    assert!(
        facts.ctors.iter().any(|c| c.name.as_deref() == Some("registry.order")),
        "registry order index lock should be named"
    );
    // A `#[cfg(test)]` field does not end the region the lints check: it
    // runs to the test module.
    assert_eq!(
        registry.source.lines().nth(facts.shipping_end + 1),
        Some("mod tests {"),
        "the registry's shipping region ends at line {}",
        facts.shipping_end
    );
    let workspace_edges: usize = inputs
        .iter()
        .map(|i| scan(&i.source).edges.len())
        .sum();
    assert!(
        workspace_edges > 0,
        "expected at least one acquired-while-held edge across the workspace"
    );
}

#[test]
fn dead_pub_covers_every_crate_but_support_and_bench() {
    let crates = format!("{}/..", env!("CARGO_MANIFEST_DIR"));
    let dead_pub = Config::workspace().dead_pub;
    for entry in std::fs::read_dir(&crates).expect("list crates") {
        let name = entry
            .expect("crate entry")
            .file_name()
            .into_string()
            .expect("utf-8 name");
        let dir = format!("crates/{name}/src/");
        let exempt = name == "support" || name == "bench";
        assert_eq!(dead_pub.contains(&dir), !exempt, "{dir}");
    }
}

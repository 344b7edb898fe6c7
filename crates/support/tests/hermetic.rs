//! Hermeticity guard and workspace source lint.
//!
//! Manifest half: the workspace must never regrow a crates-io dependency.
//! Parses every `crates/*/Cargo.toml` plus the workspace root and fails if
//! any dependency entry is not an in-repo `tiera-*` path crate. `cargo
//! build --offline` on a bare toolchain is the contract (see DESIGN.md,
//! "Hermetic dependency policy").
//!
//! Source half: every crate must carry `#![forbid(unsafe_code)]`, and the
//! source-lint rules that used to be hand-rolled here (std::sync
//! containment, panic-free wire decoding, hot-path hashing) now run
//! through `tiera-analyze` — the analyzer library is the single source of
//! truth for the A004/A005/A006 rules, and these tests pin that the
//! workspace stays clean under them even when `scripts/verify.sh` is not
//! in the loop.

use std::fs;
use std::path::{Path, PathBuf};
use tiera_analyze::{analyze_workspace, collect_rust_sources, Config, FileInput, FileReport};

fn workspace_root() -> PathBuf {
    // crates/support -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("support crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Extracts dependency names from the `[dependencies]`,
/// `[dev-dependencies]`, `[build-dependencies]`, and
/// `[workspace.dependencies]` sections of a manifest. A deliberately
/// simple line-based parse: every dependency the workspace uses is
/// declared as `name.workspace = true`, `name = { path = … }`, or
/// `name = "version"` on its own line.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_dep_section = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_dep_section = matches!(
                line,
                "[dependencies]"
                    | "[dev-dependencies]"
                    | "[build-dependencies]"
                    | "[workspace.dependencies]"
            );
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name.workspace = true` or `name = …`
        let name = line
            .split(['=', '.', ' '])
            .next()
            .unwrap_or_default()
            .trim();
        if !name.is_empty() {
            deps.push(name.to_string());
        }
    }
    deps
}

/// Analyzer reports for every `.rs` file under `crates/`, with the
/// workspace lint policy. Paths are repo-relative so the analyzer's
/// path-scoping rules (support exemption, panic-free/hot-path suffixes)
/// apply exactly as they do for `tiera-analyze --deny-warnings crates`.
fn analyzer_reports() -> Vec<FileReport> {
    let root = workspace_root();
    let inputs: Vec<FileInput> = collect_rust_sources(&root.join("crates"))
        .into_iter()
        .map(|p| {
            let source =
                fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p:?}: {e}"));
            let path = p
                .strip_prefix(&root)
                .map(|r| r.to_string_lossy().into_owned())
                .unwrap_or_else(|_| p.to_string_lossy().into_owned());
            FileInput { path, source }
        })
        .collect();
    assert!(
        inputs.iter().any(|i| i.path.ends_with("crates/rpc/src/proto.rs")),
        "workspace walk must reach proto.rs"
    );
    analyze_workspace(&inputs, &Config::workspace())
}

/// Findings carrying `code` across the whole workspace, formatted for a
/// failure message.
fn findings_with_code(reports: &[FileReport], code: &str) -> Vec<String> {
    reports
        .iter()
        .flat_map(|r| {
            r.analysis
                .diagnostics()
                .iter()
                .filter(|d| d.code.code() == code)
                .map(move |d| format!("{}:{}: {}", r.path, d.line, d.message))
        })
        .collect()
}

/// Crate directories under `crates/`, sorted for stable failure output.
fn crate_dirs() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ directory")
        .map(|e| e.expect("read crates/ entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn no_external_dependencies_anywhere() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let path = entry.expect("read crates/ entry").path().join("Cargo.toml");
        assert!(
            path.is_file(),
            "every crates/* directory must have a Cargo.toml: {path:?}"
        );
        manifests.push(path);
    }
    assert!(
        manifests.len() >= 18,
        "expected the workspace root and 17+ member manifests (including \
         crates/tierx), found {}",
        manifests.len()
    );

    let mut violations = Vec::new();
    for manifest_path in &manifests {
        let text = fs::read_to_string(manifest_path)
            .unwrap_or_else(|e| panic!("read {manifest_path:?}: {e}"));
        for dep in dependency_names(&text) {
            if !dep.starts_with("tiera-") && dep != "tiera" {
                violations.push(format!("{}: `{dep}`", manifest_path.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-hermetic dependencies found (only in-repo `tiera-*` path crates \
         are allowed; add the needed functionality to `tiera-support` instead):\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn banned_crate_names_absent_from_manifests() {
    // Belt and braces for the review-time grep: the historical crates-io
    // names must not appear in any member manifest in any form.
    let banned = [
        "parking_lot",
        "crossbeam",
        "proptest",
        "criterion",
        "rand",
        "bytes",
    ];
    let root = workspace_root();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let path = entry.expect("read crates/ entry").path().join("Cargo.toml");
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('#') {
                continue;
            }
            for name in banned {
                // Word-boundary match so e.g. the description "replaces
                // criterion" in prose is caught too only when it names the
                // crate as a dependency key.
                if line.starts_with(name)
                    && line[name.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c == '.' || c == ' ' || c == '=')
                {
                    panic!("banned dependency `{name}` named in {path:?}: {line}");
                }
            }
        }
    }
}

#[test]
fn every_crate_forbids_unsafe_code() {
    let mut missing = Vec::new();
    for dir in crate_dirs() {
        let lib = dir.join("src").join("lib.rs");
        let text =
            fs::read_to_string(&lib).unwrap_or_else(|e| panic!("read {lib:?}: {e}"));
        if !text.contains("#![forbid(unsafe_code)]") {
            missing.push(lib.display().to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "crates without `#![forbid(unsafe_code)]`:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn std_sync_locks_only_in_support() {
    // `tiera_support::sync::{Mutex, RwLock}` are the only lock types the
    // workspace may use; reaching for std's directly bypasses the support
    // crate's non-poisoning policy, lock naming, and the lockcheck
    // sanitizer. The rule is analyzer lint A006 (the support crate itself
    // wraps std's primitives and is exempt).
    let violations = findings_with_code(&analyzer_reports(), "A006");
    assert!(
        violations.is_empty(),
        "direct std::sync lock usage outside tiera-support \
         (use `tiera_support::sync` instead):\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn wire_decoders_cannot_panic_on_hostile_input() {
    // `crates/rpc/src/proto.rs` is the only code that parses bytes an
    // untrusted peer controls, `crates/codec/src/packed.rs` unpacks
    // frames a backing store may have corrupted, and
    // `crates/support/src/wire.rs` is the reader under proto.rs, metadata
    // records, the fs manifest and metastore log headers; every decode
    // path there must return a `Result`, never panic. The fuzz suites exercise this dynamically;
    // analyzer lint A004 pins it statically: outside the `#[cfg(test)]`
    // module, no panicking construct may appear in its panic-free files
    // at all. (Even `unwrap` on a value "known" to be fine
    // is banned — refactors have a way of breaking such knowledge
    // silently.)
    let reports = analyzer_reports();
    for covered in [
        "crates/support/src/wire.rs",
        "crates/rpc/src/proto.rs",
        "crates/codec/src/packed.rs",
    ] {
        assert!(
            Config::workspace().panic_free.iter().any(|p| p == covered)
                && reports.iter().any(|r| r.path.contains(covered)),
            "{covered} must be linted as a panic-free module"
        );
    }
    let violations = findings_with_code(&reports, "A004");
    assert!(
        violations.is_empty(),
        "panicking construct reachable from wire input in a panic-free file \
         (return a Result instead):\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn registry_hot_path_uses_fx_hash_maps() {
    // The sharded registry hashes every key twice per operation (shard
    // pick + in-shard probe); `tiera_support::collections::FxHashMap` is
    // the sanctioned map type there — a default-hashed
    // `std::collections::HashMap` would silently reintroduce SipHash *and*
    // per-process-random iteration order, which previously made experiment
    // output drift run to run. The same holds for the tiers' object maps
    // (`crates/core/src/tier.rs`, `crates/tiers/src`): the simulated
    // memory tier's reshard walks its map while drawing from a seeded rng,
    // which made Figure 16 differ between runs. The tier wrappers
    // (`crates/tierx/src`) probe a ledger on every wrapped op, and
    // `DedupTier::check_integrity` lists violations in map order; the blob
    // refcount table under both dedup layers (`crates/core/src/dedup.rs`)
    // is probed on every `storeOnce` and every wrapped dedup op. The
    // metastore's index (`crates/metastore/src/store.rs`) is a hash table
    // probed on every persisted write; what it hands out (`for_each`,
    // snapshots, `scan_prefix`) comes in log or key order, never the
    // table's. The cluster coordinator and its nodes probe their key and
    // delete-replay tables on the routed path, and the simulator, the whole
    // cluster crate, the chaos harness and the workload drivers
    // (`crates/{sim,cluster,chaos,workloads}/src/`, directory entries) must
    // replay bit for bit from a seed. Analyzer lint A005 enforces this;
    // every other crate keeps default hashing for DoS resistance.
    let reports = analyzer_reports();
    for covered in [
        "crates/core/src/registry.rs",
        "crates/core/src/dedup.rs",
        "crates/core/src/tier.rs",
        "crates/metastore/src/store.rs",
        "crates/tiers/src/lib.rs",
        "crates/tiers/src/simulated.rs",
        "crates/tierx/src/compressed.rs",
        "crates/tierx/src/dedup.rs",
        "crates/sim/src/",
        "crates/cluster/src/",
        "crates/chaos/src/",
        "crates/workloads/src/",
    ] {
        assert!(
            Config::workspace().hot_path.iter().any(|p| p == covered)
                && reports.iter().any(|r| r.path.contains(covered)),
            "{covered} must be linted as a hot-path module"
        );
    }
    let violations = findings_with_code(&reports, "A005");
    assert!(
        violations.is_empty(),
        "default-hashed HashMap in a hot-path module \
         (use `tiera_support::collections::FxHashMap`):\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn workspace_is_clean_under_the_full_analyzer() {
    // The whole A001–A007 gate, not just the migrated rules: a rank
    // inversion or an unnamed lock anywhere in shipped code fails the
    // hermetic suite, not only `scripts/verify.sh`.
    let reports = analyzer_reports();
    let dirty: Vec<String> = reports
        .iter()
        .filter(|r| !r.analysis.is_clean())
        .flat_map(|r| {
            r.analysis
                .diagnostics()
                .iter()
                .map(move |d| format!("{}:{}: [{}] {}", r.path, d.line, d.code, d.message))
        })
        .collect();
    assert!(
        dirty.is_empty(),
        "`tiera-analyze --deny-warnings` would fail on shipped sources:\n  {}",
        dirty.join("\n  ")
    );
}

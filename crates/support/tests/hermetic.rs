//! Hermeticity guard and workspace source lint.
//!
//! Manifest half: the workspace must never regrow a crates-io dependency.
//! Parses every `crates/*/Cargo.toml` plus the workspace root and fails if
//! any dependency entry is not an in-repo `tiera-*` path crate. `cargo
//! build --offline` on a bare toolchain is the contract (see DESIGN.md,
//! "Hermetic dependency policy").
//!
//! Source half: every crate must carry `#![forbid(unsafe_code)]`, and the
//! clippy gate in `scripts/verify.sh` must keep its configuration: std
//! locks and std hash maps and sets disallowed outside this crate, the assert
//! macros disallowed where a module denies them, and the three decoders
//! of hostile bytes denying every panicking construct. `cargo test` does
//! not run clippy, so this pins the configuration clippy reads. The
//! shipped sources must also be clean under `tiera-analyze`'s full lint
//! set, so a lock-order finding fails `cargo test` too.

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
        let name = line.split(['=', '.', ' ']).next().unwrap_or_default().trim();
        if !name.is_empty() {
            deps.push(name.to_string());
        }
    }
    deps
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
        assert!(path.is_file(), "every crates/* directory must have a Cargo.toml: {path:?}");
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
    let banned = ["parking_lot", "crossbeam", "proptest", "criterion", "rand", "bytes"];
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
        let text = fs::read_to_string(&lib).unwrap_or_else(|e| panic!("read {lib:?}: {e}"));
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

/// The panicking constructs a decoder of hostile bytes denies outside its
/// tests.
const PANIC_FREE_LINTS: [&str; 9] = [
    "clippy::panic",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::indexing_slicing",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::panic_in_result_fn",
    "clippy::disallowed_macros",
];

/// The entries of the array `key = [ … ]` in `toml`, up to its closing `]`
/// line.
fn toml_array<'a>(toml: &'a str, key: &str) -> &'a str {
    let start = toml.find(&format!("{key} = [")).unwrap_or(toml.len());
    let rest = &toml[start..];
    &rest[..rest.find("\n]").unwrap_or(rest.len())]
}

/// Reads `path`, failing the test with the path on error.
fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// The `paths` missing from the array `key` of the root `clippy.toml`.
fn missing_clippy_entries(key: &str, paths: &[&str]) -> Vec<String> {
    let clippy = read(&workspace_root().join("clippy.toml"));
    let entries = toml_array(&clippy, key);
    paths
        .iter()
        .filter(|path| !entries.contains(&format!("path = \"{path}\"")))
        .map(|path| format!("clippy.toml: {key} entry `{path}`"))
        .collect()
}

#[test]
fn std_sync_locks_only_in_support() {
    // `tiera_support::sync::{Mutex, RwLock}` are the only lock types the
    // workspace may use; reaching for std's directly bypasses the support
    // crate's non-poisoning policy, lock naming, and the lockcheck
    // sanitizer. clippy's `disallowed_types` enforces it; the support
    // crate, which wraps std's primitives, allows the lint once.
    let mut missing =
        missing_clippy_entries("disallowed-types", &["std::sync::Mutex", "std::sync::RwLock"]);
    let support = workspace_root().join("crates/support/src/lib.rs");
    if !read(&support).contains("#![allow(\n    clippy::disallowed_types,") {
        missing.push(format!("{}: `#![allow(clippy::disallowed_types, …)]`", support.display()));
    }
    assert!(
        missing.is_empty(),
        "the clippy gate no longer confines std locks to tiera-support:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn wire_decoders_cannot_panic_on_hostile_input() {
    // `crates/rpc/src/proto.rs` is the only code that parses bytes an
    // untrusted peer controls, `crates/codec/src/packed.rs` unpacks
    // frames a backing store may have corrupted, and
    // `crates/support/src/wire.rs` is the reader under proto.rs, metadata
    // records, the fs manifest and metastore log headers; every decode
    // path there must return a `Result`, never panic. The fuzz suites
    // exercise this dynamically; the clippy gate pins it statically:
    // outside its tests, each module denies every panicking construct,
    // the assert macros included. The macros are legal elsewhere through
    // the workspace's `disallowed_macros = "allow"`, which every member
    // inherits.
    let root = workspace_root();
    let mut missing = missing_clippy_entries(
        "disallowed-macros",
        &[
            "std::assert",
            "std::assert_eq",
            "std::assert_ne",
            "std::debug_assert",
            "std::debug_assert_eq",
            "std::debug_assert_ne",
        ],
    );
    if !read(&root.join("Cargo.toml"))
        .contains("[workspace.lints.clippy]\ndisallowed_macros = \"allow\"\n")
    {
        missing.push("Cargo.toml: `[workspace.lints.clippy] disallowed_macros = \"allow\"`".into());
    }
    for dir in crate_dirs() {
        let manifest = dir.join("Cargo.toml");
        if !read(&manifest).contains("[lints]\nworkspace = true\n") {
            missing.push(format!("{}: `[lints] workspace = true`", manifest.display()));
        }
    }

    for module in
        ["crates/support/src/wire.rs", "crates/rpc/src/proto.rs", "crates/codec/src/packed.rs"]
    {
        let source = read(&root.join(module));
        let deny = source
            .find("#![cfg_attr(\n    not(test),\n    deny(")
            .map_or("", |at| &source[at..at + source[at..].find(")]").unwrap_or(0)]);
        for lint in PANIC_FREE_LINTS {
            if !deny.contains(&format!("{lint},")) && !deny.contains(&format!("{lint}\n")) {
                missing
                    .push(format!("{module}: `{lint}` in its `#![cfg_attr(not(test), deny(…))]`"));
            }
        }
    }

    assert!(
        missing.is_empty(),
        "the clippy gate no longer keeps the wire decoders panic-free:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn registry_hot_path_uses_fx_hash_maps() {
    // The sharded registry hashes every key twice per operation (shard
    // pick + in-shard probe); `tiera_support::collections::FxHashMap` is
    // the sanctioned map type there and everywhere else outside the
    // support crate. A default-hashed `std::collections::HashMap` would
    // silently reintroduce SipHash *and* per-process-random iteration
    // order, which previously made experiment output drift run to run.
    // The same holds for sets (`FxHashSet`). clippy's `disallowed_types`
    // enforces both.
    let missing = missing_clippy_entries(
        "disallowed-types",
        &["std::collections::HashMap", "std::collections::HashSet"],
    );
    assert!(
        missing.is_empty(),
        "the clippy gate no longer bans default-hashed maps:\n  {}",
        missing.join("\n  ")
    );
}

/// Analyzer reports for every `.rs` file under `crates/`, with the
/// workspace lint policy. Paths are repo-relative so the analyzer's
/// path-scoping rules apply exactly as they do for
/// `tiera-analyze --deny-warnings crates`.
fn analyzer_reports() -> Vec<FileReport> {
    let root = workspace_root();
    let inputs: Vec<FileInput> = collect_rust_sources(&root.join("crates"))
        .into_iter()
        .map(|p| {
            let source = read(&p);
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

#[test]
fn workspace_is_clean_under_the_full_analyzer() {
    // The whole analyzer gate: a rank inversion or an unnamed lock
    // anywhere in shipped code fails the hermetic suite, not only
    // `scripts/verify.sh`.
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

//! `tiera-analyze` — hermetic static analysis over the workspace's Rust
//! source.
//!
//! A small token scanner ([`scan`]) extracts per-function lock-acquisition
//! sequences for named `tiera_support::sync` locks; [`checks`] turns them
//! into stable `A0xx` lints (lock-order cycles, rank inversions against
//! the `tiera_support::sync::rank` table, blocking-while-locked, unnamed
//! locks), and adds the surface lints no compiler makes (discarded
//! durability results, dead `pub` items, unbuilt enum variants), rendered
//! rustc-style through [`diag`]. The `tiera-analyze` binary gates all of
//! it in `scripts/verify.sh`; the runtime complement is the `lockcheck`
//! feature of `tiera-support`. What clippy checks with types (std locks,
//! std hash maps, panic-free modules) is configured in the root
//! `clippy.toml` instead.
//!
//! No rustc internals, no proc macros, no filesystem assumptions beyond
//! "here are some `.rs` files" — the pass must run on a bare offline
//! toolchain in the same spirit as the rest of the workspace.

#![forbid(unsafe_code)]

pub mod checks;
pub mod diag;
pub mod scan;

pub use checks::{analyze_file, analyze_workspace, Config, FileInput, FileReport};
pub use diag::{Analysis, Diagnostic, LintCode, Severity};

use std::path::{Path, PathBuf};

/// All `.rs` files under `root`, recursively, sorted. Skips `target/`
/// build output and `fixtures/` directories (lint corpora contain
/// deliberate violations).
pub fn collect_rust_sources(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let skip = path.file_name().is_some_and(|n| n == "target" || n == "fixtures");
                if !skip {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    if root.is_file() {
        out.push(root.to_path_buf());
    } else {
        walk(root, &mut out);
    }
    out.sort();
    out
}

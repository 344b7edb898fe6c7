//! The A001–A007 lint rules over scanned [`FileFacts`], plus the
//! workspace-level acquired-while-held graph (A001 cycles can span files:
//! one function nests `a` inside `b`, another nests `b` inside `a`).
//!
//! Scoping policy, chosen so a clean run over shipped `crates/` is a hard
//! CI gate without false positives:
//!
//! * **A001/A002/A003/A007** apply to *shipping* code only — files outside
//!   `tests/`/`benches/`/`examples/`, lines before the column-0
//!   `#[cfg(test)]` that opens the test module — and never to
//!   `crates/support` itself (the lock wrappers and channels legitimately
//!   compose primitives the rest of the workspace must not touch).
//! * **A004** applies to the configured panic-free modules' shipping
//!   region (historically `crates/rpc/src/proto.rs`).
//! * **A005** applies to every line of the configured hot-path and
//!   determinism-critical modules (`crates/core/src/{registry,tier}.rs`,
//!   `crates/tiers/src`, all of `crates/{sim,cluster,chaos,workloads}/src`,
//!   …), tests included — a default-hashed map in a registry test still
//!   hides iteration-order nondeterminism.
//! * **A006** applies to every line of every non-support file, matching
//!   the original hermetic.rs lint.
//! * **A009** applies to the column-0 `pub` items of the configured
//!   dead-surface directories (every crate's `src/` but support's and
//!   bench's). An item is dead when its name appears in no non-test line
//!   of any analyzed file but its own definition. Test code is `tests/`
//!   and a file's test module. The match is by identifier, so a re-export
//!   or a same-named item elsewhere keeps an item alive: A009 finds what
//!   nothing names, not every item only tests call.

use crate::diag::{Analysis, Diagnostic, LintCode};
use crate::scan::{self, FileFacts};
use std::collections::{BTreeMap, BTreeSet};
use tiera_support::sync::rank;

/// Path-dependent lint policy. Suffix-matched against the paths handed to
/// [`analyze_workspace`], so both absolute and repo-relative invocations
/// work.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files in which no panicking construct may appear in shipping code
    /// (A004).
    pub panic_free: Vec<String>,
    /// Files in which default-hashed maps are banned (A005). An entry
    /// ending in `/` covers every file under that directory.
    pub hot_path: Vec<String>,
    /// Files whose `pub` items must be named by non-test code (A009);
    /// entries as in `hot_path`. `crates/support/src` and `crates/bench/src`
    /// stay out: support's `LOCKCHECK` and bench's `json` serve
    /// `benchmark/`, which lies outside the analyzed tree.
    pub dead_pub: Vec<String>,
}

impl Config {
    /// The workspace policy: support's byte reader, proto.rs and the
    /// codec's packed frame decode hostile bytes; the registry, core's blob refcount table, the metastore's locator table, the
    /// tiers' object maps and the tier wrappers' ledgers are per-key hot
    /// paths, the simulated tiers' reshard walks its map while drawing
    /// from a seeded rng, and the dedup wrapper's integrity check reports
    /// in map order; the cluster coordinator and its nodes probe their
    /// key and delete-replay tables on the routed path. The simulator,
    /// the whole cluster crate, the chaos harness and the workload
    /// drivers must replay bit for bit from a seed, which a randomly
    /// seeded map's iteration order would break.
    pub fn workspace() -> Self {
        Self {
            panic_free: vec![
                "crates/support/src/wire.rs".into(),
                "crates/rpc/src/proto.rs".into(),
                "crates/codec/src/packed.rs".into(),
            ],
            hot_path: vec![
                "crates/core/src/registry.rs".into(),
                "crates/core/src/dedup.rs".into(),
                "crates/core/src/tier.rs".into(),
                "crates/metastore/src/store.rs".into(),
                "crates/tiers/src/lib.rs".into(),
                "crates/tiers/src/simulated.rs".into(),
                "crates/tierx/src/compressed.rs".into(),
                "crates/tierx/src/dedup.rs".into(),
                "crates/sim/src/".into(),
                "crates/cluster/src/".into(),
                "crates/chaos/src/".into(),
                "crates/workloads/src/".into(),
            ],
            dead_pub: vec![
                "crates/analyzer/src/".into(),
                "crates/chaos/src/".into(),
                "crates/cluster/src/".into(),
                "crates/codec/src/".into(),
                "crates/core/src/".into(),
                "crates/db/src/".into(),
                "crates/fs/src/".into(),
                "crates/metastore/src/".into(),
                "crates/rpc/src/".into(),
                "crates/sim/src/".into(),
                "crates/spec/src/".into(),
                "crates/tiera/src/".into(),
                "crates/tiers/src/".into(),
                "crates/tierx/src/".into(),
                "crates/workloads/src/".into(),
            ],
        }
    }
}

/// One file to analyze.
#[derive(Debug, Clone)]
pub struct FileInput {
    pub path: String,
    pub source: String,
}

/// The findings for one analyzed file.
#[derive(Debug)]
pub struct FileReport {
    pub path: String,
    pub analysis: Analysis,
}

/// Panicking constructs banned from panic-free modules (A004). `[0]` is
/// direct indexing — a panic in disguise.
const PANICKING: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    "[0]",
];

fn is_support(path: &str) -> bool {
    path.contains("crates/support/")
}

fn is_shipping_file(path: &str) -> bool {
    !path.contains("/tests/") && !path.contains("/benches/") && !path.contains("/examples/")
}

/// The name a column-0 `pub` line defines, if it defines a free fn, a
/// type, a const or a static. `pub use`, `pub mod`, `pub(crate)` and
/// indented (associated) items define none.
fn pub_item(line: &str) -> Option<&str> {
    let mut words = line.strip_prefix("pub ")?.split_whitespace().peekable();
    loop {
        match words.next()? {
            "unsafe" | "async" => {}
            "const" if words.peek() == Some(&"fn") => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "union" | "const" => break,
            "static" => {
                words.next_if_eq(&"mut");
                break;
            }
            _ => return None,
        }
    }
    let word = words.next()?;
    let end = word
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(word.len());
    (end > 0).then(|| &word[..end])
}

/// The identifiers on a cleaned source line.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// A009 over the whole input: how often each identifier appears in
/// non-test code, then every covered `pub` item whose own definition is
/// its only appearance.
fn dead_pub_surface(
    files: &[FileInput],
    facts: &[FileFacts],
    config: &Config,
    diags: &mut [Vec<Diagnostic>],
) {
    fn non_test<'a>(path: &str, facts: &'a FileFacts) -> &'a [String] {
        let lines = if path.contains("/tests/") { 0 } else { facts.shipping_end };
        &facts.cleaned[..lines]
    }
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for (f, facts) in files.iter().zip(facts) {
        for ident in non_test(&f.path, facts).iter().flat_map(|l| identifiers(l)) {
            *uses.entry(ident).or_default() += 1;
        }
    }
    for (i, (f, facts)) in files.iter().zip(facts).enumerate() {
        if !covered(&f.path, &config.dead_pub) {
            continue;
        }
        for (n, line) in non_test(&f.path, facts).iter().enumerate() {
            let Some(name) = pub_item(line) else { continue };
            if uses.get(name).copied().unwrap_or(0) <= 1 {
                diags[i].push(
                    Diagnostic::new(
                        LintCode::DeadPubSurface,
                        (n + 1) as u32,
                        format!("`pub` item `{name}` is named by no non-test code"),
                    )
                    .note("delete it, or move it into the test code that uses it"),
                );
            }
        }
    }
}

/// Whether a [`Config`] list covers `path`: a file entry by suffix, a
/// directory entry (ending in `/`) by containment.
fn covered(path: &str, entries: &[String]) -> bool {
    entries.iter().any(|e| {
        if e.ends_with('/') {
            path.contains(e.as_str())
        } else {
            path.ends_with(e.as_str())
        }
    })
}

/// Analyzes a set of files as one workspace: per-file lints plus the
/// global lock graph. Reports come back in input order, each file's
/// findings sorted by line then code.
pub fn analyze_workspace(files: &[FileInput], config: &Config) -> Vec<FileReport> {
    let facts: Vec<FileFacts> = files.iter().map(|f| scan::scan(&f.source)).collect();
    let mut diags: Vec<Vec<Diagnostic>> = files
        .iter()
        .zip(&facts)
        .map(|(f, facts)| file_diags(&f.path, facts, config))
        .collect();
    dead_pub_surface(files, &facts, config, &mut diags);

    // Workspace lock graph over shipping, non-support edges.
    #[derive(Clone)]
    struct GEdge {
        file: usize,
        held: String,
        held_line: u32,
        acquired: String,
        acquired_line: u32,
        func: String,
    }
    let mut global: Vec<GEdge> = Vec::new();
    for (i, (f, facts)) in files.iter().zip(&facts).enumerate() {
        if is_support(&f.path) || !is_shipping_file(&f.path) {
            continue;
        }
        for e in &facts.edges {
            if (e.acquired_line as usize) <= facts.shipping_end {
                global.push(GEdge {
                    file: i,
                    held: e.held.clone(),
                    held_line: e.held_line,
                    acquired: e.acquired.clone(),
                    acquired_line: e.acquired_line,
                    func: e.func.clone(),
                });
            }
        }
    }
    global.sort_by(|a, b| {
        (&files[a.file].path, a.acquired_line).cmp(&(&files[b.file].path, b.acquired_line))
    });

    // Adjacency with a representative edge per (held → acquired) pair.
    let mut adj: BTreeMap<&str, BTreeMap<&str, &GEdge>> = BTreeMap::new();
    for e in &global {
        adj.entry(e.held.as_str())
            .or_default()
            .entry(e.acquired.as_str())
            .or_insert(e);
    }

    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for e in &global {
        let cycle_nodes: Option<Vec<&str>> = if e.held == e.acquired {
            Some(vec![e.held.as_str()])
        } else {
            path_between(&adj, &e.acquired, &e.held)
        };
        let Some(path_nodes) = cycle_nodes else {
            continue;
        };
        let mut key: Vec<String> = path_nodes.iter().map(|s| s.to_string()).collect();
        if !key.contains(&e.held) {
            key.push(e.held.clone());
        }
        key.sort();
        key.dedup();
        if !reported.insert(key) {
            continue;
        }
        let mut d = if path_nodes.len() == 1 {
            Diagnostic::new(
                LintCode::LockOrderCycle,
                e.acquired_line,
                format!(
                    "lock-order cycle: `{}` acquired while already held (in `{}`)",
                    e.acquired, e.func
                ),
            )
            .note(format!("first acquired at line {}", e.held_line))
        } else {
            // `path_nodes` runs acquired → … → held, so prepending the
            // held lock closes the printed cycle: held → acquired → … → held.
            let mut chain = vec![e.held.as_str()];
            chain.extend(path_nodes.iter());
            let mut d = Diagnostic::new(
                LintCode::LockOrderCycle,
                e.acquired_line,
                format!(
                    "lock-order cycle: `{}`",
                    chain.join("` \u{2192} `") // “a` → `b` → `a”
                ),
            )
            .note(format!(
                "`{}` acquired here (in `{}`) while `{}` was held (line {})",
                e.acquired, e.func, e.held, e.held_line
            ));
            // Cite the representative site of every other hop.
            for pair in chain.windows(2).skip(1) {
                if let Some(hop) = adj.get(pair[0]).and_then(|m| m.get(pair[1])) {
                    d = d.note(format!(
                        "`{}` acquired while `{}` held at {}:{} (in `{}`)",
                        hop.acquired,
                        hop.held,
                        files[hop.file].path,
                        hop.acquired_line,
                        hop.func
                    ));
                }
            }
            d
        };
        d = d.note("every thread must acquire these locks in one global order");
        diags[e.file].push(d);
    }

    for d in &mut diags {
        d.sort_by_key(|d| (d.line, d.code.code()));
    }
    files
        .iter()
        .zip(diags)
        .map(|(f, d)| FileReport {
            path: f.path.clone(),
            analysis: Analysis::new(d),
        })
        .collect()
}

/// Analyzes a single file (its own edges still feed the cycle check, so a
/// one-file inversion pair reports both A001 and A002).
pub fn analyze_file(path: &str, source: &str, config: &Config) -> Analysis {
    let mut reports = analyze_workspace(
        &[FileInput {
            path: path.to_string(),
            source: source.to_string(),
        }],
        config,
    );
    reports.remove(0).analysis
}

/// BFS path from `from` to `to` through the adjacency map, returned as the
/// node list `[from, …, to]`. Deterministic: neighbors visit in name order.
fn path_between<'a>(
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, impl Sized>>,
    from: &str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let (&start, _) = adj.get_key_value(from)?;
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([start]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = parent.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if let Some(next) = adj.get(n) {
            for &m in next.keys() {
                if seen.insert(m) {
                    parent.insert(m, n);
                    queue.push_back(m);
                }
            }
        }
    }
    None
}

/// All per-file checks (everything except the cross-file A001 pass).
fn file_diags(path: &str, facts: &FileFacts, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let support = is_support(path);
    let shipping_file = is_shipping_file(path);

    // A006 — std::sync locks outside tiera-support, every line.
    if !support {
        for (i, line) in facts.cleaned.iter().enumerate() {
            if line.contains("std::sync::") && (line.contains("Mutex") || line.contains("RwLock")) {
                out.push(
                    Diagnostic::new(
                        LintCode::StdSyncLock,
                        (i + 1) as u32,
                        "std::sync lock named outside tiera-support",
                    )
                    .note(
                        "use `tiera_support::sync::{Mutex, RwLock}` so lock policy \
                         (non-poisoning, naming, lockcheck) stays in one place",
                    ),
                );
            }
        }
    }

    // A004 — panicking constructs in panic-free modules (shipping region).
    if covered(path, &config.panic_free) {
        for (i, line) in facts.cleaned.iter().enumerate().take(facts.shipping_end) {
            for pat in PANICKING {
                if line.contains(pat) {
                    out.push(
                        Diagnostic::new(
                            LintCode::PanicInPanicFree,
                            (i + 1) as u32,
                            format!("panicking construct `{pat}` in a panic-free module"),
                        )
                        .note("this module decodes hostile input; return an error instead"),
                    );
                }
            }
        }
    }

    // A005 — default-hashed maps in hot-path modules (all lines).
    if covered(path, &config.hot_path) {
        for (i, line) in facts.cleaned.iter().enumerate() {
            let default_hashed = (line.contains("HashMap<") && !line.contains("FxHashMap<"))
                || line.contains("use std::collections::HashMap");
            if default_hashed {
                out.push(
                    Diagnostic::new(
                        LintCode::DefaultHashedHotPath,
                        (i + 1) as u32,
                        "default-hashed map in a hot-path module",
                    )
                    .note(
                        "use `tiera_support::collections::FxHashMap` — SipHash costs \
                         per-key time and randomizes iteration order",
                    ),
                );
            }
        }
    }

    if support || !shipping_file {
        return out;
    }

    // A002 — rank inversions against the declared table (shipping region).
    for e in &facts.edges {
        if (e.acquired_line as usize) > facts.shipping_end {
            continue;
        }
        if let (Some(ra), Some(rh)) = (rank::of(&e.acquired), rank::of(&e.held)) {
            if ra < rh {
                out.push(
                    Diagnostic::new(
                        LintCode::RankInversion,
                        e.acquired_line,
                        format!(
                            "lock-order inversion: acquiring `{}` (rank {ra}) while \
                             holding `{}` (rank {rh}) in `{}`",
                            e.acquired, e.held, e.func
                        ),
                    )
                    .note(format!("`{}` acquired at line {}", e.held, e.held_line))
                    .note("ranks are declared in `tiera_support::sync::rank`"),
                );
            }
        }
    }

    // A003 — blocking calls while a lock is held (shipping region).
    for b in &facts.blocking {
        if (b.line as usize) > facts.shipping_end {
            continue;
        }
        out.push(
            Diagnostic::new(
                LintCode::BlockingWhileLocked,
                b.line,
                format!(
                    "blocking call `{}` while holding lock `{}` in `{}`",
                    b.pattern, b.held, b.func
                ),
            )
            .note(format!("`{}` acquired at line {}", b.held, b.held_line))
            .note("drop the guard before parking the thread"),
        );
    }

    // A007 — unnamed locks in multi-lock files (shipping region of src/).
    if path.contains("/src/") {
        let shipped: Vec<_> = facts
            .ctors
            .iter()
            .filter(|c| (c.line as usize) <= facts.shipping_end)
            .collect();
        if shipped.len() >= 2 {
            for c in shipped.iter().filter(|c| c.name.is_none()) {
                out.push(
                    Diagnostic::new(
                        LintCode::UnnamedLockMultiSite,
                        c.line,
                        "unnamed lock constructed in a file with multiple locks",
                    )
                    .note(
                        "use `Mutex::named`/`RwLock::named` with a rank from \
                         `tiera_support::sync::rank` so the analyzer and the lockcheck \
                         sanitizer can order it",
                    ),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_file(path, src, &Config::workspace())
            .diagnostics()
            .to_vec()
    }

    #[test]
    fn std_sync_flagged_outside_support_only() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(run("crates/core/src/x.rs", src).len(), 1);
        assert!(run("crates/support/src/x.rs", src).is_empty());
    }

    /// The cluster's routing files, and with them every file of the crates
    /// that must replay from a seed.
    #[test]
    fn cluster_routing_files_are_hot_path() {
        let src = "use std::collections::HashMap;\n";
        for path in [
            "crates/cluster/src/coordinator.rs",
            "crates/cluster/src/node.rs",
            "crates/cluster/src/ring.rs",
            "crates/sim/src/rng.rs",
            "crates/chaos/src/schedule.rs",
            "crates/workloads/src/ycsb.rs",
            "/abs/checkout/crates/workloads/src/new_driver.rs",
        ] {
            let diags = run(path, src);
            let codes: Vec<&str> = diags.iter().map(|d| d.code.code()).collect();
            assert_eq!(codes, ["A005"], "{path}: {diags:?}");
        }
        // A directory entry covers its own tree only.
        assert!(run("crates/cluster/tests/hammer.rs", src).is_empty());
        assert!(run("crates/rpc/src/server.rs", src).is_empty());
    }

    #[test]
    fn cross_function_inversion_yields_cycle_and_rank_findings() {
        let src = r#"
struct R { s: RwLock<u32>, o: RwLock<u32> }
impl R {
    fn build() -> Self {
        Self {
            s: RwLock::named("registry.shard", 50, 0),
            o: RwLock::named("registry.order", 52, 0),
        }
    }
    fn good(&self) {
        let s = self.s.write();
        let _o = self.o.write();
        drop(s);
    }
    fn bad(&self) {
        let o = self.o.write();
        let _s = self.s.write();
        drop(o);
    }
}
"#;
        let diags = run("crates/demo/src/r.rs", src);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.code()).collect();
        assert!(codes.contains(&"A001"), "diags: {diags:?}");
        assert!(codes.contains(&"A002"), "diags: {diags:?}");
    }

    #[test]
    fn test_module_edges_are_ignored() {
        let src = r#"
struct R { a: Mutex<u32>, b: Mutex<u32> }
impl R {
    fn build() -> Self {
        Self { a: Mutex::named("tm.a", 1, 0), b: Mutex::named("tm.b", 2, 0) }
    }
}
#[cfg(test)]
mod tests {
    fn inverted(r: &super::R) {
        let b = r.b.lock();
        let _a = r.a.lock();
        drop(b);
    }
}
"#;
        assert!(run("crates/demo/src/r.rs", src).is_empty());
    }

    #[test]
    fn unnamed_ctor_in_multi_lock_file_warns() {
        let src = r#"
struct P { a: Mutex<u32>, b: Mutex<u32> }
impl P {
    fn build() -> Self {
        Self {
            a: Mutex::named("p.a", 1, 0),
            b: Mutex::new(0),
        }
    }
}
"#;
        let diags = run("crates/demo/src/p.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.code(), "A007");
    }

    #[test]
    fn single_anonymous_lock_is_fine() {
        let src = "struct Q { a: Mutex<u32> }\nimpl Q { fn b() -> Self { Self { a: Mutex::new(0) } } }\n";
        assert!(run("crates/demo/src/q.rs", src).is_empty());
    }
}

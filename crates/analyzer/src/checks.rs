//! The A001–A003 and A007–A010 lint rules over scanned [`FileFacts`], plus the
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
//! * **A004–A006** are retired, never reused: clippy makes those checks
//!   with types (DESIGN.md §2d).
//! * **A008** applies to the shipping region of shipping files, support's
//!   included: a `let _ =` statement, or an expression statement ending in
//!   `.ok();`, that calls one of `MUST_USE`'s methods discards a failure
//!   the caller was meant to see, unless the line above the statement
//!   gives the reason as `// A008: <reason>`.
//! * **A009** applies to the column-0 `pub` items of the configured
//!   dead-surface directories (every crate's `src/` but support's and
//!   bench's). An item is dead when its name appears in no non-test line
//!   of any analyzed file but its own definition. Test code is `tests/`
//!   and a file's test module. The match is by identifier, so a re-export
//!   or a same-named item elsewhere keeps an item alive: A009 finds what
//!   nothing names, not every item only tests call.
//! * **A010** applies to the variants of the column-0 `pub enum`s in the
//!   configured unbuilt-variant directories (`crates/{core,spec,tiers}/src`).
//!   A variant is unbuilt when no non-test line of any analyzed file (test
//!   code as for A009) writes `Enum::Variant`, or `Self::Variant` in the
//!   enum's own file, outside a pattern. A pattern is an occurrence
//!   followed, past its fields and any closing brackets, by `=>`, a `|`
//!   alternative, an `if` guard or a `let`'s `=`. Anything else — a
//!   comparison, a function reference like `.map(Enum::Variant)`, a
//!   `matches!` pattern — counts as a construction, so A010 errs towards
//!   silence. A `// A010: <reason>` line directly above a variant exempts
//!   it.

use crate::diag::{Analysis, Diagnostic, LintCode};
use crate::scan::{self, FileFacts};
use std::collections::{BTreeMap, BTreeSet};
use tiera_support::sync::rank;

/// Path-dependent lint policy. Suffix-matched against the paths handed to
/// [`analyze_workspace`], so both absolute and repo-relative invocations
/// work.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files whose `pub` items must be named by non-test code (A009). An
    /// entry ending in `/` covers every file under that directory.
    /// `crates/support/src` and `crates/bench/src`
    /// stay out: support's `LOCKCHECK` and bench's `json` serve
    /// `benchmark/`, which lies outside the analyzed tree.
    pub dead_pub: Vec<String>,
    /// Files whose `pub enum` variants must be constructed by non-test
    /// code (A010); entries as in `dead_pub`.
    pub unbuilt_variant: Vec<String>,
}

impl Config {
    /// The workspace policy.
    pub fn workspace() -> Self {
        Self {
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
            unbuilt_variant: vec![
                "crates/core/src/".into(),
                "crates/spec/src/".into(),
                "crates/tiers/src/".into(),
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

/// Methods whose `Result` carries a durability or background failure
/// (A008): `Instance::pump` reports `Registry::sync()`'s metadata error,
/// and the rest are the file and writer calls that make bytes durable.
const MUST_USE: &[&str] =
    &["pump", "sync", "sync_data", "sync_all", "flush", "flush_tail", "set_len", "write_all"];

/// The [`MUST_USE`] method a statement starting at cleaned line `at`
/// discards the `Result` of, if it does, and how it does: a `let _ =`
/// statement, or an expression statement ending in `.ok();`.
fn discarded_call(cleaned: &[String], at: usize) -> Option<(&'static str, &'static str)> {
    let (statement, how) = match cleaned[at].trim_start().strip_prefix("let _ =") {
        Some(rest) => {
            // The statement runs to its `;`.
            let mut statement = rest.to_string();
            for line in &cleaned[at + 1..] {
                if statement.contains(';') {
                    break;
                }
                statement.push_str(line.trim());
            }
            (statement, "`let _ =`")
        }
        None => (ok_statement(cleaned, at)?, "`.ok();`"),
    };
    let call = MUST_USE.iter().find(|name| statement.contains(&format!(".{name}(")))?;
    Some((call, how))
}

/// The expression statement starting at cleaned line `at`, if it ends in
/// `.ok();`. A statement starts after a blank line or one ending in `;`,
/// `{` or `}`, and runs to the first line ending in one of those; one that
/// binds, assigns or returns its value keeps it.
fn ok_statement(cleaned: &[String], at: usize) -> Option<String> {
    let first = cleaned[at].trim();
    let opens = at == 0 || {
        let above = cleaned[at - 1].trim();
        above.is_empty() || above.ends_with([';', '{', '}'])
    };
    if !opens || first.is_empty() || first.starts_with("let ") || first.starts_with("return ") {
        return None;
    }
    let mut statement = String::new();
    for line in &cleaned[at..] {
        statement.push_str(line.trim());
        if statement.ends_with([';', '{', '}']) {
            break;
        }
    }
    (statement.ends_with(".ok();") && !statement.contains(" = ")).then_some(statement)
}

/// Whether raw line `above` gives lint `code` its reason:
/// `// <code>: <reason>`.
fn justifies(code: &str, above: Option<&&str>) -> bool {
    above
        .and_then(|line| {
            line.trim_start().strip_prefix("// ")?.strip_prefix(code)?.strip_prefix(':')
        })
        .is_some_and(|reason| !reason.trim().is_empty())
}

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
    let end = word.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(word.len());
    (end > 0).then(|| &word[..end])
}

/// The identifiers on a cleaned source line.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// A file's non-test cleaned lines: none of a file under `tests/`, else
/// those before its test module.
fn non_test<'a>(path: &str, facts: &'a FileFacts) -> &'a [String] {
    let lines = if path.contains("/tests/") { 0 } else { facts.shipping_end };
    &facts.cleaned[..lines]
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

/// One variant of a covered `pub enum`.
struct Variant<'a> {
    file: usize,
    /// 0-based line of the variant.
    line: usize,
    ty: &'a str,
    name: &'a str,
}

/// How `c` moves the bracket depth.
fn nesting(c: char) -> i32 {
    match c {
        '{' | '(' | '[' => 1,
        '}' | ')' | ']' => -1,
        _ => 0,
    }
}

/// The variants of the column-0 `pub enum` whose header is cleaned line
/// `at`, each with its line: the identifiers that open a line one bracket
/// deep in the enum's body.
fn enum_variants(cleaned: &[String], at: usize) -> Vec<(usize, &str)> {
    let mut variants = Vec::new();
    let mut depth = 0;
    for (n, line) in cleaned.iter().enumerate().skip(at) {
        let head = line.trim_start();
        if depth == 1 && head.starts_with(|c: char| c.is_ascii_uppercase()) {
            variants.extend(identifiers(head).next().map(|name| (n, name)));
        }
        depth += line.chars().map(nesting).sum::<i32>();
        if depth <= 0 && n > at {
            break;
        }
    }
    variants
}

/// Whether the path that ends at byte `end` of `text` is a pattern: past
/// one bracketed group of fields and any closing brackets, `=>`, a `|`
/// alternative, an `if` guard or a `let`'s `=` follows it.
fn in_pattern(text: &str, end: usize) -> bool {
    let mut rest = text[end..].trim_start();
    if rest.starts_with(['(', '{', '[']) {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += nesting(c);
            depth == 0
        });
        rest = close.map_or("", |at| rest[at + 1..].trim_start());
    }
    rest = rest.trim_start_matches([')', ']', ' ', '\n']);
    rest.starts_with("=>")
        || rest.starts_with('|') && !rest.starts_with("||")
        || rest.starts_with("if ")
        || rest.starts_with('=') && !rest.starts_with("==")
}

/// The `(qualifier, name)` of every `A::B` path step in `text`, with the
/// byte offset where `B` ends.
fn path_steps(text: &str) -> impl Iterator<Item = (&str, &str, usize)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices("::").filter_map(move |(at, _)| {
        let start = text[..at].rfind(|c: char| !is_ident(c)).map_or(0, |i| i + 1);
        let after = &text[at + 2..];
        let len = after.find(|c: char| !is_ident(c)).unwrap_or(after.len());
        (start < at && len > 0).then(|| (&text[start..at], &after[..len], at + 2 + len))
    })
}

/// A010 over the whole input: the variants of every covered `pub enum`,
/// then every non-test construction of one, then each variant none
/// constructs.
fn unbuilt_variants(
    files: &[FileInput],
    facts: &[FileFacts],
    config: &Config,
    diags: &mut [Vec<Diagnostic>],
) {
    let mut variants: Vec<Variant> = Vec::new();
    for (file, (f, facts)) in files.iter().zip(facts).enumerate() {
        if !covered(&f.path, &config.unbuilt_variant) {
            continue;
        }
        let lines = non_test(&f.path, facts);
        for (at, line) in lines.iter().enumerate() {
            let Some(ty) = line.strip_prefix("pub enum ").and_then(|rest| identifiers(rest).next())
            else {
                continue;
            };
            for (line, name) in enum_variants(lines, at) {
                variants.push(Variant { file, line, ty, name });
            }
        }
    }
    let mut built = vec![false; variants.len()];
    for (file, (f, facts)) in files.iter().zip(facts).enumerate() {
        let text = non_test(&f.path, facts).join("\n");
        for (qualifier, name, end) in path_steps(&text) {
            for (v, built) in variants.iter().zip(&mut built) {
                let names =
                    v.name == name && (v.ty == qualifier || qualifier == "Self" && v.file == file);
                if names && !in_pattern(&text, end) {
                    *built = true;
                }
            }
        }
    }
    for (v, built) in variants.iter().zip(built) {
        let above = v.line.checked_sub(1).and_then(|n| files[v.file].source.lines().nth(n));
        if built || justifies("A010", above.as_ref()) {
            continue;
        }
        diags[v.file].push(
            Diagnostic::new(
                LintCode::UnbuiltVariant,
                (v.line + 1) as u32,
                format!("variant `{}::{}` is constructed by no non-test code", v.ty, v.name),
            )
            .note(
                "delete it, or give the reason it stays on the line above as `// A010: <reason>`",
            ),
        );
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
    let mut diags: Vec<Vec<Diagnostic>> =
        files.iter().zip(&facts).map(|(f, facts)| file_diags(&f.path, &f.source, facts)).collect();
    dead_pub_surface(files, &facts, config, &mut diags);
    unbuilt_variants(files, &facts, config, &mut diags);

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
        adj.entry(e.held.as_str()).or_default().entry(e.acquired.as_str()).or_insert(e);
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
                        hop.acquired, hop.held, files[hop.file].path, hop.acquired_line, hop.func
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
        .map(|(f, d)| FileReport { path: f.path.clone(), analysis: Analysis::new(d) })
        .collect()
}

/// Analyzes a single file (its own edges still feed the cycle check, so a
/// one-file inversion pair reports both A001 and A002).
pub fn analyze_file(path: &str, source: &str, config: &Config) -> Analysis {
    let mut reports = analyze_workspace(
        &[FileInput { path: path.to_string(), source: source.to_string() }],
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
fn file_diags(path: &str, source: &str, facts: &FileFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !is_shipping_file(path) {
        return out;
    }

    // A008 — discarded durability/pump results (shipping region).
    let raw: Vec<&str> = source.lines().collect();
    for at in 0..facts.shipping_end.min(facts.cleaned.len()) {
        let Some((call, how)) = discarded_call(&facts.cleaned, at) else {
            continue;
        };
        if at > 0 && justifies("A008", raw.get(at - 1)) {
            continue;
        }
        out.push(
            Diagnostic::new(
                LintCode::DiscardedResult,
                (at + 1) as u32,
                format!("{how} discards the `Result` of `.{call}(..)`"),
            )
            .note("handle or propagate the error, or give the reason on the line above as `// A008: <reason>`"),
        );
    }

    if is_support(path) {
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
        let shipped: Vec<_> =
            facts.ctors.iter().filter(|c| (c.line as usize) <= facts.shipping_end).collect();
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
        analyze_file(path, src, &Config::workspace()).diagnostics().to_vec()
    }

    #[test]
    fn cross_function_inversion_yields_cycle_and_rank_findings() {
        let src = r#"
struct R { s: RwLock<u32>, d: RwLock<u32> }
impl R {
    fn build() -> Self {
        Self {
            s: RwLock::named("registry.shard", 50, 0),
            d: RwLock::named("registry.dedup", 56, 0),
        }
    }
    fn good(&self) {
        let s = self.s.write();
        let _d = self.d.write();
        drop(s);
    }
    fn bad(&self) {
        let d = self.d.write();
        let _s = self.s.write();
        drop(d);
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
        let src =
            "struct Q { a: Mutex<u32> }\nimpl Q { fn b() -> Self { Self { a: Mutex::new(0) } } }\n";
        assert!(run("crates/demo/src/q.rs", src).is_empty());
    }
}

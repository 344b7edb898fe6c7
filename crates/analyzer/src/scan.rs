//! A small Rust token scanner — no rustc internals, the same spirit as the
//! line-based lints that used to live in `crates/support/tests/hermetic.rs`,
//! but structured: it strips comments and string/char literals first (so a
//! lint pattern inside a string can never fire), then extracts per-file
//! lock facts:
//!
//! * every `tiera_support::sync` lock construction (`Mutex::new`,
//!   `RwLock::named`, …) with its declared name when present;
//! * a binding map (`field or let ident → lock name`) and an accessor map
//!   (`fn returning &Mutex/&RwLock of a named field → lock name`);
//! * per-function lock-acquisition sequences: for each `.lock()` /
//!   `.read()` / `.write()` whose receiver resolves through the binding or
//!   accessor map, an *acquired-while-held* edge for every lock still held
//!   at that point, plus any blocking call made while a lock is held.
//!
//! Guard lifetimes are tracked by brace depth: a `let`-bound guard (or a
//! `for`/`if let`/`while let`/`match` head temporary) is held until its
//! enclosing block closes or an explicit `drop(ident)`; a plain statement
//! temporary is held only for its own statement. Analysis is
//! **intra-procedural**: a lock acquired inside a callee is invisible at
//! the call site (the runtime `lockcheck` sanitizer covers cross-function
//! nesting). Unresolvable receivers are ignored — the scanner is
//! deliberately conservative so it can gate CI without false positives.

use tiera_support::collections::FxHashMap;

/// One lock construction site.
#[derive(Debug, Clone)]
pub struct Ctor {
    /// 1-based source line.
    pub line: u32,
    /// The declared lock name (`Mutex::named("…", …)`), or `None` for an
    /// anonymous `::new` construction.
    pub name: Option<String>,
}

/// `B` was acquired at `acquired_line` while `A` (acquired at `held_line`)
/// was still held, inside `func`.
#[derive(Debug, Clone)]
pub struct Edge {
    pub held: String,
    pub held_line: u32,
    pub acquired: String,
    pub acquired_line: u32,
    pub func: String,
}

/// A blocking call made while at least one named lock was held.
#[derive(Debug, Clone)]
pub struct BlockingCall {
    /// The innermost lock held at the call.
    pub held: String,
    pub held_line: u32,
    /// The blocking pattern that matched (e.g. `.recv()`).
    pub pattern: &'static str,
    pub line: u32,
    pub func: String,
}

/// Everything the scanner extracts from one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Source lines with comments and string/char literals blanked.
    pub cleaned: Vec<String>,
    /// Number of leading lines that are shipping code: everything from the
    /// column-0 `#[cfg(test)]` that opens the test module onward is
    /// test-only.
    pub shipping_end: usize,
    pub ctors: Vec<Ctor>,
    /// Binding ident (struct field or local) → lock name.
    pub bindings: FxHashMap<String, String>,
    /// Accessor fn name (returns `&Mutex<..>`/`&RwLock<..>` of a named
    /// field) → lock name.
    pub accessors: FxHashMap<String, String>,
    pub edges: Vec<Edge>,
    pub blocking: Vec<BlockingCall>,
}

/// Calls that park the thread: channel receives, condvar waits, joins,
/// sleeps, and socket accept/connect. Deliberately narrow — plain file IO
/// under a lock is a legitimate pattern here (the metastore log write *is*
/// its critical section), but holding a lock while waiting on another
/// thread or the network is how deadlocks and convoy collapses start.
pub const BLOCKING_CALLS: &[&str] = &[
    ".recv()",
    ".recv_timeout(",
    ".wait(",
    ".wait_timeout(",
    ".join()",
    "::sleep(",
    ".accept()",
    ".connect(",
];

/// Blanks comments and string/char literals, preserving the line
/// structure, so downstream pattern matching never fires inside literal
/// text (the analyzer's own pattern tables would otherwise lint
/// themselves).
pub fn clean(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"…", r#"…"#, br"…" (the `b` was already emitted as
        // an ident char, which is harmless).
        if c == 'r' && !prev_is_ident(&b, i) {
            let mut j = i + 1;
            let mut hashes = 0;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Cooked string.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: `'` starts a char literal only when it
        // is `'\…'` or `'x'`; otherwise it is a lifetime tick.
        if c == '\'' {
            let is_char = b.get(i + 1) == Some(&'\\')
                || (b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\''));
            if is_char {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier whose last character is just before `end` (exclusive).
fn ident_ending_at(chars: &[char], end: usize) -> Option<String> {
    let mut start = end;
    while start > 0 && is_ident_char(chars[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let id: String = chars[start..end].iter().collect();
    id.chars().next().filter(|c| !c.is_numeric()).map(|_| id)
}

/// The last binding candidate in a cleaned text fragment: `let [mut] x`
/// or a struct-literal/parameter field `x:` (not `::`).
fn last_binding_candidate(text: &str) -> Option<String> {
    let b: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut cand = None;
    while i < b.len() {
        if b[i].is_alphabetic() || b[i] == '_' {
            let start = i;
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            let mut j = i;
            while j < b.len() && b[j] == ' ' {
                j += 1;
            }
            if word == "let" {
                // The binding is the next ident, skipping `mut`.
                let mut k = j;
                loop {
                    while k < b.len() && !is_ident_char(b[k]) {
                        if b[k] == '=' || b[k] == ';' || b[k] == '(' {
                            break;
                        }
                        k += 1;
                    }
                    if k >= b.len() || !(b[k].is_alphabetic() || b[k] == '_') {
                        break;
                    }
                    let s2 = k;
                    while k < b.len() && is_ident_char(b[k]) {
                        k += 1;
                    }
                    let w2: String = b[s2..k].iter().collect();
                    if w2 != "mut" {
                        cand = Some(w2);
                        break;
                    }
                }
            } else if b.get(j) == Some(&':')
                && b.get(j + 1) != Some(&':')
                && (start == 0 || b[start - 1] != ':')
                && !matches!(
                    word.as_str(),
                    "mut" | "pub" | "crate" | "self" | "fn" | "if" | "else" | "match" | "return"
                )
            {
                cand = Some(word);
            }
        } else {
            i += 1;
        }
    }
    cand
}

/// The function name defined on this cleaned line, if any (`fn name(` with
/// a word boundary before `fn`).
fn fn_defined_on(line: &str) -> Option<String> {
    let chars: Vec<char> = line.chars().collect();
    let mut from = 0;
    while let Some(rel) = line.get(from..).and_then(|s| s.find("fn ")).map(|p| p + from) {
        let char_pos = line[..rel].chars().count();
        let boundary = char_pos == 0 || !is_ident_char(chars[char_pos - 1]);
        if boundary {
            let after: String = chars[char_pos + 3..].iter().collect();
            let trimmed = after.trim_start();
            let name: String = trimmed.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                let rest = &trimmed[name.len()..];
                if rest.starts_with('(') || rest.starts_with('<') {
                    return Some(name);
                }
            }
        }
        from = rel + 3;
    }
    None
}

/// All acquisition matches (`.lock()` / `.read()` / `.write()`) on a
/// cleaned line, as `(dot, end)` char ranges, in order.
fn acquisitions_on(chars: &[char]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for needle in ["lock", "read", "write"] {
        let pat: Vec<char> = format!(".{needle}()").chars().collect();
        let mut i = 0;
        while i + pat.len() <= chars.len() {
            if chars[i..i + pat.len()] == pat[..] {
                out.push((i, i + pat.len()));
                i += pat.len();
            } else {
                i += 1;
            }
        }
    }
    out.sort_unstable();
    out
}

/// Resolves the receiver of an acquisition at `dot` (char index of the
/// `.`) through the binding and accessor maps.
fn resolve_receiver(
    chars: &[char],
    dot: usize,
    bindings: &FxHashMap<String, String>,
    accessors: &FxHashMap<String, String>,
) -> Option<String> {
    if dot == 0 {
        return None;
    }
    match chars[dot - 1] {
        ')' => {
            // `accessor(args).write()` — match parens back, take the fn name.
            let mut depth = 0i32;
            let mut j = dot - 1;
            loop {
                match chars[j] {
                    ')' => depth += 1,
                    '(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            let name = ident_ending_at(chars, j)?;
            accessors.get(&name).cloned()
        }
        ']' => {
            // `field[idx].read()` — match brackets back, take the field.
            let mut depth = 0i32;
            let mut j = dot - 1;
            loop {
                match chars[j] {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            let name = ident_ending_at(chars, j)?;
            bindings.get(&name).cloned()
        }
        _ => {
            let name = ident_ending_at(chars, dot)?;
            bindings.get(&name).cloned()
        }
    }
}

/// A lock guard (or scoped temporary) currently held during the function
/// walk.
struct HeldGuard {
    name: String,
    line: u32,
    /// Released when brace depth drops below this.
    scope_depth: i32,
    /// `let`-bound guard ident, for `drop(ident)` recognition.
    ident: Option<String>,
}

/// The index of the line that opens a file's test module: a column-0
/// `#[cfg(test)]` whose next code line (past blank lines and further
/// attributes) declares a `mod`. A `#[cfg(test)]` on a field, an item or
/// an indented statement gates that one thing and ends nothing.
fn test_module_start(cleaned: &[String]) -> usize {
    let declares_mod = |line: &str| {
        let line =
            line.strip_prefix("pub(crate) ").or_else(|| line.strip_prefix("pub ")).unwrap_or(line);
        line.starts_with("mod ")
    };
    (0..cleaned.len())
        .find(|&i| {
            let Some(rest) = cleaned[i].strip_prefix("#[cfg(test)]") else {
                return false;
            };
            std::iter::once(rest)
                .chain(cleaned[i + 1..].iter().map(String::as_str))
                .map(str::trim)
                .find(|l| !l.is_empty() && !l.starts_with("#["))
                .is_some_and(declares_mod)
        })
        .unwrap_or(cleaned.len())
}

/// Scans one file. `source` is the raw text; the path plays no role here
/// (path-dependent policy lives in [`crate::checks`]).
pub fn scan(source: &str) -> FileFacts {
    let cleaned_text = clean(source);
    let cleaned: Vec<String> = cleaned_text.lines().map(str::to_string).collect();
    let raw: Vec<&str> = source.lines().collect();
    let mut facts = FileFacts { shipping_end: test_module_start(&cleaned), ..FileFacts::default() };

    // Pass 1: constructions + bindings.
    for (idx, line) in cleaned.iter().enumerate() {
        for (needle, named) in [
            ("Mutex::named(", true),
            ("RwLock::named(", true),
            ("Mutex::new(", false),
            ("RwLock::new(", false),
        ] {
            let mut from = 0;
            while let Some(rel) = line.get(from..).and_then(|s| s.find(needle)) {
                let pos = from + rel;
                let nth = line[..pos + needle.len()].matches("::named(").count();
                let name = named.then(|| extract_name(&raw, idx, nth.saturating_sub(1))).flatten();
                facts.ctors.push(Ctor { line: (idx + 1) as u32, name: name.clone() });
                if let Some(name) = name {
                    let mut binding = last_binding_candidate(&line[..pos]);
                    let mut back = idx;
                    while binding.is_none() && back > 0 && idx - back < 2 {
                        back -= 1;
                        binding = last_binding_candidate(&cleaned[back]);
                    }
                    if let Some(b) = binding {
                        facts.bindings.insert(b, name);
                    }
                }
                from = pos + needle.len();
            }
        }
    }

    // Pass 2: accessor fns returning `&Mutex<..>` / `&RwLock<..>`.
    for idx in 0..cleaned.len() {
        let Some(fn_name) = fn_defined_on(&cleaned[idx]) else {
            continue;
        };
        let sig: String = cleaned[idx..(idx + 3).min(cleaned.len())].join(" ");
        let returns_lock = sig.contains("-> &")
            && (sig.contains("Mutex<") || sig.contains("RwLock<"))
            && !sig.contains("-> &mut");
        if !returns_lock {
            continue;
        }
        'body: for body_line in cleaned.iter().skip(idx).take(15) {
            let chars: Vec<char> = body_line.chars().collect();
            let mut from = 0;
            while let Some(rel) = body_line.get(from..).and_then(|s| s.find("self.")) {
                let pos = from + rel;
                let char_pos = body_line[..pos].chars().count() + 5;
                let field: String =
                    chars[char_pos..].iter().take_while(|&&c| is_ident_char(c)).collect();
                if let Some(lock) = facts.bindings.get(&field) {
                    facts.accessors.insert(fn_name.clone(), lock.clone());
                    break 'body;
                }
                from = pos + 5;
            }
        }
    }

    // Pass 3: per-function acquisition walk.
    let mut depth: i32 = 0;
    let mut cur_fn = String::from("<file>");
    let mut held: Vec<HeldGuard> = Vec::new();
    for (idx, line) in cleaned.iter().enumerate() {
        let line_no = (idx + 1) as u32;
        if let Some(name) = fn_defined_on(line) {
            held.clear();
            cur_fn = name;
        }
        let chars: Vec<char> = line.chars().collect();
        let depth_end = depth + chars.iter().filter(|&&c| c == '{').count() as i32
            - chars.iter().filter(|&&c| c == '}').count() as i32;

        for (dot, end) in acquisitions_on(&chars) {
            let Some(name) = resolve_receiver(&chars, dot, &facts.bindings, &facts.accessors)
            else {
                continue;
            };
            for h in &held {
                facts.edges.push(Edge {
                    held: h.name.clone(),
                    held_line: h.line,
                    acquired: name.clone(),
                    acquired_line: line_no,
                    func: cur_fn.clone(),
                });
            }
            let before: String = chars[..dot].iter().collect();
            let trimmed = line.trim_start();
            // `let g = recv.lock();` binds the guard only when the
            // acquisition ends the expression: a trailing method chain
            // (`.lock().pop()`) or a leading deref (`let v = *c.lock();`)
            // binds a value and drops the guard at the statement's end.
            let after: String = chars[end..].iter().collect();
            let ends_statement = matches!(after.trim_start().chars().next(), None | Some(';'));
            let derefs_out =
                before.rfind('=').is_some_and(|eq| before[eq + 1..].trim_start().starts_with('*'));
            if before.contains("let ") && ends_statement && !derefs_out {
                held.push(HeldGuard {
                    name,
                    line: line_no,
                    scope_depth: depth_end,
                    ident: last_binding_candidate(&before),
                });
            } else if (trimmed.starts_with("for ")
                || trimmed.starts_with("if let ")
                || trimmed.starts_with("while let ")
                || trimmed.starts_with("match "))
                && depth_end > depth
            {
                // Block-head temporary: the guard lives through the block.
                held.push(HeldGuard { name, line: line_no, scope_depth: depth_end, ident: None });
            }
            // Plain statement temporary: released at end of statement.
        }

        if !held.is_empty() {
            for pat in BLOCKING_CALLS {
                if line.contains(pat) {
                    let h = held.last().expect("held is non-empty");
                    facts.blocking.push(BlockingCall {
                        held: h.name.clone(),
                        held_line: h.line,
                        pattern: pat,
                        line: line_no,
                        func: cur_fn.clone(),
                    });
                }
            }
        }

        // Explicit `drop(ident)` releases a let-bound guard early.
        let mut from = 0;
        while let Some(rel) = line.get(from..).and_then(|s| s.find("drop(")) {
            let pos = from + rel;
            let char_pos = line[..pos].chars().count();
            if char_pos == 0 || !is_ident_char(chars[char_pos - 1]) {
                let arg: String =
                    chars[char_pos + 5..].iter().take_while(|&&c| is_ident_char(c)).collect();
                if !arg.is_empty() {
                    if let Some(p) =
                        held.iter().rposition(|h| h.ident.as_deref() == Some(arg.as_str()))
                    {
                        held.remove(p);
                    }
                }
            }
            from = pos + 5;
        }

        depth = depth_end;
        held.retain(|h| h.scope_depth <= depth);
    }

    facts.cleaned = cleaned;
    facts
}

/// Extracts the first string literal following the `nth` (0-based)
/// occurrence of `::named(` starting on raw line `idx` (searching up to
/// two continuation lines for multi-line constructions).
fn extract_name(raw: &[&str], idx: usize, nth: usize) -> Option<String> {
    let joined: String = raw[idx..(idx + 3).min(raw.len())].join("\n");
    let mut at = 0;
    for _ in 0..=nth {
        let rel = joined.get(at..)?.find("::named(")?;
        at += rel + "::named(".len();
    }
    let rest = &joined[at..];
    let open = rest.find('"')?;
    let body = &rest[open + 1..];
    let close = body.find('"')?;
    Some(body[..close].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_strips_comments_and_strings() {
        let src = "let a = \"std::sync::Mutex\"; // Mutex::new(\nlet b = 'x'; /* .lock() */ b";
        let c = clean(src);
        assert!(!c.contains("std::sync"));
        assert!(!c.contains("Mutex::new"));
        assert!(!c.contains(".lock()"));
        assert!(c.contains("let a ="));
        assert!(c.contains("let b ="));
        assert_eq!(src.lines().count(), c.lines().count());
    }

    #[test]
    fn clean_keeps_lifetimes_and_handles_raw_strings() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet p = r#\"RwLock::new(\"#;";
        let c = clean(src);
        assert!(c.contains("fn f<'a>"));
        assert!(!c.contains("RwLock::new"));
    }

    #[test]
    fn named_ctor_binding_and_edge_extraction() {
        let src = r#"
struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}
impl S {
    fn build() -> Self {
        Self {
            a: Mutex::named("lock.a", 1, 0),
            b: Mutex::named("lock.b", 2, 0),
        }
    }
    fn nested(&self) {
        let g = self.a.lock();
        let _h = self.b.lock();
        drop(g);
    }
}
"#;
        let facts = scan(src);
        assert_eq!(facts.bindings.get("a").map(String::as_str), Some("lock.a"));
        assert_eq!(facts.bindings.get("b").map(String::as_str), Some("lock.b"));
        assert_eq!(facts.ctors.len(), 2);
        assert_eq!(facts.edges.len(), 1);
        assert_eq!(facts.edges[0].held, "lock.a");
        assert_eq!(facts.edges[0].acquired, "lock.b");
        assert_eq!(facts.edges[0].func, "nested");
    }

    #[test]
    fn drop_releases_guard_before_next_acquisition() {
        let src = r#"
impl S {
    fn build() -> Self {
        Self { a: Mutex::named("d.a", 1, 0), b: Mutex::named("d.b", 2, 0) }
    }
    fn seq(&self) {
        let g = self.a.lock();
        drop(g);
        let _h = self.b.lock();
    }
}
"#;
        let facts = scan(src);
        assert!(facts.edges.is_empty(), "edges: {:?}", facts.edges);
    }

    #[test]
    fn accessor_fn_resolves_to_named_field() {
        let src = r#"
impl R {
    fn build() -> Self {
        Self {
            shards: (0..16)
                .map(|_| RwLock::named("acc.shard", 1, S::default()))
                .collect(),
        }
    }
    fn shard_of(&self, i: usize) -> &RwLock<S> {
        &self.shards[i & 15]
    }
    fn use_it(&self, i: usize) {
        let s = self.shard_of(i).write();
        let _ = s;
    }
}
"#;
        let facts = scan(src);
        assert_eq!(facts.bindings.get("shards").map(String::as_str), Some("acc.shard"));
        assert_eq!(facts.accessors.get("shard_of").map(String::as_str), Some("acc.shard"));
    }

    #[test]
    fn blocking_call_while_held_is_recorded() {
        let src = r#"
impl W {
    fn build(rx: Receiver<u8>) -> Self {
        Self { q: Mutex::named("w.q", 1, Vec::new()), rx }
    }
    fn pump(&self) {
        let g = self.q.lock();
        let _item = self.rx.recv();
        drop(g);
    }
}
"#;
        let facts = scan(src);
        assert_eq!(facts.blocking.len(), 1);
        assert_eq!(facts.blocking[0].held, "w.q");
        assert_eq!(facts.blocking[0].pattern, ".recv()");
    }

    #[test]
    fn for_head_guard_is_held_through_the_loop_body() {
        let src = r#"
impl T {
    fn build() -> Self {
        Self { tiers: RwLock::named("t.tiers", 1, Vec::new()), cap: Mutex::named("t.cap", 2, 0) }
    }
    fn sweep(&self) {
        for t in self.tiers.read().iter() {
            let _c = self.cap.lock();
        }
        let _after = self.cap.lock();
    }
}
"#;
        let facts = scan(src);
        assert_eq!(facts.edges.len(), 1, "edges: {:?}", facts.edges);
        assert_eq!(facts.edges[0].held, "t.tiers");
        assert_eq!(facts.edges[0].acquired, "t.cap");
    }

    #[test]
    fn shipping_region_ends_at_cfg_test() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {}\n";
        let facts = scan(src);
        assert_eq!(facts.shipping_end, 1);
    }

    #[test]
    fn shipping_region_runs_past_a_gated_field_or_item() {
        let src = "struct S {\n    #[cfg(test)]\n    probe: u8,\n}\n#[cfg(test)]\nfn helper() {}\n\
                   #[cfg(test)]\n\n#[allow(dead_code)]\npub(crate) mod tests {}\n";
        let facts = scan(src);
        assert_eq!(facts.shipping_end, 6);
    }
}

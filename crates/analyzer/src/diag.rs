//! Rendered diagnostics for the workspace concurrency analyzer.
//!
//! Same shape as the spec analyzer's `crates/spec/src/diag.rs` (stable
//! codes, rustc-style rendering), with its own `A0xx` code space so
//! tooling can key on either analyzer without collisions:
//!
//! ```text
//! error[A002]: lock-order inversion: acquiring `registry.shard` (rank 50) while holding `registry.order` (rank 52)
//!   --> crates/core/src/registry.rs:214
//!    |
//! 214 |         let shard = self.shard_of(&key).write();
//!    |
//!    = note: `registry.order` acquired at line 211
//! ```
//!
//! Codes are append-only: once shipped, an `A0xx` code never changes
//! meaning (the golden tests in `tests/golden.rs` key on them).

use std::fmt;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerated unless `--deny-warnings`.
    Warning,
    /// A defect; `tiera-analyze` exits non-zero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable lint codes of the concurrency analyzer. See DESIGN.md §2d for
/// the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// A001 — cycle in the workspace acquired-while-held lock graph.
    LockOrderCycle,
    /// A002 — lock acquired while holding a higher-ranked lock (inversion
    /// against the declared `tiera_support::sync::rank` table).
    RankInversion,
    /// A003 — blocking channel/thread/socket call while a lock is held.
    BlockingWhileLocked,
    /// A004 — panicking construct in a panic-free-designated module.
    PanicInPanicFree,
    /// A005 — default-hashed map in a hot-path module.
    DefaultHashedHotPath,
    /// A006 — `std::sync` lock named outside tiera-support.
    StdSyncLock,
    /// A007 — unnamed lock constructed in a multi-lock file.
    UnnamedLockMultiSite,
    /// A009 — `pub` free item whose name appears in no non-test code but
    /// its own definition. (A008 is reserved for discarded IO results.)
    DeadPubSurface,
}

impl LintCode {
    /// Every code, in numeric order.
    pub const ALL: [LintCode; 8] = [
        LintCode::LockOrderCycle,
        LintCode::RankInversion,
        LintCode::BlockingWhileLocked,
        LintCode::PanicInPanicFree,
        LintCode::DefaultHashedHotPath,
        LintCode::StdSyncLock,
        LintCode::UnnamedLockMultiSite,
        LintCode::DeadPubSurface,
    ];

    /// The stable `A0xx` code string.
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::LockOrderCycle => "A001",
            LintCode::RankInversion => "A002",
            LintCode::BlockingWhileLocked => "A003",
            LintCode::PanicInPanicFree => "A004",
            LintCode::DefaultHashedHotPath => "A005",
            LintCode::StdSyncLock => "A006",
            LintCode::UnnamedLockMultiSite => "A007",
            LintCode::DeadPubSurface => "A009",
        }
    }

    /// One-line description, as shown by `tiera-analyze --explain`.
    pub fn summary(&self) -> &'static str {
        match self {
            LintCode::LockOrderCycle => "cycle in the workspace acquired-while-held lock graph",
            LintCode::RankInversion => "lock acquired while holding a higher-ranked lock",
            LintCode::BlockingWhileLocked => {
                "blocking channel/thread/socket call while holding a lock"
            }
            LintCode::PanicInPanicFree => "panicking construct in a panic-free-designated module",
            LintCode::DefaultHashedHotPath => "default-hashed map in a hot-path module",
            LintCode::StdSyncLock => "std::sync lock named outside tiera-support",
            LintCode::UnnamedLockMultiSite => "unnamed lock constructed in a multi-lock file",
            LintCode::DeadPubSurface => "pub item that no non-test code names",
        }
    }

    /// The severity this code carries.
    pub fn default_severity(&self) -> Severity {
        match self {
            LintCode::LockOrderCycle
            | LintCode::RankInversion
            | LintCode::PanicInPanicFree
            | LintCode::DefaultHashedHotPath
            | LintCode::StdSyncLock => Severity::Error,
            LintCode::BlockingWhileLocked
            | LintCode::UnnamedLockMultiSite
            | LintCode::DeadPubSurface => Severity::Warning,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A single analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Error or warning.
    pub severity: Severity,
    /// 1-based source line; 0 when the finding has no single line.
    pub line: u32,
    /// Human-readable description of the finding.
    pub message: String,
    /// Supplementary `= note:` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A finding at the code's default severity.
    pub fn new(code: LintCode, line: u32, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            line,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Overrides the severity.
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Appends a `= note:` line.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic rustc-style against the file's source text.
    /// `origin` is the file name (or any label) shown after `-->`.
    pub fn render(&self, source: &str, origin: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        let snippet = (self.line > 0)
            .then(|| source.lines().nth(self.line as usize - 1))
            .flatten();
        let gutter = if self.line > 0 {
            self.line.to_string().len()
        } else {
            1
        };
        let pad = " ".repeat(gutter);
        if self.line > 0 {
            out.push_str(&format!("{pad}--> {origin}:{}\n", self.line));
        } else {
            out.push_str(&format!("{pad}--> {origin}\n"));
        }
        if let Some(text) = snippet {
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{} | {}\n", self.line, text.trim_end()));
            out.push_str(&format!("{pad} |\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("{pad} = note: {note}\n"));
        }
        out
    }
}

/// The findings for one analyzed file, in a deterministic order (by line,
/// then code).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Wraps a list of findings.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Self { diagnostics }
    }

    /// All findings.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the file produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every finding, separated by blank lines.
    pub fn render(&self, source: &str, origin: &str) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(source, origin))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sequential() {
        // In numeric order; A008 is reserved for discarded IO results.
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, ["A001", "A002", "A003", "A004", "A005", "A006", "A007", "A009"]);
        assert!(LintCode::ALL.iter().all(|c| !c.summary().is_empty()));
    }

    #[test]
    fn render_includes_source_line_and_notes() {
        let src = "line one\nline two\nline three";
        let d = Diagnostic::new(LintCode::RankInversion, 2, "inversion `x` vs `y`")
            .note("`y` acquired at line 1");
        let r = d.render(src, "demo.rs");
        assert!(r.starts_with("error[A002]: inversion `x` vs `y`\n"));
        assert!(r.contains("--> demo.rs:2\n"));
        assert!(r.contains("2 | line two\n"));
        assert!(r.contains("= note: `y` acquired at line 1\n"));
    }

    #[test]
    fn render_without_line_omits_snippet() {
        let d = Diagnostic::new(LintCode::LockOrderCycle, 0, "cycle `a` -> `b` -> `a`");
        let r = d.render("src", "f.rs");
        assert!(r.contains("--> f.rs\n"));
        assert!(!r.contains(" | "));
    }

    #[test]
    fn analysis_partitions_by_severity() {
        let a = Analysis::new(vec![
            Diagnostic::new(LintCode::StdSyncLock, 1, "e"),
            Diagnostic::new(LintCode::UnnamedLockMultiSite, 2, "w"),
        ]);
        assert!(a.has_errors());
        assert_eq!(a.errors().count(), 1);
        assert_eq!(a.warnings().count(), 1);
    }
}

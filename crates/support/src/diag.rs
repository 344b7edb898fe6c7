//! Rendered diagnostics: the one engine under both static analyzers.
//!
//! `tiera-lint` (the spec analyzer, `T0xx` codes) and `tiera-analyze` (the
//! workspace source analyzer, `A0xx` codes) each declare a code table with
//! [`lint_codes!`](crate::lint_codes); everything else is written here once:
//! the [`Severity`], the [`Diagnostic`] (a code, a severity, a 1-based
//! source line, a message and optional notes), the per-file [`Analysis`],
//! and the rustc-style [`Diagnostic::render`] with the offending source line
//! inlined:
//!
//! ```text
//! error[T001]: undefined tier `tier9` in `to:` of `store`
//!   --> specs/bad.tiera:4
//!    |
//!  4 |         store(what: insert.object, to: tier9);
//!    |
//!    = note: declared tiers: tier1
//! ```
//!
//! Codes are append-only: once shipped, a code never changes meaning
//! (tooling and the analyzers' golden tests key on them).

use std::fmt;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerated: reported, and fatal only under
    /// `--deny-warnings`.
    Warning,
    /// A defect: the spec compiler refuses the spec, the analyzers exit
    /// non-zero.
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

/// One analyzer's code table, as [`lint_codes!`](crate::lint_codes)
/// declares it.
pub trait Code: Copy {
    /// The stable code string (`T001`, `A002`, ...).
    fn code(&self) -> &'static str;
    /// One-line description, as `--explain` prints it.
    fn summary(&self) -> &'static str;
    /// The severity a finding carries unless it overrides it.
    fn default_severity(&self) -> Severity;
}

/// Declares a code table: a `Copy` enum with `ALL` (every code, in table
/// order), inherent `code()`, `summary()` and `default_severity()`,
/// `Display` as the code string, and the [`Code`] impl the engine uses.
///
/// ```
/// tiera_support::lint_codes! {
///     /// Codes of a toy checker.
///     pub enum ToyCode {
///         Bad => ("X001", Error, "something bad"),
///         Odd => ("X002", Warning, "something odd"),
///     }
/// }
/// assert_eq!(ToyCode::ALL.len(), 2);
/// assert_eq!(ToyCode::Odd.to_string(), "X002");
/// ```
#[macro_export]
macro_rules! lint_codes {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($variant:ident => ($code:literal, $severity:ident, $summary:literal),)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $(
                #[doc = concat!($code, " — ", $summary, ".")]
                $variant,
            )*
        }

        impl $name {
            /// Every code, in table order.
            pub const ALL: [$name; [$($code),*].len()] = [$($name::$variant),*];

            /// The stable code string.
            pub fn code(&self) -> &'static str {
                match self {
                    $($name::$variant => $code,)*
                }
            }

            /// One-line description, as `--explain` prints it.
            pub fn summary(&self) -> &'static str {
                match self {
                    $($name::$variant => $summary,)*
                }
            }

            /// The severity this code carries unless a finding overrides it.
            pub fn default_severity(&self) -> $crate::diag::Severity {
                match self {
                    $($name::$variant => $crate::diag::Severity::$severity,)*
                }
            }
        }

        impl $crate::diag::Code for $name {
            fn code(&self) -> &'static str {
                $name::code(self)
            }
            fn summary(&self) -> &'static str {
                $name::summary(self)
            }
            fn default_severity(&self) -> $crate::diag::Severity {
                $name::default_severity(self)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.code())
            }
        }
    };
}

/// A single analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic<C> {
    /// The lint that fired.
    pub code: C,
    /// Error or warning.
    pub severity: Severity,
    /// 1-based source line; 0 when the finding has no single line (e.g. a
    /// whole-spec property or a workspace-wide lock cycle).
    pub line: u32,
    /// Human-readable description of the finding.
    pub message: String,
    /// Supplementary `= note:` lines.
    pub notes: Vec<String>,
}

impl<C: Code> Diagnostic<C> {
    /// A finding at the code's default severity.
    pub fn new(code: C, line: u32, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            line,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Overrides the severity (e.g. T002/T008 escalate specific shapes).
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Appends a `= note:` line.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic rustc-style against the source text.
    /// `origin` is the file name (or any label) shown after `-->`.
    pub fn render(&self, source: &str, origin: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code.code(), self.message);
        let snippet = (self.line > 0).then(|| source.lines().nth(self.line as usize - 1)).flatten();
        let gutter = if self.line > 0 { self.line.to_string().len() } else { 1 };
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

/// Every finding for one analyzed source, in the analyzer's deterministic
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis<C> {
    diagnostics: Vec<Diagnostic<C>>,
}

impl<C: Code> Analysis<C> {
    /// Wraps a list of findings.
    pub fn new(diagnostics: Vec<Diagnostic<C>>) -> Self {
        Self { diagnostics }
    }

    /// All findings.
    pub fn diagnostics(&self) -> &[Diagnostic<C>] {
        &self.diagnostics
    }

    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic<C>> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic<C>> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// The first error, if any (what the spec compiler reports).
    pub fn first_error(&self) -> Option<&Diagnostic<C>> {
        self.errors().next()
    }

    /// Whether the source produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Consumes the analysis, keeping only warnings (for a caller that has
    /// already rejected errors).
    pub fn into_warnings(self) -> Vec<Diagnostic<C>> {
        self.diagnostics.into_iter().filter(|d| d.severity == Severity::Warning).collect()
    }

    /// Renders every finding, separated by blank lines.
    pub fn render(&self, source: &str, origin: &str) -> String {
        self.diagnostics.iter().map(|d| d.render(source, origin)).collect::<Vec<_>>().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::lint_codes! {
        enum TestCode {
            Undefined => ("X001", Error, "reference to something undefined"),
            Unused => ("X002", Warning, "something declared but never used"),
        }
    }

    #[test]
    fn lint_codes_declares_the_table() {
        assert_eq!(TestCode::ALL.map(|c| c.to_string()), ["X001", "X002"]);
        assert_eq!(TestCode::Unused.summary(), "something declared but never used");
        assert_eq!(TestCode::Unused.default_severity(), Severity::Warning);
    }

    #[test]
    fn render_includes_source_line_and_notes() {
        let src = "line one\nline two\nline three";
        let d = Diagnostic::new(TestCode::Undefined, 2, "undefined tier `x`")
            .note("declared tiers: tier1");
        let r = d.render(src, "demo.tiera");
        assert_eq!(
            r,
            "error[X001]: undefined tier `x`\n\
             \x20--> demo.tiera:2\n\
             \x20 |\n\
             2 | line two\n\
             \x20 |\n\
             \x20 = note: declared tiers: tier1\n"
        );
    }

    #[test]
    fn render_without_line_omits_snippet() {
        let d = Diagnostic::new(TestCode::Unused, 0, "tier `t` unused");
        let r = d.render("src", "f.tiera");
        assert_eq!(r, "warning[X002]: tier `t` unused\n --> f.tiera\n");
    }

    #[test]
    fn analysis_partitions_by_severity() {
        let a = Analysis::new(vec![
            Diagnostic::new(TestCode::Undefined, 1, "e"),
            Diagnostic::new(TestCode::Unused, 2, "w"),
            Diagnostic::new(TestCode::Unused, 3, "escalated").severity(Severity::Error),
        ]);
        assert!(a.has_errors() && !a.is_clean());
        assert_eq!(a.errors().count(), 2);
        assert_eq!(a.first_error().map(|d| d.message.as_str()), Some("e"));
        assert_eq!(a.warnings().count(), 1);
        assert_eq!(a.render("a\nb\nc", "f").matches("\n\n").count(), 2);
        assert_eq!(a.into_warnings().len(), 1);
    }
}

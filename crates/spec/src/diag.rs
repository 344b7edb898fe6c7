//! Lint codes of the specification analyzer.
//!
//! The analyzer ([`mod@crate::analyze`]) reports findings as [`Diagnostic`]s
//! carrying a stable `T0xx` [`LintCode`]. The finding, the severity, the
//! per-spec [`Analysis`] and the rustc-style rendering are the shared
//! engine in [`tiera_support::diag`]; this module holds the code table.
//!
//! Codes are append-only: once shipped, a `T0xx` code never changes
//! meaning (tooling and the golden tests in `tests/lint_golden.rs` key on
//! them).

use tiera_support::diag;

pub use tiera_support::diag::Severity;

/// A single spec-analyzer finding.
pub type Diagnostic = diag::Diagnostic<LintCode>;

/// Every finding for one spec, in spec walk order, then whole-spec checks.
pub type Analysis = diag::Analysis<LintCode>;

tiera_support::lint_codes! {
    /// Stable lint codes of the analysis pass. See DESIGN.md for the table.
    /// T002 and T008 report both severities; every other code keeps its
    /// default.
    pub enum LintCode {
        UndefinedTier => ("T001", Error, "reference to a tier that is not declared"),
        DuplicateDecl => ("T002", Warning, "duplicate tier label or duplicate event clause"),
        UntargetedTier => ("T003", Warning, "tier declared but never referenced by any policy"),
        UndeclaredParam => ("T004", Error, "reference to an undeclared formal parameter"),
        TypeMismatch => ("T005", Error, "quantity or parameter used with the wrong type"),
        PercentRange => ("T006", Error, "percentage outside its valid range"),
        ZeroTimer => ("T007", Error, "timer event with a zero period"),
        MovementCycle => ("T008", Warning, "cycle in the copy/move data-movement graph"),
        WritebackCapacity => ("T009", Warning, "copy target smaller than its source tier"),
        VolatilityLeak => ("T010", Warning, "dirty data in a volatile tier with no write-back"),
        UnusedParam => ("T011", Warning, "formal parameter declared but never used"),
        UnknownResponse => ("T012", Error, "unknown response name"),
        CompressRedundant => ("T013", Warning, "compress on an already-compressed or dedup'd tier"),
        DedupVolatile => ("T014", Warning, "dedup blob store on a volatile tier with no write-back"),
        BadTierAttribute => ("T015", Error, "tier attribute with an unknown name or parameter"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sequential() {
        for (i, code) in LintCode::ALL.iter().enumerate() {
            assert_eq!(code.code(), format!("T{:03}", i + 1));
            assert!(!code.summary().is_empty());
        }
    }
}

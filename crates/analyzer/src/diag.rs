//! Lint codes of the workspace concurrency analyzer.
//!
//! The checks ([`crate::checks`]) report findings as [`Diagnostic`]s
//! carrying a stable `A0xx` [`LintCode`], a code space of its own so
//! tooling can key on either analyzer without collisions. The finding, the
//! severity, the per-file [`Analysis`] and the rustc-style rendering are
//! the shared engine in [`tiera_support::diag`]; this module holds the
//! code table.
//!
//! Codes are append-only: once shipped, an `A0xx` code never changes
//! meaning (the golden tests in `tests/golden.rs` key on them). A004–A006
//! are retired and never reused: clippy makes those checks with types
//! (DESIGN.md §2d).

use tiera_support::diag;

pub use tiera_support::diag::Severity;

/// A single concurrency-analyzer finding.
pub type Diagnostic = diag::Diagnostic<LintCode>;

/// The findings for one analyzed file, by line, then code.
pub type Analysis = diag::Analysis<LintCode>;

tiera_support::lint_codes! {
    /// Stable lint codes of the concurrency analyzer. See DESIGN.md §2d
    /// for the table.
    pub enum LintCode {
        LockOrderCycle => ("A001", Error, "cycle in the workspace acquired-while-held lock graph"),
        RankInversion => ("A002", Error, "lock acquired while holding a higher-ranked lock"),
        BlockingWhileLocked => ("A003", Warning, "blocking channel/thread/socket call while holding a lock"),
        UnnamedLockMultiSite => ("A007", Warning, "unnamed lock constructed in a multi-lock file"),
        DiscardedResult => ("A008", Error, "`let _ =` or `.ok();` discards the Result of a durability or pump call"),
        DeadPubSurface => ("A009", Warning, "pub item that no non-test code names"),
        UnbuiltVariant => ("A010", Warning, "variant of a pub enum that no non-test code constructs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sequential() {
        // In numeric order.
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, ["A001", "A002", "A003", "A007", "A008", "A009", "A010"]);
        assert!(LintCode::ALL.iter().all(|c| !c.summary().is_empty()));
    }
}

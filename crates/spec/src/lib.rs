//! # tiera-spec — the Tiera instance specification language
//!
//! Paper §2.3: "Tiera instance configuration, including policies are
//! specified through an instance specification file. The instance
//! specification provides the desired storage tiers to use, their
//! capacities, and the set of events along with corresponding responses to
//! be executed."
//!
//! This crate implements that language exactly as printed in the paper's
//! Figures 3–6: a hand-written lexer ([`token`]), a recursive-descent
//! parser ([`parser`]) producing a typed AST ([`ast`]), one lowering walk
//! that resolves the AST into the policy that runs, the lints
//! ([`mod@analyze`]) as passes over that policy, and a compiler ([`compile`])
//! that binds its parameters and materializes its tiers through a
//! [`tiera_core::catalog::TierCatalog`].
//!
//! ```text
//! Tiera LowLatencyInstance(time t) {
//!     % two tiers specified with initial sizes
//!     tier1: { name: Memcached, size: 5G };
//!     tier2: { name: EBS, size: 5G };
//!     % action event defined to always store data into Memcached
//!     event(insert.into) : response {
//!         insert.object.dirty = true;
//!         store(what: insert.object, to: tier1);
//!     }
//!     % write back policy: copying data to persistent store on a timer
//!     event(time=t) : response {
//!         copy(what: object.location == tier1 && object.dirty == true,
//!              to: tier2);
//!     }
//! }
//! ```
//!
//! ## Example
//!
//! ```
//! use tiera_spec::{parse, compile::{Compiler, ParamValue}};
//! use tiera_sim::{SimEnv, SimDuration};
//!
//! let spec = parse(r#"
//!     Tiera Demo(time t) {
//!         tier1: { name: Memcached, size: 16M };
//!         event(insert.into) : response {
//!             store(what: insert.object, to: tier1);
//!         }
//!         event(time=t) : response {
//!             retrieve(what: insert.object);
//!         }
//!     }
//! "#).unwrap();
//! assert_eq!(spec.name, "Demo");
//! let env = SimEnv::new(1);
//! let catalog = tiera_tiers::default_catalog(&env);
//! let instance = Compiler::new(&catalog, env.clone())
//!     .bind("t", ParamValue::Duration(SimDuration::from_secs(30)))
//!     .compile(&spec)
//!     .unwrap();
//! assert_eq!(instance.tier_names(), vec!["tier1"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod compile;
pub mod diag;
mod lower;
pub mod parser;
pub mod printer;
pub mod token;

pub use analyze::{analyze, Analyzer};
pub use ast::Spec;
pub use compile::{Compiler, ParamValue};
pub use diag::{Analysis, Diagnostic, LintCode, Severity};
pub use parser::{parse, parse_event};
pub use printer::print_spec;

/// Errors produced while lexing, parsing, or compiling a specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based line where the error was detected.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(line: u32, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

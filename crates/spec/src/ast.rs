//! Abstract syntax of instance specifications.

use tiera_sim::SimDuration;

/// A parsed specification file.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Instance name (`Tiera <Name>(...)`).
    pub name: String,
    /// Formal parameters, e.g. `(time t)`.
    pub params: Vec<Param>,
    /// Tier declarations in order (order = placement preference).
    pub tiers: Vec<TierDecl>,
    /// Event/response clauses in order.
    pub events: Vec<EventDecl>,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type: `time`, `size`, or `percent`.
    pub kind: ParamKind,
    /// Parameter name.
    pub name: String,
}

/// Parameter types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A duration, bound at compile time.
    Time,
    /// A byte size.
    Size,
    /// A percentage.
    Percent,
}

/// `tier1: { name: Memcached, size: 5G, compress: lzss };`
#[derive(Debug, Clone, PartialEq)]
pub struct TierDecl {
    /// Label within the instance (`tier1`).
    pub label: String,
    /// Tier type resolved through the catalog (`Memcached`).
    pub type_name: String,
    /// Initial capacity in bytes.
    pub size: Quantity,
    /// Wrapper attributes after `size` (`compress: lzss`, `dedup:
    /// sha256`), in declaration order. Validated by lints T013–T015 and
    /// compiled into `tiera-tierx` wrapper construction.
    pub attrs: Vec<TierAttr>,
    /// Source line (for diagnostics).
    pub line: u32,
}

/// One `attr: value` pair in a tier declaration's braces.
#[derive(Debug, Clone, PartialEq)]
pub struct TierAttr {
    /// Attribute name (`compress`, `dedup`).
    pub name: String,
    /// Attribute parameter (`lzss`, `sha256`).
    pub value: String,
    /// Source line (for diagnostics).
    pub line: u32,
}

/// A literal or parameter reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Quantity {
    /// Byte size literal.
    Size(u64),
    /// Duration literal.
    Duration(SimDuration),
    /// Percentage literal.
    Percent(f64),
    /// Rate literal in bytes/second.
    Rate(f64),
    /// Bare integer literal.
    Int(u64),
    /// Reference to a formal parameter.
    Param(String),
}

/// `event(<expr>) : response { <stmts> }`
#[derive(Debug, Clone, PartialEq)]
pub struct EventDecl {
    /// The triggering event expression.
    pub event: EventExpr,
    /// Response body.
    pub body: Vec<Stmt>,
    /// Source line (for diagnostics).
    pub line: u32,
}

/// Event expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum EventExpr {
    /// `insert.into` / `insert.into == tier1`.
    Insert {
        /// Optional tier scope.
        tier: Option<String>,
    },
    /// `delete.from` / `delete.from == tier1`.
    Delete {
        /// Optional tier scope.
        tier: Option<String>,
    },
    /// `time=t` / `time=2min`.
    Timer {
        /// Period (literal or parameter).
        period: Quantity,
    },
    /// `tier1.filled == 75%` — threshold on fill fraction.
    Filled {
        /// Observed tier.
        tier: String,
        /// Threshold (percent or parameter).
        value: Quantity,
    },
}

/// Statements inside a response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A response invocation: `store(what: ..., to: tier1);`
    Call(Call),
    /// `if (<guard>) { <stmts> }`
    If {
        /// Guard expression.
        guard: GuardExpr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// An attribute assignment like `insert.object.dirty = true;`
    /// (metadata attributes are maintained by the middleware itself; the
    /// compiler validates and discards these).
    Assign {
        /// Dotted path on the left-hand side.
        path: Vec<String>,
        /// Right-hand side literal.
        value: String,
    },
}

/// `if` guards.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardExpr {
    /// `tier1.filled` (no bound: "would overflow") or
    /// `tier1.filled == 90%`.
    Filled {
        /// Observed tier.
        tier: String,
        /// Optional fill-fraction bound.
        value: Option<Quantity>,
    },
}

/// A response invocation with keyword arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Response name (`store`, `copy`, `grow`, ...).
    pub name: String,
    /// Keyword arguments in source order.
    pub args: Vec<(String, ArgValue)>,
    /// Source line.
    pub line: u32,
}

impl Call {
    /// Looks up an argument by keyword.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Argument values.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A selector expression (`what:` arguments).
    Selector(SelectorExpr),
    /// One or more tier labels (`to:` / `what:` for grow).
    Tiers(Vec<String>),
    /// A quantity (sizes, rates, percents, durations, params).
    Quantity(Quantity),
    /// A string literal (tags, key ids).
    Str(String),
}

/// Selector expressions (the `what:` sublanguage).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectorExpr {
    /// `insert.object`.
    InsertObject,
    /// `object.location == tier1`.
    LocationEq(String),
    /// `object.dirty == true` / `false`.
    DirtyEq(bool),
    /// `object.tag == "tmp"`.
    TagEq(String),
    /// `tier1.oldest`.
    Oldest(String),
    /// `tier1.newest`.
    Newest(String),
    /// Conjunction with `&&`.
    And(Box<SelectorExpr>, Box<SelectorExpr>),
    /// Negation with `!` (an extension; see `Selector::Not`).
    Not(Box<SelectorExpr>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_arg_lookup() {
        let call = Call {
            name: "store".into(),
            args: vec![
                ("what".into(), ArgValue::Selector(SelectorExpr::InsertObject)),
                ("to".into(), ArgValue::Tiers(vec!["tier1".into()])),
            ],
            line: 3,
        };
        assert!(matches!(call.arg("what"), Some(ArgValue::Selector(_))));
        assert!(call.arg("bandwidth").is_none());
    }
}

//! Lowering: one walk from a parsed [`Spec`] to the policy that runs.
//!
//! The walk resolves each tier label, parameter, selector, response name
//! and tier attribute where it meets it, and reports what does not
//! resolve or type-check as it goes (T001, T002, T004–T007, T012, T013,
//! T015, in spec order). It yields a [`Policy`]: tiers with their wrappers
//! resolved, selectors in their runtime [`Selector`] form and responses as
//! the runtime runs them, with parameters still symbolic ([`Value::Param`]).
//! The whole-spec lints of [`mod@crate::analyze`] are passes over that policy,
//! and [`crate::compile::Compiler`] binds its parameters and builds it.
//!
//! One idiom lowers to something other than its spelling: Figure 5's
//!
//! ```text
//! if (tier1.filled) { move(what: tier1.oldest, to: tier2); }
//! ```
//!
//! becomes [`ResponseSpec::EvictUntilFit`] (evict until the insert fits),
//! because a single eviction only makes room when all objects have the
//! same size. Any other `if` stays a guarded body.
//!
//! A malformed argument that no lint covers (a missing `to:`, a `delete`
//! from two tiers, an unsupported assignment) is kept as the policy's
//! first [`Policy::error`], which only instantiation reports. The walk
//! carries on with a neutral stand-in, so the lints read the same policy
//! whether or not it would compile.

use std::collections::BTreeSet;

use tiera_core::event::ActionOp;
use tiera_core::object::Tag;
use tiera_core::response::{EvictOrder, ResponseSpec};
use tiera_core::selector::Selector;
use tiera_sim::bandwidth::BandwidthCap;
use tiera_sim::SimDuration;

use crate::ast::*;
use crate::diag::{Diagnostic, LintCode, Severity};
use crate::printer::{print_event_expr, print_quantity};
use crate::SpecError;

/// A quantity checked against the kind its position needs, not yet bound.
pub(crate) enum Value<T> {
    /// A literal (a percentage as written, `50%` → `50.0`).
    Lit(T),
    /// A formal parameter, bound at instantiation.
    Param(String),
    /// A literal of the wrong kind, already reported as T005.
    Invalid,
}

/// A lowered specification.
#[derive(Default)]
pub(crate) struct Policy {
    pub name: String,
    pub params: Vec<Param>,
    pub tiers: Vec<Tier>,
    pub clauses: Vec<Clause>,
    /// Every tier label the events and responses name (T003).
    pub referenced: BTreeSet<String>,
    /// Every parameter name the spec uses (T011).
    pub used_params: BTreeSet<String>,
    /// The first malformed argument, reported by instantiation only.
    pub error: Option<SpecError>,
}

/// A tier declaration with its wrapper attributes resolved.
pub(crate) struct Tier {
    pub label: String,
    pub type_name: String,
    pub size: Value<u64>,
    pub compress: bool,
    /// The line of the first `dedup` attribute, if any.
    pub dedup: Option<u32>,
    pub line: u32,
}

/// An event clause: its trigger and the responses it runs.
pub(crate) struct Clause {
    pub event: Event,
    pub responses: Vec<Response>,
    pub line: u32,
}

pub(crate) enum Event {
    Action {
        op: ActionOp,
        tier: Option<String>,
    },
    Timer(Value<SimDuration>),
    /// `tier.filled == p%`; `at_least` is the percentage.
    Filled {
        tier: String,
        at_least: Value<f64>,
    },
}

pub(crate) enum Response {
    /// A response with no parameter in it, in its runtime form, with the
    /// line of its call.
    Fixed(ResponseSpec, u32),
    /// `grow` / `shrink` by a percentage.
    Resize { tier: String, percent: Value<f64>, grow: bool },
    /// `if (tier.filled [== p%]) { then }`.
    If { tier: String, at_least: Option<Value<f64>>, then: Vec<Response> },
}

/// Lowers a whole specification, returning the walk's findings with it.
pub(crate) fn lower(spec: &Spec) -> (Policy, Vec<Diagnostic>) {
    let scope = spec.tiers.iter().map(|t| t.label.clone()).collect();
    let mut l = Lower::new(scope, &spec.params);
    l.policy.name = spec.name.clone();
    for (i, tier) in spec.tiers.iter().enumerate() {
        l.tier(tier, &spec.tiers[..i]);
    }
    for (i, event) in spec.events.iter().enumerate() {
        if let Some(first) = spec.events[..i].iter().find(|e| e.event == event.event) {
            let message =
                format!("duplicate event clause `event({})`", print_event_expr(&event.event));
            l.lint(LintCode::DuplicateDecl, event.line, message)
                .notes
                .push(format!("first declared at line {}; both responses will run", first.line));
        }
        let clause = l.clause(event);
        l.policy.clauses.push(clause);
    }
    (l.policy, l.diags)
}

/// Lowers one event clause against a live instance's tier labels and the
/// parameters its caller can bind — the runtime policy-mutation path
/// (paper §4.2.3).
pub(crate) fn lower_event(
    decl: &EventDecl,
    tiers: &[String],
    params: &[Param],
) -> (Clause, Option<SpecError>, Vec<Diagnostic>) {
    let mut l = Lower::new(tiers.to_vec(), params);
    let clause = l.clause(decl);
    (clause, l.policy.error, l.diags)
}

/// The wrapper attributes a tier may carry, each with the one parameter
/// its `tiera-tierx` wrapper implements.
const WRAPPERS: [(&str, &str); 2] = [("compress", "lzss"), ("dedup", "sha256")];

type LowerCall = fn(&mut Lower, &Call) -> Response;

/// Every response a spec may call, in the order T012's note lists them.
const RESPONSES: [(&str, LowerCall); 12] = [
    ("store", |l, c| l.store(c, |what, to| ResponseSpec::Store { what, to })),
    ("storeOnce", |l, c| l.store(c, |what, to| ResponseSpec::StoreOnce { what, to })),
    ("retrieve", |l, c| l.on_what(c, |what| ResponseSpec::Retrieve { what })),
    ("copy", |l, c| {
        l.transfer(c, |what, to, bandwidth| ResponseSpec::Copy { what, to, bandwidth })
    }),
    ("move", |l, c| {
        l.transfer(c, |what, to, bandwidth| ResponseSpec::Move { what, to, bandwidth })
    }),
    ("delete", Lower::delete),
    ("encrypt", |l, c| l.keyed(c, |what, key_id| ResponseSpec::Encrypt { what, key_id })),
    ("decrypt", |l, c| l.keyed(c, |what, key_id| ResponseSpec::Decrypt { what, key_id })),
    ("compress", |l, c| l.on_what(c, |what| ResponseSpec::Compress { what })),
    ("uncompress", |l, c| l.on_what(c, |what| ResponseSpec::Uncompress { what })),
    ("grow", |l, c| l.resize(c, "increment", true)),
    ("shrink", |l, c| l.resize(c, "decrement", false)),
];

struct Lower {
    /// Tier labels in scope, in declaration order.
    scope: Vec<String>,
    policy: Policy,
    diags: Vec<Diagnostic>,
}

impl Lower {
    fn new(scope: Vec<String>, params: &[Param]) -> Self {
        let params = params.to_vec();
        let policy = Policy { params, ..Policy::default() };
        Self { scope, policy, diags: Vec::new() }
    }

    /// Reports a finding; the caller may add notes to it.
    fn lint(&mut self, code: LintCode, line: u32, message: impl Into<String>) -> &mut Diagnostic {
        self.diags.push(Diagnostic::new(code, line, message));
        self.diags.last_mut().expect("a finding was just pushed")
    }

    /// Keeps the first malformed argument.
    fn fail(&mut self, line: u32, message: impl Into<String>) {
        self.policy.error.get_or_insert(SpecError::new(line, message));
    }

    /// An argument, or `fallback` in place of a malformed one.
    fn ok<T>(&mut self, arg: Result<T, SpecError>, fallback: T) -> T {
        arg.unwrap_or_else(|e| {
            self.policy.error.get_or_insert(e);
            fallback
        })
    }

    /// Records a tier reference and checks it resolves (T001).
    fn tier_ref(&mut self, label: &str, line: u32, context: &str) {
        self.policy.referenced.insert(label.to_string());
        if !self.scope.iter().any(|t| t == label) {
            let note = if self.scope.is_empty() {
                "no tiers are declared".to_string()
            } else {
                format!("declared tiers: {}", self.scope.join(", "))
            };
            let message = format!("undefined tier `{label}` in {context}");
            self.lint(LintCode::UndefinedTier, line, message).notes.push(note);
        }
    }

    /// Records a parameter reference and checks declaration and kind
    /// (T004/T005).
    fn param<T>(&mut self, name: &str, expected: ParamKind, line: u32, context: &str) -> Value<T> {
        self.policy.used_params.insert(name.to_string());
        let params = &self.policy.params;
        match params.iter().find(|p| p.name == name).map(|p| p.kind) {
            None => {
                let note = if params.is_empty() {
                    "the spec declares no parameters".to_string()
                } else {
                    let names: Vec<_> = params.iter().map(|p| p.name.as_str()).collect();
                    format!("declared parameters: {}", names.join(", "))
                };
                let message = format!("parameter `{name}` is not declared");
                self.lint(LintCode::UndeclaredParam, line, message).notes.push(note);
            }
            Some(kind) if kind != expected => {
                let (kind, expected) = (kind_name(kind), kind_name(expected));
                let message =
                    format!("`{name}` is a {kind} parameter but {context} needs a {expected}");
                self.lint(LintCode::TypeMismatch, line, message);
            }
            Some(_) => {}
        }
        Value::Param(name.to_string())
    }

    /// Reports a literal of the wrong kind (T005).
    fn mismatch<T>(
        &mut self,
        line: u32,
        context: &str,
        expected: &str,
        found: &Quantity,
    ) -> Value<T> {
        let found = match found {
            Quantity::Size(_) => format!("the size `{}`", print_quantity(found)),
            Quantity::Duration(_) => format!("the duration `{}`", print_quantity(found)),
            Quantity::Percent(_) => format!("the percentage `{}`", print_quantity(found)),
            Quantity::Rate(_) => format!("the rate `{}`", print_quantity(found)),
            Quantity::Int(n) => format!("the integer `{n}`"),
            Quantity::Param(p) => format!("the parameter `{p}`"),
        };
        let message = format!("{context} expects {expected}, found {found}");
        self.lint(LintCode::TypeMismatch, line, message);
        Value::Invalid
    }

    /// A percentage in (0, 100], or in (0, ∞) when not `capped` (T006).
    fn percent(&mut self, q: &Quantity, line: u32, context: &str, capped: bool) -> Value<f64> {
        match q {
            Quantity::Percent(p) => {
                if *p <= 0.0 || (capped && *p > 100.0) {
                    let range = if capped { "(0, 100]" } else { "(0, ∞)" };
                    let message = format!("{context} of {p}% is outside the valid range {range}");
                    self.lint(LintCode::PercentRange, line, message);
                }
                Value::Lit(*p)
            }
            Quantity::Param(p) => self.param(p, ParamKind::Percent, line, context),
            other => self.mismatch(line, context, "a percentage", other),
        }
    }

    /// A timer period; zero is T007. A bare integer counts seconds.
    fn period(&mut self, q: &Quantity, line: u32) -> Value<SimDuration> {
        let context = "a timer period";
        let period = match q {
            Quantity::Duration(d) => *d,
            Quantity::Int(n) => SimDuration::from_nanos(n.saturating_mul(1_000_000_000)),
            Quantity::Param(p) => return self.param(p, ParamKind::Time, line, context),
            other => return self.mismatch(line, context, "a duration", other),
        };
        if period.as_nanos() == 0 {
            let message = "timer period is zero; the rule would fire continuously";
            let note = "use a positive period like `time=30s`";
            self.lint(LintCode::ZeroTimer, line, message).notes.push(note.into());
        }
        Value::Lit(period)
    }

    // ---- declarations ----

    fn tier(&mut self, decl: &TierDecl, earlier: &[TierDecl]) {
        let (label, line) = (&decl.label, decl.line);
        if earlier.iter().any(|t| t.label == *label) {
            let message = format!("duplicate tier label `{label}`");
            let d = self.lint(LintCode::DuplicateDecl, line, message);
            d.severity = Severity::Error;
            d.notes.push("the later declaration shadows the earlier one".into());
        }
        let size = match &decl.size {
            Quantity::Size(n) | Quantity::Int(n) => Value::Lit(*n),
            Quantity::Param(p) => self.param(p, ParamKind::Size, line, "a tier size"),
            other => self.mismatch(line, &format!("tier `{label}` size"), "a byte size", other),
        };
        for (i, attr) in decl.attrs.iter().enumerate() {
            self.tier_attr(label, attr, &decl.attrs[..i]);
        }
        let attr = |name: &str| decl.attrs.iter().find(|a| a.name == name).map(|a| a.line);
        self.policy.tiers.push(Tier {
            label: label.clone(),
            type_name: decl.type_name.clone(),
            size,
            compress: attr("compress").is_some(),
            dedup: attr("dedup"),
            line,
        });
    }

    /// Checks one wrapper attribute against [`WRAPPERS`] (T015) and the
    /// attributes before it (T013).
    fn tier_attr(&mut self, tier: &str, attr: &TierAttr, earlier: &[TierAttr]) {
        let (name, value) = (&attr.name, &attr.value);
        let code = LintCode::BadTierAttribute;
        let Some((_, supported)) = WRAPPERS.iter().find(|(n, _)| n == name) else {
            let valid: Vec<_> = WRAPPERS.iter().map(|(n, v)| format!("`{n}: {v}`")).collect();
            let message = format!("unknown attribute `{name}` on tier `{tier}`");
            let note = format!("valid attributes: {}", valid.join(", "));
            self.lint(code, attr.line, message).notes.push(note);
            return;
        };
        if value != supported {
            let message =
                format!("invalid parameter `{value}` for attribute `{name}` on tier `{tier}`");
            let note = format!("supported: `{supported}`");
            self.lint(code, attr.line, message).notes.push(note);
            return;
        }
        // A second transform of the same shape — or `compress` after
        // `dedup`, which would compress content-addressed blobs instead of
        // payloads — is redundant. The canonical combination is `compress`
        // then `dedup`.
        let redundant =
            |a: &&TierAttr| a.name == *name || (name == "compress" && a.name == "dedup");
        if let Some(prior) = earlier.iter().find(redundant) {
            let already = match prior.name.as_str() {
                "dedup" => "content-addressed",
                _ => "compressed",
            };
            let message =
                format!("`{name}` on tier `{tier}` which is already {already} by `{}`", prior.name);
            let note = "declare `compress` before `dedup`; the compiler always \
                        builds the canonical dedup-over-compressed stack";
            self.lint(LintCode::CompressRedundant, attr.line, message).notes.push(note.into());
        }
    }

    // ---- events and responses ----

    fn clause(&mut self, decl: &EventDecl) -> Clause {
        let line = decl.line;
        let event = match &decl.event {
            EventExpr::Insert { tier } | EventExpr::Delete { tier } => {
                if let Some(t) = tier {
                    self.tier_ref(t, line, "the event scope");
                }
                let op = match decl.event {
                    EventExpr::Insert { .. } => ActionOp::Put,
                    _ => ActionOp::Delete,
                };
                Event::Action { op, tier: tier.clone() }
            }
            EventExpr::Timer { period } => Event::Timer(self.period(period, line)),
            EventExpr::Filled { tier, value } => {
                self.tier_ref(tier, line, "the `filled` event");
                let at_least = self.percent(value, line, "a `filled` threshold", true);
                Event::Filled { tier: tier.clone(), at_least }
            }
        };
        let responses = self.stmts(&decl.body, line);
        Clause { event, responses, line }
    }

    fn stmts(&mut self, stmts: &[Stmt], line: u32) -> Vec<Response> {
        let mut out = Vec::new();
        for stmt in stmts {
            match stmt {
                // The only assignment the paper's figures use is
                // `insert.object.dirty = true;`, which every PUT already
                // does.
                Stmt::Assign { path, value } => {
                    let p = path.join(".");
                    if !(p == "insert.object.dirty" && value == "true") {
                        self.fail(line, format!("unsupported assignment `{p} = {value}`"));
                    }
                }
                Stmt::If { guard: GuardExpr::Filled { tier, value }, body } => {
                    self.tier_ref(tier, line, "the `filled` guard");
                    let context = "a `filled` threshold";
                    let at_least = value.as_ref().map(|v| self.percent(v, line, context, true));
                    let then = self.stmts(body, line);
                    let evict = (at_least.is_none() && body.len() == 1)
                        .then(|| self.evict_until_fit(tier, &then, line))
                        .flatten();
                    out.push(evict.unwrap_or_else(|| Response::If {
                        tier: tier.clone(),
                        at_least,
                        then,
                    }));
                }
                Stmt::Call(call) => match RESPONSES.iter().find(|(name, _)| *name == call.name) {
                    Some((_, lower)) => out.push(lower(self, call)),
                    None => {
                        let known: Vec<_> = RESPONSES.iter().map(|(name, _)| *name).collect();
                        let message = format!("unknown response `{}`", call.name);
                        let note = format!("known responses: {}", known.join(", "));
                        self.lint(LintCode::UnknownResponse, call.line, message).notes.push(note);
                    }
                },
            }
        }
        out
    }

    /// Figure 5's eviction idiom (see the module docs): an unbounded
    /// `if (t.filled)` whose one statement has lowered to a move of `t`'s
    /// oldest or newest object.
    fn evict_until_fit(&mut self, tier: &str, then: &[Response], line: u32) -> Option<Response> {
        let [Response::Fixed(ResponseSpec::Move { what, to, .. }, move_line)] = then else {
            return None;
        };
        let order = match what {
            Selector::OldestIn(t) if t == tier => EvictOrder::Lru,
            Selector::NewestIn(t) if t == tier => EvictOrder::Mru,
            _ => return None,
        };
        let [to] = to.as_slice() else {
            self.fail(line, "eviction move takes exactly one destination tier");
            return None;
        };
        let (from, to) = (tier.to_string(), to.clone());
        Some(Response::Fixed(ResponseSpec::EvictUntilFit { from, to, order }, *move_line))
    }

    fn selector(&mut self, expr: &SelectorExpr, line: u32) -> Selector {
        match expr {
            SelectorExpr::InsertObject => Selector::Inserted,
            SelectorExpr::LocationEq(t) => {
                self.tier_ref(t, line, "`object.location`");
                Selector::InTier(t.clone())
            }
            SelectorExpr::DirtyEq(true) => Selector::Dirty,
            SelectorExpr::DirtyEq(false) => Selector::Dirty.negate(),
            SelectorExpr::TagEq(s) => Selector::Tagged(Tag::new(s)),
            SelectorExpr::Oldest(t) => {
                self.tier_ref(t, line, "an `.oldest` selector");
                Selector::OldestIn(t.clone())
            }
            SelectorExpr::Newest(t) => {
                self.tier_ref(t, line, "a `.newest` selector");
                Selector::NewestIn(t.clone())
            }
            SelectorExpr::And(a, b) => {
                let a = self.selector(a, line);
                a.and(self.selector(b, line))
            }
            SelectorExpr::Not(inner) => self.selector(inner, line).negate(),
        }
    }

    // ---- arguments ----

    fn what(&mut self, call: &Call) -> Result<Selector, SpecError> {
        let (name, line) = (&call.name, call.line);
        match call.arg("what") {
            Some(ArgValue::Selector(expr)) => Ok(self.selector(expr, line)),
            Some(ArgValue::Str(key)) => Ok(Selector::Key(key.as_str().into())),
            Some(other) => Err(SpecError::new(
                line,
                format!("`what:` of {name} expects a selector, found {other:?}"),
            )),
            None => Err(SpecError::new(line, format!("{name} requires `what:`"))),
        }
    }

    fn tiers(&mut self, call: &Call, key: &str) -> Result<Vec<String>, SpecError> {
        let (name, line) = (&call.name, call.line);
        match call.arg(key) {
            Some(ArgValue::Tiers(ts)) => {
                for t in ts {
                    self.tier_ref(t, line, &format!("`{key}:` of `{name}`"));
                }
                Ok(ts.clone())
            }
            Some(other) => Err(SpecError::new(
                line,
                format!("`{key}:` of {name} expects tier name(s), found {other:?}"),
            )),
            None => Err(SpecError::new(line, format!("{name} requires `{key}:`"))),
        }
    }

    // ---- responses (the [`RESPONSES`] table) ----

    fn on_what(&mut self, call: &Call, make: fn(Selector) -> ResponseSpec) -> Response {
        let what = self.what(call);
        Response::Fixed(make(self.ok(what, Selector::All)), call.line)
    }

    fn store(&mut self, call: &Call, make: fn(Selector, Vec<String>) -> ResponseSpec) -> Response {
        let to = self.tiers(call, "to");
        let what = self.what(call);
        let (what, to) = (self.ok(what, Selector::All), self.ok(to, Vec::new()));
        Response::Fixed(make(what, to), call.line)
    }

    fn transfer(
        &mut self,
        call: &Call,
        make: fn(Selector, Vec<String>, Option<BandwidthCap>) -> ResponseSpec,
    ) -> Response {
        let to = self.tiers(call, "to");
        let what = self.what(call);
        let bandwidth = match call.arg("bandwidth") {
            None => Ok(None),
            Some(ArgValue::Quantity(Quantity::Rate(r))) => {
                Ok(Some(BandwidthCap::bytes_per_sec(*r)))
            }
            Some(other) => {
                if let ArgValue::Tiers(ts) = other {
                    if let [name] = ts.as_slice() {
                        let message = format!(
                            "`bandwidth:` expects a rate literal like 40KB/s, not a parameter (`{name}`)"
                        );
                        self.lint(LintCode::TypeMismatch, call.line, message);
                    }
                }
                let message = format!("`bandwidth:` expects a rate like 40KB/s, found {other:?}");
                Err(SpecError::new(call.line, message))
            }
        };
        let what = self.ok(what, Selector::All);
        let to = self.ok(to, Vec::new());
        let bandwidth = self.ok(bandwidth, None);
        Response::Fixed(make(what, to, bandwidth), call.line)
    }

    fn delete(&mut self, call: &Call) -> Response {
        let what = self.what(call);
        let from = match call.arg("from") {
            None => Ok(None),
            Some(_) => match self.tiers(call, "from") {
                Ok(ts) if ts.len() == 1 => Ok(ts.into_iter().next()),
                _ => Err(SpecError::new(call.line, "delete `from:` takes one tier")),
            },
        };
        let (from, what) = (self.ok(from, None), self.ok(what, Selector::All));
        Response::Fixed(ResponseSpec::Delete { what, from }, call.line)
    }

    /// `encrypt` / `decrypt`: `key:` names a key-ring entry, not a tier.
    fn keyed(&mut self, call: &Call, make: fn(Selector, String) -> ResponseSpec) -> Response {
        let key_id = match call.arg("key") {
            Some(ArgValue::Str(s)) => Ok(s.clone()),
            Some(ArgValue::Tiers(ts)) if ts.len() == 1 => Ok(ts[0].clone()),
            _ => Err(SpecError::new(call.line, format!("{} requires `key:`", call.name))),
        };
        let key_id = self.ok(key_id, String::new());
        let what = self.what(call);
        Response::Fixed(make(self.ok(what, Selector::All), key_id), call.line)
    }

    /// `grow` / `shrink` by the percentage under `key`; only a shrink is
    /// capped at the whole tier.
    fn resize(&mut self, call: &Call, key: &str, grow: bool) -> Response {
        let (name, line) = (&call.name, call.line);
        let tier = self.tiers(call, "what").and_then(|ts| match ts.as_slice() {
            [t] => Ok(t.clone()),
            _ => Err(SpecError::new(line, format!("{name} `what:` takes exactly one tier"))),
        });
        let context = format!("`{key}:` of `{name}`");
        let percent = match call.arg(key) {
            Some(ArgValue::Quantity(q)) => Ok(self.percent(q, line, &context, !grow)),
            // A bare identifier parses as a tier list; in this position it
            // names a percent parameter.
            Some(ArgValue::Tiers(ts)) if ts.len() == 1 => {
                Ok(self.param(&ts[0], ParamKind::Percent, line, &context))
            }
            _ => Err(SpecError::new(line, format!("{name} requires `{key}:` percentage"))),
        };
        let tier = self.ok(tier, String::new());
        let percent = self.ok(percent, Value::Invalid);
        Response::Resize { tier, percent, grow }
    }
}

fn kind_name(kind: ParamKind) -> &'static str {
    match kind {
        ParamKind::Time => "`time`",
        ParamKind::Size => "`size`",
        ParamKind::Percent => "`percent`",
    }
}

//! Semantic analysis of parsed specifications.
//!
//! The parser guarantees a spec is *well-formed*; analysis decides
//! whether it is *meaningful*. A wrong policy is a wrong storage system —
//! dirty data parked in a volatile tier with no write-back rule loses data
//! on the first failure, and a `move` cycle ping-pongs objects between
//! tiers forever — so [`crate::compile::Compiler::compile`] runs it
//! before building an instance: findings with [`Severity::Error`] reject
//! the spec, warnings are collected for the caller.
//!
//! Analysis is two stages. The lowering walks the spec once, resolving
//! each reference where it meets it; the passes here then read the policy
//! it yields, the same one the compiler instantiates. The checks, by lint
//! code (see [`LintCode`] and the DESIGN.md table):
//!
//! | code | stage | check |
//! |------|-------|-------|
//! | T001 | lower | undefined tier in targets, event scopes, guards, selectors |
//! | T002 | lower | duplicate tier label (error) / duplicate event clause (warning) |
//! | T003 | pass  | declared tier never referenced (first tier exempt: default placement) |
//! | T004 | lower | reference to an undeclared formal parameter |
//! | T005 | lower | type mismatch (`time` param as `size`, size as timer period, …) |
//! | T006 | lower | percentage outside its valid range |
//! | T007 | lower | zero timer period |
//! | T008 | pass  | cycle in the copy/move graph (all-`move` cycle is an error) |
//! | T009 | pass  | copy target capacity smaller than its source tier |
//! | T010 | pass  | stores into a volatile tier with no copy/move path to a durable one |
//! | T011 | pass  | declared formal parameter never used |
//! | T012 | lower | unknown response name |
//! | T013 | lower | `compress` attribute on an already-compressed/dedup'd tier |
//! | T014 | pass  | `dedup` blob store on a volatile tier with no durable copy path |
//! | T015 | lower | tier attribute with an unknown name or invalid parameter |
//!
//! Analysis is deterministic: findings come out in spec walk order, then
//! whole-spec checks in declaration order, so re-analyzing a printed and
//! re-parsed spec yields byte-identical rendered diagnostics (a property
//! test in `tests/analyze_props.rs` holds us to that).

use std::collections::BTreeSet;

use tiera_core::response::ResponseSpec;
use tiera_core::selector::Selector;
use tiera_support::collections::FxHashMap;

use crate::ast::*;
use crate::diag::{Analysis, Diagnostic, LintCode, Severity};
use crate::lower::{lower, lower_event, Policy, Response, Value};
use crate::printer::print_quantity;

/// Analyzes a spec with the default tier-durability profile (the paper's
/// catalog: `Memcached`/`MemcachedRemote`/`EphemeralStorage` volatile,
/// `EBS`/`S3` durable).
pub fn analyze(spec: &Spec) -> Analysis {
    Analyzer::new().analyze(spec)
}

/// The analysis pass, configurable with tier-type durability knowledge
/// for the volatility-leak check (T010). Types the analyzer has never
/// heard of are given the benefit of the doubt (treated as durable).
#[derive(Debug, Clone)]
pub struct Analyzer {
    /// Lower-cased tier type name → survives failures?
    durability: FxHashMap<String, bool>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer {
    /// An analyzer knowing the paper catalog's durability traits.
    pub fn new() -> Self {
        let mut durability = FxHashMap::default();
        for (ty, durable) in [
            ("memcached", false),
            ("memcachedremote", false),
            ("ephemeralstorage", false),
            ("ebs", true),
            ("s3", true),
        ] {
            durability.insert(ty.to_string(), durable);
        }
        Self { durability }
    }

    /// Registers (or overrides) a tier type's durability for T010.
    pub fn tier_type(mut self, type_name: &str, durable: bool) -> Self {
        self.durability.insert(type_name.to_lowercase(), durable);
        self
    }

    /// Runs every check over a full specification.
    pub fn analyze(&self, spec: &Spec) -> Analysis {
        self.check(spec).1
    }

    /// Lowers `spec` and runs the whole-spec passes over the policy.
    pub(crate) fn check(&self, spec: &Spec) -> (Policy, Analysis) {
        let (policy, mut diags) = lower(spec);
        let flows = Flows::of(&policy);
        untargeted_tiers(&policy, &mut diags);
        unused_params(&policy, &mut diags);
        movement_cycles(&policy, &flows.edges, &mut diags);
        writeback_capacity(&policy, &flows.edges, &mut diags);
        // A location-free copy/move into a durable tier drains every tier.
        let drained = flows.global.iter().any(|t| self.durable(&policy, t) == Some(true));
        if !drained {
            self.volatility_leaks(&policy, &flows, &mut diags);
            self.dedup_volatile(&policy, &flows.edges, &mut diags);
        }
        (policy, Analysis::new(diags))
    }

    /// Re-analyzes a single event clause against a live instance's tier
    /// names — the runtime policy-mutation path (paper §4.2.3). Whole-spec
    /// checks (T002/T003/T008–T011) need the full spec and are skipped;
    /// per-clause checks (T001/T004–T007/T012) all run. `params` lists the
    /// formal parameters the caller can bind (usually none at runtime).
    pub fn analyze_event(&self, decl: &EventDecl, tiers: &[String], params: &[Param]) -> Analysis {
        Analysis::new(lower_event(decl, tiers, params).2)
    }

    /// `None` for an undeclared tier; otherwise whether it survives
    /// failures, a type the analyzer does not know counting as durable.
    fn durable(&self, policy: &Policy, label: &str) -> Option<bool> {
        let tier = policy.tiers.iter().find(|t| t.label == label)?;
        let known = self.durability.get(&tier.type_name.to_lowercase());
        Some(known.copied().unwrap_or(true))
    }

    /// Whether copy/move edges lead from `start` to a durable tier.
    fn reaches_durable(&self, policy: &Policy, edges: &[Edge], start: &str) -> bool {
        let mut frontier = vec![start];
        let mut seen = BTreeSet::new();
        while let Some(t) = frontier.pop() {
            if !seen.insert(t) {
                continue;
            }
            if self.durable(policy, t) == Some(true) {
                return true;
            }
            frontier.extend(edges.iter().filter(|e| e.from == t).map(|e| e.to));
        }
        false
    }

    /// T010: stores into a volatile tier need a copy/move path to a
    /// durable one.
    fn volatility_leaks(&self, policy: &Policy, flows: &Flows, diags: &mut Vec<Diagnostic>) {
        let mut warned = BTreeSet::new();
        for &(target, line) in &flows.stores {
            if self.durable(policy, target) != Some(false)
                || warned.contains(target)
                || self.reaches_durable(policy, &flows.edges, target)
            {
                continue;
            }
            warned.insert(target);
            diags.push(
                Diagnostic::new(
                    LintCode::VolatilityLeak,
                    line,
                    format!(
                        "objects stored into volatile tier `{target}` are never \
                         copied or moved to a durable tier"
                    ),
                )
                .note(format!(
                    "data in `{target}` is lost on failure; add a write-back \
                     rule (paper Fig. 3)"
                )),
            );
        }
    }

    /// T014: a `dedup` tier's refcounted blob store must not live only in
    /// volatile storage — a failure would strand every live key. Satisfied
    /// by the same escape hatches as T010.
    fn dedup_volatile(&self, policy: &Policy, edges: &[Edge], diags: &mut Vec<Diagnostic>) {
        for tier in &policy.tiers {
            let Some(line) = tier.dedup else {
                continue;
            };
            if self.durable(policy, &tier.label) != Some(false)
                || self.reaches_durable(policy, edges, &tier.label)
            {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    LintCode::DedupVolatile,
                    line,
                    format!(
                        "dedup blob store on volatile tier `{}` has no copy or \
                         move path to a durable tier",
                        tier.label
                    ),
                )
                .note(format!(
                    "blobs and refcounts in `{}` are lost on failure; dedup a \
                     durable tier or add a write-back rule",
                    tier.label
                )),
            );
        }
    }
}

/// An edge of the data-movement graph: objects flow `from → to`.
struct Edge<'p> {
    from: &'p str,
    to: &'p str,
    /// `move` (and eviction) removes the source copy; `copy` keeps it.
    is_move: bool,
    line: u32,
}

/// The data movement a policy's responses ask for, in walk order.
#[derive(Default)]
struct Flows<'p> {
    edges: Vec<Edge<'p>>,
    /// `store`/`storeOnce` targets with the line of the store.
    stores: Vec<(&'p str, u32)>,
    /// Copy/move targets whose selector has no location constraint and
    /// can pick dirty objects (`insert.object`, `object.dirty == true`,
    /// …): they drain *every* tier.
    global: Vec<&'p str>,
}

impl<'p> Flows<'p> {
    fn of(policy: &'p Policy) -> Self {
        let mut flows = Self::default();
        for clause in &policy.clauses {
            flows.walk(&clause.responses);
        }
        flows
    }

    fn walk(&mut self, responses: &'p [Response]) {
        for response in responses {
            match response {
                Response::Fixed(
                    ResponseSpec::Store { to, .. } | ResponseSpec::StoreOnce { to, .. },
                    line,
                ) => self.stores.extend(to.iter().map(|t| (t.as_str(), *line))),
                Response::Fixed(ResponseSpec::Copy { what, to, .. }, line) => {
                    self.movement(what, to, false, *line)
                }
                Response::Fixed(ResponseSpec::Move { what, to, .. }, line) => {
                    self.movement(what, to, true, *line)
                }
                Response::Fixed(ResponseSpec::EvictUntilFit { from, to, .. }, line) => {
                    self.edges.push(Edge { from, to, is_move: true, line: *line })
                }
                Response::If { then, .. } => self.walk(then),
                _ => {}
            }
        }
    }

    fn movement(&mut self, what: &'p Selector, to: &'p [String], is_move: bool, line: u32) {
        let sources = locations(what);
        if sources.is_empty() && !clean_only(what) {
            self.global.extend(to.iter().map(String::as_str));
        }
        for from in sources {
            for dst in to {
                self.edges.push(Edge { from, to: dst, is_move, line });
            }
        }
    }
}

/// The tiers a selector confines its objects to. A negated location
/// confines nothing: `!location == t` matches objects everywhere else.
fn locations(sel: &Selector) -> Vec<&str> {
    match sel {
        Selector::InTier(t) | Selector::OldestIn(t) | Selector::NewestIn(t) => vec![t],
        Selector::And(a, b) => {
            let mut v = locations(a);
            v.extend(locations(b));
            v
        }
        _ => Vec::new(),
    }
}

/// Whether a selector only ever picks clean objects, which a write-back
/// does not need to copy.
fn clean_only(sel: &Selector) -> bool {
    match sel {
        Selector::Not(inner) => matches!(**inner, Selector::Dirty),
        Selector::And(a, b) => clean_only(a) || clean_only(b),
        _ => false,
    }
}

/// T003. The first tier is the default placement preference — an
/// instance with no explicit store rule still writes there.
fn untargeted_tiers(policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for tier in policy.tiers.iter().skip(1) {
        if !policy.referenced.contains(&tier.label) {
            diags.push(
                Diagnostic::new(
                    LintCode::UntargetedTier,
                    tier.line,
                    format!("tier `{}` is declared but never referenced by any policy", tier.label),
                )
                .note("it costs capacity but no event stores, copies, or observes it"),
            );
        }
    }
}

/// T011.
fn unused_params(policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for p in &policy.params {
        if !policy.used_params.contains(&p.name) {
            diags.push(Diagnostic::new(
                LintCode::UnusedParam,
                0,
                format!("parameter `{}` is declared but never used", p.name),
            ));
        }
    }
}

/// T008. Deterministic cycle discovery: consider only edges between
/// declared tiers, walk starts in declaration order, and report each
/// cycle once — anchored at its smallest-index member.
fn movement_cycles(policy: &Policy, edges: &[Edge], diags: &mut Vec<Diagnostic>) {
    let labels: Vec<&str> = policy.tiers.iter().map(|t| t.label.as_str()).collect();
    let index: FxHashMap<&str, usize> = labels.iter().enumerate().map(|(i, l)| (*l, i)).collect();
    let mut adj: Vec<Vec<(usize, bool, u32)>> = vec![Vec::new(); labels.len()];
    for e in edges {
        if let (Some(&f), Some(&t)) = (index.get(e.from), index.get(e.to)) {
            adj[f].push((t, e.is_move, e.line));
        }
    }
    for start in 0..labels.len() {
        if let Some(path) = find_cycle(&adj, start) {
            let all_moves = path.iter().all(|&(_, is_move, _)| is_move);
            let mut names = vec![labels[start]];
            names.extend(path.iter().map(|&(n, _, _)| labels[n]));
            let diag = Diagnostic::new(
                LintCode::MovementCycle,
                path[0].2,
                format!("data-movement cycle: {}", names.join(" -> ")),
            );
            diags.push(if all_moves {
                diag.severity(Severity::Error).note(
                    "every edge is a `move`: objects will ping-pong between these tiers forever",
                )
            } else {
                diag.note("a `copy` edge participates: objects re-replicate around this cycle")
            });
        }
    }
}

/// T009: a copy into a tier smaller than its source cannot hold a full
/// write-back.
fn writeback_capacity(policy: &Policy, edges: &[Edge], diags: &mut Vec<Diagnostic>) {
    let caps: FxHashMap<&str, u64> = policy
        .tiers
        .iter()
        .filter_map(|t| match t.size {
            Value::Lit(n) => Some((t.label.as_str(), n)),
            _ => None,
        })
        .collect();
    for e in edges.iter().filter(|e| !e.is_move) {
        let (Some(&src), Some(&dst)) = (caps.get(e.from), caps.get(e.to)) else {
            continue;
        };
        if dst < src {
            diags.push(
                Diagnostic::new(
                    LintCode::WritebackCapacity,
                    e.line,
                    format!(
                        "copy target `{}` ({}) is smaller than its source tier `{}` ({})",
                        e.to,
                        print_quantity(&Quantity::Size(dst)),
                        e.from,
                        print_quantity(&Quantity::Size(src)),
                    ),
                )
                .note("a full write-back cannot fit; grow the target or cap the source"),
            );
        }
    }
}

/// Finds a cycle that starts and ends at `start`, visiting only nodes with
/// index ≥ `start` (so each cycle is reported exactly once, anchored at
/// its smallest member). Returns the edge path as `(next_node, is_move,
/// line)` steps.
fn find_cycle(adj: &[Vec<(usize, bool, u32)>], start: usize) -> Option<Vec<(usize, bool, u32)>> {
    fn dfs(
        adj: &[Vec<(usize, bool, u32)>],
        start: usize,
        node: usize,
        visited: &mut Vec<bool>,
        path: &mut Vec<(usize, bool, u32)>,
    ) -> bool {
        for &(next, is_move, line) in &adj[node] {
            if next < start {
                continue;
            }
            if next == start {
                path.push((next, is_move, line));
                return true;
            }
            if !visited[next] {
                visited[next] = true;
                path.push((next, is_move, line));
                if dfs(adj, start, next, visited, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    let mut visited = vec![false; adj.len()];
    let mut path = Vec::new();
    dfs(adj, start, start, &mut visited, &mut path).then_some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn codes(src: &str) -> Vec<(&'static str, Severity)> {
        let spec = parse(src).unwrap();
        analyze(&spec).diagnostics().iter().map(|d| (d.code.code(), d.severity)).collect()
    }

    #[test]
    fn clean_figure_3_has_no_findings() {
        let src = r#"
Tiera LowLatency(time t) {
    tier1: { name: Memcached, size: 5M };
    tier2: { name: EBS, size: 5M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(time=t) : response {
        copy(what: object.location == tier1 && object.dirty == true, to: tier2);
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", codes(src));
    }

    #[test]
    fn undefined_tier_everywhere_it_can_hide() {
        let src = r#"
Tiera X() {
    tier1: { name: EBS, size: 1M };
    event(insert.into == tier9) : response {
        store(what: insert.object, to: tier8);
    }
    event(tier7.filled == 50%) : response {
        copy(what: object.location == tier6, to: tier1);
        grow(what: tier5, increment: 10%);
    }
}
"#;
        let found = codes(src);
        let t001 = found.iter().filter(|(c, _)| *c == "T001").count();
        assert_eq!(t001, 5, "{found:?}");
        assert!(found.iter().all(|(_, s)| *s == Severity::Error || found.len() > t001));
    }

    #[test]
    fn duplicate_event_clause_warns_duplicate_tier_errors() {
        let src = r#"
Tiera X() {
    tier1: { name: EBS, size: 1M };
    tier1: { name: S3, size: 1M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        let found = codes(src);
        assert!(found.contains(&("T002", Severity::Error)), "{found:?}");
        assert!(found.contains(&("T002", Severity::Warning)), "{found:?}");
    }

    #[test]
    fn untargeted_tier_warns_but_first_tier_exempt() {
        let src = r#"
Tiera X() {
    tier1: { name: EBS, size: 1M };
    tier2: { name: S3, size: 1M };
}
"#;
        let found = codes(src);
        assert_eq!(found, vec![("T003", Severity::Warning)], "{found:?}");
    }

    #[test]
    fn param_checks() {
        let src = r#"
Tiera X(time t, size s, percent unused) {
    tier1: { name: EBS, size: s };
    event(time=s) : response {
        retrieve(what: insert.object);
    }
    event(tier1.filled == q) : response {
        grow(what: tier1, increment: t);
    }
}
"#;
        let found = codes(src);
        // time=s: T005; q undeclared: T004; increment t: T005; unused: T011.
        assert_eq!(
            found,
            vec![
                ("T005", Severity::Error),
                ("T004", Severity::Error),
                ("T005", Severity::Error),
                ("T011", Severity::Warning),
            ],
            "{found:?}"
        );
    }

    #[test]
    fn percent_range_and_zero_timer() {
        let src = r#"
Tiera X() {
    tier1: { name: EBS, size: 1M };
    event(tier1.filled == 150%) : response {
        shrink(what: tier1, decrement: 200%);
    }
    event(time=0s) : response {
        grow(what: tier1, increment: 250%);
    }
}
"#;
        let found = codes(src);
        assert_eq!(
            found,
            vec![("T006", Severity::Error), ("T006", Severity::Error), ("T007", Severity::Error),],
            "grow >100% is legal; {found:?}"
        );
    }

    #[test]
    fn pure_move_cycle_is_error_copy_cycle_warns() {
        let moves = r#"
Tiera X(time t) {
    tier1: { name: EBS, size: 1M };
    tier2: { name: S3, size: 1M };
    event(time=t) : response {
        move(what: object.location == tier1, to: tier2);
        move(what: object.location == tier2, to: tier1);
    }
}
"#;
        let found = codes(moves);
        assert!(found.contains(&("T008", Severity::Error)), "{found:?}");

        let copies = r#"
Tiera X(time t) {
    tier1: { name: EBS, size: 1M };
    tier2: { name: S3, size: 1M };
    event(time=t) : response {
        copy(what: object.location == tier1, to: tier2);
        move(what: object.location == tier2, to: tier1);
    }
}
"#;
        let found = codes(copies);
        assert!(found.contains(&("T008", Severity::Warning)), "{found:?}");
        assert!(!found.contains(&("T008", Severity::Error)), "{found:?}");
    }

    #[test]
    fn writeback_capacity_warns_only_when_smaller() {
        let src = r#"
Tiera X(time t) {
    tier1: { name: EBS, size: 2G };
    tier2: { name: S3, size: 1G };
    event(time=t) : response {
        copy(what: object.location == tier1, to: tier2);
    }
}
"#;
        let found = codes(src);
        assert_eq!(found, vec![("T009", Severity::Warning)], "{found:?}");
    }

    #[test]
    fn volatility_leak_detected_and_cleared_by_writeback_path() {
        let leaky = r#"
Tiera X() {
    tier1: { name: Memcached, size: 1M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        assert_eq!(codes(leaky), vec![("T010", Severity::Warning)]);

        // Multi-hop: tier1 -> tier2 (volatile) -> tier3 (durable) is safe.
        let multihop = r#"
Tiera X(time t) {
    tier1: { name: Memcached, size: 1M };
    tier2: { name: EphemeralStorage, size: 1M };
    tier3: { name: S3, size: 1M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(time=t) : response {
        move(what: object.location == tier1, to: tier2);
        copy(what: object.location == tier2, to: tier3);
    }
}
"#;
        assert!(codes(multihop).is_empty(), "{:?}", codes(multihop));

        // A location-free copy to a durable tier is a global write-back.
        let global = r#"
Tiera X(time t) {
    tier1: { name: Memcached, size: 1M };
    tier2: { name: EBS, size: 1M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(time=t) : response {
        copy(what: object.dirty == true, to: tier2);
    }
}
"#;
        assert!(codes(global).is_empty(), "{:?}", codes(global));

        // A copy of clean objects only writes nothing back.
        let clean_only = global.replace("object.dirty == true", "object.dirty == false");
        assert_eq!(codes(&clean_only), vec![("T010", Severity::Warning)]);
    }

    #[test]
    fn tier_attrs_valid_combination_is_clean() {
        let src = r#"
Tiera X() {
    tier1: { name: EBS, size: 64M, compress: lzss, dedup: sha256 };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", codes(src));
    }

    #[test]
    fn redundant_transforms_warn_t013() {
        // compress after dedup: wrong order.
        let reversed = r#"
Tiera X() {
    tier1: { name: EBS, size: 64M, dedup: sha256, compress: lzss };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        assert_eq!(codes(reversed), vec![("T013", Severity::Warning)]);

        // Literal duplicates of either attribute.
        for dup in ["compress: lzss, compress: lzss", "dedup: sha256, dedup: sha256"] {
            let src = format!(
                r#"
Tiera X() {{
    tier1: {{ name: EBS, size: 64M, {dup} }};
    event(insert.into) : response {{
        store(what: insert.object, to: tier1);
    }}
}}
"#
            );
            assert_eq!(codes(&src), vec![("T013", Severity::Warning)], "{dup}");
        }
    }

    #[test]
    fn dedup_on_volatile_tier_warns_t014_unless_written_back() {
        let stranded = r#"
Tiera X() {
    tier1: { name: EBS, size: 64M };
    tier2: { name: Memcached, size: 32M, dedup: sha256 };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(tier2.filled == 75%) : response {
        grow(what: tier2, increment: 50%);
    }
}
"#;
        assert_eq!(codes(stranded), vec![("T014", Severity::Warning)]);

        // A copy path from the dedup'd tier to a durable one clears it
        // (and T010 for the store).
        let written_back = r#"
Tiera X(time t) {
    tier1: { name: EBS, size: 64M };
    tier2: { name: Memcached, size: 32M, dedup: sha256 };
    event(insert.into) : response {
        store(what: insert.object, to: tier2);
    }
    event(time=t) : response {
        copy(what: object.location == tier2, to: tier1);
    }
}
"#;
        assert!(codes(written_back).is_empty(), "{:?}", codes(written_back));

        // Dedup on a durable tier was never a problem.
        let durable = r#"
Tiera X() {
    tier1: { name: EBS, size: 64M, dedup: sha256 };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        assert!(codes(durable).is_empty(), "{:?}", codes(durable));
    }

    #[test]
    fn bad_tier_attributes_error_t015() {
        // Unknown attribute name.
        let unknown = r#"
Tiera X() {
    tier1: { name: EBS, size: 64M, shiny: yes };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        assert_eq!(codes(unknown), vec![("T015", Severity::Error)]);

        // Known attribute, unsupported parameter.
        for bad in ["compress: gzip", "dedup: md5"] {
            let src = format!(
                r#"
Tiera X() {{
    tier1: {{ name: EBS, size: 64M, {bad} }};
    event(insert.into) : response {{
        store(what: insert.object, to: tier1);
    }}
}}
"#
            );
            assert_eq!(codes(&src), vec![("T015", Severity::Error)], "{bad}");
        }
    }

    #[test]
    fn unknown_response_is_error() {
        let src = r#"
Tiera X() {
    tier1: { name: EBS, size: 1M };
    event(insert.into) : response {
        teleport(what: insert.object, to: tier1);
    }
}
"#;
        let found = codes(src);
        assert_eq!(found, vec![("T012", Severity::Error)], "{found:?}");
    }

    #[test]
    fn lru_eviction_if_idiom_is_clean() {
        let src = r#"
Tiera Lru() {
    tier1: { name: Memcached, size: 1M };
    tier2: { name: EBS, size: 8M };
    event(insert.into == tier1) : response {
        if (tier1.filled) {
            move(what: tier1.oldest, to: tier2);
        }
        store(what: insert.object, to: tier1);
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", codes(src));
    }

    #[test]
    fn analyze_event_checks_against_live_tiers() {
        let analyzer = Analyzer::new();
        let decl = crate::parse_event(
            "event(insert.into) : response { store(what: insert.object, to: tier9); }",
        )
        .unwrap();
        let bad = analyzer.analyze_event(&decl, &["tier1".to_string()], &[]);
        assert!(bad.has_errors());
        assert_eq!(bad.first_error().unwrap().code, LintCode::UndefinedTier);
        let ok = analyzer.analyze_event(&decl, &["tier9".to_string()], &[]);
        assert!(ok.is_clean());
    }

    #[test]
    fn custom_tier_type_durability_is_configurable() {
        let src = r#"
Tiera X() {
    tier1: { name: FlashCache, size: 1M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        let spec = parse(src).unwrap();
        // Unknown type: benefit of the doubt, no finding.
        assert!(Analyzer::new().analyze(&spec).is_clean());
        // Declared volatile: the leak fires.
        let a = Analyzer::new().tier_type("FlashCache", false);
        assert_eq!(a.analyze(&spec).warnings().count(), 1);
    }
}

//! Lowering specifications onto `tiera-core` instances.
//!
//! The compiler resolves tier types through a [`TierCatalog`], binds formal
//! parameters (the `(time t)` of Figure 3), validates keyword arguments,
//! and lowers each event/response clause to a [`tiera_core::policy::Rule`].
//!
//! One idiom receives special treatment, documented here because it changes
//! execution semantics: the Figure 5 eviction pattern
//!
//! ```text
//! if (tier1.filled) { move(what: tier1.oldest, to: tier2); }
//! ```
//!
//! is lowered to [`ResponseSpec::EvictUntilFit`] (evict-until-the-insert-
//! fits) rather than a single conditional move, because a single eviction
//! only guarantees progress when all objects have equal size. Any other
//! `if` lowers to a plain [`ResponseSpec::If`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use tiera_core::catalog::TierCatalog;
use tiera_core::event::{ActionOp, EventKind, Metric};
use tiera_core::instance::Instance;
use tiera_core::object::Tag;
use tiera_core::policy::Rule;
use tiera_core::response::{EvictOrder, Guard, ResponseSpec};
use tiera_core::selector::Selector;
use tiera_core::tier::TierHandle;
use tiera_core::InstanceBuilder;
use tiera_sim::bandwidth::BandwidthCap;
use tiera_sim::{SimDuration, SimEnv};

use crate::analyze::Analyzer;
use crate::ast::*;
use crate::diag::Diagnostic;
use crate::SpecError;

/// A value bound to a specification parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// For `time` parameters.
    Duration(SimDuration),
    /// For `size` parameters (bytes).
    Size(u64),
    /// For `percent` parameters.
    Percent(f64),
}

/// Compiles [`Spec`]s into live [`Instance`]s.
pub struct Compiler<'a> {
    catalog: &'a TierCatalog,
    env: SimEnv,
    bindings: HashMap<String, ParamValue>,
    metadata_dir: Option<PathBuf>,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler resolving tier types against `catalog`.
    pub fn new(catalog: &'a TierCatalog, env: SimEnv) -> Self {
        Self {
            catalog,
            env,
            bindings: HashMap::new(),
            metadata_dir: None,
        }
    }

    /// Binds a parameter value.
    pub fn bind(mut self, name: impl Into<String>, value: ParamValue) -> Self {
        self.bindings.insert(name.into(), value);
        self
    }

    /// Persists the compiled instance's object metadata under `dir` (see
    /// [`InstanceBuilder::metadata_dir`]); metadata already there is
    /// recovered.
    pub fn metadata_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.metadata_dir = Some(dir.into());
        self
    }

    /// Compiles a parsed spec into a running instance, discarding analyzer
    /// warnings. See [`Compiler::compile_checked`] to receive them.
    pub fn compile(&self, spec: &Spec) -> Result<Arc<Instance>, SpecError> {
        self.compile_checked(spec).map(|(inst, _)| inst)
    }

    /// Compiles a parsed spec into a running instance, returning the
    /// analyzer warnings alongside it. Analyzer errors (see
    /// [`crate::diag::LintCode`]) reject the spec before any tier is
    /// created.
    pub fn compile_checked(
        &self,
        spec: &Spec,
    ) -> Result<(Arc<Instance>, Vec<Diagnostic>), SpecError> {
        let analysis = Analyzer::new().analyze(spec);
        if let Some(err) = analysis.first_error() {
            return Err(analysis_error(err));
        }
        let warnings = analysis.into_warnings();
        // Check parameter bindings.
        for p in &spec.params {
            match (p.kind, self.bindings.get(&p.name)) {
                (ParamKind::Time, Some(ParamValue::Duration(_)))
                | (ParamKind::Size, Some(ParamValue::Size(_)))
                | (ParamKind::Percent, Some(ParamValue::Percent(_))) => {}
                (_, Some(v)) => {
                    return Err(SpecError::new(
                        0,
                        format!("parameter `{}` bound to mismatched value {v:?}", p.name),
                    ))
                }
                (_, None) => {
                    return Err(SpecError::new(
                        0,
                        format!("parameter `{}` is unbound", p.name),
                    ))
                }
            }
        }

        let mut builder = InstanceBuilder::new(spec.name.clone(), self.env.clone());
        if let Some(dir) = &self.metadata_dir {
            builder = builder.metadata_dir(dir);
        }
        for tier in &spec.tiers {
            let size = self.quantity_as_size(&tier.size)?;
            let handle = self
                .catalog
                .create(&tier.type_name, &tier.label, size)
                .map_err(|e| SpecError::new(0, e.to_string()))?;
            builder = builder.tier_handle(wrap_tier(handle, &tier.attrs)?);
        }
        for event in &spec.events {
            builder = builder.rule(self.compile_event(event)?);
        }
        let instance = builder
            .build()
            .map_err(|e| SpecError::new(0, e.to_string()))?;
        Ok((instance, warnings))
    }

    /// Analyzes a single event clause against a set of live tier names and
    /// compiles it to a rule — the runtime policy-addition path (paper
    /// §4.2.3). Analyzer errors reject the clause.
    pub fn compile_event_checked(
        &self,
        decl: &EventDecl,
        known_tiers: &[String],
    ) -> Result<Rule, SpecError> {
        let analysis = Analyzer::new().analyze_event(decl, known_tiers, &[]);
        if let Some(err) = analysis.first_error() {
            return Err(analysis_error(err));
        }
        self.compile_event(decl)
    }

    /// Compiles a single event clause to a rule (usable for runtime policy
    /// additions as well, paper §4.2.3).
    pub fn compile_event(&self, decl: &EventDecl) -> Result<Rule, SpecError> {
        let event = match &decl.event {
            EventExpr::Insert { tier } => EventKind::Action {
                op: ActionOp::Put,
                tier: tier.clone(),
                background: false,
            },
            EventExpr::Delete { tier } => EventKind::Action {
                op: ActionOp::Delete,
                tier: tier.clone(),
                background: false,
            },
            EventExpr::Timer { period } => EventKind::Timer {
                period: self.quantity_as_duration(period, decl.line)?,
            },
            EventExpr::Filled { tier, value } => EventKind::threshold_at_least(
                Metric::TierFillFraction(tier.clone()),
                self.quantity_as_fraction(value, decl.line)?,
            ),
        };
        let mut responses = Vec::new();
        self.compile_stmts(&decl.body, &mut responses, decl.line)?;
        let mut rule = Rule::on(event).labeled(format!("spec line {}", decl.line));
        for r in responses {
            rule = rule.respond(r);
        }
        Ok(rule)
    }

    fn compile_stmts(
        &self,
        stmts: &[Stmt],
        out: &mut Vec<ResponseSpec>,
        line: u32,
    ) -> Result<(), SpecError> {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { path, value } => {
                    // The only assignment the paper's figures use is
                    // `insert.object.dirty = true;`, which the middleware
                    // already guarantees on every PUT. Validate and discard.
                    let p = path.join(".");
                    if !(p == "insert.object.dirty" && value == "true") {
                        return Err(SpecError::new(
                            line,
                            format!("unsupported assignment `{p} = {value}`"),
                        ));
                    }
                }
                Stmt::If { guard, body } => {
                    let GuardExpr::Filled { tier, value } = guard;
                    // Figure 5 idiom: if (X.filled) { move(X.oldest→Y); }.
                    if value.is_none() && body.len() == 1 {
                        if let Stmt::Call(c) = &body[0] {
                            if c.name == "move" {
                                if let Some(order) = match c.arg("what") {
                                    Some(ArgValue::Selector(SelectorExpr::Oldest(t)))
                                        if t == tier =>
                                    {
                                        Some(EvictOrder::Lru)
                                    }
                                    Some(ArgValue::Selector(SelectorExpr::Newest(t)))
                                        if t == tier =>
                                    {
                                        Some(EvictOrder::Mru)
                                    }
                                    _ => None,
                                } {
                                    let to = self.arg_tiers(c, "to", line)?;
                                    if to.len() != 1 {
                                        return Err(SpecError::new(
                                            line,
                                            "eviction move takes exactly one destination tier",
                                        ));
                                    }
                                    out.push(ResponseSpec::EvictUntilFit {
                                        from: tier.clone(),
                                        to: to[0].clone(),
                                        order,
                                    });
                                    continue;
                                }
                            }
                        }
                    }
                    let mut then = Vec::new();
                    self.compile_stmts(body, &mut then, line)?;
                    out.push(ResponseSpec::If {
                        guard: Guard::TierFilled {
                            tier: tier.clone(),
                            at_least: value
                                .as_ref()
                                .map(|v| self.quantity_as_fraction(v, line))
                                .transpose()?,
                        },
                        then,
                    });
                }
                Stmt::Call(call) => out.push(self.compile_call(call)?),
            }
        }
        Ok(())
    }

    fn compile_call(&self, call: &Call) -> Result<ResponseSpec, SpecError> {
        let line = call.line;
        match call.name.as_str() {
            "store" => Ok(ResponseSpec::Store {
                what: self.arg_selector(call, "what")?,
                to: self.arg_tiers(call, "to", line)?,
            }),
            "storeOnce" => Ok(ResponseSpec::StoreOnce {
                what: self.arg_selector(call, "what")?,
                to: self.arg_tiers(call, "to", line)?,
            }),
            "retrieve" => Ok(ResponseSpec::Retrieve {
                what: self.arg_selector(call, "what")?,
            }),
            "copy" => Ok(ResponseSpec::Copy {
                what: self.arg_selector(call, "what")?,
                to: self.arg_tiers(call, "to", line)?,
                bandwidth: self.arg_bandwidth(call, line)?,
            }),
            "move" => Ok(ResponseSpec::Move {
                what: self.arg_selector(call, "what")?,
                to: self.arg_tiers(call, "to", line)?,
                bandwidth: self.arg_bandwidth(call, line)?,
            }),
            "delete" => {
                let from = match call.arg("from") {
                    Some(ArgValue::Tiers(ts)) if ts.len() == 1 => Some(ts[0].clone()),
                    Some(_) => {
                        return Err(SpecError::new(line, "delete `from:` takes one tier"))
                    }
                    None => None,
                };
                Ok(ResponseSpec::Delete {
                    what: self.arg_selector(call, "what")?,
                    from,
                })
            }
            "encrypt" | "decrypt" => {
                let key_id = match call.arg("key") {
                    Some(ArgValue::Str(s)) => s.clone(),
                    Some(ArgValue::Tiers(ts)) if ts.len() == 1 => ts[0].clone(),
                    _ => {
                        return Err(SpecError::new(
                            line,
                            format!("{} requires `key:`", call.name),
                        ))
                    }
                };
                let what = self.arg_selector(call, "what")?;
                Ok(if call.name == "encrypt" {
                    ResponseSpec::Encrypt { what, key_id }
                } else {
                    ResponseSpec::Decrypt { what, key_id }
                })
            }
            "compress" => Ok(ResponseSpec::Compress {
                what: self.arg_selector(call, "what")?,
            }),
            "uncompress" => Ok(ResponseSpec::Uncompress {
                what: self.arg_selector(call, "what")?,
            }),
            "grow" => Ok(ResponseSpec::Grow {
                tier: self.single_tier(call, "what", line)?,
                percent: self.arg_percent(call, "increment", line)?,
            }),
            "shrink" => Ok(ResponseSpec::Shrink {
                tier: self.single_tier(call, "what", line)?,
                percent: self.arg_percent(call, "decrement", line)?,
            }),
            other => Err(SpecError::new(
                line,
                format!("unknown response `{other}`"),
            )),
        }
    }

    // ---- argument helpers ----

    fn arg_selector(&self, call: &Call, key: &str) -> Result<Selector, SpecError> {
        match call.arg(key) {
            Some(ArgValue::Selector(expr)) => Ok(lower_selector(expr)),
            Some(ArgValue::Str(name)) => Ok(Selector::Key(name.as_str().into())),
            Some(other) => Err(SpecError::new(
                call.line,
                format!("`{key}:` of {} expects a selector, found {other:?}", call.name),
            )),
            None => Err(SpecError::new(
                call.line,
                format!("{} requires `{key}:`", call.name),
            )),
        }
    }

    fn arg_tiers(&self, call: &Call, key: &str, line: u32) -> Result<Vec<String>, SpecError> {
        match call.arg(key) {
            Some(ArgValue::Tiers(ts)) => Ok(ts.clone()),
            Some(other) => Err(SpecError::new(
                line,
                format!("`{key}:` of {} expects tier name(s), found {other:?}", call.name),
            )),
            None => Err(SpecError::new(
                line,
                format!("{} requires `{key}:`", call.name),
            )),
        }
    }

    fn single_tier(&self, call: &Call, key: &str, line: u32) -> Result<String, SpecError> {
        let ts = self.arg_tiers(call, key, line)?;
        if ts.len() != 1 {
            return Err(SpecError::new(
                line,
                format!("{} `{key}:` takes exactly one tier", call.name),
            ));
        }
        Ok(ts[0].clone())
    }

    fn arg_bandwidth(&self, call: &Call, line: u32) -> Result<Option<BandwidthCap>, SpecError> {
        match call.arg("bandwidth") {
            None => Ok(None),
            Some(ArgValue::Quantity(Quantity::Rate(r))) => {
                Ok(Some(BandwidthCap::bytes_per_sec(*r)))
            }
            Some(other) => Err(SpecError::new(
                line,
                format!("`bandwidth:` expects a rate like 40KB/s, found {other:?}"),
            )),
        }
    }

    fn arg_percent(&self, call: &Call, key: &str, line: u32) -> Result<f64, SpecError> {
        match call.arg(key) {
            Some(ArgValue::Quantity(q)) => Ok(self.quantity_as_fraction(q, line)? * 100.0),
            Some(ArgValue::Tiers(ts)) if ts.len() == 1 => {
                match self.bindings.get(&ts[0]) {
                    Some(ParamValue::Percent(p)) => Ok(*p),
                    _ => Err(SpecError::new(
                        line,
                        format!("`{}` is not a bound percent parameter", ts[0]),
                    )),
                }
            }
            _ => Err(SpecError::new(
                line,
                format!("{} requires `{key}:` percentage", call.name),
            )),
        }
    }

    fn quantity_as_size(&self, q: &Quantity) -> Result<u64, SpecError> {
        match q {
            Quantity::Size(n) => Ok(*n),
            Quantity::Int(n) => Ok(*n),
            Quantity::Param(p) => match self.bindings.get(p) {
                Some(ParamValue::Size(n)) => Ok(*n),
                _ => Err(SpecError::new(
                    0,
                    format!("`{p}` is not a bound size parameter"),
                )),
            },
            other => Err(SpecError::new(0, format!("expected a size, found {other:?}"))),
        }
    }

    fn quantity_as_duration(&self, q: &Quantity, line: u32) -> Result<SimDuration, SpecError> {
        match q {
            Quantity::Duration(d) => Ok(*d),
            Quantity::Int(n) => Ok(SimDuration::from_secs(*n)), // bare seconds
            Quantity::Param(p) => match self.bindings.get(p) {
                Some(ParamValue::Duration(d)) => Ok(*d),
                _ => Err(SpecError::new(
                    line,
                    format!("`{p}` is not a bound time parameter"),
                )),
            },
            other => Err(SpecError::new(
                line,
                format!("expected a duration, found {other:?}"),
            )),
        }
    }

    /// Converts percentages to 0..=1 fractions.
    fn quantity_as_fraction(&self, q: &Quantity, line: u32) -> Result<f64, SpecError> {
        match q {
            Quantity::Percent(p) => Ok(p / 100.0),
            Quantity::Param(p) => match self.bindings.get(p) {
                Some(ParamValue::Percent(v)) => Ok(v / 100.0),
                _ => Err(SpecError::new(
                    line,
                    format!("`{p}` is not a bound percent parameter"),
                )),
            },
            other => Err(SpecError::new(
                line,
                format!("expected a percentage, found {other:?}"),
            )),
        }
    }
}

/// An analyzer error surfaced through the compiler's error type, keeping
/// the stable lint code visible (`[T001] undefined tier ...`).
fn analysis_error(diag: &Diagnostic) -> SpecError {
    SpecError::new(diag.line, format!("[{}] {}", diag.code, diag.message))
}

/// Applies wrapper attributes to a freshly created tier handle. The
/// analyzer has already rejected unknown attributes and parameters
/// (T015) and warned about redundant combinations (T013); duplicates
/// collapse to a single application. Whatever the declaration order, the
/// constructed stack is canonical — `Dedup(Compressed(inner))`, dedup
/// outermost — matching the `tiera-tierx` lock ranks.
fn wrap_tier(handle: TierHandle, attrs: &[TierAttr]) -> Result<TierHandle, SpecError> {
    let mut compress = false;
    let mut dedup = false;
    for attr in attrs {
        match attr.name.as_str() {
            "compress" => compress = true,
            "dedup" => dedup = true,
            other => {
                return Err(SpecError::new(
                    attr.line,
                    format!("unknown tier attribute `{other}`"),
                ))
            }
        }
    }
    let mut handle = handle;
    if compress {
        handle = tiera_tierx::CompressedTier::new(handle);
    }
    if dedup {
        handle = tiera_tierx::DedupTier::new(handle);
    }
    Ok(handle)
}

fn lower_selector(expr: &SelectorExpr) -> Selector {
    match expr {
        SelectorExpr::InsertObject => Selector::Inserted,
        SelectorExpr::LocationEq(t) => Selector::InTier(t.clone()),
        SelectorExpr::DirtyEq(true) => Selector::Dirty,
        SelectorExpr::DirtyEq(false) => {
            // "not dirty" has no direct selector; approximate with All∧¬dirty
            // via And over everything minus dirty is not expressible — the
            // paper never uses it; lower to All (documented limitation).
            Selector::All
        }
        SelectorExpr::TagEq(s) => Selector::Tagged(Tag::new(s)),
        SelectorExpr::Oldest(t) => Selector::OldestIn(t.clone()),
        SelectorExpr::Newest(t) => Selector::NewestIn(t.clone()),
        SelectorExpr::Named(k) => Selector::Key(k.as_str().into()),
        SelectorExpr::And(a, b) => lower_selector(a).and(lower_selector(b)),
        SelectorExpr::Not(inner) => lower_selector(inner).negate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use tiera_core::tier::MemTier;
    use tiera_core::tier::TierHandle;

    fn mem_catalog() -> TierCatalog {
        let mut c = TierCatalog::new();
        for ty in ["Memcached", "MemcachedRemote", "EBS", "S3", "EphemeralStorage"] {
            c.register(ty, |label, cap| {
                MemTier::with_capacity(label, cap) as TierHandle
            });
        }
        c
    }

    const FIG3: &str = r#"
Tiera LowLatencyInstance(time t) {
    tier1: { name: Memcached, size: 5M };
    tier2: { name: EBS, size: 5M };
    event(insert.into) : response {
        insert.object.dirty = true;
        store(what: insert.object, to: tier1);
    }
    event(time=t) : response {
        copy(what: object.location == tier1 && object.dirty == true,
             to: tier2);
    }
}
"#;

    #[test]
    fn figure_3_compiles_and_runs() {
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let spec = parse(FIG3).unwrap();
        let inst = Compiler::new(&catalog, env)
            .bind("t", ParamValue::Duration(SimDuration::from_secs(30)))
            .compile(&spec)
            .unwrap();
        assert_eq!(inst.name(), "LowLatencyInstance");
        assert_eq!(inst.tier_names(), vec!["tier1", "tier2"]);
        assert_eq!(inst.policy().len(), 2);

        use tiera_sim::SimTime;
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        let meta = inst.registry().get(&"k".into()).unwrap();
        assert!(meta.in_tier("tier1") && !meta.in_tier("tier2"));
        inst.pump(SimTime::from_secs(30)).unwrap();
        let meta = inst.registry().get(&"k".into()).unwrap();
        assert!(meta.in_tier("tier2"), "write-back fired");
    }

    #[test]
    fn a_metadata_dir_persists_the_compiled_instance() {
        use tiera_sim::SimTime;
        let dir = std::env::temp_dir().join(format!("tiera-compile-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = parse(FIG3).unwrap();
        let catalog = mem_catalog();
        let compile = || {
            Compiler::new(&catalog, SimEnv::new(5))
                .bind("t", ParamValue::Duration(SimDuration::from_secs(30)))
                .metadata_dir(&dir)
                .compile(&spec)
                .unwrap()
        };
        let inst = compile();
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        inst.pump(SimTime::ZERO).unwrap();
        drop(inst);
        let meta = compile().registry().get(&"k".into());
        assert!(
            meta.is_some_and(|m| m.in_tier("tier1")),
            "the restart recovers k"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let spec = parse(FIG3).unwrap();
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let err = Compiler::new(&catalog, env).compile(&spec).unwrap_err();
        assert!(err.message.contains("unbound"), "{err}");
    }

    #[test]
    fn mismatched_parameter_type_is_an_error() {
        let spec = parse(FIG3).unwrap();
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let err = Compiler::new(&catalog, env)
            .bind("t", ParamValue::Size(10))
            .compile(&spec)
            .unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn figure_5_lru_lowered_to_evict_until_fit() {
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
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap();
        let rules = inst.policy().snapshot();
        assert_eq!(rules.len(), 1);
        assert!(matches!(
            rules[0].1.responses[0],
            ResponseSpec::EvictUntilFit {
                order: EvictOrder::Lru,
                ..
            }
        ));
    }

    #[test]
    fn compress_attribute_builds_a_transparent_compressed_tier() {
        use tiera_sim::SimTime;
        let src = r#"
Tiera Zip() {
    tier1: { name: EBS, size: 1M, compress: lzss };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        let catalog = mem_catalog();
        let (inst, warnings) = Compiler::new(&catalog, SimEnv::new(5))
            .compile_checked(&parse(src).unwrap())
            .unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");

        let payload = b"tier tier tier tier tier tier tier tier".repeat(64);
        inst.put("k", payload.clone(), SimTime::ZERO).unwrap();
        let (read, _) = inst.get("k", SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), &payload[..], "reads are byte-identical");

        let profiles = inst.capacity_profiles();
        assert_eq!(profiles.len(), 1);
        let (name, p) = &profiles[0];
        assert_eq!(name, "tier1");
        assert_eq!(p.logical_bytes, payload.len() as u64);
        assert!(
            p.physical_bytes < p.logical_bytes,
            "physical {} < logical {}",
            p.physical_bytes,
            p.logical_bytes
        );
        assert!(inst.capacity_summary().logical_bytes > 0);
    }

    #[test]
    fn dedup_attribute_builds_a_refcounted_blob_store() {
        use tiera_sim::SimTime;
        let src = r#"
Tiera Cas() {
    tier1: { name: EBS, size: 1M, dedup: sha256 };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, SimEnv::new(5))
            .compile(&parse(src).unwrap())
            .unwrap();

        let payload = vec![7u8; 4096];
        inst.put("a", payload.clone(), SimTime::ZERO).unwrap();
        inst.put("b", payload.clone(), SimTime::ZERO).unwrap();
        let tier = inst.tier("tier1").unwrap();
        let p = tier.capacity_profile().unwrap();
        assert_eq!(p.unique_blobs, 1, "identical payloads share one blob");
        assert_eq!(p.dedup_hits, 1);
        assert_eq!(p.logical_bytes, 8192);
        assert_eq!(tier.used(), 4096);

        // Deletes reclaim only at refcount zero.
        inst.delete("a", SimTime::ZERO).unwrap();
        assert_eq!(tier.used(), 4096);
        let (read, _) = inst.get("b", SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), &payload[..]);
        inst.delete("b", SimTime::ZERO).unwrap();
        assert_eq!(tier.used(), 0, "last delete reclaims the blob");
    }

    #[test]
    fn compress_and_dedup_stack_canonically_whatever_the_spec_order() {
        use tiera_sim::SimTime;
        // `dedup` before `compress` draws the T013 warning but still
        // compiles to the canonical dedup-over-compressed stack.
        let src = r#"
Tiera Both() {
    tier1: { name: EBS, size: 1M, dedup: sha256, compress: lzss };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"#;
        let catalog = mem_catalog();
        let (inst, warnings) = Compiler::new(&catalog, SimEnv::new(5))
            .compile_checked(&parse(src).unwrap())
            .unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].code.code(), "T013");

        let payload = b"abcabcabcabc".repeat(256);
        inst.put("x", payload.clone(), SimTime::ZERO).unwrap();
        inst.put("y", payload.clone(), SimTime::ZERO).unwrap();
        let p = inst.tier("tier1").unwrap().capacity_profile().unwrap();
        assert_eq!(p.unique_blobs, 1);
        assert_eq!(p.dedup_hits, 1);
        assert!(
            p.physical_bytes < p.logical_bytes / 4,
            "dedup and compression both applied: physical {} logical {}",
            p.physical_bytes,
            p.logical_bytes
        );
        let (read, _) = inst.get("y", SimTime::ZERO).unwrap();
        assert_eq!(read.as_slice(), &payload[..]);
    }

    #[test]
    fn figure_6_grow_threshold() {
        let src = r#"
Tiera GrowingInstance() {
    tier1: { name: Memcached, size: 1M };
    event(tier1.filled == 75%) : response {
        grow(what: tier1, increment: 100%);
    }
}
"#;
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap();
        let rules = inst.policy().snapshot();
        match &rules[0].1.event {
            EventKind::Threshold { value, .. } => assert!((value - 0.75).abs() < 1e-9),
            e => panic!("{e:?}"),
        }
        match &rules[0].1.responses[0] {
            ResponseSpec::Grow { tier, percent } => {
                assert_eq!(tier, "tier1");
                assert!((percent - 100.0).abs() < 1e-9);
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn bandwidth_cap_carried_through() {
        let src = r#"
Tiera Backup() {
    tier1: { name: EBS, size: 8M };
    tier2: { name: S3, size: 64M };
    event(tier1.filled == 50%) : response {
        copy(what: object.location == tier1, to: tier2, bandwidth: 40KB/s);
    }
}
"#;
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap();
        match &inst.policy().snapshot()[0].1.responses[0] {
            ResponseSpec::Copy {
                bandwidth: Some(cap),
                ..
            } => assert!((cap.bytes_per_sec - 40_000.0).abs() < 1e-9),
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn unknown_response_rejected() {
        let src = r#"
Tiera X() {
    tier1: { name: Memcached, size: 1M };
    event(insert.into) : response {
        teleport(what: insert.object, to: tier1);
    }
}
"#;
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let err = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap_err();
        assert!(err.message.contains("unknown response"));
    }

    #[test]
    fn unknown_tier_type_rejected() {
        let src = r#"
Tiera X() {
    tier1: { name: PaperTape, size: 1M };
}
"#;
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let err = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap_err();
        assert!(err.message.contains("unknown tier type"));
    }

    #[test]
    fn tag_negation_routes_object_classes() {
        // The MemcachedS3 journal-routing policy, expressed in the DSL:
        // redo-log-tagged objects stay in the cache tier, everything else
        // persists to S3.
        let src = r#"
Tiera TagRouting() {
    tier1: { name: Memcached, size: 4M };
    tier2: { name: S3, size: 64M };
    event(insert.into) : response {
        store(what: insert.object && object.tag == "redo-log", to: tier1);
        store(what: insert.object && !object.tag == "redo-log", to: tier2);
    }
}
"#;
        let env = SimEnv::new(6);
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap();
        use tiera_core::instance::PutOptions;
        use tiera_core::object::Tag;
        use tiera_sim::SimTime;
        inst.put_with(
            "journal",
            &b"rec"[..],
            PutOptions {
                tags: vec![Tag::new("redo-log")],
            },
            SimTime::ZERO,
        )
        .unwrap();
        inst.put("page", &b"data"[..], SimTime::ZERO).unwrap();
        let j = inst.registry().get(&"journal".into()).unwrap();
        let p = inst.registry().get(&"page".into()).unwrap();
        assert!(j.in_tier("tier1") && !j.in_tier("tier2"), "{j:?}");
        assert!(p.in_tier("tier2") && !p.in_tier("tier1"), "{p:?}");
    }

    #[test]
    fn replicated_store_to_two_tiers() {
        // The MemcachedReplicated instance of §4.1.1, expressed in the DSL
        // with the tier-list extension.
        let src = r#"
Tiera MemcachedReplicated() {
    tier1: { name: Memcached, size: 4M };
    tier2: { name: MemcachedRemote, size: 4M };
    event(insert.into) : response {
        store(what: insert.object, to: [tier1, tier2]);
    }
}
"#;
        let env = SimEnv::new(5);
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, env)
            .compile(&parse(src).unwrap())
            .unwrap();
        use tiera_sim::SimTime;
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        let meta = inst.registry().get(&"k".into()).unwrap();
        assert!(meta.in_tier("tier1") && meta.in_tier("tier2"));
    }
}

//! Instantiating specifications as `tiera-core` instances.
//!
//! The compiler takes the policy the lowering yields and the analysis
//! passes have checked, binds its formal parameters (the `(time t)` of
//! Figure 3), resolves tier types through a [`TierCatalog`], and builds
//! each event clause as a [`tiera_core::policy::Rule`].

use std::path::PathBuf;
use std::sync::Arc;

use tiera_core::catalog::TierCatalog;
use tiera_core::event::{EventKind, Metric};
use tiera_core::instance::Instance;
use tiera_core::policy::Rule;
use tiera_core::response::{Guard, ResponseSpec};
use tiera_core::InstanceBuilder;
use tiera_sim::{SimDuration, SimEnv};
use tiera_support::collections::FxHashMap;

use crate::analyze::Analyzer;
use crate::ast::*;
use crate::diag::{Analysis, Diagnostic};
use crate::lower::{lower_event, Clause, Event, Response, Value};
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
    bindings: FxHashMap<String, ParamValue>,
    metadata_dir: Option<PathBuf>,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler resolving tier types against `catalog`.
    pub fn new(catalog: &'a TierCatalog, env: SimEnv) -> Self {
        Self { catalog, env, bindings: FxHashMap::default(), metadata_dir: None }
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
        let (policy, analysis) = Analyzer::new().check(spec);
        if let Some(err) = analysis.first_error() {
            return Err(analysis_error(err));
        }
        for p in &policy.params {
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
                    return Err(SpecError::new(0, format!("parameter `{}` is unbound", p.name)))
                }
            }
        }

        let mut builder = InstanceBuilder::new(policy.name.clone(), self.env.clone());
        if let Some(dir) = &self.metadata_dir {
            builder = builder.metadata_dir(dir);
        }
        for tier in &policy.tiers {
            let size = self.value(&tier.size, tier.line, "size", |v| match v {
                ParamValue::Size(n) => Some(n),
                _ => None,
            })?;
            let mut handle = self
                .catalog
                .create(&tier.type_name, &tier.label, size)
                .map_err(|e| SpecError::new(tier.line, e.to_string()))?;
            // Whatever the declaration order, the stack is canonical —
            // `Dedup(Compressed(inner))`, dedup outermost — matching the
            // `tiera-tierx` lock ranks.
            if tier.compress {
                handle = tiera_tierx::CompressedTier::new(handle);
            }
            if tier.dedup.is_some() {
                handle = tiera_tierx::DedupTier::new(handle);
            }
            builder = builder.tier_handle(handle);
        }
        if let Some(err) = policy.error {
            return Err(err);
        }
        for clause in &policy.clauses {
            builder = builder.rule(self.rule(clause)?);
        }
        let instance = builder.build().map_err(|e| SpecError::new(0, e.to_string()))?;
        Ok((instance, analysis.into_warnings()))
    }

    /// Analyzes a single event clause against a set of live tier names and
    /// compiles it to a rule — the runtime policy-addition path (paper
    /// §4.2.3). Analyzer errors reject the clause.
    pub fn compile_event_checked(
        &self,
        decl: &EventDecl,
        known_tiers: &[String],
    ) -> Result<Rule, SpecError> {
        let (clause, error, diags) = lower_event(decl, known_tiers, &[]);
        if let Some(err) = Analysis::new(diags).first_error() {
            return Err(analysis_error(err));
        }
        match error {
            Some(err) => Err(err),
            None => self.rule(&clause),
        }
    }

    fn rule(&self, clause: &Clause) -> Result<Rule, SpecError> {
        let line = clause.line;
        let event = match &clause.event {
            Event::Action { op, tier } => {
                EventKind::Action { op: *op, tier: tier.clone(), background: false }
            }
            Event::Timer(period) => EventKind::Timer {
                period: self.value(period, line, "time", |v| match v {
                    ParamValue::Duration(d) => Some(d),
                    _ => None,
                })?,
            },
            Event::Filled { tier, at_least } => EventKind::threshold_at_least(
                Metric::TierFillFraction(tier.clone()),
                self.percent(at_least, line)? / 100.0,
            ),
        };
        let mut rule = Rule::on(event).labeled(format!("spec line {line}"));
        for r in &clause.responses {
            rule = rule.respond(self.response(r, line)?);
        }
        Ok(rule)
    }

    fn response(&self, response: &Response, line: u32) -> Result<ResponseSpec, SpecError> {
        Ok(match response {
            Response::Fixed(spec, _) => spec.clone(),
            Response::Resize { tier, percent, grow } => {
                let percent = match percent {
                    // A literal passes through its fill fraction, as it
                    // always has: `p / 100.0 * 100.0` is not always `p`.
                    Value::Lit(p) => p / 100.0 * 100.0,
                    v => self.percent(v, line)?,
                };
                let tier = tier.clone();
                if *grow {
                    ResponseSpec::Grow { tier, percent }
                } else {
                    ResponseSpec::Shrink { tier, percent }
                }
            }
            Response::If { tier, at_least, then } => ResponseSpec::If {
                guard: Guard::TierFilled {
                    tier: tier.clone(),
                    at_least: match at_least {
                        Some(v) => Some(self.percent(v, line)? / 100.0),
                        None => None,
                    },
                },
                then: then.iter().map(|r| self.response(r, line)).collect::<Result<_, _>>()?,
            },
        })
    }

    /// A percentage as written (`50%` → `50.0`).
    fn percent(&self, v: &Value<f64>, line: u32) -> Result<f64, SpecError> {
        self.value(v, line, "percent", |v| match v {
            ParamValue::Percent(p) => Some(p),
            _ => None,
        })
    }

    /// Binds a lowered value: a literal as it is, a parameter to its bound
    /// value of the right kind.
    fn value<T: Copy>(
        &self,
        v: &Value<T>,
        line: u32,
        kind: &str,
        get: fn(ParamValue) -> Option<T>,
    ) -> Result<T, SpecError> {
        match v {
            Value::Lit(x) => Ok(*x),
            Value::Param(p) => self.bindings.get(p).copied().and_then(get).ok_or_else(|| {
                SpecError::new(line, format!("`{p}` is not a bound {kind} parameter"))
            }),
            Value::Invalid => Err(SpecError::new(line, format!("expected a {kind} value"))),
        }
    }
}

/// An analyzer error surfaced through the compiler's error type, keeping
/// the stable lint code visible (`[T001] undefined tier ...`).
fn analysis_error(diag: &Diagnostic) -> SpecError {
    SpecError::new(diag.line, format!("[{}] {}", diag.code, diag.message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use tiera_core::response::EvictOrder;
    use tiera_core::tier::MemTier;
    use tiera_core::tier::TierHandle;

    fn mem_catalog() -> TierCatalog {
        let mut c = TierCatalog::new();
        for ty in ["Memcached", "MemcachedRemote", "EBS", "S3", "EphemeralStorage"] {
            c.register(ty, |label, cap| MemTier::with_capacity(label, cap) as TierHandle);
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
        assert!(meta.is_some_and(|m| m.in_tier("tier1")), "the restart recovers k");
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
        let inst = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap();
        let rules = inst.policy().snapshot();
        assert_eq!(rules.len(), 1);
        assert!(matches!(
            rules[0].1.responses[0],
            ResponseSpec::EvictUntilFit { order: EvictOrder::Lru, .. }
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
        let (inst, warnings) =
            Compiler::new(&catalog, SimEnv::new(5)).compile_checked(&parse(src).unwrap()).unwrap();
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
        let inst = Compiler::new(&catalog, SimEnv::new(5)).compile(&parse(src).unwrap()).unwrap();

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
        let (inst, warnings) =
            Compiler::new(&catalog, SimEnv::new(5)).compile_checked(&parse(src).unwrap()).unwrap();
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
        let inst = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap();
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
        let inst = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap();
        match &inst.policy().snapshot()[0].1.responses[0] {
            ResponseSpec::Copy { bandwidth: Some(cap), .. } => {
                assert!((cap.bytes_per_sec - 40_000.0).abs() < 1e-9)
            }
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
        let err = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap_err();
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
        let err = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("unknown tier type"));
        assert_eq!(err.line, 3, "{err}");
    }

    #[test]
    fn dirty_false_selects_only_clean_objects() {
        use tiera_sim::SimTime;
        let src = r#"
Tiera CleanCopy() {
    tier1: { name: Memcached, size: 1M };
    tier2: { name: EBS, size: 1M };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(time=1s) : response {
        copy(what: object.location == tier1 && object.dirty == false, to: tier2);
    }
}
"#;
        let catalog = mem_catalog();
        let inst = Compiler::new(&catalog, SimEnv::new(5)).compile(&parse(src).unwrap()).unwrap();
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        inst.pump(SimTime::from_secs(2)).unwrap();
        let meta = inst.registry().get(&"k".into()).unwrap();
        assert!(
            meta.in_tier("tier1") && !meta.in_tier("tier2"),
            "a freshly PUT object is dirty, so the copy skips it: {meta:?}"
        );
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
        let inst = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap();
        use tiera_core::instance::PutOptions;
        use tiera_core::object::Tag;
        use tiera_sim::SimTime;
        inst.put_with(
            "journal",
            &b"rec"[..],
            PutOptions { tags: vec![Tag::new("redo-log")] },
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
        let inst = Compiler::new(&catalog, env).compile(&parse(src).unwrap()).unwrap();
        use tiera_sim::SimTime;
        inst.put("k", &b"v"[..], SimTime::ZERO).unwrap();
        let meta = inst.registry().get(&"k".into()).unwrap();
        assert!(meta.in_tier("tier1") && meta.in_tier("tier2"));
    }
}

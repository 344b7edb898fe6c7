//! Pretty-printer for specification ASTs.
//!
//! Renders a [`Spec`] back to canonical specification-language text. Used
//! by tooling (`tiera-server --dump-spec`), by tests (parse ∘ print is the
//! identity on ASTs — checked property-based below), and when persisting a
//! runtime-modified configuration back to a file.

use crate::ast::*;

/// Renders a full specification file.
pub fn print_spec(spec: &Spec) -> String {
    let mut out = String::new();
    out.push_str("Tiera ");
    out.push_str(&spec.name);
    out.push('(');
    for (i, p) in spec.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(match p.kind {
            ParamKind::Time => "time ",
            ParamKind::Size => "size ",
            ParamKind::Percent => "percent ",
        });
        out.push_str(&p.name);
    }
    out.push_str(") {\n");
    for tier in &spec.tiers {
        let attrs: String =
            tier.attrs.iter().map(|a| format!(", {}: {}", a.name, a.value)).collect();
        out.push_str(&format!(
            "    {}: {{ name: {}, size: {}{attrs} }};\n",
            tier.label,
            tier.type_name,
            print_quantity(&tier.size)
        ));
    }
    for event in &spec.events {
        out.push_str(&print_event(event, 1));
    }
    out.push_str("}\n");
    out
}

fn indent(level: usize) -> String {
    "    ".repeat(level)
}

/// Renders an event expression (also used by analyzer diagnostics).
pub(crate) fn print_event_expr(event: &EventExpr) -> String {
    match event {
        EventExpr::Insert { tier: None } => "insert.into".to_string(),
        EventExpr::Insert { tier: Some(t) } => format!("insert.into == {t}"),
        EventExpr::Delete { tier: None } => "delete.from".to_string(),
        EventExpr::Delete { tier: Some(t) } => format!("delete.from == {t}"),
        EventExpr::Timer { period } => format!("time={}", print_quantity(period)),
        EventExpr::Filled { tier, value } => {
            format!("{tier}.filled == {}", print_quantity(value))
        }
    }
}

fn print_event(decl: &EventDecl, level: usize) -> String {
    let mut out = String::new();
    let expr = print_event_expr(&decl.event);
    out.push_str(&format!("{}event({expr}) : response {{\n", indent(level)));
    for stmt in &decl.body {
        out.push_str(&print_stmt(stmt, level + 1));
    }
    out.push_str(&format!("{}}}\n", indent(level)));
    out
}

fn print_stmt(stmt: &Stmt, level: usize) -> String {
    match stmt {
        Stmt::Assign { path, value } => {
            format!("{}{} = {};\n", indent(level), path.join("."), value)
        }
        Stmt::If { guard, body } => {
            let GuardExpr::Filled { tier, value } = guard;
            let guard_text = match value {
                None => format!("{tier}.filled"),
                Some(v) => format!("{tier}.filled == {}", print_quantity(v)),
            };
            let mut out = format!("{}if ({guard_text}) {{\n", indent(level));
            for s in body {
                out.push_str(&print_stmt(s, level + 1));
            }
            out.push_str(&format!("{}}}\n", indent(level)));
            out
        }
        Stmt::Call(call) => {
            let args: Vec<String> =
                call.args.iter().map(|(k, v)| format!("{k}: {}", print_arg(v))).collect();
            format!("{}{}({});\n", indent(level), call.name, args.join(", "))
        }
    }
}

fn print_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::Selector(sel) => print_selector(sel),
        ArgValue::Tiers(ts) if ts.len() == 1 => ts[0].clone(),
        ArgValue::Tiers(ts) => format!("[{}]", ts.join(", ")),
        ArgValue::Quantity(q) => print_quantity(q),
        ArgValue::Str(s) => format!("\"{s}\""),
    }
}

fn print_selector(sel: &SelectorExpr) -> String {
    match sel {
        SelectorExpr::InsertObject => "insert.object".into(),
        SelectorExpr::LocationEq(t) => format!("object.location == {t}"),
        SelectorExpr::DirtyEq(b) => format!("object.dirty == {b}"),
        SelectorExpr::TagEq(s) => format!("object.tag == \"{s}\""),
        SelectorExpr::Oldest(t) => format!("{t}.oldest"),
        SelectorExpr::Newest(t) => format!("{t}.newest"),
        SelectorExpr::And(a, b) => format!("{} && {}", print_selector(a), print_selector(b)),
        // `&&` binds looser than `!`, so a negated conjunction needs its
        // parentheses.
        SelectorExpr::Not(inner) => match **inner {
            SelectorExpr::And(..) => format!("!({})", print_selector(inner)),
            _ => format!("!{}", print_selector(inner)),
        },
    }
}

/// Renders a quantity in canonical spec syntax (also used by analyzer
/// diagnostics when describing sizes).
pub(crate) fn print_quantity(q: &Quantity) -> String {
    const KIB: u64 = 1024;
    match q {
        Quantity::Size(n) => {
            // Choose the largest unit that divides exactly.
            if *n >= KIB * KIB * KIB * KIB && n % (KIB * KIB * KIB * KIB) == 0 {
                format!("{}T", n / (KIB * KIB * KIB * KIB))
            } else if *n >= KIB * KIB * KIB && n % (KIB * KIB * KIB) == 0 {
                format!("{}G", n / (KIB * KIB * KIB))
            } else if *n >= KIB * KIB && n % (KIB * KIB) == 0 {
                format!("{}M", n / (KIB * KIB))
            } else if *n >= KIB && n % KIB == 0 {
                format!("{}K", n / KIB)
            } else {
                // No exact unit: bytes have no literal; round up to K.
                format!("{}K", n.div_ceil(KIB))
            }
        }
        Quantity::Duration(d) => {
            let ns = d.as_nanos();
            if ns >= 3_600_000_000_000 && ns % 3_600_000_000_000 == 0 {
                format!("{}h", ns / 3_600_000_000_000)
            } else if ns >= 60_000_000_000 && ns % 60_000_000_000 == 0 {
                format!("{}min", ns / 60_000_000_000)
            } else if ns >= 1_000_000_000 && ns % 1_000_000_000 == 0 {
                format!("{}s", ns / 1_000_000_000)
            } else {
                format!("{}ms", ns / 1_000_000)
            }
        }
        Quantity::Percent(p) => format!("{}%", *p as u64),
        Quantity::Rate(r) => {
            if *r >= 1_000_000.0 && (*r as u64).is_multiple_of(1_000_000) {
                format!("{}MB/s", (*r as u64) / 1_000_000)
            } else if *r >= 1000.0 && (*r as u64).is_multiple_of(1000) {
                format!("{}KB/s", (*r as u64) / 1000)
            } else {
                format!("{}B/s", *r as u64)
            }
        }
        Quantity::Int(n) => n.to_string(),
        Quantity::Param(p) => p.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use tiera_support::prop::gen;
    use tiera_support::SimRng;

    #[test]
    fn prints_figure_3_shape() {
        let src = r#"
Tiera LowLatencyInstance(time t) {
    tier1: { name: Memcached, size: 5G };
    tier2: { name: EBS, size: 5G };
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
        let spec = parse(src).unwrap();
        let printed = print_spec(&spec);
        assert!(printed.contains("Tiera LowLatencyInstance(time t) {"));
        assert!(printed.contains("tier1: { name: Memcached, size: 5G };"));
        assert!(printed.contains("event(insert.into) : response {"));
        assert!(printed.contains("event(time=t) : response {"));
        assert!(printed
            .contains("copy(what: object.location == tier1 && object.dirty == true, to: tier2);"));
    }

    #[test]
    fn roundtrip_paper_figures() {
        for src in [
            r#"Tiera A() {
    tier1: { name: Memcached, size: 200M };
}"#,
            r#"Tiera B(time t, percent p) {
                tier1: { name: Memcached, size: 1G };
                tier2: { name: S3, size: 16G };
                event(tier1.filled == 75%) : response {
                    grow(what: tier1, increment: p);
                }
                event(time=t) : response {
                    copy(what: object.location == tier1, to: tier2, bandwidth: 40KB/s);
                }
            }"#,
            r#"Tiera C() {
                tier1: { name: Memcached, size: 16K };
                tier2: { name: EBS, size: 8M };
                event(insert.into == tier1) : response {
                    if (tier1.filled) {
                        move(what: tier1.oldest, to: tier2);
                    }
                    store(what: insert.object, to: [tier1, tier2]);
                }
            }"#,
            r#"Tiera D(time t) {
                tier1: { name: Memcached, size: 16K };
                tier2: { name: EBS, size: 8M };
                event(time=t) : response {
                    delete(what: !tier1.newest);
                    copy(what: !object.tag == "keep", to: tier2);
                    move(what: !(object.dirty == true && tier1.oldest), to: tier2);
                }
            }"#,
        ] {
            let ast = parse(src).expect("parses");
            let printed = print_spec(&ast);
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("printed spec must reparse: {e}\n{printed}"));
            assert_eq!(reparsed, ast, "roundtrip identity\n{printed}");
        }
    }

    // ---- property: parse(print(ast)) == ast for generated ASTs ----

    fn arb_ident(rng: &mut SimRng) -> String {
        loop {
            let mut s = gen::string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..2);
            s.push_str(&gen::string_of(rng, "abcdefghijklmnopqrstuvwxyz0123456789_", 0..9));
            let keyword = matches!(
                s.as_str(),
                "event"
                    | "response"
                    | "if"
                    | "time"
                    | "insert"
                    | "delete"
                    | "object"
                    | "name"
                    | "size"
                    | "true"
                    | "false"
            );
            if !keyword {
                return s;
            }
        }
    }

    fn arb_quantity(rng: &mut SimRng) -> Quantity {
        match rng.next_below(5) {
            0 => Quantity::Size(gen::u64_in(rng, 1..1000) * 1024),
            1 => Quantity::Size(gen::u64_in(rng, 1..1000) * 1024 * 1024),
            2 => Quantity::Duration(tiera_sim::SimDuration::from_secs(gen::u64_in(rng, 1..120))),
            3 => Quantity::Percent(gen::u64_in(rng, 1..100) as f64),
            _ => Quantity::Rate(gen::u64_in(rng, 1..1000) as f64 * 1000.0),
        }
    }

    /// A selector of up to `depth` levels of `&&` and `!` nesting; a `!`
    /// may apply to a conjunction.
    fn arb_selector(rng: &mut SimRng, depth: u32) -> SelectorExpr {
        if depth > 0 && rng.chance(0.4) {
            return SelectorExpr::And(
                Box::new(arb_selector(rng, depth - 1)),
                Box::new(arb_selector(rng, depth - 1)),
            );
        }
        if depth > 0 && rng.chance(0.25) {
            return SelectorExpr::Not(Box::new(arb_selector(rng, depth - 1)));
        }
        match rng.next_below(7) {
            0 => SelectorExpr::InsertObject,
            1 => SelectorExpr::LocationEq(arb_ident(rng)),
            2 => SelectorExpr::DirtyEq(true),
            3 => SelectorExpr::DirtyEq(false),
            4 => SelectorExpr::Oldest(arb_ident(rng)),
            5 => SelectorExpr::Newest(arb_ident(rng)),
            _ => SelectorExpr::TagEq(gen::string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..7)),
        }
    }

    fn arb_call(rng: &mut SimRng) -> Call {
        let sel = arb_selector(rng, 2);
        let tier = arb_ident(rng);
        let name = *gen::pick(rng, &["store", "copy", "move"]);
        Call {
            name: name.to_string(),
            args: vec![
                ("what".into(), ArgValue::Selector(sel)),
                ("to".into(), ArgValue::Tiers(vec![tier])),
            ],
            line: 0,
        }
    }

    /// Zero to two wrapper attributes, including invalid names/values —
    /// the printer must round-trip whatever the parser accepts, not just
    /// what the analyzer blesses.
    fn arb_attrs(rng: &mut SimRng) -> Vec<TierAttr> {
        gen::vec_of(rng, 0..3, |rng| TierAttr {
            name: gen::pick(rng, &["compress", "dedup", "shiny"]).to_string(),
            value: gen::pick(rng, &["lzss", "sha256", "fast"]).to_string(),
            line: 0,
        })
    }

    fn arb_spec(rng: &mut SimRng) -> Spec {
        let mut name = gen::string_of(rng, "ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1..2);
        name.push_str(&gen::string_of(
            rng,
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            0..11,
        ));
        let tiers: Vec<TierDecl> =
            gen::vec_of(rng, 1..4, |rng| (arb_ident(rng), arb_quantity(rng)))
                .into_iter()
                .enumerate()
                .map(|(i, (ty, size))| TierDecl {
                    label: format!("tier{i}"),
                    type_name: ty,
                    // Tier sizes must be sizes, not durations/percents.
                    size: match size {
                        Quantity::Size(n) => Quantity::Size(n),
                        _ => Quantity::Size(1024 * 1024),
                    },
                    attrs: arb_attrs(rng),
                    line: 0,
                })
                .collect();
        let events: Vec<EventDecl> = gen::vec_of(rng, 0..4, arb_call)
            .into_iter()
            .map(|c| EventDecl {
                event: EventExpr::Insert { tier: None },
                body: vec![Stmt::Call(c)],
                line: 0,
            })
            .collect();
        Spec { name, params: vec![], tiers, events }
    }

    /// Flattens `&&` chains and rebuilds them left-associated (the
    /// parser's shape); `a && b && c` has one textual form but two tree
    /// shapes.
    fn normalize_selector(sel: SelectorExpr) -> SelectorExpr {
        fn flatten(sel: SelectorExpr, out: &mut Vec<SelectorExpr>) {
            match sel {
                SelectorExpr::And(a, b) => {
                    flatten(*a, out);
                    flatten(*b, out);
                }
                SelectorExpr::Not(inner) => {
                    out.push(SelectorExpr::Not(Box::new(normalize_selector(*inner))))
                }
                leaf => out.push(leaf),
            }
        }
        let mut leaves = Vec::new();
        flatten(sel, &mut leaves);
        let mut it = leaves.into_iter();
        let first = it.next().expect("at least one leaf");
        it.fold(first, |acc, next| SelectorExpr::And(Box::new(acc), Box::new(next)))
    }

    /// Strips source-line info and normalizes selector association so
    /// structural equality ignores position and tree shape.
    fn strip_lines(mut spec: Spec) -> Spec {
        for t in &mut spec.tiers {
            t.line = 0;
            for a in &mut t.attrs {
                a.line = 0;
            }
        }
        for e in &mut spec.events {
            e.line = 0;
            for s in &mut e.body {
                if let Stmt::Call(c) = s {
                    c.line = 0;
                    for (_, v) in &mut c.args {
                        if let ArgValue::Selector(sel) = v {
                            *sel = normalize_selector(sel.clone());
                        }
                    }
                }
            }
        }
        spec
    }

    #[test]
    fn prop_print_parse_roundtrip() {
        tiera_support::prop_check!(cases = 64, |rng| {
            let spec = arb_spec(rng);
            let printed = print_spec(&spec);
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("printed spec must reparse: {e}\n{printed}"));
            assert_eq!(strip_lines(reparsed), strip_lines(spec), "{printed}");
        });
    }
}

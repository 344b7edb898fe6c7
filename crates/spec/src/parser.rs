//! Recursive-descent parser for instance specifications.

use crate::ast::*;
use crate::token::{lex, Token, TokenKind};
use crate::SpecError;

/// Parses a specification source into a [`Spec`].
pub fn parse(src: &str) -> Result<Spec, SpecError> {
    let tokens = lex(src)?;
    Parser { tokens, pos: 0 }.spec()
}

/// Parses a single `event(...) : response { ... }` clause — the unit of
/// runtime policy addition (paper §4.2.3: new event-response pairs can be
/// installed on a running instance).
pub fn parse_event(src: &str) -> Result<EventDecl, SpecError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let decl = p.event_decl()?;
    if p.pos != p.tokens.len() {
        return Err(SpecError::new(p.line(), "trailing input after event clause"));
    }
    Ok(decl)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Result<Token, SpecError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SpecError::new(self.line(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), SpecError> {
        let t = self.next()?;
        if &t.kind == kind {
            Ok(())
        } else {
            Err(SpecError::new(t.line, format!("expected {kind}, found {}", t.kind)))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, SpecError> {
        let t = self.next()?;
        match t.kind {
            TokenKind::Ident(s) => Ok(s),
            other => Err(SpecError::new(t.line, format!("expected identifier, found {other}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), SpecError> {
        let line = self.line();
        let id = self.ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(SpecError::new(line, format!("expected `{kw}`, found `{id}`")))
        }
    }

    // spec := "Tiera" IDENT "(" params? ")" "{" item* "}"
    fn spec(&mut self) -> Result<Spec, SpecError> {
        self.keyword("Tiera")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&TokenKind::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let mut tiers = Vec::new();
        let mut events = Vec::new();
        while self.peek() != Some(&TokenKind::RBrace) {
            match self.peek() {
                Some(TokenKind::Ident(id)) if id == "event" => events.push(self.event_decl()?),
                Some(TokenKind::Ident(_)) => tiers.push(self.tier_decl()?),
                _ => {
                    return Err(SpecError::new(
                        self.line(),
                        "expected a tier declaration or an event clause",
                    ))
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        if self.pos != self.tokens.len() {
            return Err(SpecError::new(self.line(), "trailing input after closing `}`"));
        }
        Ok(Spec { name, params, tiers, events })
    }

    fn param(&mut self) -> Result<Param, SpecError> {
        let line = self.line();
        let kind_name = self.ident()?;
        let kind = match kind_name.as_str() {
            "time" => ParamKind::Time,
            "size" => ParamKind::Size,
            "percent" => ParamKind::Percent,
            other => {
                return Err(SpecError::new(
                    line,
                    format!("unknown parameter type `{other}` (expected time/size/percent)"),
                ))
            }
        };
        let name = self.ident()?;
        Ok(Param { kind, name })
    }

    // tier_decl := IDENT ":" "{" "name" ":" IDENT "," "size" ":" qty
    //              ("," IDENT ":" IDENT)* "}" ";"
    fn tier_decl(&mut self) -> Result<TierDecl, SpecError> {
        let line = self.line();
        let label = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        self.expect(&TokenKind::LBrace)?;
        self.keyword("name")?;
        self.expect(&TokenKind::Colon)?;
        let type_name = self.ident()?;
        self.expect(&TokenKind::Comma)?;
        self.keyword("size")?;
        self.expect(&TokenKind::Colon)?;
        let size = self.quantity()?;
        // Optional wrapper attributes (`compress: lzss`, `dedup: sha256`).
        // The parser stays liberal — any `ident: ident` pair is accepted;
        // the analyzer's T013–T015 judge names and values.
        let mut attrs = Vec::new();
        while self.eat(&TokenKind::Comma) {
            let attr_line = self.line();
            let name = self.ident()?;
            self.expect(&TokenKind::Colon)?;
            let value = self.ident()?;
            attrs.push(TierAttr { name, value, line: attr_line });
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Semi)?;
        Ok(TierDecl { label, type_name, size, attrs, line })
    }

    fn quantity(&mut self) -> Result<Quantity, SpecError> {
        let t = self.next()?;
        match t.kind {
            TokenKind::Size(n) => Ok(Quantity::Size(n)),
            TokenKind::Duration(d) => Ok(Quantity::Duration(d)),
            TokenKind::Percent(p) => Ok(Quantity::Percent(p)),
            TokenKind::Rate(r) => Ok(Quantity::Rate(r)),
            TokenKind::Int(n) => Ok(Quantity::Int(n)),
            TokenKind::Ident(name) => Ok(Quantity::Param(name)),
            other => Err(SpecError::new(t.line, format!("expected a quantity, found {other}"))),
        }
    }

    // event_decl := "event" "(" event_expr ")" ":" "response" "{" stmt* "}"
    fn event_decl(&mut self) -> Result<EventDecl, SpecError> {
        let line = self.line();
        self.keyword("event")?;
        self.expect(&TokenKind::LParen)?;
        let event = self.event_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Colon)?;
        self.keyword("response")?;
        self.expect(&TokenKind::LBrace)?;
        let body = self.stmt_block_body()?;
        Ok(EventDecl { event, body, line })
    }

    fn event_expr(&mut self) -> Result<EventExpr, SpecError> {
        let line = self.line();
        let head = self.ident()?;
        match head.as_str() {
            "insert" => {
                self.expect(&TokenKind::Dot)?;
                self.keyword("into")?;
                let tier = if self.eat(&TokenKind::Eq) { Some(self.ident()?) } else { None };
                Ok(EventExpr::Insert { tier })
            }
            "delete" => {
                self.expect(&TokenKind::Dot)?;
                self.keyword("from")?;
                let tier = if self.eat(&TokenKind::Eq) { Some(self.ident()?) } else { None };
                Ok(EventExpr::Delete { tier })
            }
            "time" => {
                self.expect(&TokenKind::Assign)?;
                let period = self.quantity()?;
                Ok(EventExpr::Timer { period })
            }
            tier => {
                // `tierN.filled == 75%`
                self.expect(&TokenKind::Dot)?;
                self.keyword("filled").map_err(|e| SpecError::new(line, e.message))?;
                self.expect(&TokenKind::Eq)?;
                let value = self.quantity()?;
                Ok(EventExpr::Filled { tier: tier.to_string(), value })
            }
        }
    }

    /// Parses statements until the closing `}` (consumed).
    fn stmt_block_body(&mut self) -> Result<Vec<Stmt>, SpecError> {
        let mut body = Vec::new();
        while self.peek() != Some(&TokenKind::RBrace) {
            body.push(self.stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, SpecError> {
        match self.peek() {
            Some(TokenKind::Ident(id)) if id == "if" => {
                self.keyword("if")?;
                self.expect(&TokenKind::LParen)?;
                let guard = self.guard_expr()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::LBrace)?;
                let body = self.stmt_block_body()?;
                Ok(Stmt::If { guard, body })
            }
            Some(TokenKind::Ident(_)) => {
                // Either a call `name(args);` or an assignment `a.b.c = v;`.
                if self.peek2() == Some(&TokenKind::LParen) {
                    let call = self.call()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Call(call))
                } else {
                    let path = self.dotted_path()?;
                    self.expect(&TokenKind::Assign)?;
                    let t = self.next()?;
                    let value = match t.kind {
                        TokenKind::Ident(s) => s,
                        TokenKind::Int(n) => n.to_string(),
                        other => {
                            return Err(SpecError::new(
                                t.line,
                                format!("expected assignment value, found {other}"),
                            ))
                        }
                    };
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Assign { path, value })
                }
            }
            _ => Err(SpecError::new(self.line(), "expected a statement")),
        }
    }

    fn guard_expr(&mut self) -> Result<GuardExpr, SpecError> {
        let tier = self.ident()?;
        self.expect(&TokenKind::Dot)?;
        self.keyword("filled")?;
        let value = if self.eat(&TokenKind::Eq) { Some(self.quantity()?) } else { None };
        Ok(GuardExpr::Filled { tier, value })
    }

    fn dotted_path(&mut self) -> Result<Vec<String>, SpecError> {
        let mut path = vec![self.ident()?];
        while self.eat(&TokenKind::Dot) {
            path.push(self.ident()?);
        }
        Ok(path)
    }

    fn call(&mut self) -> Result<Call, SpecError> {
        let line = self.line();
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&TokenKind::RParen) {
            loop {
                let key = self.ident()?;
                self.expect(&TokenKind::Colon)?;
                let value = self.arg_value()?;
                args.push((key, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Call { name, args, line })
    }

    fn arg_value(&mut self) -> Result<ArgValue, SpecError> {
        match self.peek() {
            Some(TokenKind::Str(_)) => {
                let t = self.next()?;
                match t.kind {
                    TokenKind::Str(s) => Ok(ArgValue::Str(s)),
                    other => Err(SpecError::new(
                        t.line,
                        format!("expected a string literal, found {other}"),
                    )),
                }
            }
            Some(
                TokenKind::Size(_)
                | TokenKind::Duration(_)
                | TokenKind::Percent(_)
                | TokenKind::Rate(_)
                | TokenKind::Int(_),
            ) => Ok(ArgValue::Quantity(self.quantity()?)),
            Some(TokenKind::LBracket) => {
                // Extension: `[tier1, tier2]` tier lists (used by instances
                // that replicate a write to several tiers in parallel).
                self.expect(&TokenKind::LBracket)?;
                let mut tiers = Vec::new();
                loop {
                    tiers.push(self.ident()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                Ok(ArgValue::Tiers(tiers))
            }
            Some(TokenKind::Ident(_) | TokenKind::Bang) => self.selector_or_tier(),
            _ => Err(SpecError::new(self.line(), "expected an argument value")),
        }
    }

    /// Parses either a selector expression or a bare tier/parameter name.
    fn selector_or_tier(&mut self) -> Result<ArgValue, SpecError> {
        let first = self.selector_primary()?;
        match first {
            Primary::Bare(name) => {
                // A bare identifier with no conjunction: tier label or
                // parameter reference — the compiler decides by keyword.
                if self.peek() == Some(&TokenKind::AndAnd) {
                    return Err(SpecError::new(
                        self.line(),
                        format!("`{name}` is not a selector predicate"),
                    ));
                }
                Ok(ArgValue::Tiers(vec![name]))
            }
            Primary::Selector(sel) => Ok(ArgValue::Selector(self.conjunction(sel)?)),
        }
    }

    /// Parses the `&& predicate` tail of a conjunction starting at `sel`.
    fn conjunction(&mut self, mut sel: SelectorExpr) -> Result<SelectorExpr, SpecError> {
        while self.eat(&TokenKind::AndAnd) {
            sel = SelectorExpr::And(Box::new(sel), Box::new(self.predicate()?));
        }
        Ok(sel)
    }

    /// Parses a selector primary that must be a predicate, not a bare name.
    fn predicate(&mut self) -> Result<SelectorExpr, SpecError> {
        match self.selector_primary()? {
            Primary::Selector(sel) => Ok(sel),
            Primary::Bare(name) => {
                Err(SpecError::new(self.line(), format!("`{name}` is not a selector predicate")))
            }
        }
    }

    fn selector_primary(&mut self) -> Result<Primary, SpecError> {
        if self.eat(&TokenKind::Bang) {
            let line = self.line();
            // `!(a && b)`: a negated conjunction.
            if self.eat(&TokenKind::LParen) {
                let first = self.predicate()?;
                let inner = self.conjunction(first)?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Primary::Selector(SelectorExpr::Not(Box::new(inner))));
            }
            return match self.selector_primary()? {
                Primary::Selector(inner) => {
                    Ok(Primary::Selector(SelectorExpr::Not(Box::new(inner))))
                }
                Primary::Bare(name) => Err(SpecError::new(
                    line,
                    format!("`!{name}` — `!` applies to selector predicates"),
                )),
            };
        }
        let line = self.line();
        let head = self.ident()?;
        if !self.eat(&TokenKind::Dot) {
            return Ok(Primary::Bare(head));
        }
        let field = self.ident()?;
        match (head.as_str(), field.as_str()) {
            ("insert", "object") => Ok(Primary::Selector(SelectorExpr::InsertObject)),
            ("object", "location") => {
                self.expect(&TokenKind::Eq)?;
                let tier = self.ident()?;
                Ok(Primary::Selector(SelectorExpr::LocationEq(tier)))
            }
            ("object", "dirty") => {
                self.expect(&TokenKind::Eq)?;
                let line = self.line();
                let v = self.ident()?;
                match v.as_str() {
                    "true" => Ok(Primary::Selector(SelectorExpr::DirtyEq(true))),
                    "false" => Ok(Primary::Selector(SelectorExpr::DirtyEq(false))),
                    other => Err(SpecError::new(
                        line,
                        format!("expected true/false after object.dirty ==, found `{other}`"),
                    )),
                }
            }
            ("object", "tag") => {
                self.expect(&TokenKind::Eq)?;
                let t = self.next()?;
                match t.kind {
                    TokenKind::Str(s) => Ok(Primary::Selector(SelectorExpr::TagEq(s))),
                    other => Err(SpecError::new(
                        t.line,
                        format!("expected a string after object.tag ==, found {other}"),
                    )),
                }
            }
            (tier, "oldest") => Ok(Primary::Selector(SelectorExpr::Oldest(tier.to_string()))),
            (tier, "newest") => Ok(Primary::Selector(SelectorExpr::Newest(tier.to_string()))),
            (a, b) => Err(SpecError::new(line, format!("unknown selector `{a}.{b}`"))),
        }
    }
}

enum Primary {
    Selector(SelectorExpr),
    Bare(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_sim::SimDuration;

    /// Figure 3 of the paper, verbatim (modulo line wrapping).
    pub const FIG3: &str = r#"
Tiera LowLatencyInstance(time t) {
    % two tiers specified with initial sizes
    tier1: { name: Memcached, size: 5G };
    tier2: { name: EBS, size: 5G };
    % action event defined to always store data
    % into Memcached
    event(insert.into) : response {
        insert.object.dirty = true;
        store(what: insert.object, to: tier1);
    }
    % write back policy: copying data to
    % persistent store on a timer event
    event(time=t) : response {
        copy(what: object.location == tier1 &&
                   object.dirty == true,
             to: tier2);
    }
}
"#;

    #[test]
    fn parses_figure_3() {
        let spec = parse(FIG3).unwrap();
        assert_eq!(spec.name, "LowLatencyInstance");
        assert_eq!(spec.params.len(), 1);
        assert_eq!(spec.params[0].name, "t");
        assert_eq!(spec.params[0].kind, ParamKind::Time);
        assert_eq!(spec.tiers.len(), 2);
        assert_eq!(spec.tiers[0].label, "tier1");
        assert_eq!(spec.tiers[0].type_name, "Memcached");
        assert_eq!(spec.tiers[0].size, Quantity::Size(5 << 30));
        assert_eq!(spec.events.len(), 2);
        match &spec.events[0].event {
            EventExpr::Insert { tier: None } => {}
            e => panic!("unexpected event {e:?}"),
        }
        // Body: assignment (validated+discarded later) + store call.
        assert_eq!(spec.events[0].body.len(), 2);
        match &spec.events[1].event {
            EventExpr::Timer { period: Quantity::Param(p) } => assert_eq!(p, "t"),
            e => panic!("unexpected event {e:?}"),
        }
        match &spec.events[1].body[0] {
            Stmt::Call(c) => {
                assert_eq!(c.name, "copy");
                match c.arg("what") {
                    Some(ArgValue::Selector(SelectorExpr::And(a, b))) => {
                        assert_eq!(**a, SelectorExpr::LocationEq("tier1".into()));
                        assert_eq!(**b, SelectorExpr::DirtyEq(true));
                    }
                    other => panic!("unexpected what {other:?}"),
                }
                assert_eq!(c.arg("to"), Some(&ArgValue::Tiers(vec!["tier2".into()])));
            }
            s => panic!("unexpected stmt {s:?}"),
        }
    }

    #[test]
    fn parses_figure_4_threshold_and_bandwidth() {
        let src = r#"
Tiera PersistentInstance() {
    tier1: { name: Memcached, size: 200M };
    tier2: { name: EBS, size: 1G };
    tier3: { name: S3, size: 10G};
    % write-through policy using action event and copy response
    event(insert.into == tier1) : response {
        copy(what: insert.object, to: tier2);
    }
    % simple backup policy
    event(tier2.filled == 50%) : response {
        copy(what: object.location == tier2,
             to: tier3, bandwidth: 40KB/s);
    }
}
"#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.tiers.len(), 3);
        match &spec.events[0].event {
            EventExpr::Insert { tier: Some(t) } => assert_eq!(t, "tier1"),
            e => panic!("{e:?}"),
        }
        match &spec.events[1].event {
            EventExpr::Filled { tier, value } => {
                assert_eq!(tier, "tier2");
                assert_eq!(value, &Quantity::Percent(50.0));
            }
            e => panic!("{e:?}"),
        }
        match &spec.events[1].body[0] {
            Stmt::Call(c) => {
                assert_eq!(c.arg("bandwidth"), Some(&ArgValue::Quantity(Quantity::Rate(40_000.0))));
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn parses_figure_5_lru_if_statement() {
        let src = r#"
Tiera LruInstance() {
    tier1: { name: Memcached, size: 200M };
    tier2: { name: EBS, size: 2G };
    % LRU Policy
    event(insert.into == tier1) : response {
        if (tier1.filled) {
            % Evict the oldest item to another tier
            move(what: tier1.oldest, to: tier2);
        }
        store(what: insert.object, to: tier1);
    }
}
"#;
        let spec = parse(src).unwrap();
        let body = &spec.events[0].body;
        assert_eq!(body.len(), 2);
        match &body[0] {
            Stmt::If { guard, body } => {
                assert_eq!(guard, &GuardExpr::Filled { tier: "tier1".into(), value: None });
                match &body[0] {
                    Stmt::Call(c) => {
                        assert_eq!(c.name, "move");
                        assert_eq!(
                            c.arg("what"),
                            Some(&ArgValue::Selector(SelectorExpr::Oldest("tier1".into())))
                        );
                    }
                    s => panic!("{s:?}"),
                }
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn parses_figure_6_grow() {
        let src = r#"
Tiera GrowingInstance(time t) {
    tier1: { name: Memcached, size: 200M };
    tier2: { name: EBS, size: 2G };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event(tier1.filled == 75%) : response {
        grow(what: tier1, increment: 100%);
    }
    event(time=t) : response {
        move(what: object.location == tier1, to: tier2);
    }
}
"#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.events.len(), 3);
        match &spec.events[1].body[0] {
            Stmt::Call(c) => {
                assert_eq!(c.name, "grow");
                assert_eq!(c.arg("what"), Some(&ArgValue::Tiers(vec!["tier1".into()])));
                assert_eq!(c.arg("increment"), Some(&ArgValue::Quantity(Quantity::Percent(100.0))));
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn tier_list_extension() {
        let src = r#"
Tiera Replicated() {
    tier1: { name: Memcached, size: 1G };
    tier2: { name: MemcachedRemote, size: 1G };
    event(insert.into) : response {
        store(what: insert.object, to: [tier1, tier2]);
    }
}
"#;
        let spec = parse(src).unwrap();
        match &spec.events[0].body[0] {
            Stmt::Call(c) => assert_eq!(
                c.arg("to"),
                Some(&ArgValue::Tiers(vec!["tier1".into(), "tier2".into()]))
            ),
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn timer_duration_literal() {
        let src = r#"
Tiera T() {
    tier1: { name: Memcached, size: 1G };
    event(time=2min) : response {
        retrieve(what: insert.object);
    }
}
"#;
        let spec = parse(src).unwrap();
        match &spec.events[0].event {
            EventExpr::Timer { period: Quantity::Duration(d) } => {
                assert_eq!(*d, SimDuration::from_secs(120))
            }
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let src = "Tiera X() {\n  tier1: { name: Memcached size: 1G };\n}";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let src = "Tiera X() { tier1: { name: Memcached, size: 1G }; } extra";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_unknown_selector() {
        let src = r#"
Tiera X() {
    tier1: { name: Memcached, size: 1G };
    event(insert.into) : response {
        store(what: object.color == tier1, to: tier1);
    }
}
"#;
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unknown selector") || err.message.contains("expected"));
    }
}

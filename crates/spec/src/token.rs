//! Lexer for the specification language.
//!
//! Notable token shapes, straight from the paper's figures:
//!
//! * `%` starts a comment running to end of line;
//! * quantities carry unit suffixes lexed as single tokens: sizes
//!   (`5G`, `200M`, `16K`), percentages (`75%`), rates (`40KB/s`),
//!   durations (`2min`, `30s`);
//! * `==` (comparison) and `=` (assignment / timer binding) are distinct;
//! * `&&` conjoins selector predicates.

use crate::SpecError;

/// A lexical token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind/payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (`tier1`, `event`, `store`, `insert` ...).
    Ident(String),
    /// Quoted string literal.
    Str(String),
    /// Bare integer.
    Int(u64),
    /// Size in bytes (`5G` → 5 GiB).
    Size(u64),
    /// Percentage (`75%` → 75.0).
    Percent(f64),
    /// Transfer rate in bytes/second (`40KB/s` → 40_000).
    Rate(f64),
    /// Duration (`2min`, `30s`).
    Duration(tiera_sim::SimDuration),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `==`
    Eq,
    /// `&&`
    AndAnd,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `!` (selector negation)
    Bang,
}

impl std::fmt::Display for TokenKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::Int(n) => write!(f, "integer {n}"),
            TokenKind::Size(n) => write!(f, "size ({n} bytes)"),
            TokenKind::Percent(p) => write!(f, "percentage {p}%"),
            TokenKind::Rate(r) => write!(f, "rate {r} B/s"),
            TokenKind::Duration(d) => write!(f, "duration {d}"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Assign => f.write_str("`=`"),
            TokenKind::Eq => f.write_str("`==`"),
            TokenKind::AndAnd => f.write_str("`&&`"),
            TokenKind::LBracket => f.write_str("`[`"),
            TokenKind::RBracket => f.write_str("`]`"),
            TokenKind::Bang => f.write_str("`!`"),
        }
    }
}

const KIB: u64 = 1024;

fn classify_number(digits: u64, suffix: &str, line: u32) -> Result<TokenKind, SpecError> {
    use tiera_sim::SimDuration;
    // Multiplications are checked: `99999999999T` must be a diagnostic, not
    // a wrap-around size (or a debug-build panic).
    let overflow = || SpecError::new(line, format!("quantity out of range: {digits}{suffix}"));
    let size = |mult: u64| digits.checked_mul(mult).map(TokenKind::Size).ok_or_else(overflow);
    let duration = |secs_mult: u64| {
        digits
            .checked_mul(secs_mult)
            .and_then(|s| s.checked_mul(1_000_000_000))
            .map(|ns| TokenKind::Duration(SimDuration::from_nanos(ns)))
            .ok_or_else(overflow)
    };
    match suffix {
        "" => Ok(TokenKind::Int(digits)),
        "%" => Ok(TokenKind::Percent(digits as f64)),
        "K" | "KB" => size(KIB),
        "M" | "MB" => size(KIB * KIB),
        "G" | "GB" => size(KIB * KIB * KIB),
        "T" | "TB" => size(KIB * KIB * KIB * KIB),
        "B/s" => Ok(TokenKind::Rate(digits as f64)),
        "KB/s" => Ok(TokenKind::Rate(digits as f64 * 1000.0)),
        "MB/s" => Ok(TokenKind::Rate(digits as f64 * 1000.0 * 1000.0)),
        "ms" => digits
            .checked_mul(1_000_000)
            .map(|ns| TokenKind::Duration(SimDuration::from_nanos(ns)))
            .ok_or_else(overflow),
        "s" | "sec" | "secs" => duration(1),
        "min" | "mins" => duration(60),
        "h" | "hr" | "hrs" => duration(3600),
        other => Err(SpecError::new(line, format!("unknown unit suffix `{other}` after {digits}"))),
    }
}

/// Lexes a specification source into tokens.
pub fn lex(src: &str) -> Result<Vec<Token>, SpecError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '%' => {
                // Percent is also the comment marker; a `%` directly after a
                // number was consumed by the number lexer, so a bare `%`
                // starts a comment.
                while i < bytes.len() && bytes[i] as char != '\n' {
                    i += 1;
                }
            }
            '{' => {
                tokens.push(Token { kind: TokenKind::LBrace, line });
                i += 1;
            }
            '}' => {
                tokens.push(Token { kind: TokenKind::RBrace, line });
                i += 1;
            }
            '(' => {
                tokens.push(Token { kind: TokenKind::LParen, line });
                i += 1;
            }
            ')' => {
                tokens.push(Token { kind: TokenKind::RParen, line });
                i += 1;
            }
            ':' => {
                tokens.push(Token { kind: TokenKind::Colon, line });
                i += 1;
            }
            ';' => {
                tokens.push(Token { kind: TokenKind::Semi, line });
                i += 1;
            }
            ',' => {
                tokens.push(Token { kind: TokenKind::Comma, line });
                i += 1;
            }
            '.' => {
                tokens.push(Token { kind: TokenKind::Dot, line });
                i += 1;
            }
            '[' => {
                tokens.push(Token { kind: TokenKind::LBracket, line });
                i += 1;
            }
            ']' => {
                tokens.push(Token { kind: TokenKind::RBracket, line });
                i += 1;
            }
            '!' => {
                tokens.push(Token { kind: TokenKind::Bang, line });
                i += 1;
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token { kind: TokenKind::AndAnd, line });
                    i += 2;
                } else {
                    return Err(SpecError::new(line, "expected `&&`"));
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Eq, line });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Assign, line });
                    i += 1;
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != '"' {
                    if bytes[j] as char == '\n' {
                        return Err(SpecError::new(line, "unterminated string literal"));
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(SpecError::new(line, "unterminated string literal"));
                }
                tokens.push(Token { kind: TokenKind::Str(src[start..j].to_string()), line });
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let digits: u64 = src[start..i].parse().map_err(|_| {
                    SpecError::new(line, format!("number out of range: {}", &src[start..i]))
                })?;
                // Unit suffix: letters, '%', and an optional '/s'.
                let sstart = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphabetic() || bytes[i] == b'%' || bytes[i] == b'/')
                {
                    i += 1;
                }
                let kind = classify_number(digits, &src[sstart..i], line)?;
                tokens.push(Token { kind, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token { kind: TokenKind::Ident(src[start..i].to_string()), line });
            }
            other => return Err(SpecError::new(line, format!("unexpected character `{other}`"))),
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_sim::SimDuration;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn sizes_percentages_rates_durations() {
        assert_eq!(
            kinds("5G 200M 16K 75% 40KB/s 2min 30s"),
            vec![
                TokenKind::Size(5 << 30),
                TokenKind::Size(200 << 20),
                TokenKind::Size(16 << 10),
                TokenKind::Percent(75.0),
                TokenKind::Rate(40_000.0),
                TokenKind::Duration(SimDuration::from_secs(120)),
                TokenKind::Duration(SimDuration::from_secs(30)),
            ]
        );
    }

    #[test]
    fn comments_skipped_to_eol() {
        let toks = kinds("tier1 % two tiers specified with initial sizes\ntier2");
        assert_eq!(toks, vec![TokenKind::Ident("tier1".into()), TokenKind::Ident("tier2".into())]);
    }

    #[test]
    fn eq_vs_assign_and_andand() {
        assert_eq!(
            kinds("a == b && c = d"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Eq,
                TokenKind::Ident("b".into()),
                TokenKind::AndAnd,
                TokenKind::Ident("c".into()),
                TokenKind::Assign,
                TokenKind::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn dotted_paths_tokenize() {
        assert_eq!(
            kinds("insert.object.dirty"),
            vec![
                TokenKind::Ident("insert".into()),
                TokenKind::Dot,
                TokenKind::Ident("object".into()),
                TokenKind::Dot,
                TokenKind::Ident("dirty".into()),
            ]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn bad_suffix_rejected_with_line() {
        let err = lex("x\n5Q").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unit suffix"));
    }

    #[test]
    fn string_literals() {
        assert_eq!(kinds("\"tmp\""), vec![TokenKind::Str("tmp".into())]);
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn single_ampersand_rejected() {
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn overflowing_quantities_are_errors_not_panics() {
        for src in [
            "99999999999999999T",
            "18446744073709551615G",
            "99999999999999999999",
            "18446744073709551615s",
            "999999999999999999min",
            "18446744073709551615ms",
        ] {
            match lex(src) {
                Err(e) => {
                    assert!(e.message.contains("out of range"), "{src}: unexpected message {e}")
                }
                Ok(t) => panic!("{src}: lexed as {t:?}"),
            }
        }
        // The largest representable values still lex.
        assert!(lex("18446744073709551615").is_ok());
        assert!(lex("17179869183G").is_ok()); // (2^34 - 1) GiB < 2^64 bytes
    }
}

//! Property tests for the spec analyzer.
//!
//! The load-bearing property: analysis is a function of the *structure* of
//! a spec, not of the text that happened to produce it. Printing a parsed
//! spec and re-parsing it must yield byte-identical rendered diagnostics —
//! otherwise `tiera-lint` output would depend on formatting, and the
//! golden tests in `lint_golden.rs` would be meaningless.
//!
//! Generated specs deliberately include broken shapes (undefined tiers,
//! out-of-range percents, zero timers, movement cycles) so the property
//! exercises the diagnostic paths, not just the clean path.

use tiera_spec::{analyze, parse, print_spec};
use tiera_support::prop::gen;
use tiera_support::{prop_check, SimRng};

/// A random specification in concrete syntax. Always parseable; often
/// semantically wrong on purpose. `tier9` is never declared, so picking it
/// plants a T001.
fn arb_spec_source(rng: &mut SimRng) -> String {
    let n_tiers = gen::usize_in(rng, 1..4);
    let tier = |rng: &mut SimRng| {
        if rng.chance(0.1) {
            "tier9".to_string()
        } else {
            format!("tier{}", gen::usize_in(rng, 1..n_tiers + 1))
        }
    };

    let mut params = Vec::new();
    if gen::boolean(rng) {
        params.push("time t");
    }
    if gen::boolean(rng) {
        params.push("size s");
    }
    if gen::boolean(rng) {
        params.push("percent p");
    }
    let has = |p: &str| params.iter().any(|x| x.starts_with(p));

    let mut src = format!("Tiera Gen({}) {{\n", params.join(", "));
    for i in 1..=n_tiers {
        let ty = gen::pick(rng, &["Memcached", "MemcachedRemote", "EBS", "S3", "EphemeralStorage"]);
        let size = if has("size") && rng.chance(0.3) {
            "s".to_string()
        } else {
            gen::pick(rng, &["16K", "1M", "5M", "2G"]).to_string()
        };
        src.push_str(&format!("    tier{i}: {{ name: {ty}, size: {size} }};\n"));
    }

    for _ in 0..gen::usize_in(rng, 0..4) {
        let event = match rng.next_below(5) {
            0 => "insert.into".to_string(),
            1 => format!("insert.into == {}", tier(rng)),
            2 => "delete.from".to_string(),
            3 => {
                let period = if has("time") && rng.chance(0.5) {
                    "t"
                } else {
                    gen::pick(rng, &["30s", "2min", "0s"])
                };
                format!("time={period}")
            }
            _ => {
                let value = if has("percent") && rng.chance(0.3) {
                    "p"
                } else {
                    gen::pick(rng, &["50%", "75%", "150%"])
                };
                format!("{}.filled == {value}", tier(rng))
            }
        };
        src.push_str(&format!("    event({event}) : response {{\n"));
        for _ in 0..gen::usize_in(rng, 1..3) {
            let percent = |rng: &mut SimRng| {
                if has("percent") && rng.chance(0.3) {
                    "p".to_string()
                } else {
                    gen::pick(rng, &["10%", "40%", "200%"]).to_string()
                }
            };
            let stmt = match rng.next_below(8) {
                0 => format!("store(what: insert.object, to: {});", tier(rng)),
                1 => format!("copy(what: object.location == {}, to: {});", tier(rng), tier(rng)),
                2 => format!(
                    "move(what: object.location == {} && object.dirty == true, to: {});",
                    tier(rng),
                    tier(rng)
                ),
                3 => "retrieve(what: insert.object);".to_string(),
                4 => "delete(what: object.tag == \"tmp\");".to_string(),
                5 => format!("grow(what: {}, increment: {});", tier(rng), percent(rng)),
                6 => format!("shrink(what: {}, decrement: {});", tier(rng), percent(rng)),
                _ => {
                    let t = tier(rng);
                    format!(
                        "if ({t}.filled) {{\n            move(what: {t}.oldest, to: {});\n        }}",
                        tier(rng)
                    )
                }
            };
            src.push_str(&format!("        {stmt}\n"));
        }
        src.push_str("    }\n");
    }
    src.push_str("}\n");
    src
}

#[test]
fn diagnostics_survive_print_parse_roundtrip_byte_identical() {
    prop_check!(cases = 128, |rng| {
        let src = arb_spec_source(rng);
        let spec = parse(&src).unwrap_or_else(|e| panic!("generated spec must parse: {e}\n{src}"));

        // Canonical form: print, re-parse, analyze.
        let printed = print_spec(&spec);
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("printed spec must reparse: {e}\n{printed}"));
        let first = analyze(&reparsed).render(&printed, "spec");

        // The printer is canonical (a fixed point after one round)...
        let printed_again = print_spec(&reparsed);
        assert_eq!(printed, printed_again, "printer must be canonical\n{src}");

        // ...so a second round trip must render byte-identical diagnostics.
        let reparsed_again = parse(&printed_again).expect("reparse");
        let second = analyze(&reparsed_again).render(&printed_again, "spec");
        assert_eq!(first, second, "diagnostics must be stable across roundtrip\n{src}");
    });
}

#[test]
fn analyzer_agrees_with_itself_on_the_original_text_modulo_lines() {
    // Lines shift between hand layout and the printer's canonical layout,
    // but the set of (code, message) findings is a structural property.
    prop_check!(cases = 128, |rng| {
        let src = arb_spec_source(rng);
        let spec = parse(&src).expect("generated spec parses");
        let direct: Vec<_> = analyze(&spec)
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.severity, d.message.clone()))
            .collect();
        let via_printer: Vec<_> = analyze(&parse(&print_spec(&spec)).expect("reparse"))
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.severity, d.message.clone()))
            .collect();
        assert_eq!(direct, via_printer, "{src}");
    });
}

#[test]
fn lexer_and_parser_never_panic_on_arbitrary_input() {
    // `parse` must return `Err`, never unwind, whatever bytes arrive —
    // the `tiera-lint` binary feeds it raw user files.
    prop_check!(cases = 256, |rng| {
        let junk = gen::printable_ascii(rng, 0..200);
        let _ = parse(&junk);
        // Mutated near-valid input probes deeper parser states.
        let mut src = arb_spec_source(rng);
        if !src.is_empty() {
            let cut = gen::usize_in(rng, 0..src.len());
            src.truncate(cut);
            let _ = parse(&src);
        }
    });
}

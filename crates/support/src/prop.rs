//! A tiny property-testing harness driven by [`SimRng`].
//!
//! Replacement for the `proptest` usage in the workspace's dev-tests. A
//! property is an ordinary closure over a [`SimRng`]; the [`prop_check!`](crate::prop_check)
//! macro runs it for a fixed number of cases, deriving each case's
//! generator deterministically from a base seed and the case index. A
//! failing case therefore prints the exact seed that reproduces it, and
//! reruns are bit-identical — no shrink corpus files, no OS entropy.
//!
//! Generators are plain functions in [`gen`] rather than a combinator DSL:
//! where proptest wrote `vec(any::<u8>(), 0..512)` a property here writes
//! `gen::byte_vec(rng, 0..512)`.

use crate::rng::SimRng;

/// Default number of cases run by [`prop_check!`](crate::prop_check) when unspecified.
pub const DEFAULT_CASES: u64 = 64;

/// Default base seed for [`prop_check!`](crate::prop_check); override with `seed = …` or the
/// `TIERA_PROP_SEED` environment variable to explore other schedules.
pub const DEFAULT_SEED: u64 = 0x7_1E2A_5EED;

/// Runs `cases` deterministic cases of `property`. Used via [`prop_check!`](crate::prop_check).
///
/// Each case gets `SimRng::new(seed ^ splitmix(case_index))` so cases are
/// independent streams. On panic the failing case index and its exact
/// reproduction seed are printed before the panic propagates.
pub fn run_cases<F>(cases: u64, base_seed: u64, mut property: F)
where
    F: FnMut(&mut SimRng),
{
    let base_seed = std::env::var("TIERA_PROP_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(base_seed);
    for case in 0..cases {
        // Decorrelate case streams: feed the index through the same mixer
        // SimRng seeds with, so seeds 0,1,2… don't yield sibling states.
        let mut mix = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ base_seed;
        mix ^= mix >> 29;
        let case_seed = mix.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut rng = SimRng::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(panic) = outcome {
            eprintln!(
                "prop_check: case {case}/{cases} failed; reproduce with \
                 TIERA_PROP_SEED={base_seed} (case seed {case_seed:#x})"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// Runs a property for many deterministic cases.
///
/// ```
/// use tiera_support::{prop_check, prop::gen};
/// prop_check!(cases = 32, |rng| {
///     let v = gen::byte_vec(rng, 0..64);
///     assert!(v.len() < 64);
/// });
/// ```
///
/// Accepted forms: `prop_check!(|rng| {…})`,
/// `prop_check!(cases = N, |rng| {…})`, and
/// `prop_check!(cases = N, seed = S, |rng| {…})`.
#[macro_export]
macro_rules! prop_check {
    (|$rng:ident| $body:expr) => {
        $crate::prop::run_cases($crate::prop::DEFAULT_CASES, $crate::prop::DEFAULT_SEED, |$rng| {
            $body
        })
    };
    (cases = $cases:expr, |$rng:ident| $body:expr) => {
        $crate::prop::run_cases($cases, $crate::prop::DEFAULT_SEED, |$rng| $body)
    };
    (cases = $cases:expr, seed = $seed:expr, |$rng:ident| $body:expr) => {
        $crate::prop::run_cases($cases, $seed, |$rng| $body)
    };
}

/// Generator functions for common shapes of random test data.
pub mod gen {
    use super::SimRng;
    use std::ops::Range;

    /// Uniform `usize` in `range` (half-open). An empty range yields its
    /// start.
    pub fn usize_in(rng: &mut SimRng, range: Range<usize>) -> usize {
        if range.is_empty() {
            return range.start;
        }
        range.start + rng.next_below((range.end - range.start) as u64) as usize
    }

    /// Uniform `u64` in `range` (half-open).
    pub fn u64_in(rng: &mut SimRng, range: Range<u64>) -> u64 {
        if range.is_empty() {
            return range.start;
        }
        range.start + rng.next_below(range.end - range.start)
    }

    /// A random byte vector with length drawn from `len` (half-open).
    pub fn byte_vec(rng: &mut SimRng, len: Range<usize>) -> Vec<u8> {
        let n = usize_in(rng, len);
        bytes(rng, n)
    }

    /// Exactly `n` random bytes.
    pub fn bytes(rng: &mut SimRng, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() + 8 <= n {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        while out.len() < n {
            out.push(rng.next_u64() as u8);
        }
        out
    }

    /// A random element of `choices` (panics on an empty slice, like
    /// indexing).
    pub fn pick<'a, T>(rng: &mut SimRng, choices: &'a [T]) -> &'a T {
        &choices[usize_in(rng, 0..choices.len())]
    }

    /// A string of characters drawn from `alphabet`, with length drawn
    /// from `len` (half-open).
    pub fn string_of(rng: &mut SimRng, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = usize_in(rng, len);
        (0..n).map(|_| *pick(rng, &chars)).collect()
    }

    /// A string of printable ASCII (space through `~`, plus newline — the
    /// shape proptest's `"[ -~\n]"` regex generated).
    pub fn printable_ascii(rng: &mut SimRng, len: Range<usize>) -> String {
        let n = usize_in(rng, len);
        (0..n)
            .map(
                |_| {
                    if rng.chance(0.03) {
                        '\n'
                    } else {
                        (b' ' + rng.next_below(95) as u8) as char
                    }
                },
            )
            .collect()
    }

    /// A random boolean.
    pub fn boolean(rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }

    /// A vector of `len`-drawn length whose elements come from `item`.
    pub fn vec_of<T>(
        rng: &mut SimRng,
        len: Range<usize>,
        mut item: impl FnMut(&mut SimRng) -> T,
    ) -> Vec<T> {
        let n = usize_in(rng, len);
        (0..n).map(|_| item(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::gen;
    use crate::SimRng;

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut seen = Vec::new();
            crate::prop_check!(cases = 5, seed = 42, |rng| {
                seen.push(rng.next_u64());
            });
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn cases_differ_from_each_other() {
        let mut seen = std::collections::HashSet::new();
        crate::prop_check!(cases = 16, seed = 1, |rng| {
            assert!(seen.insert(rng.next_u64()), "case streams must differ");
        });
    }

    #[test]
    fn generators_respect_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..200 {
            assert!(gen::usize_in(&mut rng, 3..9) < 9);
            assert!(gen::usize_in(&mut rng, 3..9) >= 3);
            let v = gen::byte_vec(&mut rng, 0..17);
            assert!(v.len() < 17);
            let s = gen::string_of(&mut rng, "ab", 1..4);
            assert!((1..4).contains(&s.len()));
            assert!(s.chars().all(|c| c == 'a' || c == 'b'));
            let p = gen::printable_ascii(&mut rng, 0..40);
            assert!(p.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn exact_bytes_length() {
        let mut rng = SimRng::new(4);
        for n in [0, 1, 7, 8, 9, 64, 1000] {
            assert_eq!(gen::bytes(&mut rng, n).len(), n);
        }
    }
}

//! A009 fixture: `run_matrix` is called only from the test module and
//! `NEVER_READ` from nowhere; every other `pub` item is named by
//! non-test code. Comments and strings do not count: run_matrix.

pub const LIMIT: u64 = 8;

pub struct Outcome {
    pub total: u64,
}

pub fn run(seed: u64) -> Outcome {
    Outcome {
        total: seed.min(LIMIT),
    }
}

/// Every seed in turn.
pub fn run_matrix(seeds: &[u64]) -> Vec<Outcome> {
    let _ = "run_matrix";
    seeds.iter().map(|&s| run(s)).collect()
}

pub static NEVER_READ: u64 = 1;

pub use std::fmt::Debug;

pub(crate) fn crate_only() {}

fn main() {
    crate_only();
    let _ = run(1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn matrix() {
        assert_eq!(super::run_matrix(&[1, 9]).len(), 2);
    }
}

//! Key-choosing distributions.
//!
//! * `Uniform` — every key equally likely (YCSB uniform).
//! * `Zipfian` — YCSB's zipfian generator (Gray et al.'s rejection-free
//!   formula) with configurable θ; the paper uses θ = 0.99 (YCSB default)
//!   and θ = 1.2 (the fio experiment).
//! * `Special` — sysbench's *special* distribution: a fraction `pct` of the
//!   keyspace (the "hot set") receives `weight` (default 80 %) of all
//!   accesses; the paper varies pct over {1, 10, 20, 30} %.
//! * `Latest` — skewed toward recently inserted keys.

use tiera_sim::SimRng;

/// A distribution over `0..n` key indexes.
#[derive(Debug, Clone)]
pub enum KeyChooser {
    /// Uniform over the keyspace.
    Uniform {
        /// Keyspace size.
        n: u64,
    },
    /// Zipfian with parameter θ (YCSB formulation).
    Zipfian(Zipfian),
    /// sysbench's special distribution.
    Special {
        /// Keyspace size.
        n: u64,
        /// Hot fraction of the keyspace, `0 < pct ≤ 1`.
        pct: f64,
        /// Probability an access goes to the hot set (paper: 0.8).
        weight: f64,
    },
    /// Skewed toward the most recently inserted key (`n` grows externally).
    Latest {
        /// Current keyspace size.
        n: u64,
    },
}

impl KeyChooser {
    /// Uniform over `n` keys.
    pub fn uniform(n: u64) -> Self {
        KeyChooser::Uniform { n }
    }

    /// YCSB zipfian with θ = 0.99.
    pub fn zipfian(n: u64) -> Self {
        KeyChooser::Zipfian(Zipfian::new(n, 0.99))
    }

    /// Zipfian with explicit θ.
    pub fn zipfian_theta(n: u64, theta: f64) -> Self {
        KeyChooser::Zipfian(Zipfian::new(n, theta))
    }

    /// sysbench special: `pct` of rows get 80 % of accesses.
    pub fn special(n: u64, pct: f64) -> Self {
        KeyChooser::Special { n, pct: pct.clamp(1e-6, 1.0), weight: 0.8 }
    }

    /// Keyspace size.
    pub fn n(&self) -> u64 {
        match self {
            KeyChooser::Uniform { n }
            | KeyChooser::Special { n, .. }
            | KeyChooser::Latest { n } => *n,
            KeyChooser::Zipfian(z) => z.n,
        }
    }

    /// Draws a key index.
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        match self {
            KeyChooser::Uniform { n } => rng.next_below(*n),
            KeyChooser::Zipfian(z) => z.next(rng),
            KeyChooser::Special { n, pct, weight } => {
                let hot = ((*n as f64 * pct).ceil() as u64).max(1).min(*n);
                if hot == *n || rng.chance(*weight) {
                    rng.next_below(hot)
                } else {
                    hot + rng.next_below(*n - hot)
                }
            }
            KeyChooser::Latest { n } => {
                // Exponential-ish decay from the newest key.
                let z = Zipfian::new((*n).max(1), 0.99);
                let off = z.next(rng);
                n.saturating_sub(1).saturating_sub(off)
            }
        }
    }
}

/// YCSB-style zipfian generator (Gray's method, no rejection).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl Zipfian {
    /// Builds a generator over `0..n` with parameter `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        let n = n.max(1);
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self { n, theta, alpha, zetan, eta, zeta2theta }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; keyspaces in the experiments are ≤ a few million and
        // the generator is constructed once per run.
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Draws a key (0 is the hottest).
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * spread) as u64 % self.n
    }

    /// θ parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// ζ(2, θ) — exposed for diagnostics.
    pub fn zeta2(&self) -> f64 {
        self.zeta2theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    #[test]
    fn uniform_covers_keyspace_evenly() {
        let d = KeyChooser::uniform(10);
        let mut counts = [0u32; 10];
        let mut r = rng();
        for _ in 0..10_000 {
            counts[d.next(&mut r) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn zipfian_is_head_heavy() {
        let d = KeyChooser::zipfian(10_000);
        let mut r = rng();
        let mut head = 0u32;
        const DRAWS: u32 = 20_000;
        for _ in 0..DRAWS {
            if d.next(&mut r) < 100 {
                head += 1;
            }
        }
        // With θ=0.99 the hottest 1% of keys draw roughly half the accesses.
        let frac = head as f64 / DRAWS as f64;
        assert!(frac > 0.3, "head fraction {frac}");
    }

    #[test]
    fn zipfian_higher_theta_is_more_skewed() {
        let mild = KeyChooser::zipfian_theta(10_000, 0.8);
        let hard = KeyChooser::zipfian_theta(10_000, 1.2);
        let mut r1 = rng();
        let mut r2 = rng();
        let head = |d: &KeyChooser, r: &mut SimRng| {
            (0..20_000).filter(|_| d.next(r) < 100).count() as f64 / 20_000.0
        };
        assert!(head(&hard, &mut r2) > head(&mild, &mut r1));
    }

    #[test]
    fn special_hits_hot_set_80_percent() {
        // 10% of 10_000 keys are hot: indexes 0..1000.
        let d = KeyChooser::special(10_000, 0.10);
        let mut r = rng();
        let mut hot = 0u32;
        const DRAWS: u32 = 50_000;
        for _ in 0..DRAWS {
            if d.next(&mut r) < 1000 {
                hot += 1;
            }
        }
        let frac = hot as f64 / DRAWS as f64;
        assert!((0.78..0.82).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn all_draws_in_range() {
        let mut r = rng();
        for d in [
            KeyChooser::uniform(7),
            KeyChooser::zipfian(7),
            KeyChooser::special(7, 0.3),
            KeyChooser::Latest { n: 7 },
        ] {
            for _ in 0..2000 {
                assert!(d.next(&mut r) < 7, "{d:?}");
            }
        }
    }

    #[test]
    fn tiny_keyspaces_do_not_panic() {
        let mut r = rng();
        for n in 1..4 {
            let d = KeyChooser::special(n, 0.5);
            for _ in 0..100 {
                assert!(d.next(&mut r) < n);
            }
            let z = KeyChooser::zipfian(n);
            for _ in 0..100 {
                assert!(z.next(&mut r) < n);
            }
        }
    }
}

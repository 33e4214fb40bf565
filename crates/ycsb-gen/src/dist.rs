//! Key distributions used by YCSB.
//!
//! [`Zipfian`] follows the YCSB/Gray et al. incremental formulation with
//! the standard constant θ = 0.99; [`Uniform`] draws the operation mix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform keys over `0..n`.
#[derive(Debug, Clone)]
pub struct Uniform {
    n: u64,
    rng: StdRng,
}

impl Uniform {
    /// Creates a uniform generator over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        Uniform {
            n,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        self.rng.gen_range(0..self.n)
    }
}

/// Zipfian distribution over `0..n` with the YCSB constant θ = 0.99.
///
/// Uses the closed-form inverse from the YCSB `ZipfianGenerator`
/// (derived from Gray et al., "Quickly generating billion-record
/// synthetic databases").
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rng: StdRng,
}

impl Zipfian {
    /// The YCSB default skew.
    pub const DEFAULT_THETA: f64 = 0.99;

    /// Creates a zipfian generator over `0..n` with θ = 0.99.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        let theta = Self::DEFAULT_THETA;
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            alpha,
            zetan,
            eta,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, Euler-Maclaurin approximation beyond 10^6 so
        // construction of paper-scale keyspaces stays O(1).
        if n <= 1_000_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=1_000_000u64)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            let a = 1_000_000f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(Self::DEFAULT_THETA) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stays_in_range_and_covers() {
        let mut g = Uniform::new(100, 7);
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            let k = g.next_key();
            assert!(k < 100);
            seen[k as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 95);
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut g = Zipfian::new(10_000, 11);
        let mut head = 0;
        let total = 100_000;
        for _ in 0..total {
            if g.next_key() < 100 {
                head += 1;
            }
        }
        // With theta=0.99, the top 1% of ranks draw well over a third of
        // the mass.
        assert!(
            head as f64 / total as f64 > 0.35,
            "head share {head}/{total}"
        );
    }

    #[test]
    fn zipfian_rank_zero_most_popular() {
        let mut g = Zipfian::new(1_000, 3);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..100_000 {
            counts[g.next_key() as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max);
    }

    #[test]
    fn zipfian_stays_in_range() {
        let mut g = Zipfian::new(17, 5);
        for _ in 0..10_000 {
            assert!(g.next_key() < 17);
        }
    }

    #[test]
    fn large_keyspace_constructs_fast() {
        // Euler-Maclaurin path: must not take seconds.
        let mut g = Zipfian::new(1 << 30, 1);
        for _ in 0..100 {
            assert!(g.next_key() < (1 << 30));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut g = Zipfian::new(500, 99);
            (0..50).map(|_| g.next_key()).collect()
        };
        let b: Vec<u64> = {
            let mut g = Zipfian::new(500, 99);
            (0..50).map(|_| g.next_key()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn empty_keyspace_rejected() {
        let _ = Uniform::new(0, 0);
    }
}

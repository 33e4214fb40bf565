//! Key distributions used by YCSB.
//!
//! [`Zipfian`] follows the YCSB/Gray et al. incremental formulation with
//! the standard constant θ = 0.99; [`ScrambledZipfian`] hashes the ranks
//! so popular keys spread over the keyspace; [`Latest`] skews toward the
//! most recently inserted records.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pseudo-random key generator over `0..n`.
pub trait Generator {
    /// Draws the next key.
    fn next_key(&mut self) -> u64;
    /// Size of the keyspace.
    fn keyspace(&self) -> u64;
}

/// Which distribution a [`crate::Workload`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniformly random keys.
    Uniform,
    /// Zipfian over ranks (key 0 most popular).
    Zipfian,
    /// Zipfian over hashed ranks (popularity spread over the keyspace).
    ScrambledZipfian,
    /// Skewed toward the newest records.
    Latest,
    /// A hot set gets most of the traffic (YCSB `hotspot`).
    Hotspot,
    /// Exponentially decaying popularity (YCSB `exponential`).
    Exponential,
}

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
}

impl Generator for Uniform {
    fn next_key(&mut self) -> u64 {
        self.rng.gen_range(0..self.n)
    }

    fn keyspace(&self) -> u64 {
        self.n
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
    theta: f64,
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
        Self::with_theta(n, Self::DEFAULT_THETA, seed)
    }

    /// Creates a zipfian generator with an explicit θ in (0, 1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or θ is out of range.
    pub fn with_theta(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
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

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl Generator for Zipfian {
    fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// FNV-1a 64-bit hash, used for scrambling.
#[inline]
pub fn fnv1a(mut x: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(0x100000001b3);
        x >>= 8;
    }
    h
}

/// Zipfian over hashed ranks: item popularity is zipfian but popular keys
/// are spread uniformly over the keyspace (YCSB's default for workloads
/// A–D).
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled-zipfian generator over `0..n`.
    pub fn new(n: u64, seed: u64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n, seed),
        }
    }
}

impl Generator for ScrambledZipfian {
    fn next_key(&mut self) -> u64 {
        let rank = self.inner.next_key();
        fnv1a(rank) % self.inner.keyspace()
    }

    fn keyspace(&self) -> u64 {
        self.inner.keyspace()
    }
}

/// "Latest" distribution: zipfian over recency, so the most recently
/// inserted records are the most popular.
#[derive(Debug, Clone)]
pub struct Latest {
    inner: Zipfian,
    max_key: u64,
}

impl Latest {
    /// Creates a latest-skewed generator; `max_key` is the newest record.
    pub fn new(n: u64, seed: u64) -> Self {
        Latest {
            inner: Zipfian::new(n, seed),
            max_key: n - 1,
        }
    }

    /// Informs the generator that a new record was inserted.
    pub fn advance(&mut self, new_max: u64) {
        self.max_key = new_max;
    }
}

impl Generator for Latest {
    fn next_key(&mut self) -> u64 {
        let back = self.inner.next_key();
        self.max_key.saturating_sub(back)
    }

    fn keyspace(&self) -> u64 {
        self.inner.keyspace()
    }
}

/// YCSB's hotspot distribution: `hot_fraction` of the keyspace receives
/// `hot_opn_fraction` of the operations, uniform within each side.
#[derive(Debug, Clone)]
pub struct Hotspot {
    n: u64,
    hot_keys: u64,
    /// Probability (x1e6) that an operation targets the hot set.
    hot_opn_ppm: u64,
    rng: StdRng,
}

impl Hotspot {
    /// YCSB defaults: 20% of keys take 80% of operations.
    pub fn new(n: u64, seed: u64) -> Self {
        Self::with_fractions(n, 0.2, 0.8, seed)
    }

    /// Explicit fractions, both in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a fraction is out of range.
    pub fn with_fractions(n: u64, hot_fraction: f64, hot_opn_fraction: f64, seed: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        assert!(
            hot_fraction > 0.0 && hot_fraction <= 1.0,
            "hot fraction out of range"
        );
        assert!(
            hot_opn_fraction > 0.0 && hot_opn_fraction <= 1.0,
            "hot op fraction out of range"
        );
        Hotspot {
            n,
            hot_keys: ((n as f64 * hot_fraction) as u64).max(1),
            hot_opn_ppm: (hot_opn_fraction * 1e6) as u64,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Generator for Hotspot {
    fn next_key(&mut self) -> u64 {
        if self.rng.gen_range(0..1_000_000u64) < self.hot_opn_ppm {
            self.rng.gen_range(0..self.hot_keys)
        } else if self.hot_keys < self.n {
            self.hot_keys + self.rng.gen_range(0..self.n - self.hot_keys)
        } else {
            self.rng.gen_range(0..self.n)
        }
    }

    fn keyspace(&self) -> u64 {
        self.n
    }
}

/// YCSB's exponential distribution: key popularity decays exponentially
/// with rank; by default 90% of operations hit the first 10% of keys.
#[derive(Debug, Clone)]
pub struct Exponential {
    n: u64,
    gamma: f64,
    rng: StdRng,
}

impl Exponential {
    /// YCSB defaults (percentile = 95, frac = 0.8571).
    pub fn new(n: u64, seed: u64) -> Self {
        let frac = 0.8571;
        let percentile = 95.0;
        let gamma = -(1.0f64 - percentile / 100.0).ln() / (n as f64 * frac);
        assert!(n > 0, "keyspace must be non-empty");
        Exponential {
            n,
            gamma,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Generator for Exponential {
    fn next_key(&mut self) -> u64 {
        loop {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let k = (-u.ln() / self.gamma) as u64;
            if k < self.n {
                return k;
            }
        }
    }

    fn keyspace(&self) -> u64 {
        self.n
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
    fn scrambled_spreads_popularity() {
        let mut g = ScrambledZipfian::new(10_000, 11);
        // The most popular key should NOT be key 0 with overwhelming
        // probability (it's fnv1a(0) % n).
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..50_000 {
            *counts.entry(g.next_key()).or_insert(0u32) += 1;
        }
        let (&hot, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_eq!(hot, fnv1a(0) % 10_000);
        assert_ne!(hot, 0);
    }

    #[test]
    fn latest_prefers_new_records() {
        let mut g = Latest::new(1_000, 13);
        let mut newish = 0;
        for _ in 0..10_000 {
            if g.next_key() >= 900 {
                newish += 1;
            }
        }
        assert!(newish > 5_000, "latest skew too weak: {newish}");
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

    #[test]
    fn hotspot_hits_hot_set() {
        let mut g = Hotspot::new(1_000, 9);
        let mut hot = 0;
        for _ in 0..10_000 {
            let k = g.next_key();
            assert!(k < 1_000);
            if k < 200 {
                hot += 1;
            }
        }
        // 80% of ops to the hot 20%.
        assert!((7_000..9_000).contains(&hot), "hot hits {hot}");
    }

    #[test]
    fn hotspot_whole_space_reachable() {
        let mut g = Hotspot::new(50, 10);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            seen.insert(g.next_key());
        }
        assert!(seen.len() > 45, "covered {}", seen.len());
    }

    #[test]
    fn exponential_skews_to_low_keys() {
        let mut g = Exponential::new(10_000, 11);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = g.next_key();
            assert!(k < 10_000);
            if k < 1_000 {
                head += 1;
            }
        }
        assert!(head > 2_500, "head {head}");
    }
}

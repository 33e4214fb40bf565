//! The YCSB request stream Memcached's client issues (Cooper et al.,
//! SoCC '10; paper §4.2.7): core workload A, 50 % reads and 50 %
//! updates, over keys drawn from a [`Zipfian`] distribution. Read or
//! update is drawn uniformly from a separately seeded generator.

use crate::util::SplitMix64;

/// Kind of a generated store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Point read of one record.
    Read,
    /// Overwrite of one record's value.
    Update,
}

/// Percent of YCSB-A operations that are reads; the rest are updates.
const READ_PERCENT: u64 = 50;

/// The YCSB default skew θ.
const THETA: f64 = 0.99;

/// Zipfian distribution over `0..n` with θ = 0.99, by the closed-form
/// inverse of the YCSB `ZipfianGenerator` (derived from Gray et al.,
/// "Quickly generating billion-record synthetic databases").
#[derive(Debug, Clone)]
struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rng: SplitMix64,
}

impl Zipfian {
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - THETA)) / (1.0 - zeta(2) / zetan);
        Zipfian {
            n,
            alpha: 1.0 / (1.0 - THETA),
            zetan,
            eta,
            rng: SplitMix64::new(seed),
        }
    }

    fn next_key(&mut self) -> u64 {
        let u = self.rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(THETA) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

/// Σ 1/i^θ over `1..=n`: exact up to 10^6, Euler-Maclaurin beyond, so
/// paper-scale keyspaces construct in O(1).
fn zeta(n: u64) -> f64 {
    let exact = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(THETA)).sum::<f64>();
    if n <= 1_000_000 {
        exact(n)
    } else {
        let (a, b) = (1_000_000f64, n as f64);
        exact(1_000_000) + (b.powf(1.0 - THETA) - a.powf(1.0 - THETA)) / (1.0 - THETA)
    }
}

/// The infinite run-phase stream of `(kind, key)` operations over
/// `records` keys; `take(n)` it.
#[derive(Debug, Clone)]
pub(crate) struct Operations {
    keys: Zipfian,
    choice: SplitMix64,
}

impl Operations {
    /// # Panics
    ///
    /// Panics if `records` is zero.
    pub(crate) fn new(records: u64, seed: u64) -> Self {
        Operations {
            keys: Zipfian::new(records, seed),
            choice: SplitMix64::new(seed ^ 0xdead_beef),
        }
    }
}

impl Iterator for Operations {
    type Item = (OpKind, u64);

    fn next(&mut self) -> Option<(OpKind, u64)> {
        let kind = if self.choice.below(100) < READ_PERCENT {
            OpKind::Read
        } else {
            OpKind::Update
        };
        Some((kind, self.keys.next_key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed() {
        let mut g = Zipfian::new(10_000, 11);
        let total = 100_000;
        let head = (0..total).filter(|_| g.next_key() < 100).count();
        // With θ = 0.99 the top 1% of ranks draw well over a third of
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
        assert_eq!(counts[0], counts.iter().copied().max().unwrap());
    }

    #[test]
    fn zipfian_stays_in_range() {
        let mut g = Zipfian::new(17, 5);
        assert!((0..10_000).all(|_| g.next_key() < 17));
    }

    #[test]
    fn large_keyspace_constructs_fast() {
        // Euler-Maclaurin path: must not take seconds.
        let mut g = Zipfian::new(1 << 30, 1);
        assert!((0..100).all(|_| g.next_key() < (1 << 30)));
    }

    #[test]
    fn workload_a_is_half_writes() {
        let updates = Operations::new(1_000, 1)
            .take(10_000)
            .filter(|&(kind, _)| kind == OpKind::Update)
            .count();
        assert!((4_500..5_500).contains(&updates), "updates {updates}");
    }

    /// Memcached's run-phase stream at `records = 1024`, seed `0x5ca1e`:
    /// its first 64 `(kind, key)` pairs. The figure goldens and perfbench
    /// fingerprints depend on this exact stream, so a change to either
    /// draw (its seed, its distribution, or the generator it reads) must
    /// fail here, not in a sweep.
    #[test]
    fn memcached_key_stream_is_pinned() {
        const KINDS: &str = "URUUURURRRRUUURURRRURUUUURRUUUUUURRUUUUUURUURRRUUUUUURRRURRUURRU";
        const KEYS: [u64; 64] = [
            6, 130, 76, 81, 2, 220, 129, 1, 6, 706, 139, 252, 440, 42, 17, 1, 213, 0, 33, 279, 5,
            93, 303, 232, 43, 812, 0, 2, 0, 424, 924, 1, 21, 0, 0, 9, 1, 6, 4, 982, 113, 38, 611,
            0, 79, 7, 24, 89, 0, 1, 0, 1, 42, 89, 382, 183, 68, 439, 17, 73, 158, 16, 45, 1,
        ];
        let (kinds, keys): (String, Vec<u64>) = Operations::new(1024, 0x5ca1e)
            .take(64)
            .map(|(kind, key)| (if kind == OpKind::Read { 'R' } else { 'U' }, key))
            .unzip();
        assert_eq!(kinds, KINDS);
        assert_eq!(keys, KEYS);
    }
}

//! Minimal multiply-rotate hasher for hot-path integer keys.
//!
//! The standard library's default `SipHash` is deliberately
//! collision-resistant and correspondingly slow: hashing a single `u64`
//! costs tens of cycles, which dominated `PageTable::touch` profiles.
//! Keys hashed here are simulated page/region numbers — attacker-
//! controlled input is not a concern — so a one-multiply mix in the
//! style of rustc's `FxHasher` is the right trade.

use std::hash::{BuildHasher, Hasher};

/// Multiplicative constant from rustc's `FxHasher` (a close relative of
/// the Fibonacci hashing constant `2^64 / phi`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for integer keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s; plugs into `HashMap`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed through [`FxHasher`]. The workspace bans std's
/// randomly seeded maps; this one has a fixed seed, so its iteration
/// order is a function of the inserts alone.
#[expect(
    clippy::disallowed_types,
    reason = "fixed seed: iteration order is a function of the inserts"
)]
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        let b = FxBuildHasher;
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..10_000u64 {
            let mut h = b.build_hasher();
            h.write_u64(k);
            seen.insert(h.finish());
        }
        // Not a formal guarantee, but sequential integers must not
        // collapse onto a handful of buckets.
        assert!(seen.len() > 9_900);
    }

    #[test]
    fn works_as_hashmap_hasher() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for k in 0..100 {
            m.insert(k, k as u32 * 2);
        }
        assert_eq!(m.get(&40), Some(&80));
        assert_eq!(m.len(), 100);
    }
}

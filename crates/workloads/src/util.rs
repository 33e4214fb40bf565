//! Shared helpers for the workloads: deterministic randomness, sizing
//! arithmetic, and checksum folding.

/// SplitMix64: tiny, fast, deterministic PRNG for input generation.
/// (Workloads must be reproducible across runs and modes so that
/// checksums can be compared; `rand`'s `StdRng` is used where a richer
/// API helps, this where raw speed does.)
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Folds a value into a running checksum (order-sensitive FNV-style mix).
#[inline]
pub fn fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100000001b3).rotate_left(17)
}

/// Divides `v` by `d`, keeping at least `min`.
pub fn scale_down(v: u64, d: u64, min: u64) -> u64 {
    (v / d.max(1)).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            seen.insert(v);
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn below_in_range() {
        let mut r = SplitMix64::new(2);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fold_order_sensitive() {
        let a = fold(fold(0, 1), 2);
        let b = fold(fold(0, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn scale_down_floors() {
        assert_eq!(scale_down(100, 8, 1), 12);
        assert_eq!(scale_down(100, 1000, 5), 5);
        assert_eq!(scale_down(100, 0, 1), 100);
    }
}

//! Seedable xorshift PRNG driving every probabilistic fault decision.
//!
//! Deliberately tiny and self-contained: the fault plane must be
//! deterministic across platforms and dependency-free, so it carries its
//! own generator instead of pulling one in.

/// Marsaglia xorshift64 with a splitmix64 seed scrambler.
///
/// ```
/// use faults::XorShift64;
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64(), "same seed, same stream");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from `seed`. Any seed is fine, including zero:
    /// the splitmix64 scrambler guarantees a non-zero internal state.
    pub fn new(seed: u64) -> Self {
        let mut s = splitmix64(seed);
        if s == 0 {
            s = 0x9e37_79b9_7f4a_7c15;
        }
        XorShift64 { state: s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish value in `0..bound` (`0` when `bound` is zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// True with probability `permille`/1000 (clamped to 1000).
    pub fn chance(&mut self, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        self.below(1000) < u64::from(permille.min(1000))
    }
}

/// One round of splitmix64: decorrelates adjacent seeds (seed, seed+1, …)
/// so per-cell salts produce unrelated streams.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = XorShift64::new(4);
        assert!((0..100).all(|_| !r.chance(0)));
        assert!((0..100).all(|_| r.chance(1000)));
        // A 500-permille coin lands on both sides over 1000 draws.
        let heads = (0..1000).filter(|_| r.chance(500)).count();
        assert!(heads > 300 && heads < 700, "suspicious coin: {heads}");
    }
}

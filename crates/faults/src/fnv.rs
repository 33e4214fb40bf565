/// FNV-1a over little-endian words and delimited strings, the
/// workspace's one 64-bit digest: fault-plan digests, sweep
/// fingerprints, per-cell fault salts and the checkpoint grid guard all
/// hash through it. [`Fnv::default`] starts at the offset basis.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// Hashes the eight little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Hashes the bytes of `s`, then a `0xff` delimiter (never a UTF-8
    /// byte), so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
        self.byte(0xff);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

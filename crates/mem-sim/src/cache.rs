//! Cache-hierarchy model: per-thread L1 front-ends and a shared,
//! set-associative last-level cache (LLC).
//!
//! Only the LLC is fully timed per the paper's counters ("LLC misses");
//! the L1 exists so that hot lines do not reach the LLC at all, which is
//! what makes LLC-miss counts meaningful for cache-friendly workloads.

use crate::recency::LruSets;
use crate::LINE_SHIFT;

/// Outcome of a cache access, naming the level that supplied the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the per-thread L1.
    L1Hit,
    /// Served from the shared LLC.
    LlcHit,
    /// Missed the entire hierarchy; DRAM supplies the line.
    Miss,
}

/// A direct-mapped per-thread L1 data cache (tag array only).
#[derive(Debug, Clone)]
pub struct L1Cache {
    tags: Vec<u64>,
}

impl L1Cache {
    /// Creates an L1 with `lines` cache lines (rounded up to a power of
    /// two).
    pub fn new(lines: usize) -> Self {
        let n = lines.next_power_of_two().max(1);
        L1Cache {
            tags: vec![u64::MAX; n],
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot path: the line is masked to the tag array, whose length is a usize"
    )]
    #[inline]
    fn slot(&self, line: u64) -> usize {
        (line as usize) & (self.tags.len() - 1)
    }

    /// Probes and fills in one step; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let s = self.slot(line);
        if self.tags[s] == line {
            true
        } else {
            self.tags[s] = line;
            false
        }
    }
}

/// The shared set-associative last-level cache.
///
/// Defaults model the 12 MB, 16-way LLC of the paper's Xeon E-2186G
/// (Table 3).
///
/// ```
/// use mem_sim::cache::Llc;
/// let mut llc = Llc::default();
/// assert!(!llc.access(0));  // cold miss
/// assert!(llc.access(0));   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    /// 12288 sets by default: the reciprocal set-index path.
    lines: LruSets,
    ways: usize,
}

impl Llc {
    /// Creates an LLC with capacity `bytes`, associativity `ways` and
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is outside `1..=16` or `bytes` does not describe
    /// at least one full set.
    pub fn new(bytes: usize, ways: usize) -> Self {
        let lines = bytes >> LINE_SHIFT;
        assert!(ways > 0 && lines >= ways, "LLC must hold at least one set");
        Llc {
            lines: LruSets::new(lines / ways, ways),
            ways,
        }
    }

    /// Probes for `line`, filling it over the set's LRU way on a miss;
    /// returns `true` on hit.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let (tag, set) = self.lines.split(line);
        self.lines.probe(set, tag)
    }

    /// Reports residency without touching replacement state.
    pub fn contains(&self, line: u64) -> bool {
        let (tag, set) = self.lines.split(line);
        self.lines.contains(set, tag)
    }

    /// Number of sets (exposed for tests and sizing diagnostics).
    pub fn sets(&self) -> usize {
        self.lines.sets()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

impl Default for Llc {
    fn default() -> Self {
        Llc::new(12 << 20, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_direct_mapped_conflicts() {
        let mut l1 = L1Cache::new(2);
        assert!(!l1.access(0));
        assert!(l1.access(0));
        assert!(!l1.access(2)); // same slot as 0
        assert!(!l1.access(0)); // evicted by 2
    }

    #[test]
    fn llc_lru_within_set() {
        // 2 sets x 2 ways, 64B lines => 256 bytes.
        let mut llc = Llc::new(256, 2);
        assert_eq!(llc.sets(), 2);
        // Lines 0,2,4 all land in set 0.
        llc.access(0);
        llc.access(2);
        llc.access(0); // refresh 0
        llc.access(4); // evict 2 (LRU)
        assert!(llc.contains(0));
        assert!(!llc.contains(2));
        assert!(llc.contains(4));
    }

    #[test]
    fn llc_hit_after_fill() {
        let mut llc = Llc::default();
        assert!(!llc.access(1234));
        assert!(llc.access(1234));
    }

    #[test]
    fn default_llc_geometry_matches_xeon() {
        let llc = Llc::default();
        assert_eq!(llc.ways(), 16);
        assert_eq!(llc.sets() * llc.ways() * 64, 12 << 20);
    }

    #[test]
    fn llc_lru_is_exact_after_long_runs() {
        // A long history of refreshes must not blur which line is least
        // recently used.
        let mut llc = Llc::new(256, 2);
        for _ in 0..100_000 {
            llc.access(0);
            llc.access(2);
        }
        llc.access(0); // refresh 0; 2 is LRU
        llc.access(4); // must evict 2
        assert!(llc.contains(0));
        assert!(!llc.contains(2));
        assert!(llc.contains(4));
    }

    #[test]
    fn working_set_larger_than_llc_thrashes() {
        let mut llc = Llc::new(1 << 10, 4); // 1 KiB: 16 lines
        for line in 0..64 {
            llc.access(line);
        }
        // Re-touch the first lines: all must miss again.
        let mut misses = 0;
        for line in 0..16 {
            if !llc.access(line) {
                misses += 1;
            }
        }
        assert_eq!(misses, 16);
    }
}

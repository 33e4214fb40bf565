//! Two-level data-TLB model.
//!
//! Mirrors the translation hardware of the evaluated CPU: a small,
//! fully-timed L1 dTLB backed by a larger second-level TLB (STLB). Both are
//! set-associative with LRU replacement. SGX enclave transitions flush the
//! whole structure ([`Tlb::flush`]), which is the mechanism behind the
//! paper's dTLB-miss explosions (§2.3, Appendix B).

use crate::recency::LruSets;

/// Result of a TLB lookup, telling the machine which structure satisfied
/// the translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the first-level dTLB: translation is free.
    L1Hit,
    /// Missed the L1 dTLB but hit the second-level TLB.
    StlbHit,
    /// Missed both levels: a page walk is required.
    Miss,
}

/// One set-associative TLB level with exact LRU replacement.
///
/// Flushes are O(1), because SGX flushes the TLB on *every* enclave
/// transition and ECALL-heavy workloads perform millions of them: a
/// flush bumps the level's `era`, and a set whose stored era is behind
/// is empty. Its next probe resets it and installs the page without a
/// scan.
#[derive(Debug, Clone)]
struct TlbLevel {
    pages: LruSets,
    /// The era each set's tags belong to.
    eras: Vec<u64>,
    /// Bumped by every flush; starts above the sets' zero so every set
    /// begins empty.
    era: u64,
}

impl TlbLevel {
    fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries >= ways && entries.is_multiple_of(ways));
        TlbLevel {
            pages: LruSets::new(entries / ways, ways),
            eras: vec![0; entries / ways],
            era: 1,
        }
    }

    /// Looks up `page`, promoting it to MRU and returning `true` on a
    /// hit; on a miss installs it over the set's LRU way.
    #[inline]
    fn probe_install(&mut self, page: u64) -> bool {
        let (tag, set) = self.pages.split(page);
        if self.eras[set] != self.era {
            self.eras[set] = self.era;
            self.pages.reset_install(set, tag);
            return false;
        }
        self.pages.probe(set, tag)
    }

    fn flush(&mut self) {
        self.era += 1;
    }

    fn resident(&self, page: u64) -> bool {
        let (tag, set) = self.pages.split(page);
        self.eras[set] == self.era && self.pages.contains(set, tag)
    }
}

/// A per-hardware-thread two-level data TLB.
///
/// Defaults model the paper's Xeon E-2186G: a 64-entry 4-way L1 dTLB and a
/// 1536-entry 12-way STLB.
///
/// ```
/// use mem_sim::tlb::{Tlb, TlbOutcome};
/// let mut tlb = Tlb::default();
/// assert_eq!(tlb.translate(7), TlbOutcome::Miss);
/// assert_eq!(tlb.translate(7), TlbOutcome::L1Hit);
/// tlb.flush();
/// assert_eq!(tlb.translate(7), TlbOutcome::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    l1: TlbLevel,
    stlb: TlbLevel,
}

impl Tlb {
    /// Creates a TLB with explicit sizing. Entry counts must be multiples
    /// of their way counts.
    ///
    /// # Panics
    ///
    /// Panics if a level's ways are outside `1..=16`, or its entry count
    /// is zero or not a multiple of its ways.
    pub fn new(l1_entries: usize, l1_ways: usize, stlb_entries: usize, stlb_ways: usize) -> Self {
        Tlb {
            l1: TlbLevel::new(l1_entries, l1_ways),
            stlb: TlbLevel::new(stlb_entries, stlb_ways),
        }
    }

    /// Translates `page`, updating replacement state and filling the
    /// missing levels (the fill models the hardware installing the PTE
    /// after a successful walk).
    pub fn translate(&mut self, page: u64) -> TlbOutcome {
        // Each level is probed and filled in one set scan; an L1 miss
        // installs into the L1 unconditionally (the hardware fill), and
        // the STLB is only written when it missed too.
        if self.l1.probe_install(page) {
            return TlbOutcome::L1Hit;
        }
        if self.stlb.probe_install(page) {
            return TlbOutcome::StlbHit;
        }
        TlbOutcome::Miss
    }

    /// Drops every translation, as the hardware does on an enclave
    /// transition (EENTER/EEXIT/AEX).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.stlb.flush();
    }

    /// Reports whether `page` is currently resident in either level
    /// without perturbing replacement state.
    pub fn contains(&self, page: u64) -> bool {
        self.l1.resident(page) || self.stlb.resident(page)
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(64, 4, 1536, 12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_l1() {
        let mut t = Tlb::default();
        assert_eq!(t.translate(42), TlbOutcome::Miss);
        assert_eq!(t.translate(42), TlbOutcome::L1Hit);
    }

    #[test]
    fn l1_eviction_falls_back_to_stlb() {
        // A tiny 2-entry direct-ish L1 with a big STLB: filling the L1 set
        // evicts, but the STLB still holds the page.
        let mut t = Tlb::new(2, 1, 64, 4);
        // Pages 0 and 2 map to set 0; page 1 maps to set 1 (2 sets).
        assert_eq!(t.translate(0), TlbOutcome::Miss);
        assert_eq!(t.translate(2), TlbOutcome::Miss); // evicts 0 from L1
        assert_eq!(t.translate(0), TlbOutcome::StlbHit);
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = Tlb::default();
        for p in 0..100 {
            t.translate(p);
        }
        t.flush();
        for p in 0..100 {
            assert!(!t.contains(p));
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = Tlb::new(2, 2, 4, 2); // one L1 set of 2 ways... sets=1
        t.translate(10);
        t.translate(20);
        t.translate(10); // refresh 10; 20 is now LRU in L1
        t.translate(30); // evicts 20 from L1
        assert!(t.l1.resident(10));
        assert!(!t.l1.resident(20));
        assert!(t.l1.resident(30));
    }

    #[test]
    fn capacity_miss_after_wraparound_working_set() {
        let mut t = Tlb::new(4, 2, 8, 2);
        for p in 0..64 {
            t.translate(p);
        }
        // Early pages must have been displaced from both levels.
        assert_eq!(t.translate(0), TlbOutcome::Miss);
    }

    #[test]
    #[should_panic]
    fn zero_ways_rejected() {
        let _ = Tlb::new(4, 0, 8, 2);
    }

    #[test]
    fn lru_order_is_exact_after_long_runs() {
        // A long history of lookups and flushes must not blur which page
        // is least recently used.
        let mut t = Tlb::new(2, 2, 4, 2);
        for i in 0..100_000u64 {
            t.translate(i % 3);
            if i % 1000 == 0 {
                t.flush();
            }
        }
        t.translate(10);
        t.translate(20);
        t.translate(10); // refresh 10; 20 is LRU
        t.translate(30); // must evict 20, not 10
        assert!(t.contains(10));
        assert!(t.contains(30));
        assert_eq!(t.translate(20), TlbOutcome::StlbHit);
    }

    #[test]
    fn non_power_of_two_set_count_uses_division_fallback() {
        // 6 entries / 2 ways = 3 sets: exercises the reciprocal path
        // behind the mask. Pages 0 and 3 collide in set 0; page 1 does
        // not.
        let mut t = Tlb::new(6, 2, 12, 2);
        let set_of = |page| t.l1.pages.split(page).1;
        assert_eq!(set_of(0), set_of(3));
        assert_ne!(set_of(0), set_of(1));
        for p in [0u64, 3, 6, 9] {
            t.translate(p);
        }
        // Set 0 holds the two most recent colliding pages.
        assert!(!t.l1.resident(0));
        assert!(t.l1.resident(6));
        assert!(t.l1.resident(9));
    }

    #[test]
    fn probe_install_prefers_invalid_ways_over_eviction() {
        // After a flush every way is stale; refills must reuse stale ways
        // rather than evicting each other out of a half-empty set.
        let mut t = Tlb::new(4, 4, 8, 2); // one L1 set, 4 ways
        for p in 0..4 {
            t.translate(p);
        }
        t.flush();
        for p in 10..13 {
            t.translate(p); // 3 installs into a 4-way set
        }
        for p in 10..13 {
            assert!(t.l1.resident(p));
        }
    }
}

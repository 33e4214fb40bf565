//! The packed-recency LLC and TLB against a naive LRU oracle.
//!
//! The oracle keeps each set as a `Vec` ordered most- to least-recently
//! used and forgets every set on a flush. `Llc`, `Tlb` and the machine's
//! last-page memo must agree with it on every probe outcome and every
//! residency query, over skewed streams with flushes at random points,
//! for power-of-two and odd set counts and 1 to 16 ways, and over keys
//! whose set-relative quotient is too wide for a 32-bit tag.

use mem_sim::tlb::TlbOutcome;
use mem_sim::{AccessAttrs, AccessKind, Llc, Machine, MachineConfig, Tlb, LINE_SIZE, PAGE_SIZE};
use proptest::prelude::*;

/// Naive set-associative LRU structure.
struct Oracle {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl Oracle {
    fn new(sets: usize, ways: usize) -> Self {
        Oracle {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    /// Returns whether `key` hit; afterwards it is the set's MRU entry.
    fn probe(&mut self, key: u64) -> bool {
        let ways = self.ways;
        let set = self.set(key);
        let hit = match set.iter().position(|&k| k == key) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => false,
        };
        set.insert(0, key);
        set.truncate(ways);
        hit
    }

    fn contains(&self, key: u64) -> bool {
        self.sets[(key % self.sets.len() as u64) as usize].contains(&key)
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// A two-level TLB built from two oracles, filling as the hardware does.
fn oracle_translate(l1: &mut Oracle, stlb: &mut Oracle, page: u64) -> TlbOutcome {
    if l1.probe(page) {
        TlbOutcome::L1Hit
    } else if stlb.probe(page) {
        TlbOutcome::StlbHit
    } else {
        TlbOutcome::Miss
    }
}

fn arb_sets() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(8),
        Just(16),
        Just(3),
        Just(5),
        Just(7),
        Just(12)
    ]
}

/// Skews a uniform draw in `0..range` quadratically toward small keys,
/// so streams mix hot reuse with a cold tail that forces evictions.
fn skew(draw: u64, range: u64) -> u64 {
    (draw % range) * (draw % range) / range
}

/// One step: a flush roughly one time in forty, else a skewed key.
fn arb_ops() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..40, any::<u64>()), 1..600)
}

/// A skewed key, or one of its aliases `k + m * sets * 2^32`: the same
/// set and the same low 32 bits of the quotient `k / sets`, so a tag
/// narrowed by truncation would confuse them. `m` reaches the largest
/// multiple that fits, so quotients near `u64::MAX / sets` appear too,
/// and quotients `k / sets + 2^32 - 2` land on the two reserved lane
/// values and just above them.
fn alias(draw: u64, range: u64, sets: usize) -> u64 {
    let k = skew(draw, range);
    let stride = sets as u64 * (1 << 32);
    match (draw >> 56) % 5 {
        0 | 1 => k,
        2 => k + ((draw >> 52) % 4) * stride,
        3 => k + (u64::MAX - k) / stride * stride,
        _ => k + stride - 2 * sets as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn llc_matches_naive_lru(sets in arb_sets(), ways in 1usize..17, ops in arb_ops()) {
        let mut llc = Llc::new(sets * ways * LINE_SIZE as usize, ways);
        let mut oracle = Oracle::new(sets, ways);
        let range = (sets * ways * 3) as u64;
        for &(_, draw) in &ops {
            let line = skew(draw, range);
            prop_assert_eq!((line, llc.access(line)), (line, oracle.probe(line)));
            let probe = skew(draw.rotate_left(17), range);
            prop_assert_eq!((probe, llc.contains(probe)), (probe, oracle.contains(probe)));
        }
        for line in 0..range {
            prop_assert_eq!((line, llc.contains(line)), (line, oracle.contains(line)));
        }
    }

    #[test]
    fn tlb_matches_naive_lru(
        l1_sets in arb_sets(),
        l1_ways in 1usize..17,
        stlb_sets in arb_sets(),
        stlb_ways in 1usize..17,
        ops in arb_ops(),
    ) {
        let mut tlb = Tlb::new(l1_sets * l1_ways, l1_ways, stlb_sets * stlb_ways, stlb_ways);
        let mut l1 = Oracle::new(l1_sets, l1_ways);
        let mut stlb = Oracle::new(stlb_sets, stlb_ways);
        let range = (stlb_sets * stlb_ways * 2) as u64;
        for &(op, draw) in &ops {
            if op == 0 {
                tlb.flush();
                l1.flush();
                stlb.flush();
                continue;
            }
            let page = skew(draw, range);
            let want = oracle_translate(&mut l1, &mut stlb, page);
            prop_assert_eq!((page, tlb.translate(page)), (page, want));
            let probe = skew(draw.rotate_left(17), range);
            let resident = l1.contains(probe) || stlb.contains(probe);
            prop_assert_eq!((probe, tlb.contains(probe)), (probe, resident));
        }
    }

    /// Keys whose quotient does not fit a `u32` lane stay exact.
    #[test]
    fn wide_keys_match_naive_lru(sets in arb_sets(), ways in 1usize..17, ops in arb_ops()) {
        let mut llc = Llc::new(sets * ways * LINE_SIZE as usize, ways);
        let mut tlb = Tlb::new(sets * ways, ways, sets * ways, ways);
        let mut line_oracle = Oracle::new(sets, ways);
        let (mut l1, mut stlb) = (Oracle::new(sets, ways), Oracle::new(sets, ways));
        let range = (sets * ways * 3) as u64;
        for &(op, draw) in &ops {
            if op == 0 {
                tlb.flush();
                l1.flush();
                stlb.flush();
                continue;
            }
            let key = alias(draw, range, sets);
            prop_assert_eq!((key, llc.access(key)), (key, line_oracle.probe(key)));
            let want = oracle_translate(&mut l1, &mut stlb, key);
            prop_assert_eq!((key, tlb.translate(key)), (key, want));
            let probe = alias(draw.rotate_left(17), range, sets);
            prop_assert_eq!((probe, llc.contains(probe)), (probe, line_oracle.contains(probe)));
            let resident = l1.contains(probe) || stlb.contains(probe);
            prop_assert_eq!((probe, tlb.contains(probe)), (probe, resident));
        }
    }

    /// The machine skips the TLB probe when a thread translates the page
    /// of its previous translation; its dTLB counters must still be those
    /// of a TLB probed on every page change.
    #[test]
    fn last_page_memo_matches_naive_tlb(ops in arb_ops()) {
        let cfg = MachineConfig {
            l1_tlb_entries: 8,
            l1_tlb_ways: 2,
            stlb_entries: 12,
            stlb_ways: 3,
            ..Default::default()
        };
        let mut l1 = Oracle::new(4, 2);
        let mut stlb = Oracle::new(4, 3);
        let mut m = Machine::new(cfg);
        let t = m.add_thread();
        let (mut stlb_hits, mut misses) = (0, 0);
        for &(op, draw) in &ops {
            if op == 0 {
                m.flush_tlb(t);
                l1.flush();
                stlb.flush();
                continue;
            }
            // Runs of one to three lines, often inside the last page.
            let vaddr = skew(draw, 48 * PAGE_SIZE) & !(LINE_SIZE - 1);
            let len = (draw >> 60) % 3 * LINE_SIZE + 1;
            for page in vaddr / PAGE_SIZE..=(vaddr + len - 1) / PAGE_SIZE {
                match oracle_translate(&mut l1, &mut stlb, page) {
                    TlbOutcome::L1Hit => {}
                    TlbOutcome::StlbHit => stlb_hits += 1,
                    TlbOutcome::Miss => misses += 1,
                }
            }
            m.access(t, vaddr, len, AccessKind::Read, &AccessAttrs::PLAIN);
            prop_assert_eq!(m.counters().stlb_hits, stlb_hits);
            prop_assert_eq!(m.counters().dtlb_misses, misses);
        }
    }
}

//! Property-based tests over the memory-hierarchy model: invariants that
//! must hold for any access stream.

use std::collections::{BTreeMap, BTreeSet};

use mem_sim::pagemap::{PageMap, PageSet};
use mem_sim::paging::PageStatus;
use mem_sim::{AccessAttrs, AccessKind, Machine, MachineConfig, PageTable, PAGE_SIZE};
use proptest::prelude::*;

/// Highest page number a 64-bit virtual address can produce.
const TOP_PAGE: u64 = u64::MAX >> 12;
/// First untrusted-heap page and first ELRANGE page of an `SgxMachine`.
const UNTRUSTED_PAGE: u64 = 0x1000_0000 >> 12;
const ENCLAVE_PAGE: u64 = 0x7000_0000_0000 >> 12;

/// One operation on a page map or set: (op, space, page, value). Each of
/// four spaces clusters its pages around its own base, 16 MiB either
/// side, so runs grow both up and down; `op == 7` drops a whole space.
fn arb_map_op() -> impl Strategy<Value = (u8, usize, u64, u32)> {
    (0u8..8, 0usize..4, 0u64..8192, 0u32..1000).prop_map(|(op, space, d, v)| {
        let base = [ENCLAVE_PAGE, UNTRUSTED_PAGE, 4096, TOP_PAGE - 4095][space];
        (op, space, base + d - 4096, v)
    })
}

/// Pages near the bottom and top of the untrusted heap, the first
/// ELRANGE and the top of the address space.
fn arb_touch_page() -> impl Strategy<Value = u64> {
    (0usize..3, 0u64..4096).prop_map(|(at, d)| match at {
        0 => UNTRUSTED_PAGE + d,
        1 => ENCLAVE_PAGE + d,
        _ => TOP_PAGE - d,
    })
}

fn arb_access() -> impl Strategy<Value = (u64, u64, AccessKind)> {
    (
        0u64..(64 * PAGE_SIZE),
        1u64..512,
        prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)],
    )
}

proptest! {
    /// Page faults never exceed distinct pages touched, and a replayed
    /// stream faults zero times.
    #[test]
    fn faults_bounded_by_distinct_pages(accesses in prop::collection::vec(arb_access(), 1..200)) {
        let mut m = Machine::new(MachineConfig::default());
        let t = m.add_thread();
        let mut pages = std::collections::BTreeSet::new();
        for &(addr, len, kind) in &accesses {
            m.access(t, addr, len, kind, &AccessAttrs::PLAIN);
            let first = addr / PAGE_SIZE;
            let last = (addr + len - 1) / PAGE_SIZE;
            for p in first..=last {
                pages.insert(p);
            }
        }
        prop_assert_eq!(m.counters().page_faults as usize, pages.len());

        // Replay: all pages are mapped, so zero faults.
        let before = *m.counters();
        for &(addr, len, kind) in &accesses {
            m.access(t, addr, len, kind, &AccessAttrs::PLAIN);
        }
        prop_assert_eq!(m.counters().page_faults, before.page_faults);
    }

    /// Cycle clocks and counters are monotone under any stream.
    #[test]
    fn clocks_and_counters_monotone(accesses in prop::collection::vec(arb_access(), 1..100)) {
        let mut m = Machine::new(MachineConfig::default());
        let t = m.add_thread();
        let mut last_cycles = 0;
        let mut last_reads = 0;
        for &(addr, len, kind) in &accesses {
            m.access(t, addr, len, kind, &AccessAttrs::PLAIN);
            let c = m.cycles_of(t);
            prop_assert!(c >= last_cycles);
            last_cycles = c;
            prop_assert!(m.counters().mem_reads >= last_reads);
            last_reads = m.counters().mem_reads;
        }
    }

    /// An EPC-attributed run of the same stream is never cheaper than the
    /// plain run (MEE + EPCM only add cost).
    #[test]
    fn epc_attrs_never_cheaper(accesses in prop::collection::vec(arb_access(), 1..100)) {
        let mut plain = Machine::new(MachineConfig::default());
        let tp = plain.add_thread();
        let mut epc = Machine::new(MachineConfig::default());
        let te = epc.add_thread();
        for &(addr, len, kind) in &accesses {
            plain.access(tp, addr, len, kind, &AccessAttrs::PLAIN);
            epc.access(te, addr, len, kind, &AccessAttrs::EPC);
        }
        prop_assert!(epc.cycles_of(te) >= plain.cycles_of(tp));
    }

    /// Flushing the TLB between accesses never decreases dTLB misses and
    /// never causes page faults.
    #[test]
    fn flush_increases_misses_not_faults(pages in prop::collection::vec(0u64..32, 2..50)) {
        let mut m = Machine::new(MachineConfig::default());
        let t = m.add_thread();
        for &p in &pages {
            m.access(t, p * PAGE_SIZE, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        }
        let faults = m.counters().page_faults;
        let misses = m.counters().dtlb_misses;
        for &p in &pages {
            m.flush_tlb(t);
            m.access(t, p * PAGE_SIZE, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        }
        prop_assert_eq!(m.counters().page_faults, faults);
        // Every post-flush access must walk.
        prop_assert_eq!(m.counters().dtlb_misses, misses + pages.len() as u64);
    }

    /// Counter arithmetic: (a + b) - b == a for any pair of snapshots.
    #[test]
    fn counter_arithmetic_roundtrips(vals in prop::collection::vec(0u64..1_000_000, 24)) {
        use mem_sim::Counters;
        let mk = |v: &[u64]| Counters {
            mem_reads: v[0],
            mem_writes: v[1],
            dtlb_misses: v[2],
            stlb_hits: v[3],
            walk_cycles: v[4],
            stall_cycles: v[5],
            llc_accesses: v[6],
            llc_misses: v[7],
            page_faults: v[8],
            compute_cycles: v[9],
            tlb_flushes: v[10],
            mee_cycles: v[11],
        };
        let a = mk(&vals[0..12]);
        let b = mk(&vals[12..24]);
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!(a.saturating_sub(&(a + b)), Counters::default());
    }

    /// `PageMap<u32>` behaves as a `BTreeMap<(space, page), u32>`.
    #[test]
    fn page_map_matches_btreemap(ops in prop::collection::vec(arb_map_op(), 1..300)) {
        let mut map: PageMap<u32> = PageMap::default();
        let mut oracle: BTreeMap<(usize, u64), u32> = BTreeMap::new();
        for &(op, space, page, v) in &ops {
            match op {
                0..=2 => {
                    map.insert(space, page, v);
                    oracle.insert((space, page), v);
                }
                3 | 4 => prop_assert_eq!(map.remove(space, page), oracle.remove(&(space, page))),
                7 => {
                    let before = oracle.len();
                    oracle.retain(|&(s, _), _| s != space);
                    prop_assert_eq!(map.remove_space(space), before - oracle.len());
                }
                _ => {
                    prop_assert_eq!(map.get(space, page), oracle.get(&(space, page)).copied());
                    let lowest = (0..4).find_map(|s| oracle.get(&(s, page)).map(|&v| (s, v)));
                    prop_assert_eq!(map.find_page(page), lowest);
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
        }
        for (&(space, page), &v) in &oracle {
            prop_assert_eq!(map.get(space, page), Some(v));
        }
    }

    /// `PageSet` behaves as a `BTreeSet<(space, page)>`.
    #[test]
    fn page_set_matches_btreeset(ops in prop::collection::vec(arb_map_op(), 1..300)) {
        let mut set = PageSet::default();
        let mut oracle: BTreeSet<(usize, u64)> = BTreeSet::new();
        for &(op, space, page, _) in &ops {
            match op {
                0..=2 => prop_assert_eq!(set.insert(space, page), oracle.insert((space, page))),
                3 | 4 => prop_assert_eq!(set.remove(space, page), oracle.remove(&(space, page))),
                7 => {
                    let before = oracle.len();
                    oracle.retain(|&(s, _)| s != space);
                    prop_assert_eq!(set.remove_space(space), before - oracle.len());
                }
                _ => prop_assert_eq!(set.contains(space, page), oracle.contains(&(space, page))),
            }
            prop_assert_eq!(set.len(), oracle.len());
        }
        for &(space, page) in &oracle {
            prop_assert!(set.contains(space, page));
        }
    }

    /// `PageTable::touch` faults exactly on the first touch of a page,
    /// wherever in the address space the page lies.
    #[test]
    fn page_table_faults_on_first_touch_only(pages in prop::collection::vec(arb_touch_page(), 1..300)) {
        let mut pt = PageTable::new();
        let mut oracle = BTreeSet::new();
        for &page in &pages {
            let fault = pt.touch(page) == PageStatus::MinorFault;
            prop_assert_eq!(fault, oracle.insert(page));
        }
    }
}

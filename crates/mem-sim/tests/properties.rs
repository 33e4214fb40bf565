//! Property-based tests over the memory-hierarchy model: invariants that
//! must hold for any access stream.

use mem_sim::{AccessAttrs, AccessKind, Machine, MachineConfig, PAGE_SIZE};
use proptest::prelude::*;

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
}

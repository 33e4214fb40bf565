//! Property tests for the SGX model: EPC residency invariants,
//! transition accounting under arbitrary access streams, and forks of a
//! built machine.

use mem_sim::{AccessKind, ThreadId, PAGE_SIZE};
use proptest::prelude::*;
use sgx_sim::epc::{Epc, EpcFaultKind, PageKey};
use sgx_sim::epcm::{Epcm, PagePerms};
use sgx_sim::host::TenantOp;
use sgx_sim::{EnclaveId, Host, SgxConfig, SgxMachine};

fn key(p: u64) -> PageKey {
    PageKey {
        enclave: EnclaveId(0),
        page: p,
    }
}

/// Heap of the forked-machine property: larger than its 64-frame EPC.
const FORK_HEAP: u64 = 96 * PAGE_SIZE;

/// A 64-frame machine inside a freshly built 256-page enclave (its
/// measurement pass evicts), returning the thread and heap base.
fn built_machine() -> (SgxMachine, ThreadId, u64) {
    let mut m = Host::builder()
        .sgx(SgxConfig::with_tiny_epc(64, 4))
        .build_machine();
    let t = m.add_thread();
    let e = m.create_enclave(256 * PAGE_SIZE, 16 * PAGE_SIZE).unwrap();
    let heap = m.alloc_enclave_heap(e, FORK_HEAP).unwrap();
    m.ecall_enter(t, e).unwrap();
    (m, t, heap)
}

fn fork_op() -> impl Strategy<Value = TenantOp> {
    prop_oneof![
        (0..FORK_HEAP, 1u64..8192, any::<bool>())
            .prop_map(|(offset, len, write)| TenantOp::Access { offset, len, write }),
        (1u64..20_000).prop_map(|cycles| TenantOp::Compute { cycles }),
        (1u64..5_000).prop_map(|work| TenantOp::Ocall { work }),
    ]
}

proptest! {
    /// A page is never both resident and evicted; residency never exceeds
    /// capacity; counters match set sizes.
    #[test]
    fn epc_residency_invariants(pages in prop::collection::vec(0u64..64, 1..300),
                                cap in 1usize..32, batch in 1usize..8) {
        let mut epc = Epc::new(cap, batch);
        for &p in &pages {
            epc.ensure_resident(key(p));
            prop_assert!(epc.resident_count() <= cap);
            prop_assert!(!(epc.is_resident(key(p)) && epc.is_evicted(key(p))));
        }
        // Every distinct page is exactly one of: resident, evicted.
        let distinct: std::collections::BTreeSet<_> = pages.iter().copied().collect();
        for &p in &distinct {
            prop_assert!(epc.is_resident(key(p)) ^ epc.is_evicted(key(p)),
                "page {p} must be exactly one of resident/evicted");
        }
        prop_assert_eq!(epc.resident_count() + epc.evicted_count(), distinct.len());
    }

    /// The second touch of a page without interleaving evictions is
    /// always `Resident`.
    #[test]
    fn immediate_retouch_is_resident(p in 0u64..1000, cap in 2usize..64) {
        let mut epc = Epc::new(cap, 1);
        epc.ensure_resident(key(p));
        let ev = epc.ensure_resident(key(p));
        prop_assert_eq!(ev.kind, EpcFaultKind::Resident);
        prop_assert!(ev.evicted.is_empty());
    }

    /// A working set within EPC capacity never evicts, no matter the
    /// access order.
    #[test]
    fn small_working_set_never_evicts(order in prop::collection::vec(0u64..16, 1..500),
                                      cap in 16usize..64) {
        let mut epc = Epc::new(cap, 4);
        for &p in &order {
            let ev = epc.ensure_resident(key(p));
            prop_assert!(ev.evicted.is_empty());
        }
    }

    /// SGX counters are consistent: loadbacks never exceed evictions, and
    /// every fault is an alloc or a loadback.
    #[test]
    fn machine_counter_consistency(pages in prop::collection::vec(0u64..48, 1..200)) {
        let mut m = Host::builder().sgx(SgxConfig::with_tiny_epc(16, 4)).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 48 * PAGE_SIZE).unwrap();
        m.reset_measurement();
        for &p in &pages {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        let c = *m.sgx_counters();
        prop_assert!(c.epc_loadbacks <= c.epc_evictions,
            "loadbacks {} > evictions {}", c.epc_loadbacks, c.epc_evictions);
        prop_assert_eq!(c.epc_faults, c.epc_allocs + c.epc_loadbacks);
        prop_assert_eq!(c.aex_exits, c.epc_faults);
    }

    /// Random alloc / evict / load-back / remove_enclave sequences
    /// preserve the EPC's structural invariants and the EPC↔EPCM
    /// ownership bijection: every resident frame has an EPCM entry whose
    /// owner and virtual page match, exactly as the §2.3 TLB-fill check
    /// requires. Ops are driven over three enclaves with disjoint page
    /// ranges (as disjoint ELRANGEs guarantee in the machine).
    #[test]
    fn epcm_ownership_bijection_under_random_ops(
        ops in prop::collection::vec((0u8..8, 0u64..48, 0usize..3), 1..250),
        cap in 2usize..24, batch in 1usize..8)
    {
        let mut epc = Epc::new(cap, batch);
        let mut epcm = Epcm::new();
        for &(op, page, owner) in &ops {
            let k = PageKey {
                enclave: EnclaveId(owner),
                page: owner as u64 * 1_000 + page,
            };
            match op {
                0..=5 => {
                    epcm.record_key(k, PagePerms::RW);
                    epc.ensure_resident(k);
                }
                6 => {
                    epcm.record_key(k, PagePerms::RW);
                    epc.mark_evicted(k);
                }
                _ => {
                    epc.remove_enclave(EnclaveId(owner));
                    epcm.remove_enclave(EnclaveId(owner));
                }
            }
            if let Err(e) = epc.check_invariants() {
                prop_assert!(false, "EPC invariant violated: {}", e);
            }
            for key in epc.resident_keys() {
                let entry = epcm.entry(key.page);
                prop_assert!(entry.is_some(), "resident {:?} missing from EPCM", key);
                let entry = entry.unwrap();
                prop_assert_eq!(entry.owner, key.enclave);
                prop_assert_eq!(entry.vpage, key.page);
            }
        }
    }

    /// Removing an enclave that owns no frames is behaviorally invisible:
    /// every later replacement decision (victim choice included) matches
    /// a clone that never saw the removal, so the clock hand's position
    /// is preserved exactly.
    #[test]
    fn noop_remove_enclave_preserves_replacement(
        warm in prop::collection::vec(0u64..32, 1..200),
        probe in prop::collection::vec(32u64..64, 1..50),
        cap in 2usize..16, batch in 1usize..4)
    {
        let mut a = Epc::new(cap, batch);
        for &p in &warm {
            a.ensure_resident(key(p));
        }
        let mut b = a.clone();
        prop_assert_eq!(b.remove_enclave(EnclaveId(7)), 0);
        for &p in &probe {
            let ea = a.ensure_resident(key(p));
            let eb = b.ensure_resident(key(p));
            prop_assert_eq!(ea.kind, eb.kind);
            prop_assert_eq!(ea.evicted, eb.evicted);
        }
    }

    /// The machine-wide invariant check holds after every access of an
    /// arbitrary stream that thrashes a tiny EPC (allocs, evictions and
    /// load-backs all occur), not just at end of run.
    #[test]
    fn machine_invariants_hold_under_random_streams(
        pages in prop::collection::vec(0u64..48, 1..150))
    {
        let mut m = Host::builder().sgx(SgxConfig::with_tiny_epc(16, 4)).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(64 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 48 * PAGE_SIZE).unwrap();
        if let Err(err) = m.check_invariants() {
            prop_assert!(false, "after build: {}", err);
        }
        for &p in &pages {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
            if let Err(err) = m.check_invariants() {
                prop_assert!(false, "after touching page {}: {}", p, err);
            }
        }
        m.destroy_enclave(e);
        if let Err(err) = m.check_invariants() {
            prop_assert!(false, "after teardown: {}", err);
        }
    }

    /// Transition bookkeeping: enters and exits pair up and each flushes
    /// the TLB exactly once.
    #[test]
    fn transitions_balance(n in 1usize..50) {
        let mut m = Host::builder().sgx(SgxConfig::with_tiny_epc(64, 4)).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.reset_measurement();
        for _ in 0..n {
            m.ecall_enter(t, e).unwrap();
            m.ecall_exit(t, e).unwrap();
        }
        prop_assert_eq!(m.sgx_counters().ecalls, n as u64);
        prop_assert_eq!(m.mem().counters().tlb_flushes, 2 * n as u64);
    }

    /// A clone of a built machine is a fork: over any op sequence it
    /// charges exactly the cycles, counters and driver samples of a
    /// machine built from scratch, and running it leaves the original
    /// as built. Runners launch each LibOS enclave once on this basis.
    #[test]
    fn forked_machine_matches_fresh_build(
        ops in prop::collection::vec(fork_op(), 1..120),
    ) {
        let (template, t, heap) = built_machine();
        let built = (*template.sgx_counters(), *template.mem().counters());
        let mut fork = template.clone();
        let (mut fresh, _, _) = built_machine();
        for &op in &ops {
            op.apply(&mut fork, t, heap, FORK_HEAP).unwrap();
            op.apply(&mut fresh, t, heap, FORK_HEAP).unwrap();
        }
        prop_assert_eq!(fork.mem().cycles_of(t), fresh.mem().cycles_of(t));
        prop_assert_eq!(*fork.sgx_counters(), *fresh.sgx_counters());
        prop_assert_eq!(fork.mem().counters(), fresh.mem().counters());
        prop_assert_eq!(fork.driver_stats(), fresh.driver_stats());
        prop_assert_eq!(fork.epc().resident_count(), fresh.epc().resident_count());
        prop_assert_eq!(fork.epc().evicted_count(), fresh.epc().evicted_count());
        prop_assert_eq!(fork.epcm().len(), fresh.epcm().len());
        prop_assert!(fork.check_invariants().is_ok());
        prop_assert_eq!(
            (*template.sgx_counters(), *template.mem().counters()),
            built
        );
    }
}

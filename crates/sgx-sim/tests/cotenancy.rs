//! Co-tenant host guarantees: a 1-tenant host is cycle- and
//! counter-identical to the legacy hand-driven `SgxMachine` path, the
//! N-tenant interleaver is deterministic, and shared-EPC attribution
//! lands on the right tenant.

use mem_sim::PAGE_SIZE;
use proptest::prelude::*;
use sgx_sim::host::{Host, TenantId, TenantOp, TenantSpec};
use sgx_sim::SgxConfig;

/// Random tenant op with offsets already inside a `heap_bytes` span (the
/// host clamps defensively, but in-range ops keep the legacy replay
/// trivially identical).
fn op_strategy(heap_bytes: u64) -> impl Strategy<Value = TenantOp> {
    prop_oneof![
        (0..heap_bytes, 1u64..4096, any::<bool>())
            .prop_map(|(offset, len, write)| TenantOp::Access { offset, len, write }),
        (1u64..20_000).prop_map(|cycles| TenantOp::Compute { cycles }),
        (1u64..5_000).prop_map(|work| TenantOp::Ocall { work }),
    ]
}

fn solo_spec() -> TenantSpec {
    TenantSpec {
        name: "solo".to_string(),
        enclave_bytes: 96 * PAGE_SIZE,
        content_bytes: 4 * PAGE_SIZE,
        heap_bytes: 48 * PAGE_SIZE,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISSUE 9 equivalence guarantee: over random op sequences, a
    /// 1-tenant co-tenant host and a legacy single-enclave machine agree
    /// on every clock and counter — the interleaver adds nothing.
    #[test]
    fn one_tenant_host_matches_legacy_machine(
        ops in prop::collection::vec(op_strategy(48 * PAGE_SIZE), 1..120),
    ) {
        let cfg = SgxConfig::with_tiny_epc(64, 4);
        let spec = solo_spec();

        let mut host = Host::builder()
            .sgx(cfg.clone())
            .build([spec.clone()])
            .unwrap();
        host.push_ops(TenantId(0), ops.iter().copied());
        host.run().unwrap();

        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(spec.enclave_bytes, spec.content_bytes).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, spec.heap_bytes).unwrap();
        let built = *m.sgx_counters();
        for &op in &ops {
            op.apply(&mut m, t, heap, spec.heap_bytes).unwrap();
        }

        let ht = host.tenant_thread(TenantId(0));
        prop_assert_eq!(host.machine().mem().cycles_of(ht), m.mem().cycles_of(t));
        prop_assert_eq!(*host.machine().sgx_counters(), *m.sgx_counters());
        prop_assert_eq!(host.machine().mem().counters(), m.mem().counters());
        prop_assert_eq!(
            host.machine().epc().resident_count(),
            m.epc().resident_count()
        );
        prop_assert_eq!(
            host.machine().epc().evicted_count(),
            m.epc().evicted_count()
        );
        prop_assert!(host.machine().check_invariants().is_ok());

        // The tenant's charged ledger is exactly the post-build counter
        // delta of the legacy run.
        let report = host.tenant_report(TenantId(0));
        let legacy = *m.sgx_counters();
        for f in sgx_sim::CounterField::ALL {
            prop_assert_eq!(report.charged.get(f), legacy.get(f) - built.get(f));
        }
    }
}

fn two_tenant_host() -> Host {
    Host::builder()
        .sgx(SgxConfig::with_tiny_epc(64, 4))
        .wave_cycles(5_000)
        .build([
            TenantSpec {
                name: "victim".to_string(),
                enclave_bytes: 32 * PAGE_SIZE,
                content_bytes: 0,
                heap_bytes: 8 * PAGE_SIZE,
            },
            TenantSpec {
                name: "antagonist".to_string(),
                enclave_bytes: 160 * PAGE_SIZE,
                content_bytes: 0,
                heap_bytes: 128 * PAGE_SIZE,
            },
        ])
        .unwrap()
}

fn queue_contending_ops(host: &mut Host) {
    // Victim: loops over a working set that fits the EPC on its own,
    // with compute between touches so the stream spans many waves.
    let victim_ops: Vec<TenantOp> = (0..1000)
        .flat_map(|i| {
            [
                TenantOp::Access {
                    offset: (i % 8) * PAGE_SIZE,
                    len: 64,
                    write: false,
                },
                TenantOp::Compute { cycles: 500 },
            ]
        })
        .collect();
    // Antagonist: streams a 2x-EPC span, thrashing the shared pool.
    let antagonist_ops: Vec<TenantOp> = (0..1000)
        .map(|i| TenantOp::Access {
            offset: (i % 128) * PAGE_SIZE,
            len: 64,
            write: true,
        })
        .collect();
    host.push_ops(TenantId(0), victim_ops);
    host.push_ops(TenantId(1), antagonist_ops);
}

#[test]
fn two_tenant_run_is_deterministic() {
    let run = || {
        let mut host = two_tenant_host();
        queue_contending_ops(&mut host);
        host.run().unwrap();
        (
            host.tenant_reports(),
            *host.machine().sgx_counters(),
            host.machine()
                .mem()
                .cycles_of(host.tenant_thread(TenantId(0))),
            host.machine()
                .mem()
                .cycles_of(host.tenant_thread(TenantId(1))),
        )
    };
    assert_eq!(run(), run(), "same specs + ops must replay identically");
}

#[test]
fn noisy_neighbor_attribution_lands_on_the_victim() {
    let mut host = two_tenant_host();
    queue_contending_ops(&mut host);
    host.run().unwrap();

    let victim = host.tenant_report(TenantId(0));
    let antagonist = host.tenant_report(TenantId(1));
    assert!(host.machine().check_invariants().is_ok());
    assert!(victim.waves > 1, "victim must be scheduled in waves");
    assert!(
        antagonist.charged.epc_evictions > 0,
        "the antagonist's faults must force evictions"
    );
    assert!(
        victim.epc.victimizations > 0,
        "the shared clock hand must victimize the victim's resident set"
    );
    assert!(
        victim.epc.loadbacks > 0 || victim.charged.epc_loadbacks > 0,
        "the victim must pay ELDUs to recover its working set"
    );
    // The EPC ledger distinguishes owner-attribution from charge
    // attribution: the victim's victimizations were not (all) charged by
    // the victim's own execution.
    assert!(
        antagonist.charged.epc_evictions + victim.charged.epc_evictions
            >= victim.epc.victimizations,
        "every victimization is some tenant's charged eviction"
    );
}

#[test]
fn one_tenant_alone_suffers_no_victimizations() {
    let mut host = Host::builder()
        .sgx(SgxConfig::with_tiny_epc(64, 4))
        .build([TenantSpec {
            name: "solo".to_string(),
            enclave_bytes: 32 * PAGE_SIZE,
            content_bytes: 0,
            heap_bytes: 8 * PAGE_SIZE,
        }])
        .unwrap();
    let ops: Vec<TenantOp> = (0..200)
        .map(|i| TenantOp::Access {
            offset: (i % 8) * PAGE_SIZE,
            len: 64,
            write: false,
        })
        .collect();
    host.push_ops(TenantId(0), ops);
    host.run().unwrap();
    let report = host.tenant_report(TenantId(0));
    assert_eq!(
        report.epc.victimizations, 0,
        "an all-resident solo tenant must never be victimized"
    );
    assert_eq!(report.charged.epc_evictions, 0);
}

#[test]
fn mid_run_teardown_keeps_survivors_consistent() {
    let mut host = two_tenant_host();
    queue_contending_ops(&mut host);
    host.run().unwrap();
    let before = host.tenant_report(TenantId(1));
    // Tear the antagonist down mid-campaign; the victim keeps running on
    // the shared (now quiet) EPC.
    host.evict_tenant(TenantId(1));
    assert!(host.machine().check_invariants().is_ok());
    let after = host.tenant_report(TenantId(1));
    assert_eq!(after.epc.resident_frames, 0, "teardown ends residency");
    assert_eq!(
        after.epc.allocs, before.epc.allocs,
        "teardown must not erase attribution history"
    );
    let victim_ops: Vec<TenantOp> = (0..200)
        .map(|i| TenantOp::Access {
            offset: (i % 8) * PAGE_SIZE,
            len: 64,
            write: false,
        })
        .collect();
    let evictions_before = host.tenant_report(TenantId(0)).charged.epc_evictions;
    host.push_ops(TenantId(0), victim_ops);
    host.run().unwrap();
    let victim = host.tenant_report(TenantId(0));
    assert_eq!(
        victim.charged.epc_evictions, evictions_before,
        "with the antagonist gone the victim's set is all-resident again"
    );
    assert!(host.machine().check_invariants().is_ok());
}

/// Regression: tearing an enclave down while a thread is inside used to
/// leave `in_enclave` dangling at the destroyed enclave and its TCS
/// accounting stuck, wedging the thread for every later tenant.
#[test]
fn destroy_enclave_forces_resident_threads_out() {
    let mut m = Host::builder()
        .sgx(SgxConfig::with_tiny_epc(64, 4))
        .build_machine();
    let t = m.add_thread();
    let e0 = m.create_enclave(16 * PAGE_SIZE, 0).unwrap();
    let e1 = m.create_enclave(16 * PAGE_SIZE, 0).unwrap();
    m.ecall_enter(t, e0).unwrap();
    m.destroy_enclave(e0);
    assert_eq!(
        m.current_enclave(t),
        None,
        "teardown must force the thread out of the dead enclave"
    );
    // The freed TCS slot and thread state must allow a fresh entry.
    m.ecall_enter(t, e1).unwrap();
    m.ecall_exit(t, e1).unwrap();
    assert!(m.check_invariants().is_ok());
}

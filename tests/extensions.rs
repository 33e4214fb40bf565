//! Integration: the platform extensions beyond the paper's baseline
//! (SGX2 EDMM, TLB reach, MEE sensitivity) behave as their ablation
//! benches assume.

use mem_sim::{AccessKind, PAGE_SIZE};
use sgxgauge::libos::{LibosProcess, Manifest};
use sgxgauge::sgx::{Host, SgxConfig};

/// SGX2 EDMM removes the start-up eviction storm entirely while leaving
/// demand paging intact.
#[test]
fn edmm_eliminates_startup_evictions() {
    let launch = |edmm: bool| {
        let mut cfg = SgxConfig::with_tiny_epc(4096, 16);
        cfg.sgx2_edmm = edmm;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let manifest = Manifest::builder("app")
            .enclave_size(512 << 20)
            .internal_memory(8 << 20)
            .build();
        let p = LibosProcess::launch(&mut m, t, &manifest).expect("launch");
        p.startup().epc_evictions
    };
    let sgx1 = launch(false);
    let sgx2 = launch(true);
    assert!(sgx1 > 50_000, "SGX1 must stream the 512 MB ELRANGE: {sgx1}");
    assert!(
        sgx2 < sgx1 / 10,
        "EDMM must collapse start-up evictions: {sgx2} vs {sgx1}"
    );
}

/// EDMM still demand-faults heap pages (EAUG/EACCEPT), costing slightly
/// more per fresh page than a plain SGX1 allocation.
#[test]
fn edmm_demand_faults_cost_eaccept() {
    let fresh_page_cycles = |edmm: bool| {
        let mut cfg = SgxConfig::with_tiny_epc(4096, 16);
        cfg.sgx2_edmm = edmm;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(64 << 20, 1 << 20).expect("enclave");
        m.ecall_enter(t, e).expect("enter");
        let heap = m.alloc_enclave_heap(e, 1 << 20).expect("heap");
        m.reset_measurement();
        m.access(t, heap, 8, AccessKind::Write);
        m.mem().cycles_of(t)
    };
    let sgx1 = fresh_page_cycles(false);
    let sgx2 = fresh_page_cycles(true);
    assert!(sgx2 > sgx1, "EACCEPT must add cost: {sgx2} vs {sgx1}");
    assert!(sgx2 < sgx1 * 2, "but not dominate the fault path");
}

/// Scaling TLB entries (the huge-page reach approximation) monotonically
/// reduces dTLB misses on a TLB-hostile stream.
#[test]
fn tlb_reach_cuts_misses() {
    let misses = |reach: usize| {
        let mut cfg = SgxConfig::with_tiny_epc(16_384, 16);
        cfg.mem.l1_tlb_entries *= reach;
        cfg.mem.stlb_entries *= reach;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(48 << 20, 1 << 20).expect("enclave");
        m.ecall_enter(t, e).expect("enter");
        let pages = (32 << 20) / PAGE_SIZE;
        let heap = m.alloc_enclave_heap(e, pages * PAGE_SIZE).expect("heap");
        let mut x = 0xfeed_f00d_dead_beefu64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            m.access(t, heap + (x % pages) * PAGE_SIZE, 8, AccessKind::Read);
        }
        m.mem().counters().dtlb_misses
    };
    let base = misses(1);
    let wide = misses(16);
    assert!(
        wide < base / 2,
        "16x reach must cut misses: {wide} vs {base}"
    );
}

/// The MEE multiplier only affects EPC-bound traffic: vanilla-region
/// accesses are immune.
#[test]
fn mee_multiplier_scoped_to_epc() {
    let run = |mult: u64| {
        let mut cfg = SgxConfig::with_tiny_epc(16_384, 16);
        cfg.mem.latency.mee_mult_x100 = mult;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let buf = m.alloc_untrusted(16 << 20);
        for p in 0..(16 << 20) / PAGE_SIZE {
            m.access(t, buf + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        m.mem().cycles_of(t)
    };
    assert_eq!(
        run(100),
        run(500),
        "untrusted traffic must not pay MEE costs"
    );
}

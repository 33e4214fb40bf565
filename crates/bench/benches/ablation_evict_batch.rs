//! Ablation: EWB eviction batch size.
//!
//! Appendix A notes the driver evicts pages in batches "that is
//! typically 16 pages" while faults load back one page at a time. This
//! ablation sweeps the batch size on a thrashing workload: small batches
//! evict pages that are still hot less often but pay the sweep overhead
//! per fault; large batches amortize the sweep but evict deeper into the
//! working set.

use mem_sim::{AccessKind, PAGE_SIZE};
use sgx_sim::{Host, SgxConfig};
use sgxgauge_bench::{banner, emit, fk, fx};
use sgxgauge_core::report::ReportTable;

fn run(batch: usize) -> (u64, u64, u64) {
    // 16 MB EPC, 24 MB working set, random walk: persistent thrash.
    let cfg = SgxConfig {
        evict_batch: batch,
        epc_bytes: 16 << 20,
        epc_reserved_bytes: 0,
        ..Default::default()
    };
    let mut m = Host::builder().sgx(cfg).build_machine();
    let t = m.add_thread();
    let ws_pages = (24 << 20) / PAGE_SIZE;
    let e = m
        .create_enclave(ws_pages * PAGE_SIZE + (8 << 20), 1 << 20)
        .expect("enclave");
    m.ecall_enter(t, e).expect("enter");
    let heap = m.alloc_enclave_heap(e, ws_pages * PAGE_SIZE).expect("heap");
    for p in 0..ws_pages {
        m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
    }
    m.reset_measurement();
    let mut x = 0x0123_4567_89ab_cdefu64;
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.access(t, heap + (x % ws_pages) * PAGE_SIZE, 8, AccessKind::Read);
    }
    let c = m.sgx_counters();
    (m.mem().cycles_of(t), c.epc_evictions, c.epc_loadbacks)
}

fn main() {
    banner(
        "Ablation — EWB eviction batch size",
        "the driver's batch of 16 balances sweep amortization vs hot-page eviction",
    );
    let (base, _, _) = run(16);
    let mut table = ReportTable::new(
        "Random 1.5x-EPC walk under different eviction batches",
        &["batch", "cycles", "vs_batch16", "evictions", "loadbacks"],
    );
    for batch in [1usize, 4, 16, 64, 256] {
        let (cycles, ev, lb) = run(batch);
        table.push_row(vec![
            batch.to_string(),
            cycles.to_string(),
            fx(cycles as f64 / base as f64),
            fk(ev),
            fk(lb),
        ]);
    }
    emit("ablation_evict_batch", &table);
    println!("Shape check: very large batches evict hot pages (loadbacks rise);");
    println!("the driver's default of 16 sits near the flat bottom of the curve.");
}

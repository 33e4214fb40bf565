//! Ablation: multi-enclave EPC contention.
//!
//! §3.2.1: "Multiple instances of an enclave with a small memory
//! footprint may also cause a number of EPC faults" — the EPC is a
//! platform-wide resource. Each enclave here fits comfortably on its
//! own; run several side by side and the paging storm appears anyway.

use mem_sim::{AccessKind, PAGE_SIZE};
use sgx_sim::{Host, SgxConfig};
use sgxgauge_bench::{banner, emit, fk, scale};
use sgxgauge_core::report::ReportTable;

/// Runs `n` enclaves, each with a working set of a third of the EPC,
/// interleaving their access streams round-robin (as co-scheduled
/// tenants would); returns total cycles and evictions.
fn run(n: usize) -> (u64, u64) {
    let cfg = SgxConfig {
        epc_bytes: (92 << 20) / scale().max(1),
        epc_reserved_bytes: 0,
        ..Default::default()
    };
    let ws_pages = cfg.epc_bytes / PAGE_SIZE / 3;
    let mut m = Host::builder().sgx(cfg).build_machine();
    let mut threads = Vec::new();
    let mut heaps = Vec::new();
    for _ in 0..n {
        let t = m.add_thread();
        let e = m
            .create_enclave(ws_pages * PAGE_SIZE + (16 << 20), 1 << 20)
            .expect("enclave");
        m.ecall_enter(t, e).expect("enter");
        let heap = m.alloc_enclave_heap(e, ws_pages * PAGE_SIZE).expect("heap");
        threads.push(t);
        heaps.push(heap);
    }
    m.reset_measurement();
    // Interleaved sequential sweeps, 3 rounds each.
    for _ in 0..3 {
        for p in 0..ws_pages {
            for (i, &t) in threads.iter().enumerate() {
                m.access(t, heaps[i] + p * PAGE_SIZE, 8, AccessKind::Read);
            }
        }
    }
    let cycles: u64 = threads.iter().map(|&t| m.mem().cycles_of(t)).sum();
    (cycles / n as u64, m.sgx_counters().epc_evictions)
}

fn main() {
    banner(
        "Ablation — multi-enclave EPC contention",
        "enclaves that fit alone thrash together (EPC is platform-shared, §3.2.1)",
    );
    let (base, _) = run(1);
    let mut table = ReportTable::new(
        "N tenants, each using EPC/3, interleaved",
        &[
            "enclaves",
            "cycles_per_enclave",
            "slowdown",
            "total_evictions",
        ],
    );
    for n in [1usize, 2, 3, 4, 6] {
        let (per, ev) = run(n);
        table.push_row(vec![
            n.to_string(),
            per.to_string(),
            format!("{:.2}x", per as f64 / base as f64),
            fk(ev),
        ]);
    }
    emit("ablation_multi_enclave", &table);
    println!("Shape check: 1-3 enclaves fit (zero evictions); the 4th tips the EPC");
    println!("and every tenant slows down — faults are a platform externality.");
}

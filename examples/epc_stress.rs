//! EPC stress: watch every paging counter jump as a workload's footprint
//! sweeps across the EPC boundary (the paper's Figure 2 phenomenon, on a
//! finer grid).
//!
//! ```sh
//! cargo run --release --example epc_stress
//! ```

use mem_sim::{AccessKind, PAGE_SIZE};
use sgxgauge::sgx::{Host, SgxConfig};

fn main() {
    // A small EPC keeps the sweep fast; ratios are what matter.
    let epc_pages: u64 = 4_096; // 16 MB
    println!(
        "EPC: {} pages ({} MB). Sweeping working sets from 25% to 250% of it.",
        epc_pages,
        (epc_pages * PAGE_SIZE) >> 20
    );
    println!();
    println!(
        "{:>10} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "ws/epc", "ws_pages", "cycles/acc", "dtlb_misses", "walk_cycles", "evictions"
    );

    for pct in [25u64, 50, 75, 90, 100, 110, 125, 150, 200, 250] {
        let ws_pages = epc_pages * pct / 100;
        let mut m = Host::builder()
            .sgx(SgxConfig::with_tiny_epc(epc_pages as usize, 16))
            .build_machine();
        let t = m.add_thread();
        let e = m
            .create_enclave(ws_pages * PAGE_SIZE + (8 << 20), 1 << 20)
            .expect("enclave");
        m.ecall_enter(t, e).expect("enter");
        let heap = m.alloc_enclave_heap(e, ws_pages * PAGE_SIZE).expect("heap");

        // Warm-up sweep (populates pages), then measured random walk.
        for p in 0..ws_pages {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        m.reset_measurement();
        let mut x = 0x243f6a8885a308d3u64;
        let accesses = 200_000u64;
        for _ in 0..accesses {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            m.access(t, heap + (x % ws_pages) * PAGE_SIZE, 8, AccessKind::Read);
        }
        let c = m.mem().counters();
        let s = m.sgx_counters();
        println!(
            "{:>9}% {:>9} {:>12.1} {:>12} {:>12} {:>12}",
            pct,
            ws_pages,
            m.mem().cycles_of(t) as f64 / accesses as f64,
            c.dtlb_misses,
            c.walk_cycles,
            s.epc_evictions,
        );
    }
    println!();
    println!("Note the cliff between 100% and 110%: that is the paper's Figure 2.");
}

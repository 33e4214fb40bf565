//! Figure 7 / Appendix A: latency of the core SGX driver operations.
//!
//! Paper: `sgx_alloc_page`, `sgx_ewb`, `sgx_eldu`, `sgx_do_fault` run in
//! a few microseconds; evicting a page costs 16% more than loading one
//! back; ≈12000 cycles per EWB (§2.2); pages are evicted in batches of
//! 16 while faults load back a single page. Means over 40 K+ samples.

use mem_sim::{AccessKind, PAGE_SIZE};
use sgx_sim::{DriverOp, Host, SgxConfig};
use sgxgauge_bench::{banner, emit};
use sgxgauge_core::report::ReportTable;

fn main() {
    banner(
        "Figure 7 — latency of core SGX driver operations",
        "few-microsecond ops; EWB ~16% slower than ELDU; 40K+ samples",
    );

    // Thrash a 92 MB EPC with a 3x working set until every op has tens
    // of thousands of samples, like the paper's ftrace collection.
    let mut m = Host::builder().sgx(SgxConfig::default()).build_machine();
    let t = m.add_thread();
    let ws_bytes: u64 = 276 << 20;
    let e = m
        .create_enclave(ws_bytes + (32 << 20), 4 << 20)
        .expect("enclave");
    m.ecall_enter(t, e).expect("enter");
    let heap = m.alloc_enclave_heap(e, ws_bytes).expect("heap");
    m.reset_measurement();
    let pages = ws_bytes / PAGE_SIZE;
    let mut sweeps = 0;
    while m.driver_stats().stats(DriverOp::Eldu).count < 40_000 {
        for p in 0..pages {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        sweeps += 1;
        if sweeps > 16 {
            break;
        }
    }

    let ghz = 3.8;
    let mut table = ReportTable::new(
        "Fig 7: driver-op latencies (mean over samples)",
        &[
            "operation",
            "samples",
            "mean_cycles",
            "mean_us",
            "min_us",
            "max_us",
        ],
    );
    for op in DriverOp::ALL {
        let s = m.driver_stats().stats(op);
        table.push_row(vec![
            op.to_string(),
            s.count.to_string(),
            s.mean_cycles().to_string(),
            format!("{:.2}", s.mean_micros(ghz)),
            format!("{:.2}", s.min_cycles as f64 / (ghz * 1000.0)),
            format!("{:.2}", s.max_cycles as f64 / (ghz * 1000.0)),
        ]);
    }
    emit("fig07_sgx_latencies", &table);

    let ewb = m.driver_stats().stats(DriverOp::Ewb).mean_cycles() as f64;
    let eldu = m.driver_stats().stats(DriverOp::Eldu).mean_cycles() as f64;
    println!(
        "Shape check: EWB/ELDU = {:.2} (paper: 1.16 — eviction 16% costlier than load-back); EWB ~= {:.0} cycles (paper: ~12000)",
        ewb / eldu,
        ewb
    );
}

//! Figure 8 / Appendix B: Native-mode counter heat-map per workload.
//!
//! Paper: a per-workload matrix of counter overheads (Native vs Vanilla)
//! across the Low/Medium/High settings, with workload-specific analyses:
//! Blockchain's dTLB misses explode from ECALL flushes (§B.1), B-Tree's
//! misses are fault-dominated (§B.3), HashJoin's page faults grow ~246x
//! (§B.4), BFS stays flat from locality (§B.5), PageRank's own streaming
//! dominates (§B.6).

use sgxgauge_bench::{banner, emit, fx, native_paper_suite, paper_runner};
use sgxgauge_core::report::{RatioRow, ReportTable};
use sgxgauge_core::{ExecMode, InputSetting};

fn main() {
    banner(
        "Figure 8 — Native-mode counter heat-map",
        "per-workload counter overheads vs Vanilla across input settings",
    );
    let runner = paper_runner();
    let suite = native_paper_suite();

    let mut table = ReportTable::new(
        "Fig 8: Native/Vanilla counter ratios",
        &[
            "workload",
            "setting",
            "overhead",
            "dtlb_misses",
            "walk_cycles",
            "stall_cycles",
            "llc_misses",
            "page_faults",
            "ecalls",
        ],
    );
    for wl in &suite {
        for setting in InputSetting::ALL {
            let v = runner
                .run_once(wl.as_ref(), ExecMode::Vanilla, setting)
                .expect("vanilla");
            let n = runner
                .run_once(wl.as_ref(), ExecMode::Native, setting)
                .expect("native");
            let r = RatioRow::from_reports(&n, &v);
            table.push_row(vec![
                wl.name().to_string(),
                setting.to_string(),
                fx(r.overhead),
                fx(r.dtlb_misses),
                fx(r.walk_cycles),
                fx(r.stall_cycles),
                fx(r.llc_misses),
                fx(r.page_faults),
                n.sgx.ecalls.to_string(),
            ]);
        }
    }
    emit("fig08_native_heatmap", &table);
    println!("Shape checks (Appendix B): Blockchain shows the largest dTLB/walk ratios (ECALL TLB");
    println!(
        "flushes; paper: ~2000x); page-fault ratios (which include EPC faults, as perf counts"
    );
    println!(
        "them) grow with input size for the EPC-bound workloads; BFS stays comparatively flat"
    );
    println!("(locality, B.5); PageRank's own streaming dominates its dTLB losses (B.6).");
}

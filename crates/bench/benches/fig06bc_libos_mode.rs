//! Figures 6b and 6c: LibOS-mode overhead and EPC page reloads.
//!
//! Paper (§5.4): overhead grows up to 8.7x from Low to Medium and up to
//! 2.7x from Medium to High; EPC load-backs grow up to 341x (Low→Medium)
//! and 4.1x (Medium→High). Start-up is excluded (Appendix D).

use sgxgauge_bench::{banner, emit, expect_report, fk, fx, paper_suite, run_grid};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{ExecMode, InputSetting};

fn main() {
    banner(
        "Figures 6b/6c — LibOS mode overhead and EPC reloads",
        "Low->Medium: up to 8.7x overhead, up to 341x loadbacks; Medium->High flatter",
    );
    let all = paper_suite();
    let sweep = run_grid(
        &all,
        &[ExecMode::Vanilla, ExecMode::LibOs],
        &InputSetting::ALL,
    );

    let mut table = ReportTable::new(
        "Fig 6b+6c: LibOS vs Vanilla overhead and EPC load-backs",
        &[
            "workload",
            "setting",
            "overhead_vs_vanilla",
            "epc_loadbacks",
            "epc_evictions",
        ],
    );
    let mut max_lm: f64 = 0.0;
    let mut max_mh: f64 = 0.0;
    for (wi, wl) in all.iter().enumerate() {
        let mut loads = Vec::new();
        for setting in InputSetting::ALL {
            let v = expect_report(&sweep, wi, ExecMode::Vanilla, setting);
            let l = expect_report(&sweep, wi, ExecMode::LibOs, setting);
            let overhead = l.runtime_cycles as f64 / v.runtime_cycles as f64;
            table.push_row(vec![
                wl.name().to_string(),
                setting.to_string(),
                fx(overhead),
                fk(l.sgx.epc_loadbacks),
                fk(l.sgx.epc_evictions),
            ]);
            loads.push(l.sgx.epc_loadbacks.max(1) as f64);
        }
        max_lm = max_lm.max(loads[1] / loads[0]);
        max_mh = max_mh.max(loads[2] / loads[1]);
    }
    emit("fig06bc_libos_mode", &table);
    println!("Shape check: max Low->Medium load-back growth = {max_lm:.0}x (paper: up to 341x);");
    println!("max Medium->High growth = {max_mh:.1}x (paper: up to 4.1x).");
}

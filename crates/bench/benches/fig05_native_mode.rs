//! Figure 5: Native-mode performance impact per workload per input size.
//!
//! Paper (§5.3, Fig 5a/5b): overhead grows by up to 8.8x from Low to
//! Medium and a further 1.4x from Medium to High; EPC evictions grow by
//! up to 75x (Low→Medium) and 2.6x (Medium→High) — the cliff is at the
//! EPC boundary, not beyond it.

use sgxgauge_bench::{banner, emit, expect_report, fk, fx, native_paper_suite, run_grid};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{ExecMode, InputSetting};

fn main() {
    banner(
        "Figure 5 — Native mode per workload (5a: overhead, 5b: EPC evictions)",
        "Low->Medium jump up to 8.8x overhead / 75x evictions; Medium->High much flatter",
    );
    let suite = native_paper_suite();
    let sweep = run_grid(
        &suite,
        &[ExecMode::Vanilla, ExecMode::Native],
        &InputSetting::ALL,
    );

    let mut table = ReportTable::new(
        "Fig 5a+5b: Native vs Vanilla overhead and EPC evictions",
        &[
            "workload",
            "setting",
            "overhead_vs_vanilla",
            "epc_evictions",
            "epc_loadbacks",
        ],
    );
    let mut max_lm: f64 = 0.0;
    let mut max_mh: f64 = 0.0;
    for (wi, wl) in suite.iter().enumerate() {
        let mut per_setting = Vec::new();
        for setting in InputSetting::ALL {
            let v = expect_report(&sweep, wi, ExecMode::Vanilla, setting);
            let n = expect_report(&sweep, wi, ExecMode::Native, setting);
            let overhead = n.runtime_cycles as f64 / v.runtime_cycles as f64;
            table.push_row(vec![
                wl.name().to_string(),
                setting.to_string(),
                fx(overhead),
                fk(n.sgx.epc_evictions),
                fk(n.sgx.epc_loadbacks),
            ]);
            per_setting.push(overhead);
        }
        max_lm = max_lm.max(per_setting[1] / per_setting[0]);
        max_mh = max_mh.max(per_setting[2] / per_setting[1]);
    }
    emit("fig05_native_mode", &table);
    println!("Shape check: max Low->Medium overhead growth = {max_lm:.1}x (paper: up to 8.8x);");
    println!("max Medium->High growth = {max_mh:.1}x (paper: up to 1.4x) — the cliff is at the boundary.");
}

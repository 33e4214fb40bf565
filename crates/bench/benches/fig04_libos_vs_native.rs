//! Figure 4: a library OS can help or hurt, depending on the workload.
//!
//! Paper: "a library operating system may affect the performance of an
//! application in a positive or negative manner, depending on the
//! characteristics of the application" (§3.2.3); overall LibOS ≈ Native
//! within ±10% (abstract).

use sgxgauge_bench::{banner, emit, expect_report, fx, native_paper_suite, run_grid};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{ExecMode, InputSetting};

fn main() {
    banner(
        "Figure 4 — LibOS vs Native per workload",
        "LibOS impact is workload-dependent, overall within ~±10% of Native",
    );
    let suite = native_paper_suite();
    let sweep = run_grid(
        &suite,
        &[ExecMode::Native, ExecMode::LibOs],
        &[InputSetting::High],
    );

    let mut table = ReportTable::new(
        "Fig 4: LibOS/Native runtime ratio (High setting)",
        &[
            "workload",
            "native_cycles",
            "libos_cycles",
            "libos_over_native",
        ],
    );
    let mut ratios = Vec::new();
    for (wi, wl) in suite.iter().enumerate() {
        let n = expect_report(&sweep, wi, ExecMode::Native, InputSetting::High);
        let l = expect_report(&sweep, wi, ExecMode::LibOs, InputSetting::High);
        let ratio = l.runtime_cycles as f64 / n.runtime_cycles as f64;
        ratios.push(ratio);
        table.push_row(vec![
            wl.name().to_string(),
            n.runtime_cycles.to_string(),
            l.runtime_cycles.to_string(),
            fx(ratio),
        ]);
    }
    emit("fig04_libos_vs_native", &table);

    let gm = gauge_stats::geomean(&ratios);
    println!("Shape check: geomean LibOS/Native = {gm:.2}x (paper: ~1.0 +- 0.1)");
    let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
        - ratios.iter().cloned().fold(f64::MAX, f64::min);
    println!("Per-workload spread = {spread:.2} (paper: both positive and negative impacts occur)");
}

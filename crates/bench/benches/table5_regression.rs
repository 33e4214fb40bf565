//! Table 5 / Appendix C: ranking counters by standardized regression
//! coefficients.
//!
//! Paper: fit execution time as a linear function of {walk cycles, stall
//! cycles, page faults, dTLB misses, LLC misses, EPC evictions}; the
//! coefficient magnitudes rank each counter's importance per workload.
//! "Most of the time paging and TLB-related counters are the most
//! correlated with the performance."

use gauge_stats::standardized_coefficients;
use sgxgauge_bench::{banner, emit, paper_runner, scale};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{ExecMode, InputSetting, RunReport};
use sgxgauge_workloads::{suite, suite_scaled};

const COUNTER_NAMES: [&str; 6] = [
    "walk_cycles",
    "stall_cycles",
    "page_faults",
    "dtlb_misses",
    "llc_misses",
    "epc_evictions",
];

fn features(r: &RunReport) -> Vec<f64> {
    vec![
        r.counters.walk_cycles as f64,
        r.counters.stall_cycles as f64,
        r.counters.page_faults as f64,
        r.counters.dtlb_misses as f64,
        r.counters.llc_misses as f64,
        r.sgx.epc_evictions as f64,
    ]
}

fn main() {
    banner(
        "Table 5 — counter importance by standardized regression",
        "paging/TLB counters dominate execution-time prediction",
    );
    let runner = paper_runner();
    // Sample matrix: 3 settings x supported SGX modes x 3 size variants,
    // giving 9-18 observations per workload for 6 features. A minimum
    // divisor of 2 keeps this (the heaviest bench) tractable without
    // changing which counters dominate.
    let base = scale().max(2);
    let divisors = [base, base * 2, base * 3];

    let mut table = ReportTable::new(
        "Table 5: standardized coefficients (dominant counter starred)",
        &[
            "workload",
            "walk_cycles",
            "stall_cycles",
            "page_faults",
            "dtlb_misses",
            "llc_misses",
            "epc_evictions",
            "dominant",
        ],
    );

    let names: Vec<&'static str> = suite().iter().map(|w| w.name()).collect();
    for (wi, name) in names.iter().enumerate() {
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for &d in &divisors {
            let wls = suite_scaled(d);
            let wl = &wls[wi];
            for mode in [ExecMode::Native, ExecMode::LibOs] {
                if !wl.supports(mode) {
                    continue;
                }
                for setting in InputSetting::ALL {
                    match runner.run_once(wl.as_ref(), mode, setting) {
                        Ok(r) => {
                            xs.push(features(&r));
                            ys.push(r.runtime_cycles as f64);
                        }
                        Err(e) => eprintln!("skipping {name} {mode} {setting}: {e}"),
                    }
                }
            }
        }
        match standardized_coefficients(&xs, &ys) {
            Ok(coefs) => {
                let dominant = coefs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("no NaN"))
                    .map(|(i, _)| COUNTER_NAMES[i])
                    .unwrap_or("-");
                let mut row = vec![name.to_string()];
                row.extend(coefs.iter().map(|c| format!("{c:.2}")));
                row.push(dominant.to_string());
                table.push_row(row);
            }
            Err(e) => {
                let mut row = vec![name.to_string()];
                row.extend(std::iter::repeat_n("-".to_string(), 6));
                row.push(format!("({e})"));
                table.push_row(row);
            }
        }
    }
    emit("table5_regression", &table);
    println!("Shape check: the dominant column should mostly name paging/TLB counters (walk cycles, dTLB misses, page faults).");
}

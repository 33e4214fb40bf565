//! Table 4: overhead in system-related events, geomean across workloads.
//!
//! Paper rows (Table 4): Native-vs-Vanilla over the 6 ported workloads,
//! LibOS-vs-Vanilla over all 10, LibOS-vs-Native over the 6, each at
//! Low/Medium/High — runtime overhead plus dTLB misses, walk cycles,
//! stall cycles, LLC misses and absolute EPC evictions.

use sgxgauge_bench::{banner, emit, expect_report, fk, fx, paper_suite, run_grid};
use sgxgauge_core::report::{RatioRow, ReportTable};
use sgxgauge_core::sweep::SweepReport;
use sgxgauge_core::{ExecMode, InputSetting};

/// One geomean row per setting: ratio of `num` over `den` mode across
/// the grid cells of `indices` (workload positions in the sweep).
fn section(
    title: &str,
    table: &mut ReportTable,
    sweep: &SweepReport,
    indices: &[usize],
    num: ExecMode,
    den: ExecMode,
) {
    for setting in InputSetting::ALL {
        let rows: Vec<RatioRow> = indices
            .iter()
            .map(|&wi| {
                RatioRow::from_reports(
                    expect_report(sweep, wi, num, setting),
                    expect_report(sweep, wi, den, setting),
                )
            })
            .collect();
        let g = RatioRow::geomean_of(&rows);
        table.push_row(vec![
            title.to_string(),
            setting.to_string(),
            fx(g.overhead),
            fx(g.dtlb_misses),
            fx(g.walk_cycles),
            fx(g.stall_cycles),
            fx(g.llc_misses),
            fk(g.epc_evictions),
        ]);
    }
}

fn main() {
    banner(
        "Table 4 — overhead in system-related events",
        "Native/Vanilla: 2.0x/3.0x/3.4x; LibOS/Vanilla: 2.03x/3.13x/3.7x; LibOS/Native: ~1.0x",
    );
    let all = paper_suite();
    let native_capable: Vec<usize> = all
        .iter()
        .enumerate()
        .filter(|(_, w)| w.supports(ExecMode::Native))
        .map(|(i, _)| i)
        .collect();
    let everyone: Vec<usize> = (0..all.len()).collect();

    // One sweep covers every (num, den) pair below: the grid skips modes
    // a workload doesn't support, and the sections only index cells that
    // exist.
    let sweep = run_grid(&all, &ExecMode::ALL, &InputSetting::ALL);

    let mut table = ReportTable::new(
        "Table 4 (geomean across workloads)",
        &[
            "comparison",
            "setting",
            "overhead",
            "dtlb_misses",
            "walk_cycles",
            "stall_cycles",
            "llc_misses",
            "epc_evictions",
        ],
    );

    section(
        "Native w.r.t Vanilla (6 workloads)",
        &mut table,
        &sweep,
        &native_capable,
        ExecMode::Native,
        ExecMode::Vanilla,
    );
    section(
        "LibOS w.r.t Vanilla (10 workloads)",
        &mut table,
        &sweep,
        &everyone,
        ExecMode::LibOs,
        ExecMode::Vanilla,
    );
    section(
        "LibOS w.r.t Native (6 workloads)",
        &mut table,
        &sweep,
        &native_capable,
        ExecMode::LibOs,
        ExecMode::Native,
    );

    emit("table4_overheads", &table);
    println!("Shape checks: overhead must rise Low->Medium->High within the first two sections;");
    println!("the LibOS-vs-Native overhead should sit near 1.0x and *decrease* as inputs grow (paper: 1.03x, 1.03x, 0.9x).");
}

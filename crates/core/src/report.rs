//! Report generation: the paper's ratio tables and CSV emission.

use crate::modes::{ExecMode, InputSetting};
use crate::runner::RunReport;
use crate::sweep::SweepReport;
use gauge_stats::{geomean, ratio, Summary};
use std::fmt;

/// The counter ratios the paper tabulates (Table 4 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioRow {
    /// Runtime overhead (×).
    pub overhead: f64,
    /// dTLB-miss ratio (×).
    pub dtlb_misses: f64,
    /// Page-walk-cycle ratio (×).
    pub walk_cycles: f64,
    /// Stall-cycle ratio (×).
    pub stall_cycles: f64,
    /// LLC-miss ratio (×).
    pub llc_misses: f64,
    /// Page-fault ratio (×).
    pub page_faults: f64,
    /// Absolute EPC evictions of the numerator run.
    pub epc_evictions: u64,
    /// Absolute EPC load-backs of the numerator run.
    pub epc_loadbacks: u64,
}

impl RatioRow {
    /// Ratios of `a` (e.g. a Native run) over `b` (e.g. Vanilla).
    pub fn from_reports(a: &RunReport, b: &RunReport) -> RatioRow {
        RatioRow {
            overhead: ratio(a.runtime_cycles as f64, b.runtime_cycles as f64),
            dtlb_misses: ratio(a.counters.dtlb_misses as f64, b.counters.dtlb_misses as f64),
            walk_cycles: ratio(a.counters.walk_cycles as f64, b.counters.walk_cycles as f64),
            stall_cycles: ratio(
                a.counters.stall_cycles as f64,
                b.counters.stall_cycles as f64,
            ),
            llc_misses: ratio(a.counters.llc_misses as f64, b.counters.llc_misses as f64),
            // On real SGX every EPC fault reaches the OS as a page fault,
            // which is how `perf` counts them (paper B.3/B.4); fold the
            // EPC faults into the page-fault numerators.
            page_faults: ratio(
                (a.counters.page_faults + a.sgx.epc_faults) as f64,
                (b.counters.page_faults + b.sgx.epc_faults) as f64,
            ),
            epc_evictions: a.sgx.epc_evictions,
            epc_loadbacks: a.sgx.epc_loadbacks,
        }
    }

    /// Geometric mean over a set of rows, field-wise (how the paper
    /// aggregates "6 workloads" / "10 workloads" into one Table 4 line).
    /// Zero-valued entries are clamped to a tiny positive value so the
    /// geomean stays defined.
    pub fn geomean_of(rows: &[RatioRow]) -> RatioRow {
        fn g(vals: Vec<f64>) -> f64 {
            let clamped: Vec<f64> = vals.into_iter().map(|v| v.max(1e-6)).collect();
            geomean(&clamped)
        }
        RatioRow {
            overhead: g(rows.iter().map(|r| r.overhead).collect()),
            dtlb_misses: g(rows.iter().map(|r| r.dtlb_misses).collect()),
            walk_cycles: g(rows.iter().map(|r| r.walk_cycles).collect()),
            stall_cycles: g(rows.iter().map(|r| r.stall_cycles).collect()),
            llc_misses: g(rows.iter().map(|r| r.llc_misses).collect()),
            page_faults: g(rows.iter().map(|r| r.page_faults).collect()),
            epc_evictions: (rows.iter().map(|r| r.epc_evictions).sum::<u64>())
                / rows.len().max(1) as u64,
            epc_loadbacks: (rows.iter().map(|r| r.epc_loadbacks).sum::<u64>())
                / rows.len().max(1) as u64,
        }
    }
}

impl fmt::Display for RatioRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>6.2}x {:>8.2}x {:>8.2}x {:>8.2}x {:>7.2}x {:>9.1} K",
            self.overhead,
            self.dtlb_misses,
            self.walk_cycles,
            self.stall_cycles,
            self.llc_misses,
            self.epc_evictions as f64 / 1_000.0,
        )
    }
}

/// Repetitions of one (workload, mode, setting) grid group, aggregated
/// the way the paper aggregates runs (geometric means via `gauge_stats`).
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// Workload name.
    pub workload: &'static str,
    /// Execution mode.
    pub mode: ExecMode,
    /// Input setting.
    pub setting: InputSetting,
    /// Successful repetitions.
    pub reps: usize,
    /// Failed repetitions.
    pub failures: usize,
    /// Runtime-cycle statistics over the successful repetitions; `None`
    /// when every repetition failed.
    pub runtime_cycles: Option<Summary>,
    /// EPC-fault statistics over the successful repetitions.
    pub epc_faults: Option<Summary>,
}

/// Aggregates a sweep's repetitions per (workload, mode, setting), in
/// grid order. Repetitions are consecutive in a [`SweepReport`], so the
/// grouping is a single pass.
pub fn aggregate_sweep(sweep: &SweepReport) -> Vec<SweepGroup> {
    let mut groups: Vec<SweepGroup> = Vec::new();
    let mut runtimes: Vec<f64> = Vec::new();
    let mut faults: Vec<f64> = Vec::new();
    let mut flush = |g: &mut Option<SweepGroup>, runtimes: &mut Vec<f64>, faults: &mut Vec<f64>| {
        if let Some(mut group) = g.take() {
            if !runtimes.is_empty() {
                group.runtime_cycles = Some(Summary::of(runtimes));
                group.epc_faults = Some(Summary::of(faults));
            }
            runtimes.clear();
            faults.clear();
            groups.push(group);
        }
    };
    let mut current: Option<SweepGroup> = None;
    let mut current_key = None;
    for cell in &sweep.cells {
        // All repetitions of one (workload, mode, setting) share a
        // series key, so consecutive reps fold into one group.
        let key = cell.cell.series();
        if current_key != Some(key) {
            flush(&mut current, &mut runtimes, &mut faults);
            current_key = Some(key);
            current = Some(SweepGroup {
                workload: cell.workload,
                mode: cell.cell.mode,
                setting: cell.cell.setting,
                reps: 0,
                failures: 0,
                runtime_cycles: None,
                epc_faults: None,
            });
        }
        let group = current.as_mut().expect("group initialized above");
        match &cell.result {
            Ok(r) => {
                group.reps += 1;
                // Clamp to 1 so the geometric mean stays defined for
                // degenerate zero-cycle runs.
                runtimes.push(r.runtime_cycles.max(1) as f64);
                faults.push(r.sgx.epc_faults.max(1) as f64);
            }
            Err(_) => group.failures += 1,
        }
    }
    flush(&mut current, &mut runtimes, &mut faults);
    groups
}

/// Renders a sweep as the suite's summary table: one row per
/// (workload, mode, setting) with geomean runtime and fault statistics.
pub fn sweep_table(title: &str, sweep: &SweepReport) -> ReportTable {
    let mut table = ReportTable::new(
        title,
        &[
            "workload",
            "mode",
            "setting",
            "reps",
            "runtime(gm)",
            "epc_faults(gm)",
            "status",
        ],
    );
    for g in aggregate_sweep(sweep) {
        let (runtime, faults) = match (&g.runtime_cycles, &g.epc_faults) {
            (Some(rt), Some(pf)) => (humanize(rt.geomean as u64), humanize(pf.geomean as u64)),
            _ => ("-".to_owned(), "-".to_owned()),
        };
        let status = if g.failures == 0 {
            "ok".to_owned()
        } else {
            format!("{} failed", g.failures)
        };
        table.push_row(vec![
            g.workload.to_owned(),
            g.mode.to_string(),
            g.setting.to_string(),
            g.reps.to_string(),
            runtime,
            faults,
            status,
        ]);
    }
    table
}

/// Renders the sweep's poisoned cells: one row per quarantined or
/// skipped cell with its typed grid key, error class, attempt count and
/// condensed attempt trail — the supervisor's evidence table. Empty
/// when the sweep is healthy.
pub fn quarantine_table(sweep: &SweepReport) -> ReportTable {
    let mut table = ReportTable::new(
        "Quarantined cells",
        &["cell", "workload", "class", "attempts", "error", "trail"],
    );
    let poisoned = sweep.quarantined().chain(
        sweep
            .skipped()
            .filter_map(|c| c.result.as_ref().err().map(|e| (c, e))),
    );
    for (cell, err) in poisoned {
        let trail = cell
            .trail
            .iter()
            .map(|a| format!("#{} {}: {}", a.attempt, a.kind, a.message))
            .collect::<Vec<_>>()
            .join("; ");
        table.push_row(vec![
            cell.cell.to_string(),
            cell.workload.to_owned(),
            err.kind.to_string(),
            cell.attempts.to_string(),
            err.message.clone(),
            trail,
        ]);
    }
    table
}

/// A generic printable/CSV-able table.
#[derive(Debug, Clone, Default)]
pub struct ReportTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl ReportTable {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        ReportTable {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as CSV text: a header line, then one line per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ReportTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Where a run's cycles went: the decomposition behind the paper's
/// "three sources of overheads" framing (§1 — encryption, OS services,
/// paging). Categories are cycle totals summed over all threads, so for
/// multi-threaded runs they can exceed the elapsed wall-clock (which is
/// the max over thread clocks).
pub fn cycle_breakdown(r: &RunReport) -> Vec<(&'static str, u64)> {
    vec![
        ("compute", r.counters.compute_cycles),
        ("memory_stalls", r.counters.stall_cycles),
        ("page_walks", r.counters.walk_cycles),
        ("transitions", r.sgx.transition_cycles),
        ("epc_faults", r.sgx.fault_cycles),
    ]
}

/// Formats a count the way the paper does ("21.5 K", "1,792 K", "3.1 M").
pub fn humanize(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1} M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1} K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::modes::{ExecMode, InputSetting};
    use crate::workload::WorkloadOutput;
    use mem_sim::Counters;
    use sgx_sim::{DriverStats, SgxCounters};

    fn report(runtime: u64, dtlb: u64, evict: u64) -> RunReport {
        let counters = Counters {
            dtlb_misses: dtlb,
            walk_cycles: dtlb * 10,
            stall_cycles: dtlb * 20,
            llc_misses: dtlb / 2,
            page_faults: 5,
            ..Default::default()
        };
        let sgx = SgxCounters {
            epc_evictions: evict,
            ..Default::default()
        };
        RunReport {
            workload: "t",
            mode: ExecMode::Native,
            setting: InputSetting::Low,
            runtime_cycles: runtime,
            counters,
            sgx,
            driver: DriverStats::new(),
            libos_startup: None,
            clock_hz: 3_800_000_000,
            output: WorkloadOutput::default(),
            trace: None,
        }
    }

    #[test]
    fn ratio_row_divides() {
        let a = report(200, 80, 1000);
        let b = report(100, 10, 0);
        let r = RatioRow::from_reports(&a, &b);
        assert_eq!(r.overhead, 2.0);
        assert_eq!(r.dtlb_misses, 8.0);
        assert_eq!(r.epc_evictions, 1000);
    }

    #[test]
    fn geomean_of_rows() {
        let a = report(200, 20, 100);
        let b = report(100, 10, 0);
        let r1 = RatioRow::from_reports(&a, &b); // 2x
        let a2 = report(800, 80, 300);
        let r2 = RatioRow::from_reports(&a2, &b); // 8x
        let g = RatioRow::geomean_of(&[r1, r2]);
        assert!((g.overhead - 4.0).abs() < 1e-9);
        assert_eq!(g.epc_evictions, 200);
    }

    #[test]
    fn table_prints_and_csvs() {
        let mut t = ReportTable::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo") && s.contains('1'));
        assert_eq!(t.render(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn ragged_row_rejected() {
        let mut t = ReportTable::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn breakdown_covers_categories() {
        let mut r = report(1_000, 10, 0);
        r.counters.compute_cycles = 400;
        r.sgx.transition_cycles = 100;
        r.sgx.fault_cycles = 50;
        let b = cycle_breakdown(&r);
        assert_eq!(b.len(), 5);
        assert_eq!(b[0], ("compute", 400));
        assert_eq!(b[3], ("transitions", 100));
        assert_eq!(b[4], ("epc_faults", 50));
    }

    #[test]
    fn humanize_scales() {
        assert_eq!(humanize(999), "999");
        assert_eq!(humanize(21_500), "21.5 K");
        assert_eq!(humanize(12_500_000), "12.5 M");
    }

    fn sweep_of(cells: Vec<(u64, Result<u64, &str>)>) -> SweepReport {
        use crate::sweep::{CellError, CellErrorKind, CellKey, SweepCell};
        SweepReport {
            cells: cells
                .into_iter()
                .map(|(rep, result)| SweepCell {
                    cell: CellKey {
                        workload: 0,
                        mode: ExecMode::Native,
                        setting: InputSetting::Low,
                        rep: rep as usize,
                    },
                    attempts: 1,
                    backoff_cycles: 0,
                    trail: Vec::new(),
                    workload: "t",
                    result: match result {
                        Ok(rt) => {
                            let mut r = report(rt, 10, 0);
                            r.sgx.epc_faults = 4;
                            Ok(r)
                        }
                        Err(m) => Err(CellError {
                            kind: CellErrorKind::Fatal,
                            message: m.to_owned(),
                        }),
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn quarantine_table_enumerates_poisoned_cells() {
        let sweep = sweep_of(vec![(0, Ok(100)), (1, Err("deterministic boom"))]);
        let t = quarantine_table(&sweep);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][2], "fatal");
        assert!(t.rows[0][4].contains("deterministic boom"));
        let healthy = sweep_of(vec![(0, Ok(100))]);
        assert!(quarantine_table(&healthy).rows.is_empty());
    }

    #[test]
    fn aggregate_sweep_geomeans_repetitions() {
        let sweep = sweep_of(vec![(0, Ok(100)), (1, Ok(400))]);
        let groups = aggregate_sweep(&sweep);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!((g.reps, g.failures), (2, 0));
        let rt = g.runtime_cycles.as_ref().unwrap();
        assert!((rt.geomean - 200.0).abs() < 1e-9, "geomean of 100 and 400");
        assert_eq!(rt.n, 2);
    }

    #[test]
    fn aggregate_sweep_counts_failures() {
        let sweep = sweep_of(vec![(0, Ok(100)), (1, Err("boom"))]);
        let g = &aggregate_sweep(&sweep)[0];
        assert_eq!((g.reps, g.failures), (1, 1));
        assert!(
            g.runtime_cycles.is_some(),
            "surviving reps still summarized"
        );
        let table = sweep_table("Sweep", &sweep);
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0].last().unwrap().contains("1 failed"));
    }

    #[test]
    fn aggregate_sweep_all_failed_group_has_no_summary() {
        let sweep = sweep_of(vec![(0, Err("a")), (1, Err("b"))]);
        let g = &aggregate_sweep(&sweep)[0];
        assert_eq!((g.reps, g.failures), (0, 2));
        assert!(g.runtime_cycles.is_none());
        let table = sweep_table("Sweep", &sweep);
        assert!(table.rows[0].contains(&"-".to_owned()));
    }
}

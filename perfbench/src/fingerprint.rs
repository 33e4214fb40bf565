//! Per-cell simulated fingerprints. Simulated output is deterministic, so
//! every cell must reproduce the values recorded in [`crate::recorded`];
//! a cell that errors or differs counts as a failed operation.

use sgxgauge_core::{ExecMode, InputSetting, RunReport, SweepReport};

/// A cell's recorded fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    /// `Workload/Mode/Setting`, as [`cell_name`] spells it.
    pub cell: &'static str,
    /// Named simulated values, in [`fingerprint`] order.
    pub fields: &'static [(&'static str, u64)],
}

/// The key a cell's fingerprint is recorded under.
pub fn cell_name(workload: &str, mode: ExecMode, setting: InputSetting) -> String {
    format!("{workload}/{mode}/{setting}")
}

/// The simulated values of one run: `runtime_cycles`, every `Counters`
/// and `SgxCounters` field, `ops` and `checksum`.
pub fn fingerprint(r: &RunReport) -> Vec<(String, u64)> {
    let mut out = vec![("runtime_cycles".to_owned(), r.runtime_cycles)];
    out.extend(
        r.counters
            .fields()
            .into_iter()
            .map(|(n, v)| (format!("mem.{n}"), v)),
    );
    out.extend(r.sgx.fields().map(|(n, v)| (format!("sgx.{n}"), v)));
    out.push(("ops".to_owned(), r.output.ops));
    out.push(("checksum".to_owned(), r.output.checksum));
    out
}

/// Checked operations and failed ones: grid cells, and the probes'
/// equivalence checks in the traced run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Cells that errored or did not match their recorded fingerprint,
    /// and probe checks that found differing simulated work.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one more checked operation, failed when `failure` is set.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// Checks every cell of `report` against `recorded` into `tally`.
pub fn check(report: &SweepReport, recorded: &[Recorded], tally: &mut Tally) {
    for cell in &report.cells {
        let name = cell_name(cell.workload, cell.cell.mode, cell.cell.setting);
        tally.record(match &cell.result {
            Err(e) => Some(format!("{name}: {e}")),
            Ok(r) => mismatch(&name, r, recorded),
        });
    }
}

fn mismatch(name: &str, r: &RunReport, recorded: &[Recorded]) -> Option<String> {
    let Some(rec) = recorded.iter().find(|rec| rec.cell == name) else {
        return Some(format!("{name}: no recorded fingerprint"));
    };
    let got = fingerprint(r);
    if got.len() != rec.fields.len() {
        return Some(format!(
            "{name}: {} fingerprint fields, {} recorded",
            got.len(),
            rec.fields.len()
        ));
    }
    got.iter()
        .zip(rec.fields)
        .find(|((gn, gv), (rn, rv))| gn != rn || gv != rv)
        .map(|((gn, gv), (rn, rv))| format!("{name}: {gn}={gv}, recorded {rn}={rv}"))
}

/// Renders `report`'s fingerprints as entries of a [`Recorded`] table.
pub fn render(report: &SweepReport) -> String {
    let mut out = String::new();
    for r in report.reports() {
        out.push_str(&format!(
            "    Recorded {{\n        cell: \"{}\",\n        fields: &[\n",
            cell_name(r.workload, r.mode, r.setting)
        ));
        for (n, v) in fingerprint(r) {
            out.push_str(&format!("            (\"{n}\", {v}),\n"));
        }
        out.push_str("        ],\n    },\n");
    }
    out
}

//! The paper harness: every figure, table and ablation of SGXGauge as
//! one function, regenerated by the `paper` bench target.
//!
//! Figures 2, 4, 5a/b, 6b/c and 8 and Table 4 are views of one
//! measurement campaign, the ten workloads × {Vanilla, Native, LibOS} ×
//! {Low, Medium, High} (§4–§5, App. B). They read one shared `Sweep`,
//! which runs at most once per invocation and only when a selected
//! figure needs it. Every other figure and ablation builds its own
//! platform and runs.
//!
//! Each figure prints a banner, its table and its "Shape check" lines,
//! and writes `<id>.csv` under [`crate::results_dir`].

mod ablations;
mod grid;
mod runs;

pub(crate) use grid::Sweep;

use crate::{banner, emit, scale};
use sgxgauge_core::report::ReportTable;
use Source::{Grid, Own};

/// What one figure produces: a banner, its table and the shape-check
/// lines printed after it.
#[derive(Debug)]
pub(crate) struct Output {
    /// The banner title.
    pub(crate) title: &'static str,
    /// The paper's claim, printed under the title.
    pub(crate) claim: &'static str,
    /// The paper-style table, written as `<id>.csv`.
    pub(crate) table: ReportTable,
    /// Lines comparing the table's shape with the paper's claim.
    pub(crate) checks: Vec<String>,
}

impl Output {
    fn new(title: &'static str, claim: &'static str, table: ReportTable, checks: &[&str]) -> Self {
        let checks = checks.iter().map(|s| (*s).to_owned()).collect();
        Output {
            title,
            claim,
            table,
            checks,
        }
    }
}

/// Where a figure's data comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// A view over the shared suite [`Sweep`].
    Grid(fn(&Sweep) -> Output),
    /// The figure's own platform and runs.
    Own(fn() -> Output),
}

/// One figure, table or ablation of the paper: its id (the CSV stem and
/// the name that selects it) and where its data comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Figure(pub(crate) &'static str, pub(crate) Source);

/// Every figure, table and ablation, in regeneration order.
pub(crate) static FIGURES: [Figure; 17] = [
    Figure("fig02_epc_boundary", Grid(grid::fig02_epc_boundary)),
    Figure("fig03_lighttpd_threads", Own(runs::fig03_lighttpd_threads)),
    Figure("fig04_libos_vs_native", Grid(grid::fig04_libos_vs_native)),
    Figure("table4_overheads", Grid(grid::table4_overheads)),
    Figure("fig05_native_mode", Grid(grid::fig05_native_mode)),
    Figure("fig06a_graphene_empty", Own(runs::fig06a_graphene_empty)),
    Figure("fig06bc_libos_mode", Grid(grid::fig06bc_libos_mode)),
    Figure("fig06d_switchless", Own(runs::fig06d_switchless)),
    Figure("fig07_sgx_latencies", Own(runs::fig07_sgx_latencies)),
    Figure("fig08_native_heatmap", Grid(grid::fig08_native_heatmap)),
    Figure("fig09_epc_timeline", Own(runs::fig09_epc_timeline)),
    Figure("fig10_iozone_pf", Own(runs::fig10_iozone_pf)),
    Figure("table5_regression", Own(runs::table5_regression)),
    Figure("ablation_sgx2_edmm", Own(ablations::sgx2_edmm)),
    Figure("ablation_hugepages", Own(ablations::hugepages)),
    Figure("ablation_evict_batch", Own(ablations::evict_batch)),
    Figure("ablation_mee", Own(ablations::mee)),
];

/// The figures named by `ids`, in [`FIGURES`] order; every figure when
/// `ids` is empty.
///
/// # Errors
///
/// Names the first id that is not a figure, with the list of valid ids.
pub(crate) fn select(ids: &[String]) -> Result<Vec<&'static Figure>, String> {
    if let Some(bad) = ids.iter().find(|id| !FIGURES.iter().any(|f| f.0 == *id)) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        return Err(format!(
            "unknown figure `{bad}`; known: {}",
            known.join(", ")
        ));
    }
    Ok(FIGURES
        .iter()
        .filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.0))
        .collect())
}

/// Regenerates the figures named by `ids` (every figure when empty):
/// banner, table, CSV and shape checks for each, running the shared
/// `Sweep` once if any selected figure reads it.
///
/// # Errors
///
/// As `select`, before anything runs.
pub fn regenerate(ids: &[String]) -> Result<(), String> {
    let mut sweep = None;
    for Figure(id, source) in select(ids)? {
        let out = match source {
            Grid(view) => view(sweep.get_or_insert_with(|| Sweep::scaled(scale()))),
            Own(run) => run(),
        };
        banner(out.title, out.claim);
        emit(id, &out.table);
        for line in &out.checks {
            println!("{line}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_keeps_figure_order_and_refuses_unknown_ids() {
        assert!((1..FIGURES.len()).all(|i| FIGURES[..i].iter().all(|f| f.0 != FIGURES[i].0)));
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
        let picked = select(&["table4_overheads".into(), "fig02_epc_boundary".into()]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|f| f.0).collect();
        assert_eq!(ids, ["fig02_epc_boundary", "table4_overheads"]);
        let err = select(&["fig99".into()]).unwrap_err();
        assert!(err.contains("unknown figure `fig99`"), "{err}");
    }
}

//! Integration: the parallel sweep executor over the *real* workload
//! suite is bit-identical to the sequential reference run.
//!
//! The core crate proves determinism on synthetic workloads; this test
//! proves it holds for the actual suite — multi-threaded workloads,
//! LibOS manifests, file-backed I/O and all.

use sgxgauge::core::{ExecMode, InputSetting, RunnerConfig, SuiteRunner, Workload};
use sgxgauge::workloads::suite_scaled;

fn suite_runner(d: u64, reps: usize) -> SuiteRunner {
    let mut cfg = RunnerConfig::scaled(d);
    cfg.repetitions = reps;
    SuiteRunner::new(cfg).settings(&[InputSetting::Low])
}

/// Parallel and sequential sweeps over the full suite agree cell for
/// cell: same grid order, same runtimes, same counters, same checksums.
#[test]
fn parallel_suite_sweep_matches_sequential() {
    let workloads = suite_scaled(1024);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();

    let sequential = suite_runner(1024, 1).run_sequential(&refs);
    let parallel = suite_runner(1024, 1).threads(4).run(&refs);

    assert_eq!(sequential.cells.len(), parallel.cells.len());
    assert!(!sequential.cells.is_empty());
    for (s, p) in sequential.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.cell, p.cell);
        let (sr, pr) = match (&s.result, &p.result) {
            (Ok(sr), Ok(pr)) => (sr, pr),
            other => panic!("{}: non-Ok cell pair {other:?}", s.workload),
        };
        assert_eq!(
            sr.runtime_cycles, pr.runtime_cycles,
            "{} runtime",
            s.workload
        );
        assert_eq!(
            sr.output.checksum, pr.output.checksum,
            "{} checksum",
            s.workload
        );
        assert_eq!(
            sr.counters.fields(),
            pr.counters.fields(),
            "{} counters",
            s.workload
        );
        assert_eq!(
            sr.sgx.fields().collect::<Vec<_>>(),
            pr.sgx.fields().collect::<Vec<_>>(),
            "{} sgx counters",
            s.workload
        );
    }
    assert_eq!(sequential.fingerprint(), parallel.fingerprint());
}

/// Repetitions of a deterministic simulator are themselves identical —
/// and the parallel executor keeps them in grid order.
#[test]
fn repetitions_are_deterministic_and_grid_ordered() {
    let workloads = suite_scaled(2048);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let sweep = suite_runner(2048, 2)
        .modes(&[ExecMode::Vanilla])
        .threads(3)
        .run(&refs);

    let mut expected = 0;
    for (wi, _) in refs.iter().enumerate() {
        for rep in 0..2 {
            let cell = &sweep.cells[expected];
            assert_eq!(cell.cell.workload, wi);
            assert_eq!(cell.cell.rep, rep);
            expected += 1;
        }
    }
    assert_eq!(sweep.cells.len(), expected);

    for pair in sweep.cells.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let (ra, rb) = match (&a.result, &b.result) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            other => panic!("{}: non-Ok rep pair {other:?}", a.workload),
        };
        assert_eq!(
            ra.runtime_cycles, rb.runtime_cycles,
            "{} reps differ",
            a.workload
        );
        assert_eq!(
            ra.output.checksum, rb.output.checksum,
            "{} reps differ",
            a.workload
        );
    }
}

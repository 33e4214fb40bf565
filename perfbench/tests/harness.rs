//! Tests of the benchmark's own machinery: the delegating timer, the
//! fingerprint check and the probes' simulated-work equivalence.

use sgxgauge_core::{EnvConfig, ExecMode, InputSetting, RunnerConfig, SuiteRunner, Workload};
use sgxgauge_perfbench::fingerprint::{self, Recorded, Tally};
use sgxgauge_perfbench::grid::Grid;
use sgxgauge_perfbench::probes::{self, ProbeConfig};
use sgxgauge_perfbench::recorded::RECORDED;
use sgxgauge_perfbench::Sweep;

#[test]
fn timer_leaves_the_sweep_fingerprint_unchanged() {
    let workloads = sgxgauge_workloads::suite_scaled(1024);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let runner = SuiteRunner::new(RunnerConfig::quick_test())
        .settings(&[InputSetting::Low])
        .threads(1);
    let plain = runner.run(&refs);
    let timed = Sweep::run(&runner, &refs);
    assert!(plain.errors().next().is_none(), "quick-test cells all run");
    assert_eq!(plain.fingerprint(), timed.report.fingerprint());
    assert_eq!(
        timed.spans.len(),
        2 * plain.cells.len(),
        "setup + execute per cell"
    );
}

#[test]
fn perturbed_fingerprint_fails_its_cell() {
    // The cheapest recorded cell, run at paper scale as the benchmark does.
    let grid = Grid {
        name: "blockchain-libos",
        mode: ExecMode::LibOs,
        setting: InputSetting::Low,
        workloads: &["Blockchain"],
    };
    let workloads = grid.workloads();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let report = grid.runner().run(&refs);

    let mut tally = Tally::default();
    fingerprint::check(&report, RECORDED, &mut tally);
    assert_eq!(
        (tally.attempted, tally.failed),
        (1, 0),
        "{:?}",
        tally.failures
    );

    let stored = RECORDED
        .iter()
        .find(|r| r.cell == "Blockchain/LibOS/Low")
        .expect("recorded");
    let mut fields = stored.fields.to_vec();
    fields[0].1 += 1;
    let perturbed = [Recorded {
        cell: stored.cell,
        fields: Box::leak(fields.into_boxed_slice()),
    }];
    let mut tally = Tally::default();
    fingerprint::check(&report, &perturbed, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(
        tally.failures[0].contains("Blockchain/LibOS/Low: runtime_cycles="),
        "{:?}",
        tally.failures
    );

    let mut tally = Tally::default();
    fingerprint::check(&report, &[], &mut tally);
    assert_eq!(
        (tally.attempted, tally.failed),
        (1, 1),
        "unrecorded cells fail"
    );
}

#[test]
fn probes_do_identical_simulated_work() {
    let cfg = ProbeConfig {
        env: EnvConfig::quick_test(ExecMode::Native),
        accesses: 1 << 14,
        resident_bytes: 1 << 20,
        seed: 7,
    };
    let mut tally = Tally::default();
    let metrics = probes::run(&cfg, &mut tally).expect("probe machines build");
    // access vs access_stream on four streams, Env vs SgxMachine on two.
    assert_eq!(
        (tally.attempted, tally.failed),
        (6, 0),
        "{:?}",
        tally.failures
    );
    assert!(metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0));
}

//! Integration: the whole suite runs end-to-end in every supported mode
//! and produces identical results across modes.

use sgxgauge::core::{ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge::workloads::suite_scaled;

/// Every workload, every supported mode, Low setting: runs succeed and
/// the computation's checksum is mode-independent (SGX must not change
/// *what* is computed, only how fast).
#[test]
fn checksums_mode_independent_for_all_ten() {
    let runner = Runner::new(RunnerConfig::scaled(1024));
    for wl in suite_scaled(1024) {
        let mut checksums = Vec::new();
        for mode in ExecMode::ALL {
            if !wl.supports(mode) {
                continue;
            }
            let r = runner
                .run_once(wl.as_ref(), mode, InputSetting::Low)
                .unwrap_or_else(|e| panic!("{} in {mode}: {e}", wl.name()));
            assert!(
                r.runtime_cycles > 0,
                "{} in {mode} took zero time",
                wl.name()
            );
            checksums.push((mode, r.output.checksum));
        }
        assert!(
            checksums.len() >= 2,
            "{} ran in fewer than two modes",
            wl.name()
        );
        let first = checksums[0].1;
        for (mode, sum) in &checksums {
            assert_eq!(*sum, first, "{} checksum differs in {mode}", wl.name());
        }
    }
}

/// SGX always costs something: for every workload, every SGX mode is
/// slower than Vanilla at the same input.
#[test]
fn sgx_modes_never_faster_than_vanilla() {
    let runner = Runner::new(RunnerConfig::scaled(1024));
    for wl in suite_scaled(1024) {
        let vanilla = runner
            .run_once(wl.as_ref(), ExecMode::Vanilla, InputSetting::Low)
            .expect("vanilla");
        for mode in [ExecMode::Native, ExecMode::LibOs] {
            if !wl.supports(mode) {
                continue;
            }
            let r = runner
                .run_once(wl.as_ref(), mode, InputSetting::Low)
                .expect("sgx run");
            assert!(
                r.runtime_cycles > vanilla.runtime_cycles,
                "{} in {mode}: {} <= vanilla {}",
                wl.name(),
                r.runtime_cycles,
                vanilla.runtime_cycles
            );
        }
    }
}

/// Determinism: two identical runs produce identical counters — the
/// property that lets the suite compare modes at all.
#[test]
fn runs_are_deterministic() {
    let runner = Runner::new(RunnerConfig::scaled(2048));
    for wl in suite_scaled(2048) {
        let a = runner
            .run_once(wl.as_ref(), ExecMode::LibOs, InputSetting::Low)
            .expect("first");
        let b = runner
            .run_once(wl.as_ref(), ExecMode::LibOs, InputSetting::Low)
            .expect("second");
        assert_eq!(
            a.runtime_cycles,
            b.runtime_cycles,
            "{} runtime differs",
            wl.name()
        );
        assert_eq!(a.counters, b.counters, "{} counters differ", wl.name());
        assert_eq!(
            a.output.checksum,
            b.output.checksum,
            "{} checksum differs",
            wl.name()
        );
    }
}

/// Larger inputs cost more, in every mode (monotonicity of the suite's
/// input settings).
#[test]
fn input_settings_scale_runtime() {
    let runner = Runner::new(RunnerConfig::scaled(256));
    // Divisor 256 keeps every workload's Low/High sizes distinct after
    // the per-workload minimum clamps.
    for wl in suite_scaled(256) {
        for mode in ExecMode::ALL {
            if !wl.supports(mode) {
                continue;
            }
            let low = runner
                .run_once(wl.as_ref(), mode, InputSetting::Low)
                .expect("low");
            let high = runner
                .run_once(wl.as_ref(), mode, InputSetting::High)
                .expect("high");
            assert!(
                high.runtime_cycles > low.runtime_cycles,
                "{} in {mode}: High ({}) not slower than Low ({})",
                wl.name(),
                high.runtime_cycles,
                low.runtime_cycles
            );
        }
    }
}

/// LibOS runs report startup statistics and exclude them from runtime.
#[test]
fn libos_startup_reported_and_excluded() {
    let runner = Runner::new(RunnerConfig::scaled(2048));
    for wl in suite_scaled(2048) {
        let r = runner
            .run_once(wl.as_ref(), ExecMode::LibOs, InputSetting::Low)
            .expect("libos");
        let s = r
            .libos_startup
            .unwrap_or_else(|| panic!("{} missing startup stats", wl.name()));
        assert!(
            s.epc_evictions > 0,
            "{}: startup must stream the enclave",
            wl.name()
        );
        assert!(s.ecalls > 0);
        // Excluded: the measured SGX counters were reset after launch, so
        // measured evictions are well below the startup's full-enclave
        // streaming.
        assert!(
            r.sgx.pages_measured == 0,
            "{}: enclave build leaked into measurement",
            wl.name()
        );
    }
}

//! Integration: cross-layer counter-consistency invariants that must
//! hold for any full workload run — the kind of accounting bugs that
//! would silently corrupt every figure.

use sgxgauge::core::{ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge::workloads::suite_scaled;

/// Every fault is either a fresh allocation or a load-back, every AEX in
/// these single-process runs comes from an EPC fault, and load-backs
/// can never exceed evictions.
#[test]
fn epc_accounting_balances_for_every_workload() {
    let runner = Runner::new(RunnerConfig::scaled(512));
    for wl in suite_scaled(512) {
        for mode in [ExecMode::Native, ExecMode::LibOs] {
            if !wl.supports(mode) {
                continue;
            }
            let r = runner
                .run_once(wl.as_ref(), mode, InputSetting::High)
                .expect("run");
            let c = &r.sgx;
            assert_eq!(
                c.epc_faults,
                c.epc_allocs + c.epc_loadbacks,
                "{} {mode}: faults != allocs + loadbacks",
                wl.name()
            );
            assert!(
                c.epc_loadbacks <= c.epc_evictions,
                "{} {mode}: loadbacks {} > evictions {}",
                wl.name(),
                c.epc_loadbacks,
                c.epc_evictions
            );
            assert_eq!(
                c.aex_exits,
                c.epc_faults,
                "{} {mode}: AEX != faults",
                wl.name()
            );
        }
    }
}

/// TLB flushes must account for every transition: at least two per
/// classic OCALL, one per ECALL and one per AEX.
#[test]
fn tlb_flushes_cover_transitions() {
    let runner = Runner::new(RunnerConfig::scaled(512));
    for wl in suite_scaled(512) {
        for mode in [ExecMode::Native, ExecMode::LibOs] {
            if !wl.supports(mode) {
                continue;
            }
            let r = runner
                .run_once(wl.as_ref(), mode, InputSetting::Low)
                .expect("run");
            let min_flushes = r.sgx.ecalls + 2 * r.sgx.ocalls + r.sgx.aex_exits;
            assert!(
                r.counters.tlb_flushes >= min_flushes,
                "{} {mode}: {} flushes < {} transitions",
                wl.name(),
                r.counters.tlb_flushes,
                min_flushes
            );
        }
    }
}

/// The cycle breakdown categories never exceed total thread-cycle mass:
/// compute + stalls + walks + transitions + faults <= sum over threads
/// of elapsed cycles (which is >= the reported wall-clock).
#[test]
fn breakdown_bounded_by_clock_mass() {
    use sgxgauge::core::report::cycle_breakdown;
    let runner = Runner::new(RunnerConfig::scaled(512));
    for wl in suite_scaled(512) {
        let r = runner
            .run_once(wl.as_ref(), ExecMode::LibOs, InputSetting::Low)
            .expect("run");
        let accounted: u64 = cycle_breakdown(&r).iter().map(|(_, v)| v).sum();
        // Single-digit thread counts: total mass <= threads * wall-clock.
        let bound = r.runtime_cycles * 64;
        assert!(
            accounted <= bound,
            "{}: accounted {accounted} > bound {bound}",
            wl.name()
        );
        assert!(accounted > 0, "{}: empty breakdown", wl.name());
    }
}

/// In Vanilla mode no SGX counter may ever tick.
#[test]
fn vanilla_never_touches_sgx() {
    let runner = Runner::new(RunnerConfig::scaled(512));
    for wl in suite_scaled(512) {
        let r = runner
            .run_once(wl.as_ref(), ExecMode::Vanilla, InputSetting::High)
            .expect("run");
        for (name, v) in r.sgx.fields() {
            assert_eq!(v, 0, "{}: vanilla run ticked sgx counter {name}", wl.name());
        }
    }
}

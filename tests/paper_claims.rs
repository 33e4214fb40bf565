//! Integration: the paper's headline qualitative claims, verified on
//! scaled-down configurations (the bench suite verifies them at paper
//! scale; these keep the claims under `cargo test`).
//!
//! Each test names one divisor `d` for its inputs (`W::scaled(d)`) and
//! its platform (`RunnerConfig::scaled(d)`), so every setting keeps its
//! place relative to the EPC. A claim that depends on the LibOS regime
//! runs at `d <= 32`, one that depends on the EPC regime at `d <= 92`:
//! past those the 128 MiB enclave and 1 MiB EPC floors bind
//! (EXPERIMENTS.md, "Known deviations of scaled runs").

use sgxgauge::core::{Env, EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge::workloads::{HashJoin, Iozone, Lighttpd};

/// §3.2.1 / Fig 2: crossing the EPC boundary causes an abrupt jump in
/// paging counters, far beyond the workload's own growth.
#[test]
fn epc_boundary_cliff() {
    let d = 24;
    let runner = Runner::new(RunnerConfig::scaled(d));
    let wl = HashJoin::scaled(d);
    let low = runner
        .run_once(&wl, ExecMode::Native, InputSetting::Low)
        .expect("low");
    let high = runner
        .run_once(&wl, ExecMode::Native, InputSetting::High)
        .expect("high");
    // Input grows 2x; evictions must grow enormously more.
    assert_eq!(low.sgx.epc_evictions, 0, "Low fits the EPC");
    assert!(
        high.sgx.epc_evictions > 500,
        "High must thrash: {}",
        high.sgx.epc_evictions
    );
    let dtlb_ratio = high.counters.dtlb_misses as f64 / low.counters.dtlb_misses.max(1) as f64;
    assert!(
        dtlb_ratio > 4.0,
        "dTLB misses must jump at the boundary: {dtlb_ratio}"
    );
}

/// Abstract / §5.5: the library OS does not add a significant overhead
/// over Native (≈ ±10% at matching inputs once footprints dominate).
#[test]
fn libos_close_to_native() {
    let d = 24;
    let runner = Runner::new(RunnerConfig::scaled(d));
    let wl = HashJoin::scaled(d);
    let native = runner
        .run_once(&wl, ExecMode::Native, InputSetting::High)
        .expect("native");
    let libos = runner
        .run_once(&wl, ExecMode::LibOs, InputSetting::High)
        .expect("libos");
    let ratio = libos.runtime_cycles as f64 / native.runtime_cycles as f64;
    assert!(
        (0.7..1.5).contains(&ratio),
        "LibOS/Native = {ratio:.2}, expected near 1.0"
    );
}

/// §5.5: LibOS's *relative* overhead shrinks as the input grows (the
/// fixed shim costs amortize).
#[test]
fn libos_overhead_decreases_with_input() {
    let d = 24;
    let runner = Runner::new(RunnerConfig::scaled(d));
    let wl = HashJoin::scaled(d);
    let ratio = |setting| {
        let n = runner
            .run_once(&wl, ExecMode::Native, setting)
            .expect("native");
        let l = runner
            .run_once(&wl, ExecMode::LibOs, setting)
            .expect("libos");
        l.runtime_cycles as f64 / n.runtime_cycles as f64
    };
    let low = ratio(InputSetting::Low);
    let high = ratio(InputSetting::High);
    assert!(
        high <= low * 1.05,
        "LibOS/Native should not grow with input: Low {low:.3} -> High {high:.3}"
    );
}

/// §5.6 / Fig 6d: switchless OCALLs cut dTLB misses and improve latency.
#[test]
fn switchless_improves_lighttpd() {
    let d = 512;
    let wl = Lighttpd::scaled(d);
    let classic = Runner::new(RunnerConfig::scaled(d))
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("classic");
    let mut cfg = RunnerConfig::scaled(d);
    cfg.env = cfg.env.with_switchless(8);
    let switchless = Runner::new(cfg)
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("switchless");

    let classic_lat = classic
        .output
        .metric("mean_latency_cycles")
        .expect("metric");
    let swl_lat = switchless
        .output
        .metric("mean_latency_cycles")
        .expect("metric");
    assert!(
        swl_lat < classic_lat,
        "switchless latency {swl_lat} !< classic {classic_lat}"
    );
    assert!(
        switchless.counters.tlb_flushes < classic.counters.tlb_flushes,
        "switchless must avoid transition TLB flushes"
    );
    assert!(switchless.sgx.switchless_ocalls > 0);
    assert_eq!(
        switchless.sgx.ocalls, 0,
        "all OCALLs should take the proxy path"
    );
}

/// Appendix E / Fig 10: protected files slow I/O dramatically, beyond
/// plain LibOS shimming — but never corrupt data.
#[test]
fn protected_files_ordering() {
    // IOzone's 4 MiB record does not shrink with `d`; past d = 21 it
    // overflows the EPC and LibOS reads ~11x where Fig 10 reads 1.3x.
    let d = 16;
    let wl = Iozone::scaled(d);
    let runner = Runner::new(RunnerConfig::scaled(d));
    let vanilla = runner
        .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
        .expect("vanilla");
    let libos = runner
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("libos");

    let mut pf_cfg = RunnerConfig::scaled(d);
    pf_cfg.env = pf_cfg.env.with_protected_files();
    let pf = Runner::new(pf_cfg)
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("pf");

    assert!(vanilla.runtime_cycles < libos.runtime_cycles);
    assert!(libos.runtime_cycles < pf.runtime_cycles);
    assert_eq!(
        vanilla.output.checksum, pf.output.checksum,
        "PF must not corrupt data"
    );
    // The PF overhead over vanilla must clearly exceed plain LibOS's
    // (at paper scale Fig 10 shows ~2.1x vs ~1.3x; a scaled platform
    // compresses the gap, so assert the ordering with a margin rather
    // than the full factor).
    let libos_over = libos.runtime_cycles as f64 / vanilla.runtime_cycles as f64;
    let pf_over = pf.runtime_cycles as f64 / vanilla.runtime_cycles as f64;
    assert!(
        pf_over > 1.05 * libos_over,
        "PF {pf_over:.2}x vs LibOS {libos_over:.2}x"
    );
}

/// §5.4.1 / Fig 6a: a bigger enclave-size property means proportionally
/// more start-up evictions, while the workload itself is unchanged. The
/// enclaves are Fig 6a's 1 GB and 4 GB rows, shrunk with the platform.
#[test]
fn enclave_size_drives_startup_evictions() {
    use sgxgauge::libos::Manifest;
    let d = 8;
    let evictions = |enclave_bytes: u64| {
        let mut cfg = EnvConfig::scaled(ExecMode::LibOs, d);
        cfg.manifest = Some(
            Manifest::builder("empty")
                .enclave_size(enclave_bytes / d)
                .internal_memory((64 << 20) / d)
                .build(),
        );
        let env = Env::new(cfg).expect("env");
        env.libos_startup().expect("startup").epc_evictions
    };
    let small = evictions(1 << 30);
    let big = evictions(4 << 30);
    assert!(
        big > 3 * small,
        "startup evictions must scale with enclave size: {small} vs {big}"
    );
}

/// §3.2.2 / Fig 3: under SGX, Lighttpd latency grows with concurrency
/// much faster than without.
#[test]
fn concurrency_amplifies_sgx_latency() {
    let d = 512;
    let runner = Runner::new(RunnerConfig::scaled(d));
    let lat = |mode, threads| {
        let wl = Lighttpd::scaled(d).with_threads(threads);
        runner
            .run_once(&wl, mode, InputSetting::Low)
            .expect("run")
            .output
            .metric("mean_latency_cycles")
            .expect("metric")
    };
    let sgx_growth = lat(ExecMode::LibOs, 16) / lat(ExecMode::LibOs, 1);
    let vanilla_growth = lat(ExecMode::Vanilla, 16) / lat(ExecMode::Vanilla, 1);
    assert!(
        sgx_growth > vanilla_growth,
        "SGX must amplify queueing: sgx {sgx_growth:.2}x vs vanilla {vanilla_growth:.2}x"
    );
}

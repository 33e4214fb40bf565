//! The figures and tables that build their own platform and runs:
//! Figs 3, 6a, 6d, 7, 9 and 10 and Table 5.

use super::Output;
use crate::{fk, fx, paper_env, runner, scale};
use gauge_stats::standardized_coefficients;
use libos_sim::{LibosProcess, Manifest};
use mem_sim::{AccessKind, PAGE_SIZE};
use sgx_sim::{DriverOp, Host, SgxConfig, SgxMachine};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{ExecMode, InputSetting, RunReport};
use sgxgauge_workloads::{suite, suite_scaled, Iozone, Lighttpd};
use trace::{TimelinePoint, TraceSink};

/// Figure 3: Lighttpd latency vs concurrent clients.
///
/// Paper: "the latency of the Lighttpd server increases with the number
/// of concurrent accesses by up to 7x while running in SGX and compared
/// to a Vanilla (non-SGX) execution" (§3.2.2).
pub(super) fn fig03_lighttpd_threads() -> Output {
    let runner = runner(paper_env(ExecMode::Vanilla));
    // Keep this figure light: the request count is already thread-divided.
    let divisor = scale().max(4);

    let mut table = ReportTable::new(
        "Fig 3: mean request latency (cycles), Vanilla vs LibOS(SGX)",
        &[
            "threads",
            "vanilla_latency",
            "sgx_latency",
            "sgx_over_vanilla",
        ],
    );
    let mut max_ratio: f64 = 0.0;
    for threads in [1usize, 2, 4, 8, 16] {
        let wl = Lighttpd::scaled(divisor).with_threads(threads);
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .expect("vanilla");
        let s = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .expect("libos");
        let vl = v.output.metric("mean_latency_cycles").expect("metric");
        let sl = s.output.metric("mean_latency_cycles").expect("metric");
        let ratio = sl / vl;
        max_ratio = max_ratio.max(ratio);
        table.push_row(vec![
            threads.to_string(),
            format!("{vl:.0}"),
            format!("{sl:.0}"),
            fx(ratio),
        ]);
    }
    Output::new(
        "Figure 3 — Lighttpd latency vs concurrency",
        "SGX latency grows with client threads, up to ~7x over Vanilla",
        table,
        &[&format!("Shape check: max SGX/Vanilla latency ratio = {max_ratio:.1}x (paper: up to 7x), and it grows with thread count")],
    )
}

/// Figure 6a: GrapheneSGX's own cost, measured with an "empty" workload.
///
/// Paper (§5.4.1): an empty (`return 0;`) program under GrapheneSGX
/// performs ≈300 ECALLs, ≈1000 OCALLs and ≈1000 AEX exits; because the
/// 4 GB enclave is fully loaded into the EPC for measurement, ≈1 M pages
/// are evicted at start-up, of which only ≈700 (2 MB) are loaded back.
pub(super) fn fig06a_graphene_empty() -> Output {
    let mut table = ReportTable::new(
        "Fig 6a: LibOS start-up events by enclave size",
        &[
            "enclave_size",
            "ecalls",
            "ocalls",
            "aex_exits",
            "epc_evictions",
            "epc_loadbacks",
            "startup_mcycles",
        ],
    );
    let mut paper = None;
    for (label, size) in [
        ("1 GB", 1u64 << 30),
        ("2 GB", 2 << 30),
        ("4 GB (paper)", 4 << 30),
    ] {
        let mut machine = Host::builder().sgx(SgxConfig::default()).build_machine();
        let tid = machine.add_thread();
        let manifest = Manifest::builder("empty").enclave_size(size).build();
        let s = LibosProcess::launch(&mut machine, tid, &manifest)
            .expect("launch")
            .startup();
        table.push_row(vec![
            label.to_string(),
            s.ecalls.to_string(),
            s.ocalls.to_string(),
            s.aex_exits.to_string(),
            fk(s.epc_evictions),
            s.epc_loadbacks.to_string(),
            (s.cycles / 1_000_000).to_string(),
        ]);
        paper = Some(s);
    }
    let paper = paper.expect("the 4 GB row");
    Output::new(
        "Figure 6a — GrapheneSGX statistics for an empty workload",
        "~300 ECALLs, ~1000 OCALLs, ~1000 AEX, ~1M EPC evictions, ~700 loadbacks",
        table,
        &[&format!(
            "Shape check: 4 GB enclave => {} evictions (paper ~1M since 1M * 4KB = 4GB), {} loaded back (paper ~700).",
            fk(paper.epc_evictions),
            paper.epc_loadbacks
        )],
    )
}

/// Figure 6d: switchless OCALLs improve Lighttpd latency.
///
/// Paper (§5.6): with 8 proxy cores handling OCALLs, Lighttpd's dTLB
/// misses drop by 60% and latency improves by 30% relative to the
/// default OCALL implementation.
pub(super) fn fig06d_switchless() -> Output {
    let divisor = scale().max(4);
    let wl = Lighttpd::scaled(divisor);

    let run = |env| runner(env).run_once(&wl, ExecMode::LibOs, InputSetting::Low);
    let base = run(paper_env(ExecMode::LibOs)).expect("default");
    // The paper configures 8 cores for OCALL handling.
    let swl = run(paper_env(ExecMode::LibOs).with_switchless(8)).expect("switchless");

    let base_lat = base.output.metric("mean_latency_cycles").expect("metric");
    let swl_lat = swl.output.metric("mean_latency_cycles").expect("metric");

    let mut table = ReportTable::new(
        "Fig 6d: default vs switchless OCALLs (Lighttpd, Low)",
        &[
            "variant",
            "mean_latency_cycles",
            "dtlb_misses",
            "classic_ocalls",
            "switchless_ocalls",
            "tlb_flushes",
        ],
    );
    for (name, r, lat) in [("default", &base, base_lat), ("switchless", &swl, swl_lat)] {
        table.push_row(vec![
            name.to_string(),
            format!("{lat:.0}"),
            r.counters.dtlb_misses.to_string(),
            r.sgx.ocalls.to_string(),
            r.sgx.switchless_ocalls.to_string(),
            r.counters.tlb_flushes.to_string(),
        ]);
    }

    let lat_gain = 100.0 * (1.0 - swl_lat / base_lat);
    let dtlb_gain =
        100.0 * (1.0 - swl.counters.dtlb_misses as f64 / base.counters.dtlb_misses.max(1) as f64);
    Output::new(
        "Figure 6d — Lighttpd with switchless OCALLs",
        "switchless mode: dTLB misses -60%, latency -30%",
        table,
        &[
            &format!("Shape check: latency improvement = {lat_gain:.0}% (paper: 30%), dTLB-miss reduction = {dtlb_gain:.0}% (paper: 60%)"),
            &format!(
                "Switchless ratio check: {} classic vs {} switchless OCALLs",
                swl.sgx.ocalls, swl.sgx.switchless_ocalls
            ),
        ],
    )
}

/// Figure 7 / Appendix A: latency of the core SGX driver operations.
///
/// Paper: `sgx_alloc_page`, `sgx_ewb`, `sgx_eldu`, `sgx_do_fault` run in
/// a few microseconds; evicting a page costs 16% more than loading one
/// back; ≈12000 cycles per EWB (§2.2); pages are evicted in batches of
/// 16 while faults load back a single page. Means over 40 K+ samples.
pub(super) fn fig07_sgx_latencies() -> Output {
    // Thrash a 92 MB EPC with a 3x working set until every op has tens
    // of thousands of samples, like the paper's ftrace collection.
    let mut m = Host::builder().sgx(SgxConfig::default()).build_machine();
    let t = m.add_thread();
    let ws_bytes: u64 = 276 << 20;
    let e = m
        .create_enclave(ws_bytes + (32 << 20), 4 << 20)
        .expect("enclave");
    m.ecall_enter(t, e).expect("enter");
    let heap = m.alloc_enclave_heap(e, ws_bytes).expect("heap");
    m.reset_measurement();
    let pages = ws_bytes / PAGE_SIZE;
    let mut sweeps = 0;
    while m.driver_stats().stats(DriverOp::Eldu).count < 40_000 {
        for p in 0..pages {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        sweeps += 1;
        if sweeps > 16 {
            break;
        }
    }

    let ghz = mem_sim::CLOCK_HZ as f64 / 1e9;
    let mut table = ReportTable::new(
        "Fig 7: driver-op latencies (mean over samples)",
        &[
            "operation",
            "samples",
            "mean_cycles",
            "mean_us",
            "min_us",
            "max_us",
        ],
    );
    for op in DriverOp::ALL {
        let s = m.driver_stats().stats(op);
        table.push_row(vec![
            op.to_string(),
            s.count.to_string(),
            s.mean_cycles().to_string(),
            format!("{:.2}", s.mean_micros(ghz)),
            format!("{:.2}", s.min_cycles as f64 / (ghz * 1000.0)),
            format!("{:.2}", s.max_cycles as f64 / (ghz * 1000.0)),
        ]);
    }

    let ewb = m.driver_stats().stats(DriverOp::Ewb).mean_cycles() as f64;
    let eldu = m.driver_stats().stats(DriverOp::Eldu).mean_cycles() as f64;
    Output::new(
        "Figure 7 — latency of core SGX driver operations",
        "few-microsecond ops; EWB ~16% slower than ELDU; 40K+ samples",
        table,
        &[&format!(
            "Shape check: EWB/ELDU = {:.2} (paper: 1.16 — eviction 16% costlier than load-back); EWB ~= {:.0} cycles (paper: ~12000)",
            ewb / eldu,
            ewb
        )],
    )
}

/// Periodic-sample interval of Figure 9: fine enough that even a
/// scaled-down pattern yields well over 32 timeline points.
const SAMPLE_INTERVAL: u64 = 1 << 14;

/// Runs a B-Tree-like build+probe touch pattern inside `machine`'s
/// enclave heap and returns the sampled counter timeline of the
/// execution phase.
fn btree_pattern(machine: &mut SgxMachine, heap: u64, pages: u64) -> Vec<TimelinePoint> {
    let t = mem_sim::ThreadId(0);
    machine
        .mem_mut()
        .set_trace_sink(TraceSink::with_config(1 << 16, SAMPLE_INTERVAL));
    // Build: sequential; probe: pseudo-random pointer chase.
    for p in 0..pages {
        machine.access(t, heap + p * PAGE_SIZE, 64, AccessKind::Write);
    }
    let mut x = 0x9e3779b97f4a7c15u64;
    for _ in 0..pages * 2 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let p = x % pages;
        machine.access(t, heap + p * PAGE_SIZE, 64, AccessKind::Read);
    }
    let sink = machine.mem_mut().take_trace_sink().expect("sink installed");
    sink.timeline()
}

fn downsample(trace: &[TimelinePoint], buckets: usize) -> Vec<TimelinePoint> {
    if trace.len() <= buckets {
        return trace.to_vec();
    }
    (0..buckets)
        .map(|i| trace[i * trace.len() / buckets])
        .collect()
}

/// Figure 9 / Appendix D: EPC allocation/eviction/load-back timeline for
/// B-Tree in Native vs LibOS mode.
///
/// Paper: the measurement pass evicts the (4 GB) enclave at LibOS
/// start-up; EPC pages are allocated after verification; after the
/// initialization phase the LibOS curve converges to the Native one.
pub(super) fn fig09_epc_timeline() -> Output {
    let pages: u64 = (40 << 20) / PAGE_SIZE / scale().max(1); // ~40 MB working set

    // Native: right-sized enclave.
    let mut native = Host::builder().sgx(SgxConfig::default()).build_machine();
    native.add_thread();
    let e = native
        .create_enclave(pages * PAGE_SIZE + (64 << 20), 4 << 20)
        .expect("enclave");
    native.ecall_enter(mem_sim::ThreadId(0), e).expect("enter");
    let heap = native
        .alloc_enclave_heap(e, pages * PAGE_SIZE)
        .expect("heap");
    let native_init = native.init_stats(e);
    native.reset_measurement();
    let native_trace = btree_pattern(&mut native, heap, pages);

    // LibOS: 4 GB enclave via Graphene-like launch.
    let mut libos = Host::builder().sgx(SgxConfig::default()).build_machine();
    let t = libos.add_thread();
    let manifest = Manifest::builder("btree").build();
    let proc_ = LibosProcess::launch(&mut libos, t, &manifest).expect("launch");
    proc_.enter(&mut libos, t).expect("enter");
    let startup = proc_.startup();
    let heap = proc_.alloc(&mut libos, pages * PAGE_SIZE).expect("heap");
    libos.reset_measurement();
    let libos_trace = btree_pattern(&mut libos, heap, pages);

    let mut table = ReportTable::new(
        "Fig 9: execution-phase EPC events over time (32 samples per mode)",
        &[
            "mode",
            "sample",
            "cycles",
            "allocs",
            "evictions",
            "loadbacks",
        ],
    );
    for (mode, trace) in [("Native", &native_trace), ("LibOS", &libos_trace)] {
        for (i, s) in downsample(trace, 32).iter().enumerate() {
            table.push_row(vec![
                mode.to_string(),
                i.to_string(),
                s.cycles.to_string(),
                s.snap.epc_allocs.to_string(),
                s.snap.epc_evictions.to_string(),
                s.snap.epc_loadbacks.to_string(),
            ]);
        }
    }

    let n_last = native_trace.last().map(|s| s.snap.epc_allocs).unwrap_or(0);
    let l_last = libos_trace.last().map(|s| s.snap.epc_allocs).unwrap_or(0);
    Output::new(
        "Figure 9 — EPC event timeline, B-Tree pattern, Native vs LibOS",
        "LibOS start-up evicts the whole enclave; execution-phase curves converge with Native",
        table,
        &[
            &format!(
                "Start-up (excluded above): Native build evicted {} pages; LibOS launch evicted {} pages (paper: ~1M for 4 GB).",
                fk(native_init.evictions),
                fk(startup.epc_evictions)
            ),
            &format!("Convergence check: execution-phase allocations Native={n_last} vs LibOS={l_last} (paper: the curves coincide after init)."),
        ],
    )
}

/// Figure 10 / Appendix E: IOzone under GrapheneSGX with and without
/// protected files.
///
/// Paper: reading/writing 1 GB in 4 MB records, LibOS costs 33% (read)
/// and 36% (write) over Vanilla; enabling protected files pushes the
/// overhead to 98% and 95% because of the extra ECALLs/OCALLs and the
/// per-block crypto.
pub(super) fn fig10_iozone_pf() -> Output {
    let wl = Iozone::scaled(scale());
    let run = |env, mode| runner(env).run_once(&wl, mode, InputSetting::Low);
    let vanilla = run(paper_env(ExecMode::Vanilla), ExecMode::Vanilla).expect("vanilla");
    let libos = run(paper_env(ExecMode::LibOs), ExecMode::LibOs).expect("libos");
    let pf = run(
        paper_env(ExecMode::LibOs).with_protected_files(),
        ExecMode::LibOs,
    )
    .expect("libos+pf");

    let metric = |r: &RunReport, m: &str| r.output.metric(m).expect("metric");
    let mut table = ReportTable::new(
        "Fig 10: IOzone read/write cycles and overheads",
        &[
            "variant",
            "read_cycles",
            "write_cycles",
            "read_overhead_%",
            "write_overhead_%",
            "ocalls",
        ],
    );
    let base_r = metric(&vanilla, "read_cycles");
    let base_w = metric(&vanilla, "write_cycles");
    for (name, r) in [
        ("Vanilla", &vanilla),
        ("S-G (LibOS)", &libos),
        ("S-P (LibOS+PF)", &pf),
    ] {
        let rr = metric(r, "read_cycles");
        let ww = metric(r, "write_cycles");
        table.push_row(vec![
            name.to_string(),
            format!("{rr:.0}"),
            format!("{ww:.0}"),
            format!("{:.0}", 100.0 * (rr - base_r) / base_r),
            format!("{:.0}", 100.0 * (ww - base_w) / base_w),
            (r.sgx.ocalls + r.sgx.switchless_ocalls).to_string(),
        ]);
    }

    Output::new(
        "Figure 10 — IOzone: LibOS (S-G) and LibOS+PF (S-P) vs Vanilla",
        "read/write overhead 33%/36% under LibOS, 98%/95% with protected files",
        table,
        &[
            "Shape check: overhead ordering Vanilla < S-G < S-P must hold, with S-P several times S-G's overhead (paper: 33/36% -> 98/95%).",
            &format!(
                "OCALL check: PF adds metadata OCALLs — S-G {} vs S-P {} (paper Fig 10c/d: ECALL/OCALL counts rise under PF).",
                libos.sgx.ocalls, pf.sgx.ocalls
            ),
        ],
    )
}

/// The regressors of Table 5, in column order.
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

/// Table 5 / Appendix C: ranking counters by standardized regression
/// coefficients.
///
/// Paper: fit execution time as a linear function of {walk cycles, stall
/// cycles, page faults, dTLB misses, LLC misses, EPC evictions}; the
/// coefficient magnitudes rank each counter's importance per workload.
/// "Most of the time paging and TLB-related counters are the most
/// correlated with the performance."
pub(super) fn table5_regression() -> Output {
    let runner = runner(paper_env(ExecMode::Vanilla));
    // Sample matrix: 3 settings x supported SGX modes x 3 size variants,
    // giving 9-18 observations per workload for 6 features. A minimum
    // divisor of 2 keeps this (the heaviest table) tractable without
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
        let mut row = vec![name.to_string()];
        match standardized_coefficients(&xs, &ys) {
            Ok(coefs) => {
                let dominant = coefs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("no NaN"))
                    .map(|(i, _)| COUNTER_NAMES[i])
                    .unwrap_or("-");
                row.extend(coefs.iter().map(|c| format!("{c:.2}")));
                row.push(dominant.to_string());
            }
            Err(e) => {
                row.extend(std::iter::repeat_n("-".to_string(), 6));
                row.push(format!("({e})"));
            }
        }
        table.push_row(row);
    }
    Output::new(
        "Table 5 — counter importance by standardized regression",
        "paging/TLB counters dominate execution-time prediction",
        table,
        &["Shape check: the dominant column should mostly name paging/TLB counters (walk cycles, dTLB misses, page faults)."],
    )
}

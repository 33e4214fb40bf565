//! Integration: the unified simulation-time tracing plane.
//!
//! Traces are keyed on *simulated* thread clocks and collected in
//! per-cell private sinks, so they must be byte-identical across runs
//! and across sweep parallelism; EPC-fault events must reproduce the
//! paper's boundary cliff (they only appear once residency reaches the
//! watermark); a failing phase span must propagate its error and leave no
//! span open; and the typed grid key must round-trip through its display
//! form.

use sgxgauge::core::{
    CellKey, Env, EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig, SuiteRunner,
    TraceConfig, Workload, WorkloadError,
};
use sgxgauge::workloads::suite_scaled;
use trace::TraceEvent;

fn traced_runner(d: u64) -> Runner {
    Runner::new(RunnerConfig::scaled(d)).tracing(TraceConfig::default())
}

fn find(scale: u64, name: &str) -> Box<dyn Workload> {
    suite_scaled(scale)
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .expect("workload in suite")
}

/// Renders the JSONL trace of every cell of one sweep, concatenated in
/// grid order.
fn sweep_jsonl(jobs: usize) -> String {
    let workloads = suite_scaled(2048);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let sweep = SuiteRunner::new(RunnerConfig::scaled(2048))
        .modes(&[ExecMode::Vanilla, ExecMode::Native])
        .settings(&[InputSetting::Low])
        .threads(jobs)
        .tracing(TraceConfig::default())
        .run(&refs);
    let mut out = String::new();
    for cell in &sweep.cells {
        let Ok(r) = &cell.result else { continue };
        out.push_str(&format!("# {}\n", cell.cell));
        out.push_str(&r.trace.as_ref().expect("traced cell").render_jsonl());
    }
    assert!(!out.is_empty(), "sweep produced no traces");
    out
}

/// The whole-suite trace stream is byte-identical run to run and under
/// `--jobs 1` vs `--jobs 8`: per-cell sinks keyed on simulated clocks
/// leave host scheduling nothing to perturb.
#[test]
fn trace_stream_is_byte_identical_across_runs_and_jobs() {
    let sequential = sweep_jsonl(1);
    assert_eq!(sequential, sweep_jsonl(1), "run-to-run drift");
    assert_eq!(sequential, sweep_jsonl(8), "parallelism drift");
}

/// The rendered sweep trace is pinned byte for byte: its length and
/// FNV-1a digest on the `scaled(2048)` platform, so any change to a
/// rendered byte fails here.
#[test]
fn trace_stream_bytes_are_pinned() {
    let text = sweep_jsonl(1);
    let mut h = faults::Fnv::default();
    h.str(&text);
    assert_eq!(
        (text.len(), h.finish()),
        (28_447, 0x480d_61f8_876d_d04a),
        "the rendered trace bytes changed"
    );
}

/// Tracing observes the simulation without perturbing it: cycle counts
/// and outputs match an untraced run exactly.
#[test]
fn tracing_charges_zero_simulated_cycles() {
    let wl = find(2048, "btree");
    let untraced = Runner::new(RunnerConfig::scaled(2048))
        .run_once(wl.as_ref(), ExecMode::Native, InputSetting::Low)
        .expect("untraced run");
    let traced = traced_runner(2048)
        .run_once(wl.as_ref(), ExecMode::Native, InputSetting::Low)
        .expect("traced run");
    assert_eq!(untraced.runtime_cycles, traced.runtime_cycles);
    assert_eq!(untraced.output.checksum, traced.output.checksum);
    assert_eq!(untraced.sgx.epc_faults, traced.sgx.epc_faults);
    assert!(untraced.trace.is_none() && traced.trace.is_some());
}

/// The paper's EPC boundary cliff, event-resolved: below the watermark
/// (Low fits in the EPC) no `epc_fault` events exist at all; past it
/// (High overflows) they appear, and every one fires with residency
/// pinned to the watermark band (full EPC minus at most one eviction
/// batch).
#[test]
fn epc_fault_events_appear_only_past_the_watermark() {
    // Inputs and platform shrink by one divisor, so the Low arena fits
    // the EPC and the High arena overflows it, as at paper scale.
    let d = 24;
    let wl = find(d, "btree");
    let faults_of = |setting| {
        let r = traced_runner(d)
            .run_once(wl.as_ref(), ExecMode::Native, setting)
            .expect("run");
        let sink = r.trace.expect("traced");
        sink.records()
            .filter_map(|rec| match rec.event {
                TraceEvent::EpcFault { resident_pages, .. } => Some(resident_pages),
                _ => None,
            })
            .collect::<Vec<u64>>()
    };
    let low = faults_of(InputSetting::Low);
    assert!(
        low.is_empty(),
        "Low fits in EPC yet recorded {} paging-fault events",
        low.len()
    );
    let high = faults_of(InputSetting::High);
    assert!(
        !high.is_empty(),
        "High overflows EPC yet recorded no faults"
    );
    // Faults only fire with the EPC full, so residency at fault time
    // stays within one EWB batch of the peak.
    let peak = *high.iter().max().unwrap();
    let floor = peak.saturating_sub(sgxgauge::sgx::costs::EVICT_BATCH_PAGES as u64);
    assert!(
        high.iter().all(|&r| r >= floor),
        "fault below the watermark band: min {} < {floor}",
        high.iter().min().unwrap()
    );
}

/// `Env::with_phase` is the only span API, so a span cannot be left
/// open: a nested span whose closure fails propagates the failure, and
/// both spans are closed on the way out. Untraced, the same nesting is a
/// plain call that propagates the same error.
#[test]
fn failing_nested_phase_propagates_its_error_and_closes_every_span() {
    let failure = || WorkloadError::Other("probe failed".into());
    for traced in [false, true] {
        let mut env = Env::new(EnvConfig::scaled(ExecMode::Native, 1024)).expect("env");
        if traced {
            env.machine_mut()
                .mem_mut()
                .set_trace_sink(trace::TraceSink::new(1 << 10));
        }
        let err = env
            .with_phase("build", |env| {
                env.compute(100);
                env.with_phase("probe", |env| {
                    env.compute(100);
                    Err::<(), _>(failure())
                })
            })
            .expect_err("the inner closure's error propagates");
        assert_eq!(err, failure(), "traced={traced}");
        let sink = env.machine_mut().mem_mut().take_trace_sink();
        assert_eq!(sink.is_some(), traced);
        if let Some(sink) = sink {
            assert_eq!(sink.finish(), Ok(()), "a span was left open");
            let ends = sink
                .records()
                .filter(|r| matches!(r.event, TraceEvent::PhaseEnd { .. }))
                .count();
            assert_eq!(ends, 2, "both spans emit their end");
            assert_eq!(sink.phase_attribution().len(), 2, "one row per span");
        }
    }
}

/// The typed grid key round-trips through its display form and rejects
/// malformed strings.
#[test]
fn cell_key_display_round_trips() {
    let key = CellKey {
        workload: 3,
        mode: ExecMode::LibOs,
        setting: InputSetting::High,
        rep: 2,
    };
    assert_eq!(key.to_string(), "3/LibOS/High/2");
    assert_eq!(key.to_string().parse::<CellKey>(), Ok(key));
    assert_eq!("3/libos/high/2".parse::<CellKey>(), Ok(key));
    // Keys of the retired co-tenancy (`tNaM`) and protocol (`pNqT`)
    // dimensions are refused like any other trailing field.
    for bad in [
        "",
        "1/libos/high",
        "1/libos/high/2/9",
        "x/libos/high/2",
        "1/warp/high/0",
        "1/libos/high/2/t3a2",
        "1/libos/high/2/p5q3",
    ] {
        assert!(bad.parse::<CellKey>().is_err(), "accepted `{bad}`");
    }
}

//! Figure 9 / Appendix D: EPC allocation/eviction/load-back timeline for
//! B-Tree in Native vs LibOS mode.
//!
//! Paper: the measurement pass evicts the (4 GB) enclave at LibOS
//! start-up; EPC pages are allocated after verification; after the
//! initialization phase the LibOS curve converges to the Native one.

use libos_sim::Manifest;
use mem_sim::{AccessKind, PAGE_SIZE};
use sgx_sim::{Host, SgxConfig, SgxMachine};
use sgxgauge_bench::{banner, emit, fk, scale};
use sgxgauge_core::report::ReportTable;
use trace::{TimelinePoint, TraceSink};

/// Periodic-sample interval: fine enough that even a scaled-down pattern
/// yields well over 32 timeline points.
const SAMPLE_INTERVAL: u64 = 1 << 14;

/// Runs a B-Tree-like build+probe touch pattern inside `machine`'s
/// enclave heap and returns the sampled counter timeline of the
/// execution phase.
fn run_pattern(machine: &mut SgxMachine, heap: u64, pages: u64) -> Vec<TimelinePoint> {
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

fn main() {
    banner(
        "Figure 9 — EPC event timeline, B-Tree pattern, Native vs LibOS",
        "LibOS start-up evicts the whole enclave; execution-phase curves converge with Native",
    );
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
    let native_trace = run_pattern(&mut native, heap, pages);

    // LibOS: 4 GB enclave via Graphene-like launch.
    let mut libos = Host::builder().sgx(SgxConfig::default()).build_machine();
    let t = libos.add_thread();
    let manifest = Manifest::builder("btree").build();
    let proc_ = libos_sim::LibosProcess::launch(&mut libos, t, &manifest).expect("launch");
    proc_.enter(&mut libos, t).expect("enter");
    let startup = proc_.startup();
    let heap = proc_.alloc(&mut libos, pages * PAGE_SIZE).expect("heap");
    libos.reset_measurement();
    let libos_trace = run_pattern(&mut libos, heap, pages);

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
    emit("fig09_epc_timeline", &table);

    println!(
        "Start-up (excluded above): Native build evicted {} pages; LibOS launch evicted {} pages (paper: ~1M for 4 GB).",
        fk(native_init.evictions),
        fk(startup.epc_evictions)
    );
    let n_last = native_trace.last().map(|s| s.snap.epc_allocs).unwrap_or(0);
    let l_last = libos_trace.last().map(|s| s.snap.epc_allocs).unwrap_or(0);
    println!(
        "Convergence check: execution-phase allocations Native={n_last} vs LibOS={l_last} (paper: the curves coincide after init)."
    );
}

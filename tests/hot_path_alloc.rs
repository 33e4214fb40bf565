//! The per-access path never allocates once warm.
//!
//! A counting global allocator wraps `System` and counts, per thread,
//! every call into it. The tests drive `mem_sim::Machine::access` /
//! `access_stream` and `SgxMachine::access` / `access_stream` with
//! sequential, random and transition-interleaved streams, untraced and
//! traced (on the SGX machine, with a `TraceSink` whose ring has already
//! overflowed), and `Env`'s scalar `read_u64` / `write_u64`, whose
//! accesses queue and are charged in batches (with a stride-8 scan as
//! well, whose accesses fold into the queue's tail). After one
//! warm-up pass (page tables, EPC residency and the reusable stream
//! buffer reach their high-water marks) a second pass over an
//! EPC-resident stream must make zero allocator calls. On a stream
//! larger than the EPC, paging allocates per eviction batch, so the test
//! bounds allocator calls by the EPC faults taken divided by
//! [`FAULTS_PER_ALLOC`]: allocation is O(faults), never O(accesses).
//!
//! `audit` builds compile per-event invariant checks into the same paths
//! and those allocate on purpose, so this file is empty under that
//! feature.

#![cfg(not(feature = "audit"))]

use sgxgauge::core::env::Placement;
use sgxgauge::core::{Env, EnvConfig, ExecMode};
use sgxgauge::mem::{AccessAttrs, AccessKind, Machine, MachineConfig, StreamRun, ThreadId};
use sgxgauge::sgx::{Host, SgxConfig, SgxMachine};
use sgxgauge::trace::TraceSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread. `const`-initialised with a
    /// type that needs no destructor, so touching it never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting `alloc`, `alloc_zeroed` and `realloc` calls.
struct Counting;

fn count_call() {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other work is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// EPC faults per allocator call that an over-EPC stream must at least
/// reach. Paging allocates about twice per 16-page eviction batch (the
/// batch's victim list, plus amortised growth of the driver's latency
/// samples): the measured ratio is 0.126 calls per fault on every
/// stream below (193 calls for 1,536 faults sequential, 5,570 for
/// 44,555 random). The bound allows 0.25, twice that; one allocation
/// per fault would be 1.1.
const FAULTS_PER_ALLOC: u64 = 4;

/// Accesses per pass.
const ACCESSES: usize = 1 << 17;
/// Runs per `access_stream` call.
const BATCH: usize = 512;
/// Accesses between transitions on an interleaved stream.
const TRANSITION_EVERY: usize = 64;
/// EPC size of the SGX machines, in pages.
const EPC_PAGES: usize = 1024;
/// Footprint of the EPC-resident streams: a quarter of the EPC.
const RESIDENT_BYTES: u64 = 1 << 20;
/// Footprint of the over-EPC streams: 1.5x the EPC, which a sequential
/// pass of [`ACCESSES`] lines covers in full.
const OVER_EPC_BYTES: u64 = EPC_PAGES as u64 * 4096 / 2 * 3;
/// Trace ring capacity; the warm-up pass overflows it many times.
const RING: usize = 64;
/// Simulated cycles between periodic counter samples.
const SAMPLE_EVERY: u64 = 2_000;

#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// One 8-byte access per cache line, in address order.
    Seq,
    /// 8-byte accesses at random aligned offsets.
    Rand,
    /// One 8-byte access per word, in address order: a stride-8 scan,
    /// whose same-line and next-line accesses `Env` folds.
    Scan,
}

/// `(offset, kind)` pairs inside a `bytes`-sized region, one write in
/// four.
fn stream(pattern: Pattern, bytes: u64) -> Vec<(u64, AccessKind)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..ACCESSES as u64)
        .map(|i| {
            let off = match pattern {
                Pattern::Seq => (i * 64) % bytes,
                Pattern::Scan => (i * 8) % bytes,
                Pattern::Rand => {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 11) % (bytes / 8)) * 8
                }
            };
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (off, kind)
        })
        .collect()
}

fn traced_sink() -> TraceSink {
    TraceSink::with_config(RING, SAMPLE_EVERY)
}

#[test]
fn mem_sim_access_and_access_stream_do_not_allocate_once_warm() {
    for pattern in [Pattern::Seq, Pattern::Rand] {
        for traced in [false, true] {
            let s = stream(pattern, RESIDENT_BYTES);
            let batch = runs(0, &s, false);
            let mut m = Machine::new(MachineConfig::default());
            let t = m.add_thread();
            if traced {
                m.set_trace_sink(traced_sink());
            }
            let per_access = |m: &mut Machine| {
                for &(off, kind) in &s {
                    m.access(t, off, 8, kind, &AccessAttrs::PLAIN);
                }
            };
            per_access(&mut m);
            let n = allocs_in(|| per_access(&mut m));
            assert_eq!(n, 0, "{pattern:?} traced={traced}: access allocated {n}x");
            let batched = |m: &mut Machine| {
                for chunk in batch.chunks(BATCH) {
                    m.access_stream(t, chunk, &AccessAttrs::PLAIN);
                }
            };
            batched(&mut m);
            let n = allocs_in(|| batched(&mut m));
            assert_eq!(
                n, 0,
                "{pattern:?} traced={traced}: access_stream allocated {n}x"
            );
        }
    }
}

/// A machine with one thread inside one enclave whose heap spans
/// `bytes`; returns the heap base.
fn sgx_machine(bytes: u64, traced: bool) -> (SgxMachine, ThreadId, u64) {
    let mut m = Host::builder()
        .sgx(SgxConfig::with_tiny_epc(EPC_PAGES, 16))
        .build_machine();
    let t = m.add_thread();
    let e = m
        .create_enclave(bytes + (1 << 20), 0)
        .expect("enclave fits");
    m.ecall_enter(t, e).expect("thread enters its enclave");
    let heap = m.alloc_enclave_heap(e, bytes).expect("heap fits");
    if traced {
        m.mem_mut().set_trace_sink(traced_sink());
    }
    (m, t, heap)
}

/// The runs of one pass over `s`, at offsets from `heap`. With
/// `transitions`, every other access goes to untrusted memory instead,
/// so an SGX stream keeps switching routing class.
fn runs(heap: u64, s: &[(u64, AccessKind)], transitions: bool) -> Vec<StreamRun> {
    let untrusted = 1u64 << 44;
    s.iter()
        .enumerate()
        .map(|(i, &(off, kind))| {
            let base = if transitions && i % 2 == 1 {
                untrusted
            } else {
                heap
            };
            StreamRun::new(base + off, 8, kind)
        })
        .collect()
}

/// One pass over `runs` through `SgxMachine::access` or `access_stream`.
/// With `transitions`, the thread takes an OCALL every
/// [`TRANSITION_EVERY`] runs.
fn sgx_pass(m: &mut SgxMachine, t: ThreadId, runs: &[StreamRun], batched: bool, transitions: bool) {
    let step = if transitions { TRANSITION_EVERY } else { BATCH };
    for chunk in runs.chunks(step) {
        if batched {
            m.access_stream(t, chunk);
        } else {
            for r in chunk {
                m.access(t, r.vaddr, r.len, r.kind);
            }
        }
        if transitions {
            m.ocall(t, 100).expect("thread is inside its enclave");
        }
    }
}

/// Warm-up pass, then the allocator calls and EPC faults of a second.
fn measure_sgx(
    pattern: Pattern,
    bytes: u64,
    batched: bool,
    transitions: bool,
    traced: bool,
) -> (u64, u64) {
    let (mut m, t, heap) = sgx_machine(bytes, traced);
    let pass = runs(heap, &stream(pattern, bytes), transitions);
    sgx_pass(&mut m, t, &pass, batched, transitions);
    let faults0 = m.sgx_counters().epc_faults;
    let allocs = allocs_in(|| sgx_pass(&mut m, t, &pass, batched, transitions));
    let faults = m.sgx_counters().epc_faults - faults0;
    if traced {
        let sink = m.mem_mut().take_trace_sink().expect("sink was armed");
        assert!(
            sink.dropped() > sink.len() as u64,
            "the ring must have wrapped before the measured pass"
        );
    }
    (allocs, faults)
}

#[test]
fn sgx_access_paths_do_not_allocate_on_epc_resident_streams() {
    for pattern in [Pattern::Seq, Pattern::Rand] {
        for batched in [false, true] {
            for transitions in [false, true] {
                for traced in [false, true] {
                    let (allocs, faults) =
                        measure_sgx(pattern, RESIDENT_BYTES, batched, transitions, traced);
                    let what = format!(
                        "{pattern:?} batched={batched} transitions={transitions} traced={traced}"
                    );
                    assert_eq!(faults, 0, "{what}: the stream must stay EPC-resident");
                    assert_eq!(allocs, 0, "{what}: {allocs} allocator calls once warm");
                }
            }
        }
    }
}

#[test]
fn sgx_access_paths_allocate_per_fault_not_per_access_over_the_epc() {
    for pattern in [Pattern::Seq, Pattern::Rand] {
        for batched in [false, true] {
            for traced in [false, true] {
                let (allocs, faults) = measure_sgx(pattern, OVER_EPC_BYTES, batched, false, traced);
                let what = format!("{pattern:?} batched={batched} traced={traced}");
                assert!(faults > 0, "{what}: the stream must page");
                assert!(
                    allocs * FAULTS_PER_ALLOC <= faults,
                    "{what}: {allocs} allocator calls for {faults} EPC faults"
                );
            }
        }
    }
}

/// `Env` queues scalar accesses and charges them in batches, folding
/// same-line and next-line ones into the queue's tail; once warm, a
/// stream of `read_u64`/`write_u64` calls on an EPC-resident region
/// inside an ECALL makes no allocator call: the run queue is reused,
/// never regrown.
#[test]
fn env_scalar_stream_does_not_allocate_once_warm() {
    for pattern in [Pattern::Seq, Pattern::Rand, Pattern::Scan] {
        let mut cfg = EnvConfig::quick_test(ExecMode::Native);
        cfg.protected_hint = RESIDENT_BYTES;
        let mut env = Env::new(cfg).expect("env");
        let r = env
            .alloc(RESIDENT_BYTES, Placement::Protected)
            .expect("region fits");
        let s = stream(pattern, RESIDENT_BYTES);
        let pass = |env: &mut Env| {
            env.secure_call(|env| {
                let mut sum = 0u64;
                for &(off, kind) in &s {
                    match kind {
                        AccessKind::Read => sum = sum.wrapping_add(env.read_u64(r, off)),
                        AccessKind::Write => env.write_u64(r, off, sum),
                    }
                }
                std::hint::black_box(sum);
            })
            .expect("main thread enters its enclave");
        };
        pass(&mut env);
        let faults0 = env.machine().sgx_counters().epc_faults;
        let n = allocs_in(|| pass(&mut env));
        assert_eq!(
            env.machine().sgx_counters().epc_faults,
            faults0,
            "{pattern:?}: the stream must stay EPC-resident"
        );
        assert_eq!(n, 0, "{pattern:?}: {n} allocator calls once warm");
    }
}

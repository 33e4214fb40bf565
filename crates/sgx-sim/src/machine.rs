//! The SGX machine: enclaves + EPC + transitions layered on the memory
//! model.
//!
//! All cycle costs are charged to the issuing thread's clock in the
//! underlying [`mem_sim::Machine`]; all SGX events land in
//! [`SgxCounters`]; all driver-visible paging operations are also sampled
//! into [`DriverStats`] the way the paper's instrumented driver does.

use crate::costs;
use crate::driver::{DriverOp, DriverStats};
use crate::enclave::{Enclave, EnclaveId, EnclaveState};
use crate::epc::{Epc, EpcFaultKind, PageKey};
use crate::epcm::{Epcm, PagePerms};
use crate::switchless::SwitchlessPool;
use ledger::SgxLedger;
use mem_sim::{
    AccessAttrs, AccessKind, AccessOutcome, Machine, MachineConfig, StreamRun, ThreadId,
    PAGE_SHIFT, PAGE_SIZE,
};
use std::error::Error;
use std::fmt;

mod ledger;

/// Errors reported by [`SgxMachine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// Enclave content is larger than the configured enclave size.
    ContentTooLarge,
    /// ECALL into an enclave that is not initialized (or destroyed).
    NotInitialized,
    /// The thread is already executing inside an enclave.
    AlreadyInEnclave,
    /// The operation requires the thread to be inside an enclave.
    NotInEnclave,
    /// All TCS slots of the enclave are in use (too many concurrent
    /// ECALLs; the paper's Graphene manifests configure 16).
    OutOfTcs,
    /// The enclave's ELRANGE cannot hold the requested heap allocation.
    OutOfEnclaveMemory,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::ContentTooLarge => write!(f, "enclave content exceeds enclave size"),
            SgxError::NotInitialized => write!(f, "enclave is not initialized"),
            SgxError::AlreadyInEnclave => write!(f, "thread is already inside an enclave"),
            SgxError::NotInEnclave => write!(f, "thread is not inside an enclave"),
            SgxError::OutOfTcs => write!(f, "no free TCS slot for another concurrent ECALL"),
            SgxError::OutOfEnclaveMemory => write!(f, "enclave heap exhausted"),
        }
    }
}

impl Error for SgxError {}

/// Configuration of the SGX platform model. Defaults reproduce the
/// paper's platform (Table 3); the cycle costs it cites (§2.2, §2.3,
/// App. A) are the constants in [`crate::costs`], not settings.
#[derive(Debug, Clone)]
pub struct SgxConfig {
    /// The underlying machine model.
    pub mem: MachineConfig,
    /// Usable EPC bytes (92 MB on the paper's platform).
    pub epc_bytes: u64,
    /// EPC bytes lost to SGX structures and resident runtime pages:
    /// SECS/TCS/SSA frames, version-array pages for evicted content, and
    /// the measured binary's hot pages. Application data contends for
    /// `epc_bytes - epc_reserved_bytes` frames, which is why footprints
    /// "approximately at" the EPC size already page (paper §5.3).
    pub epc_reserved_bytes: u64,
    /// Pages evicted per EWB batch (the driver uses 16).
    pub evict_batch: usize,
    /// Concurrent TCS slots per enclave.
    pub tcs_per_enclave: usize,
    /// Proxy threads for switchless OCALLs; zero disables the feature.
    pub switchless_workers: usize,
    /// SGX2 dynamic memory (EDMM): when true, only *content* pages are
    /// measured at build time; heap pages are EAUGed on first touch
    /// instead of streaming the whole ELRANGE through the EPC. This is
    /// the platform improvement that eliminates Graphene's ≈1 M start-up
    /// evictions (Appendix D discusses SGX v1 vs v2 heaps).
    pub sgx2_edmm: bool,
}

impl Default for SgxConfig {
    fn default() -> Self {
        SgxConfig {
            mem: MachineConfig::default(),
            epc_bytes: 92 << 20,
            epc_reserved_bytes: 8 << 20,
            evict_batch: costs::EVICT_BATCH_PAGES,
            tcs_per_enclave: 16,
            switchless_workers: 0,
            sgx2_edmm: false,
        }
    }
}

impl SgxConfig {
    /// A configuration with a tiny EPC, handy for tests that want to
    /// exercise eviction without touching megabytes.
    pub fn with_tiny_epc(epc_pages: usize, batch: usize) -> Self {
        SgxConfig {
            epc_bytes: (epc_pages as u64) * PAGE_SIZE,
            epc_reserved_bytes: 0,
            evict_batch: batch,
            ..Default::default()
        }
    }
}

/// SGX-specific event counters, complementing [`mem_sim::Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SgxCounters {
    /// ECALLs (enclave entries through EENTER).
    pub ecalls: u64,
    /// OCALLs taking the classic exit path (EEXIT + EENTER).
    pub ocalls: u64,
    /// OCALLs served switchlessly by proxy threads.
    pub switchless_ocalls: u64,
    /// Asynchronous enclave exits (faults, signals).
    pub aex_exits: u64,
    /// The subset of `aex_exits` injected by the fault plane
    /// ([`SgxMachine::inject_aex`]) rather than caused by EPC faults.
    pub injected_aex: u64,
    /// EPC frames allocated (`sgx_alloc_page`).
    pub epc_allocs: u64,
    /// EPC pages evicted (EWB).
    pub epc_evictions: u64,
    /// EPC pages loaded back (ELDU).
    pub epc_loadbacks: u64,
    /// EPC faults handled (`sgx_do_fault` invocations).
    pub epc_faults: u64,
    /// Pages measured at enclave build (EADD + EEXTEND).
    pub pages_measured: u64,
    /// Cycles spent in enclave transitions (EENTER/EEXIT/OCALL paths,
    /// including switchless waits).
    pub transition_cycles: u64,
    /// Cycles spent handling EPC faults (AEX + driver + EWB/ELDU +
    /// ERESUME).
    pub fault_cycles: u64,
}

/// Typed key for one [`SgxCounters`] field.
///
/// This replaces the old stringly `set_field(&str, u64)` accessor: report
/// and checkpoint code address counters through the enum, and a typo in a
/// counter name is now a compile error (or a `None` from
/// [`CounterField::parse`] on the deserialization path) instead of a
/// silently ignored write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterField {
    /// [`SgxCounters::ecalls`].
    Ecalls,
    /// [`SgxCounters::ocalls`].
    Ocalls,
    /// [`SgxCounters::switchless_ocalls`].
    SwitchlessOcalls,
    /// [`SgxCounters::aex_exits`].
    AexExits,
    /// [`SgxCounters::injected_aex`].
    InjectedAex,
    /// [`SgxCounters::epc_allocs`].
    EpcAllocs,
    /// [`SgxCounters::epc_evictions`].
    EpcEvictions,
    /// [`SgxCounters::epc_loadbacks`].
    EpcLoadbacks,
    /// [`SgxCounters::epc_faults`].
    EpcFaults,
    /// [`SgxCounters::pages_measured`].
    PagesMeasured,
    /// [`SgxCounters::transition_cycles`].
    TransitionCycles,
    /// [`SgxCounters::fault_cycles`].
    FaultCycles,
}

impl CounterField {
    /// Every field, in [`SgxCounters`] declaration order.
    pub const ALL: [CounterField; 12] = [
        CounterField::Ecalls,
        CounterField::Ocalls,
        CounterField::SwitchlessOcalls,
        CounterField::AexExits,
        CounterField::InjectedAex,
        CounterField::EpcAllocs,
        CounterField::EpcEvictions,
        CounterField::EpcLoadbacks,
        CounterField::EpcFaults,
        CounterField::PagesMeasured,
        CounterField::TransitionCycles,
        CounterField::FaultCycles,
    ];

    /// The snake_case field name, as reports and checkpoints spell it.
    pub fn name(self) -> &'static str {
        match self {
            CounterField::Ecalls => "ecalls",
            CounterField::Ocalls => "ocalls",
            CounterField::SwitchlessOcalls => "switchless_ocalls",
            CounterField::AexExits => "aex_exits",
            CounterField::InjectedAex => "injected_aex",
            CounterField::EpcAllocs => "epc_allocs",
            CounterField::EpcEvictions => "epc_evictions",
            CounterField::EpcLoadbacks => "epc_loadbacks",
            CounterField::EpcFaults => "epc_faults",
            CounterField::PagesMeasured => "pages_measured",
            CounterField::TransitionCycles => "transition_cycles",
            CounterField::FaultCycles => "fault_cycles",
        }
    }

    /// Inverse of [`CounterField::name`]; `None` for unknown names.
    pub fn parse(name: &str) -> Option<CounterField> {
        CounterField::ALL.into_iter().find(|f| f.name() == name)
    }
}

impl SgxCounters {
    /// Reads the counter addressed by `field`.
    pub fn get(&self, field: CounterField) -> u64 {
        match field {
            CounterField::Ecalls => self.ecalls,
            CounterField::Ocalls => self.ocalls,
            CounterField::SwitchlessOcalls => self.switchless_ocalls,
            CounterField::AexExits => self.aex_exits,
            CounterField::InjectedAex => self.injected_aex,
            CounterField::EpcAllocs => self.epc_allocs,
            CounterField::EpcEvictions => self.epc_evictions,
            CounterField::EpcLoadbacks => self.epc_loadbacks,
            CounterField::EpcFaults => self.epc_faults,
            CounterField::PagesMeasured => self.pages_measured,
            CounterField::TransitionCycles => self.transition_cycles,
            CounterField::FaultCycles => self.fault_cycles,
        }
    }

    /// Writes the counter addressed by `field`.
    pub fn set(&mut self, field: CounterField, value: u64) {
        let slot = match field {
            CounterField::Ecalls => &mut self.ecalls,
            CounterField::Ocalls => &mut self.ocalls,
            CounterField::SwitchlessOcalls => &mut self.switchless_ocalls,
            CounterField::AexExits => &mut self.aex_exits,
            CounterField::InjectedAex => &mut self.injected_aex,
            CounterField::EpcAllocs => &mut self.epc_allocs,
            CounterField::EpcEvictions => &mut self.epc_evictions,
            CounterField::EpcLoadbacks => &mut self.epc_loadbacks,
            CounterField::EpcFaults => &mut self.epc_faults,
            CounterField::PagesMeasured => &mut self.pages_measured,
            CounterField::TransitionCycles => &mut self.transition_cycles,
            CounterField::FaultCycles => &mut self.fault_cycles,
        };
        *slot = value;
    }

    /// `(name, value)` pairs in declaration order — a thin iterator over
    /// [`CounterField::ALL`], kept for report code.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterField::ALL
            .into_iter()
            .map(|f| (f.name(), self.get(f)))
    }
}

/// Statistics of one enclave build (ECREATE..EINIT), kept for the
/// start-up analyses (Fig 6a, Fig 9, Appendix D).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InitStats {
    /// Pages streamed through the EPC for measurement.
    pub pages_measured: u64,
    /// EPC evictions caused by the measurement pass.
    pub evictions: u64,
    /// Cycles the build took.
    pub cycles: u64,
}

/// Base of the untrusted heap in the simulated address space.
const UNTRUSTED_BASE: u64 = 0x0000_1000_0000;
/// Base of the first ELRANGE.
const ENCLAVE_BASE: u64 = 0x7000_0000_0000;

/// The SGX platform model. See the crate docs for an example.
///
/// A clone is a fork of the whole platform — clocks, caches, TLBs, EPC,
/// EPCM, jitter stream — so it charges exactly the cycles and counters
/// the original would for the same operations.
#[derive(Debug, Clone)]
pub struct SgxMachine {
    cfg: SgxConfig,
    mem: Machine,
    epc: Epc,
    epcm: Epcm,
    enclaves: Vec<Enclave>,
    active_tcs: Vec<usize>,
    in_enclave: Vec<Option<EnclaveId>>,
    counters: SgxLedger,
    driver: DriverStats,
    switchless: Option<SwitchlessPool>,
    untrusted_next: u64,
    enclave_next: u64,
    init_stats: Vec<InitStats>,
    jitter: u64,
    /// Memo of the last enclave page confirmed resident by
    /// [`SgxMachine::access_stream`], so streaming accesses within one
    /// page skip the residency map entirely. Invariant: when set, the
    /// page is resident with its reference bit set and no eviction sweep
    /// has run since — every event that could break that (an EPC fault,
    /// an enclave build or teardown) clears or overwrites the memo.
    last_touched: Option<(EnclaveId, u64)>,
}

impl SgxMachine {
    /// Builds the platform from a configuration. Callers spell it
    /// `Host::builder().sgx(cfg).build_machine()` (see
    /// [`crate::host::HostBuilder`]).
    pub(crate) fn from_config(cfg: SgxConfig) -> Self {
        let frames = (cfg.epc_bytes.saturating_sub(cfg.epc_reserved_bytes) >> PAGE_SHIFT) as usize;
        let epc = Epc::new(frames.max(1), cfg.evict_batch.max(1));
        let switchless = if cfg.switchless_workers > 0 {
            Some(SwitchlessPool::new(
                cfg.switchless_workers,
                costs::SWITCHLESS_CHANNEL_CYCLES,
            ))
        } else {
            None
        };
        let mem = Machine::new(cfg.mem.clone());
        SgxMachine {
            cfg,
            mem,
            epc,
            epcm: Epcm::new(),
            enclaves: Vec::new(),
            active_tcs: Vec::new(),
            in_enclave: Vec::new(),
            counters: SgxLedger::default(),
            driver: DriverStats::new(),
            switchless,
            untrusted_next: UNTRUSTED_BASE,
            enclave_next: ENCLAVE_BASE,
            init_stats: Vec::new(),
            jitter: 0x9e3779b97f4a7c15,
            last_touched: None,
        }
    }

    /// Adds a hardware thread.
    pub fn add_thread(&mut self) -> ThreadId {
        self.in_enclave.push(None);
        self.mem.add_thread()
    }

    /// Assembles the flat counter snapshot the trace plane records at
    /// sample instants and phase boundaries: this layer is the only one
    /// that sees the memory counters, the SGX event counters and the EPC
    /// occupancy together.
    pub fn trace_snapshot(&self) -> trace::CounterSnapshot {
        let m = self.mem.counters();
        let c = self.counters.get();
        trace::CounterSnapshot {
            resident_pages: self.epc.resident_count() as u64,
            epc_faults: c.epc_faults,
            epc_allocs: c.epc_allocs,
            epc_evictions: c.epc_evictions,
            epc_loadbacks: c.epc_loadbacks,
            ecalls: c.ecalls,
            ocalls: c.ocalls + c.switchless_ocalls,
            aex_exits: c.aex_exits,
            dtlb_misses: m.dtlb_misses,
            llc_misses: m.llc_misses,
            page_faults: m.page_faults,
            compute_cycles: m.compute_cycles,
            stall_cycles: m.stall_cycles,
            walk_cycles: m.walk_cycles,
            mee_cycles: m.mee_cycles,
            transition_cycles: c.transition_cycles,
            fault_cycles: c.fault_cycles,
        }
    }

    /// Emits a periodic counter sample when one is due on `tid`'s clock.
    /// One `Option` check when tracing is disabled.
    #[inline]
    fn trace_tick(&mut self, tid: ThreadId) {
        if self.mem.trace_sample_due(tid) {
            let snap = self.trace_snapshot();
            self.mem.trace_emit(tid, trace::TraceEvent::Sample { snap });
        }
    }

    /// Opens a workload-declared phase span, recording the boundary
    /// counter snapshot. No-op when tracing is disabled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "thread ids are dense and few; the trace schema stores them as u32"
    )]
    pub fn trace_phase_begin(&mut self, tid: ThreadId, name: &str) {
        if self.mem.tracing() {
            let snap = self.trace_snapshot();
            let now = self.mem.cycles_of(tid);
            if let Some(sink) = self.mem.trace_sink_mut() {
                sink.begin_phase(name, now, tid.0 as u32, snap);
            }
        }
    }

    /// Closes the innermost phase span, which must be named `name`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's typed [`trace::TraceError`] on span misuse;
    /// always `Ok` when tracing is disabled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "thread ids are dense and few; the trace schema stores them as u32"
    )]
    pub fn trace_phase_end(&mut self, tid: ThreadId, name: &str) -> Result<(), trace::TraceError> {
        if self.mem.tracing() {
            let snap = self.trace_snapshot();
            let now = self.mem.cycles_of(tid);
            if let Some(sink) = self.mem.trace_sink_mut() {
                sink.end_phase(name, now, tid.0 as u32, snap)?;
            }
        }
        Ok(())
    }

    /// Small deterministic jitter so driver latency samples have a
    /// realistic spread (xorshift over ±6 % of `base`).
    fn jittered(&mut self, base: u64) -> u64 {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let span = base / 16; // +-6.25 %
        if span == 0 {
            return base;
        }
        base - span + (x % (2 * span))
    }

    /// Allocates `bytes` of untrusted memory and returns its base
    /// address. The memory is demand-paged like ordinary anonymous mmap.
    pub fn alloc_untrusted(&mut self, bytes: u64) -> u64 {
        let base = self.untrusted_next;
        self.untrusted_next += bytes.next_multiple_of(PAGE_SIZE) + PAGE_SIZE; // guard gap
        base
    }

    /// Creates, measures (EADD/EEXTEND over the *whole* enclave size, as
    /// the paper observes in §3.2.1 and Appendix D) and initializes an
    /// enclave, charging the build to thread 0's clock if it exists.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ContentTooLarge`] when `content_bytes`
    /// exceeds `size_bytes`.
    pub fn create_enclave(
        &mut self,
        size_bytes: u64,
        content_bytes: u64,
    ) -> Result<EnclaveId, SgxError> {
        if content_bytes > size_bytes {
            return Err(SgxError::ContentTooLarge);
        }
        let id = EnclaveId(self.enclaves.len());
        let size = size_bytes.next_multiple_of(PAGE_SIZE);
        let base = self.enclave_next;
        self.enclave_next += size + (1 << 30); // 1 GiB guard between ELRANGEs
        let mut enclave =
            Enclave::create(id, base, size, content_bytes.next_multiple_of(PAGE_SIZE));
        let mut init = InitStats::default();

        // Measurement pass: stream every page of the ELRANGE through the
        // EPC. This is what blows up Graphene's 4 GB enclaves. Under
        // SGX2/EDMM only the measured content streams; the heap is
        // EAUGed on demand.
        let first = enclave.first_page();
        let total = if self.cfg.sgx2_edmm {
            enclave.content_bytes() >> PAGE_SHIFT
        } else {
            enclave.total_pages()
        };
        for i in 0..total {
            let key = PageKey {
                enclave: id,
                page: first + i,
            };
            let ev = self.epc.ensure_resident(key);
            debug_assert!(ev.kind != EpcFaultKind::LoadBack, "build pages are fresh");
            init.pages_measured += 1;
            init.evictions += ev.evicted.len() as u64;
            self.counters.record_build_page(ev.evicted.len() as u64);
            let mut cycles = costs::EADD_CYCLES + costs::ALLOC_PAGE_CYCLES;
            for _ in &ev.evicted {
                let c = self.jittered(costs::EWB_CYCLES);
                self.driver.record(DriverOp::Ewb, c);
                cycles += c;
            }
            let ac = self.jittered(costs::ALLOC_PAGE_CYCLES);
            self.driver.record(DriverOp::AllocPage, ac);
            enclave.extend_measurement(i);
            init.cycles += cycles;
            self.epcm.record(id, first + i, PagePerms::RW);
        }
        // After verification the streamed pages are released; real
        // allocations happen on demand ("EPC pages are allocated after
        // the verification is done", Appendix D). Content pages keep
        // their EWB'd encrypted copies, so touching them later is an
        // ELDU load-back — which is why the paper sees only ≈700 pages
        // of the ≈1M evicted at Graphene start-up come back (Fig 6a).
        self.epc.remove_enclave(id);
        let content_pages = enclave.content_bytes() >> PAGE_SHIFT;
        for i in 0..content_pages {
            self.epc.mark_evicted(PageKey {
                enclave: id,
                page: first + i,
            });
        }
        if self.mem.thread_count() > 0 {
            self.mem.charge(ThreadId(0), init.cycles);
        }
        enclave.initialize();
        self.enclaves.push(enclave);
        self.active_tcs.push(0);
        self.init_stats.push(init);
        // The measurement pass churned the EPC behind access_stream's
        // back; the memoized page may have been evicted.
        self.last_touched = None;
        self.audit();
        Ok(id)
    }

    /// Tears down an enclave, EREMOVing its pages.
    ///
    /// Threads still executing inside `id` are forced out (the
    /// asynchronous analogue of EREMOVE'ing a live TCS): their in-enclave
    /// state clears and their TLBs flush, since stale ELRANGE mappings
    /// must not survive the enclave. The enclave's TCS accounting resets
    /// with them, so a mid-rotation co-tenant teardown cannot leak slots
    /// or leave a neighbour's thread pinned to a destroyed enclave.
    pub fn destroy_enclave(&mut self, id: EnclaveId) {
        for tid in 0..self.in_enclave.len() {
            if self.in_enclave[tid] == Some(id) {
                self.in_enclave[tid] = None;
                self.mem.flush_tlb(ThreadId(tid));
            }
        }
        self.active_tcs[id.0] = 0;
        self.epc.remove_enclave(id);
        self.epcm.remove_enclave(id);
        self.enclaves[id.0].destroy();
        self.last_touched = None;
        self.audit();
    }

    /// Immutable view of an enclave.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn enclave(&self, id: EnclaveId) -> &Enclave {
        &self.enclaves[id.0]
    }

    /// Build statistics for `id` (Appendix D analyses).
    pub fn init_stats(&self, id: EnclaveId) -> InitStats {
        self.init_stats[id.0]
    }

    /// Allocates enclave heap memory.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::OutOfEnclaveMemory`] when the ELRANGE is
    /// exhausted (the SGX v1 condition that forces generous enclave
    /// sizes).
    pub fn alloc_enclave_heap(&mut self, id: EnclaveId, bytes: u64) -> Result<u64, SgxError> {
        self.enclaves[id.0]
            .alloc_heap(bytes)
            .ok_or(SgxError::OutOfEnclaveMemory)
    }

    /// Performs an ECALL: EENTER plus the mandatory TLB flush.
    ///
    /// # Errors
    ///
    /// Fails when the enclave is not initialized, the thread is already
    /// inside an enclave, or no TCS slot is free.
    pub fn ecall_enter(&mut self, tid: ThreadId, id: EnclaveId) -> Result<(), SgxError> {
        if self.enclaves[id.0].state() != EnclaveState::Initialized {
            return Err(SgxError::NotInitialized);
        }
        if self.in_enclave[tid.0].is_some() {
            return Err(SgxError::AlreadyInEnclave);
        }
        if self.active_tcs[id.0] >= self.cfg.tcs_per_enclave {
            return Err(SgxError::OutOfTcs);
        }
        self.active_tcs[id.0] += 1;
        self.in_enclave[tid.0] = Some(id);
        self.counters.record_eenter();
        self.mem.charge(tid, costs::EENTER_CYCLES);
        #[cfg(feature = "audit")]
        let flushes = self.mem.counters().tlb_flushes;
        self.mem.flush_tlb(tid);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes,
            flushes + 1,
            "EENTER flushes the TLB exactly once (§2.3)"
        );
        self.mem.trace_emit(tid, trace::TraceEvent::EcallEnter);
        self.trace_tick(tid);
        Ok(())
    }

    /// Performs the EEXIT ending an ECALL.
    ///
    /// # Errors
    ///
    /// Fails when the thread is not inside `id`.
    pub fn ecall_exit(&mut self, tid: ThreadId, id: EnclaveId) -> Result<(), SgxError> {
        if self.in_enclave[tid.0] != Some(id) {
            return Err(SgxError::NotInEnclave);
        }
        self.in_enclave[tid.0] = None;
        self.active_tcs[id.0] -= 1;
        self.counters.record_eexit();
        self.mem.charge(tid, costs::EEXIT_CYCLES);
        #[cfg(feature = "audit")]
        let flushes = self.mem.counters().tlb_flushes;
        self.mem.flush_tlb(tid);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes,
            flushes + 1,
            "EEXIT flushes the TLB exactly once (§2.3)"
        );
        self.mem.trace_emit(tid, trace::TraceEvent::EcallExit);
        self.trace_tick(tid);
        Ok(())
    }

    /// Performs an OCALL whose untrusted work takes `work_cycles`.
    ///
    /// With switchless mode enabled the call is delegated to a proxy
    /// thread (no transition, no TLB flush); otherwise the thread pays
    /// EEXIT + work + EENTER with two TLB flushes (§2.3, §5.6).
    ///
    /// # Errors
    ///
    /// Fails when the thread is not inside an enclave.
    pub fn ocall(&mut self, tid: ThreadId, work_cycles: u64) -> Result<(), SgxError> {
        if self.in_enclave[tid.0].is_none() {
            return Err(SgxError::NotInEnclave);
        }
        #[cfg(feature = "audit")]
        let flushes = self.mem.counters().tlb_flushes;
        if let Some(pool) = self.switchless.as_mut() {
            let now = self.mem.cycles_of(tid);
            let done = pool.submit(now, work_cycles);
            self.counters
                .record_switchless_ocall(done.saturating_sub(now).saturating_sub(work_cycles));
            self.mem.sync_to(tid, done);
            #[cfg(feature = "audit")]
            assert_eq!(
                self.mem.counters().tlb_flushes,
                flushes,
                "switchless OCALLs are exit-less: no TLB flush (§5.6)"
            );
            self.mem
                .trace_emit(tid, trace::TraceEvent::Ocall { switchless: true });
            self.trace_tick(tid);
            return Ok(());
        }
        self.counters.record_ocall();
        self.mem.charge(tid, costs::EEXIT_CYCLES);
        self.mem.flush_tlb(tid);
        self.mem.charge(tid, work_cycles);
        self.mem.charge(tid, costs::EENTER_CYCLES);
        self.mem.flush_tlb(tid);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes,
            flushes + 2,
            "a classic OCALL flushes on both EEXIT and EENTER (§2.3)"
        );
        self.mem
            .trace_emit(tid, trace::TraceEvent::Ocall { switchless: false });
        self.trace_tick(tid);
        Ok(())
    }

    /// Whether `tid` currently executes inside an enclave.
    pub fn current_enclave(&self, tid: ThreadId) -> Option<EnclaveId> {
        self.in_enclave[tid.0]
    }

    /// Issues a memory access, routing it through the EPC when the thread
    /// executes inside an enclave and targets its ELRANGE: the one-run
    /// case of [`SgxMachine::access_stream`]. A zero-length access is a
    /// no-op: no cycles, no counters and no trace poll.
    ///
    /// # Panics
    ///
    /// Panics if a thread *outside* any enclave touches an ELRANGE — the
    /// hardware would return abort-page semantics; in the simulator this
    /// is always a harness bug worth failing loudly on (debug builds).
    pub fn access(
        &mut self,
        tid: ThreadId,
        vaddr: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        if len == 0 {
            return AccessOutcome::default();
        }
        self.access_stream(tid, &[StreamRun { vaddr, len, kind }])
    }

    /// Issues `runs` in order and returns the aggregate outcome (cycles
    /// summed, flags OR-ed across the batch). Every SGX memory access,
    /// single or batched, goes through here.
    ///
    /// Consecutive runs sharing a routing class (plain vs. ELRANGE) are
    /// forwarded to [`mem_sim::Machine::access_stream`] as one batch.
    /// EPC residency is established page by page and in order, servicing
    /// faults (AEX + driver + ERESUME) as needed, and any batched memory
    /// work queued before an EPC fault is drained *before* the fault is
    /// serviced (the fault's AEX flushes the TLB), so counter totals and
    /// cycle charges are identical to issuing the runs one at a time.
    /// Only the trace sampling poll — which is simulated-time-triggered
    /// either way — runs once per batch rather than once per run.
    ///
    /// # Panics
    ///
    /// As for [`SgxMachine::access`], if a thread outside any enclave
    /// touches an ELRANGE (debug builds).
    // Inlined so the one-run `access` gets its own copy of the loop,
    // which measured faster per call than an out-of-line batch loop.
    #[inline]
    pub fn access_stream(&mut self, tid: ThreadId, runs: &[StreamRun]) -> AccessOutcome {
        fn merge(agg: &mut AccessOutcome, out: AccessOutcome) {
            agg.cycles += out.cycles;
            agg.dtlb_miss |= out.dtlb_miss;
            agg.llc_miss |= out.llc_miss;
            agg.minor_fault |= out.minor_fault;
        }
        fn attrs(epc: bool) -> &'static AccessAttrs {
            if epc {
                &AccessAttrs::EPC
            } else {
                &AccessAttrs::PLAIN
            }
        }
        let mut agg = AccessOutcome::default();
        let mut extra = 0u64;
        // `runs[start..i]` are the runs not yet issued to mem-sim, all of
        // routing class `epc`, so the path never copies or allocates.
        // Zero-length runs inside the range are harmless:
        // `mem_sim::Machine::access_stream` skips them too.
        let mut start = 0;
        let mut epc = false;
        let current = self.in_enclave[tid.0];
        // A resident hit mutates only reference bits and the streaming
        // memo; the full structural sweep is only due after a fault, and
        // charging it per access would make audit builds O(EPC) per touch.
        #[cfg(feature = "audit")]
        let mut faulted = false;
        for (i, run) in runs.iter().enumerate() {
            if run.len == 0 {
                continue;
            }
            let enclave = current.filter(|eid| self.enclaves[eid.0].contains(run.vaddr));
            if enclave.is_some() != epc {
                if start < i {
                    merge(
                        &mut agg,
                        self.mem.access_stream(tid, &runs[start..i], attrs(epc)),
                    );
                }
                start = i;
                epc = enclave.is_some();
            }
            match enclave {
                None => {
                    debug_assert!(
                        !self
                            .enclaves
                            .iter()
                            .any(|e| e.state() == EnclaveState::Initialized
                                && e.contains(run.vaddr)
                                && current.is_none_or(|c| c != e.id())),
                        "untrusted access to ELRANGE at {:#x}",
                        run.vaddr
                    );
                }
                Some(eid) => {
                    // Establish residency before the run is issued. A
                    // fault flushes the TLB, so the runs pending *before*
                    // the faulting page must be issued first to keep the
                    // sequential TLB-state ordering. Resident touches only
                    // mutate EPC replacement state, which batched memory
                    // accesses never observe, so reordering those across
                    // the pending runs is invisible.
                    let first_page = run.vaddr >> PAGE_SHIFT;
                    // Checked: a run reaching the top of the address space
                    // clamps to its last byte instead of wrapping to page 0.
                    let last_byte = run.vaddr.saturating_add(run.len - 1);
                    let last_page = last_byte >> PAGE_SHIFT;
                    for page in first_page..=last_page {
                        // Streaming fast path: repeated touches of the
                        // memoized page skip the residency map entirely.
                        if self.last_touched == Some((eid, page)) {
                            continue;
                        }
                        // Resident path: exactly one residency-map probe,
                        // which also refreshes the clock reference bit.
                        let key = PageKey { enclave: eid, page };
                        if self.epc.touch(key) {
                            self.last_touched = Some((eid, page));
                            continue;
                        }
                        if start < i {
                            merge(
                                &mut agg,
                                self.mem
                                    .access_stream(tid, &runs[start..i], &AccessAttrs::EPC),
                            );
                            start = i;
                        }
                        #[cfg(feature = "audit")]
                        {
                            faulted = true;
                        }
                        extra += self.epc_page_fault(tid, eid, page);
                    }
                }
            }
        }
        merge(
            &mut agg,
            self.mem.access_stream(tid, &runs[start..], attrs(epc)),
        );
        agg.cycles += extra;
        self.trace_tick(tid);
        #[cfg(feature = "audit")]
        if faulted {
            self.audit();
        }
        agg
    }

    /// Charges `reads` loads and `writes` stores on `tid` that hit the
    /// line it touched last: [`mem_sim::Machine::charge_l1_hits`]. The
    /// page is the one [`SgxMachine::access_stream`] confirmed resident
    /// last, so no residency probe is due either.
    #[inline]
    pub fn charge_l1_hits(&mut self, tid: ThreadId, reads: u64, writes: u64) {
        self.mem.charge_l1_hits(tid, reads, writes);
        self.trace_tick(tid);
    }

    /// Services one EPC fault for (`eid`, `page`): AEX exit, driver
    /// alloc/load-back with EWB evictions, ERESUME. Returns the cycles
    /// charged to `tid`.
    ///
    /// Cold and out of line: it runs once per EPC fault, and as the only
    /// callee of the inlined `access_stream` it would otherwise be copied
    /// into every caller's resident-hit loop.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an EWB batch evicts at most evict_batch pages; the trace schema stores u32"
    )]
    #[cold]
    #[inline(never)]
    fn epc_page_fault(&mut self, tid: ThreadId, eid: EnclaveId, page: u64) -> u64 {
        let key = PageKey { enclave: eid, page };
        // EPC fault: AEX out, driver handles it, ERESUME back.
        #[cfg(feature = "audit")]
        let (c0, flushes0) = (*self.counters.get(), self.mem.counters().tlb_flushes);
        self.counters.record_epc_fault();
        let resident_at_fault = self.epc.resident_count() as u64;
        self.mem.flush_tlb(tid);
        let mut fault_cycles = costs::AEX_CYCLES + costs::FAULT_BASE_CYCLES;
        let ev = self.epc.ensure_resident(key);
        self.counters.record_evictions(ev.evicted.len() as u64);
        for _ in &ev.evicted {
            let c = self.jittered(costs::EWB_CYCLES);
            self.driver.record(DriverOp::Ewb, c);
            fault_cycles += c;
        }
        match ev.kind {
            EpcFaultKind::Alloc => {
                let mut c = self.jittered(costs::ALLOC_PAGE_CYCLES);
                if self.cfg.sgx2_edmm {
                    // EAUG by the driver + EACCEPT inside the enclave.
                    c += costs::EACCEPT_CYCLES;
                }
                self.driver.record(DriverOp::AllocPage, c);
                self.counters.record_alloc();
                self.epcm.record(eid, page, PagePerms::RW);
                fault_cycles += c;
            }
            EpcFaultKind::LoadBack => {
                let c = self.jittered(costs::ELDU_CYCLES);
                self.driver.record(DriverOp::Eldu, c);
                self.counters.record_loadback();
                fault_cycles += c;
            }
            #[expect(
                clippy::unreachable,
                reason = "contract: the caller checked the page non-resident"
            )]
            EpcFaultKind::Resident => unreachable!("page checked non-resident above"),
        }
        self.driver.record(
            DriverOp::DoFault,
            costs::FAULT_BASE_CYCLES + fault_cycles / 4,
        );
        fault_cycles += costs::ERESUME_CYCLES;
        self.counters.charge_fault_cycles(fault_cycles);
        self.mem.charge(tid, fault_cycles);
        // The faulted page is now the only one known resident with a
        // fresh reference bit (the eviction sweep may have cleared
        // or evicted anything else, including the old memo).
        self.last_touched = Some((eid, page));
        // Eventwise conservation: one fault exits (AEX) and flushes
        // exactly once, is resolved by exactly one alloc or load-back,
        // and counts one eviction per EWB victim (§2.2/§2.3).
        #[cfg(feature = "audit")]
        {
            let c1 = self.counters.get();
            assert_eq!(c1.epc_faults - c0.epc_faults, 1);
            assert_eq!(c1.aex_exits - c0.aex_exits, 1, "one AEX per fault");
            assert_eq!(
                (c1.epc_allocs + c1.epc_loadbacks) - (c0.epc_allocs + c0.epc_loadbacks),
                1,
                "a fault resolves via exactly one alloc or load-back"
            );
            assert_eq!(
                c1.epc_evictions - c0.epc_evictions,
                ev.evicted.len() as u64,
                "one eviction counted per EWB victim"
            );
            assert_eq!(
                self.mem.counters().tlb_flushes - flushes0,
                1,
                "the AEX flushes the TLB exactly once"
            );
        }
        // Trace only *paging* faults (the `sgx_do_fault`→EWB/ELDU
        // activity the paper instruments); demand-zero allocations
        // below the watermark are not paging and stay out of the
        // stream, which is what makes the EPC boundary cliff visible
        // as "fault events appear only past the watermark".
        if ev.kind == EpcFaultKind::LoadBack || !ev.evicted.is_empty() {
            self.mem.trace_emit(
                tid,
                trace::TraceEvent::EpcFault {
                    loadback: ev.kind == EpcFaultKind::LoadBack,
                    evicted: ev.evicted.len() as u32,
                    resident_pages: resident_at_fault,
                },
            );
        }
        fault_cycles
    }

    /// Charges pure computation to `tid`.
    pub fn compute(&mut self, tid: ThreadId, cycles: u64) {
        self.mem.compute(tid, cycles);
        self.trace_tick(tid);
    }

    /// Injects one asynchronous enclave exit on `tid` (the fault plane's
    /// AEX storm): AEX out with the mandatory TLB flush, ERESUME back,
    /// both charged from the canonical costs. Returns false (and does
    /// nothing) when the thread is not inside an enclave — real AEX only
    /// interrupts enclave execution.
    pub fn inject_aex(&mut self, tid: ThreadId) -> bool {
        if self.in_enclave[tid.0].is_none() {
            return false;
        }
        #[cfg(feature = "audit")]
        let flushes0 = self.mem.counters().tlb_flushes;
        self.counters.record_injected_aex();
        self.mem.flush_tlb(tid);
        let cycles = costs::AEX_CYCLES + costs::ERESUME_CYCLES;
        self.counters.charge_fault_cycles(cycles);
        self.mem.charge(tid, cycles);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes - flushes0,
            1,
            "an injected AEX flushes the TLB exactly once"
        );
        self.mem
            .trace_emit(tid, trace::TraceEvent::Aex { injected: true });
        self.trace_tick(tid);
        self.audit();
        true
    }

    /// Applies an injected EPC pressure spike: reserves `frames` frames
    /// for a simulated co-tenant, writing back (EWB) whatever no longer
    /// fits and charging the write-backs to `tid`. Returns the number of
    /// pages evicted. Undo with [`SgxMachine::release_epc_pressure`].
    pub fn set_epc_pressure(&mut self, tid: ThreadId, frames: usize) -> usize {
        let victims = self.epc.set_reserved(frames);
        if !victims.is_empty() {
            // The shrink sweep may have evicted the memoized page.
            self.last_touched = None;
            let mut cycles = 0;
            for _ in &victims {
                let c = self.jittered(costs::EWB_CYCLES);
                self.driver.record(DriverOp::Ewb, c);
                cycles += c;
            }
            self.counters.record_evictions(victims.len() as u64);
            self.counters.charge_fault_cycles(cycles);
            self.mem.charge(tid, cycles);
        }
        self.audit();
        victims.len()
    }

    /// Ends an injected EPC pressure spike: every reserved frame becomes
    /// usable again. Releasing evicts nothing, so it is free.
    pub fn release_epc_pressure(&mut self) {
        let victims = self.epc.set_reserved(0);
        debug_assert!(victims.is_empty(), "growing the pool cannot evict");
        self.audit();
    }

    /// The underlying machine (clocks, counters, page table).
    pub fn mem(&self) -> &Machine {
        &self.mem
    }

    /// Mutable access to the underlying machine (e.g. `sync_to`).
    pub fn mem_mut(&mut self) -> &mut Machine {
        &mut self.mem
    }

    /// SGX event counters.
    pub fn sgx_counters(&self) -> &SgxCounters {
        self.counters.get()
    }

    /// Driver latency statistics.
    pub fn driver_stats(&self) -> &DriverStats {
        &self.driver
    }

    /// EPC occupancy diagnostics.
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// EPCM diagnostics.
    pub fn epcm(&self) -> &Epcm {
        &self.epcm
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SgxConfig {
        &self.cfg
    }

    /// Verifies the cross-structure SGX invariants, returning a
    /// description of the first violation found:
    ///
    /// * the EPC's own structural invariants
    ///   ([`Epc::check_invariants`]),
    /// * **EPCM coverage** — every resident page has an EPCM entry owned
    ///   by the page's enclave (the §2.3 ownership check could not pass
    ///   otherwise),
    /// * **memo residency** — the streaming fast-path memo only ever
    ///   names a resident page,
    /// * **AEX accounting** — every EPC fault exits the enclave exactly
    ///   once, and the only other exits are injected by the fault plane,
    ///   so `aex_exits == epc_faults + injected_aex` (§2.3),
    /// * **fault resolution** — each fault was resolved by an alloc or a
    ///   load-back, so `epc_allocs + epc_loadbacks >= epc_faults` (build
    ///   passes allocate without faulting, hence `>=` rather than `==`;
    ///   the per-fault `==` is asserted eventwise in audit builds).
    ///
    /// Always compiled; the `audit` cargo feature additionally calls it
    /// after every enclave build, teardown, and secure access, and
    /// panics on violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.epc.check_invariants()?;
        for key in self.epc.resident_keys() {
            match self.epcm.entry(key.page) {
                None => return Err(format!("resident page {key:?} has no EPCM entry")),
                Some(e) if e.owner != key.enclave => {
                    return Err(format!(
                        "resident page {key:?} recorded as owned by {:?}",
                        e.owner
                    ))
                }
                Some(_) => {}
            }
        }
        if let Some((eid, page)) = self.last_touched {
            let key = PageKey { enclave: eid, page };
            if !self.epc.is_resident(key) {
                return Err(format!("fast-path memo names non-resident page {key:?}"));
            }
        }
        let c = self.counters.get();
        if c.aex_exits != c.epc_faults + c.injected_aex {
            return Err(format!(
                "{} AEX exits for {} EPC faults + {} injected",
                c.aex_exits, c.epc_faults, c.injected_aex
            ));
        }
        if c.epc_allocs + c.epc_loadbacks < c.epc_faults {
            return Err(format!(
                "{} faults but only {} allocs + {} load-backs",
                c.epc_faults, c.epc_allocs, c.epc_loadbacks
            ));
        }
        Ok(())
    }

    /// Panics on the first violated invariant (audit builds only).
    #[cfg(feature = "audit")]
    #[expect(
        clippy::panic,
        reason = "audit builds stop at the first broken invariant"
    )]
    fn audit(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("SGX machine audit: {e}");
        }
    }

    /// No-op twin of the audit hook in non-audit builds.
    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    fn audit(&self) {}

    /// Resets measurement state (memory counters, SGX counters, driver
    /// samples, thread clocks) while keeping all architectural state —
    /// the analogue of re-arming `perf` after start-up.
    pub fn reset_measurement(&mut self) {
        self.mem.reset_measurement();
        self.counters.reset();
        self.driver.reset();
        if let Some(p) = self.switchless.as_mut() {
            p.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Host;

    fn small_machine(epc_pages: usize) -> (SgxMachine, ThreadId) {
        let mut cfg = SgxConfig::with_tiny_epc(epc_pages, 2);
        cfg.mem = MachineConfig::default();
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        (m, t)
    }

    #[test]
    fn ecall_flushes_tlb_and_counts() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        assert_eq!(m.sgx_counters().ecalls, 1);
        assert_eq!(m.current_enclave(t), Some(e));
        m.ecall_exit(t, e).unwrap();
        assert!(m.mem().counters().tlb_flushes >= 2);
        assert_eq!(m.current_enclave(t), None);
    }

    #[test]
    fn double_enter_rejected() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        assert_eq!(m.ecall_enter(t, e), Err(SgxError::AlreadyInEnclave));
    }

    #[test]
    fn tcs_limit_enforced() {
        let mut cfg = SgxConfig::with_tiny_epc(64, 2);
        cfg.tcs_per_enclave = 2;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t0 = m.add_thread();
        let t1 = m.add_thread();
        let t2 = m.add_thread();
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t0, e).unwrap();
        m.ecall_enter(t1, e).unwrap();
        assert_eq!(m.ecall_enter(t2, e), Err(SgxError::OutOfTcs));
        m.ecall_exit(t0, e).unwrap();
        m.ecall_enter(t2, e).unwrap();
    }

    #[test]
    fn enclave_access_allocates_epc() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 2 * PAGE_SIZE).unwrap();
        m.access(t, heap, 2 * PAGE_SIZE, AccessKind::Write);
        assert_eq!(m.sgx_counters().epc_allocs as usize, 32 + 2); // build + demand
        assert_eq!(m.sgx_counters().epc_faults, 2);
        assert_eq!(m.sgx_counters().aex_exits, 2);
    }

    #[test]
    fn stream_matches_sequential_accesses_under_epc_pressure() {
        // A small EPC forces faults and EWB evictions mid-stream; the
        // batched path must still charge identical cycles and counters.
        let build = |_| {
            let (mut m, t) = small_machine(24);
            let e = m.create_enclave(32 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
            m.ecall_enter(t, e).unwrap();
            let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
            (m, t, heap)
        };
        let (mut a, ta, heap_a) = build(());
        let (mut b, tb, heap_b) = build(());
        assert_eq!(heap_a, heap_b);
        // Mix of enclave-heap runs (two sweeps so pages fault, evict and
        // load back) and untrusted runs (class switches mid-batch).
        let mut runs = Vec::new();
        for sweep in 0..2 {
            for p in 0..16u64 {
                runs.push(StreamRun::new(heap_a + p * PAGE_SIZE, 96, AccessKind::Read));
                if p % 5 == sweep {
                    runs.push(StreamRun::new(0x2000 + p * 64, 64, AccessKind::Write));
                }
            }
        }
        let batched = a.access_stream(ta, &runs);
        let mut seq_cycles = 0u64;
        for r in &runs {
            seq_cycles += b.access(tb, r.vaddr, r.len, r.kind).cycles;
        }
        assert!(
            a.sgx_counters().epc_evictions > 0,
            "the scenario must exercise eviction"
        );
        assert_eq!(batched.cycles, seq_cycles);
        assert_eq!(a.sgx_counters(), b.sgx_counters());
        assert_eq!(a.mem().counters(), b.mem().counters());
    }

    #[test]
    fn resident_access_probes_residency_map_once_per_page() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 2 * PAGE_SIZE).unwrap();
        // Warm both pages (faults; several probes each is fine).
        m.access(t, heap, 8, AccessKind::Write);
        m.access(t, heap + PAGE_SIZE, 8, AccessKind::Write);
        // Streaming within the memoized page: zero map probes.
        let p0 = m.epc().probe_count();
        for i in 0..16 {
            m.access(t, heap + PAGE_SIZE + i * 8, 8, AccessKind::Read);
        }
        assert_eq!(
            m.epc().probe_count(),
            p0,
            "same-page stream must skip the map"
        );
        // Alternating between warm pages defeats the memo: exactly one
        // probe per page touched, not two.
        let p1 = m.epc().probe_count();
        for i in 0..8u64 {
            m.access(t, heap + (i % 2) * PAGE_SIZE, 8, AccessKind::Read);
        }
        assert_eq!(
            m.epc().probe_count(),
            p1 + 8,
            "resident path is single-probe"
        );
        assert_eq!(m.sgx_counters().epc_faults, 2, "no spurious faults");
    }

    #[test]
    fn working_set_beyond_epc_thrashes() {
        let (mut m, t) = small_machine(8); // 8-frame EPC
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 32 * PAGE_SIZE).unwrap();
        // Two sequential sweeps over 4x the EPC.
        for _ in 0..2 {
            for p in 0..32u64 {
                m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
            }
        }
        let c = m.sgx_counters();
        assert!(c.epc_evictions > 32, "sweeps must evict: {c:?}");
        assert!(c.epc_loadbacks > 0, "second sweep must load back: {c:?}");
        assert!(m.epc().resident_count() <= 8);
    }

    #[test]
    fn fits_in_epc_no_faults_after_warmup() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
        for p in 0..16u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        let faults = m.sgx_counters().epc_faults;
        for p in 0..16u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        assert_eq!(m.sgx_counters().epc_faults, faults);
        assert_eq!(m.sgx_counters().epc_evictions, 0);
    }

    #[test]
    fn build_of_large_enclave_streams_through_epc() {
        let (mut m, _) = small_machine(16);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        let init = m.init_stats(e);
        assert_eq!(init.pages_measured, 64);
        // 64 pages through a 16-frame EPC must evict roughly 48.
        assert!(init.evictions >= 40, "init evictions {init:?}");
        // After build the EPC is released.
        assert_eq!(m.epc().resident_count(), 0);
    }

    #[test]
    fn ocall_costs_and_flushes() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let flushes = m.mem().counters().tlb_flushes;
        m.ocall(t, 1_000).unwrap();
        assert_eq!(m.sgx_counters().ocalls, 1);
        assert_eq!(m.mem().counters().tlb_flushes, flushes + 2);
    }

    #[test]
    fn switchless_ocall_avoids_flush() {
        let mut cfg = SgxConfig::with_tiny_epc(64, 2);
        cfg.switchless_workers = 4;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let flushes = m.mem().counters().tlb_flushes;
        m.ocall(t, 1_000).unwrap();
        assert_eq!(m.sgx_counters().switchless_ocalls, 1);
        assert_eq!(m.sgx_counters().ocalls, 0);
        assert_eq!(m.mem().counters().tlb_flushes, flushes);
    }

    #[test]
    fn ocall_outside_enclave_rejected() {
        let (mut m, t) = small_machine(64);
        assert_eq!(m.ocall(t, 10), Err(SgxError::NotInEnclave));
    }

    #[test]
    fn untrusted_access_from_enclave_is_plain() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        let buf = m.alloc_untrusted(PAGE_SIZE);
        m.ecall_enter(t, e).unwrap();
        let faults = m.sgx_counters().epc_faults;
        m.access(t, buf, 64, AccessKind::Read);
        assert_eq!(
            m.sgx_counters().epc_faults,
            faults,
            "untrusted access must not touch EPC"
        );
    }

    #[test]
    fn driver_records_paging_ops() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 32 * PAGE_SIZE).unwrap();
        for _ in 0..3 {
            for p in 0..32u64 {
                m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
            }
        }
        let d = m.driver_stats();
        assert!(d.stats(DriverOp::Ewb).count > 0);
        assert!(d.stats(DriverOp::Eldu).count > 0);
        assert!(d.stats(DriverOp::AllocPage).count > 0);
        assert!(d.stats(DriverOp::DoFault).count > 0);
        // EWB mean must exceed ELDU mean (paper: +16 %).
        assert!(d.stats(DriverOp::Ewb).mean_cycles() > d.stats(DriverOp::Eldu).mean_cycles());
    }

    #[test]
    fn ecall_into_destroyed_enclave_fails() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.destroy_enclave(e);
        assert_eq!(m.ecall_enter(t, e), Err(SgxError::NotInitialized));
    }

    #[test]
    fn content_too_large_rejected() {
        let (mut m, _) = small_machine(64);
        assert_eq!(
            m.create_enclave(PAGE_SIZE, 2 * PAGE_SIZE).err(),
            Some(SgxError::ContentTooLarge)
        );
    }

    #[test]
    fn reset_measurement_keeps_epc_state() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 4 * PAGE_SIZE).unwrap();
        m.access(t, heap, 4 * PAGE_SIZE, AccessKind::Write);
        m.reset_measurement();
        assert_eq!(m.sgx_counters().epc_faults, 0);
        let before = m.sgx_counters().epc_faults;
        m.access(t, heap, 8, AccessKind::Read);
        assert_eq!(
            m.sgx_counters().epc_faults,
            before,
            "page stayed resident across reset"
        );
    }

    #[test]
    fn sgx2_edmm_skips_heap_measurement() {
        let mut cfg = SgxConfig::with_tiny_epc(16, 2);
        cfg.sgx2_edmm = true;
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        // 64-page enclave, 4 pages of content: only the content streams.
        let e = m.create_enclave(64 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        let init = m.init_stats(e);
        assert_eq!(init.pages_measured, 4);
        assert_eq!(init.evictions, 0, "content fits the EPC");
        // Heap pages still fault in on demand (EAUG + EACCEPT).
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 4 * PAGE_SIZE).unwrap();
        m.access(t, heap, 8, AccessKind::Write);
        assert_eq!(m.sgx_counters().epc_allocs, 4 + 1);
    }

    #[test]
    fn sgx1_vs_sgx2_startup_evictions() {
        let build = |edmm: bool| {
            let mut cfg = SgxConfig::with_tiny_epc(64, 4);
            cfg.sgx2_edmm = edmm;
            let mut m = Host::builder().sgx(cfg).build_machine();
            m.add_thread();
            let e = m.create_enclave(1024 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
            m.init_stats(e).evictions
        };
        let sgx1 = build(false);
        let sgx2 = build(true);
        assert!(sgx1 > 900, "SGX1 streams the whole ELRANGE: {sgx1}");
        assert_eq!(sgx2, 0, "SGX2 measures only content");
    }

    #[test]
    fn injected_aex_counts_flushes_and_charges() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(4 * PAGE_SIZE, 0).unwrap();
        assert!(!m.inject_aex(t), "no AEX outside an enclave");
        m.ecall_enter(t, e).unwrap();
        let flushes0 = m.mem().counters().tlb_flushes;
        let cycles0 = m.mem().cycles_of(t);
        assert!(m.inject_aex(t));
        assert!(m.inject_aex(t));
        let c = m.sgx_counters();
        assert_eq!(c.injected_aex, 2);
        assert_eq!(c.aex_exits, 2);
        assert_eq!(c.epc_faults, 0, "injection is not a page fault");
        assert_eq!(m.mem().counters().tlb_flushes - flushes0, 2);
        assert!(m.mem().cycles_of(t) > cycles0, "AEX + ERESUME are charged");
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn epc_pressure_spike_evicts_and_releases() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 8 * PAGE_SIZE).unwrap();
        for p in 0..8u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        let resident0 = m.epc().resident_count();
        let evictions0 = m.sgx_counters().epc_evictions;
        let evicted = m.set_epc_pressure(t, 6);
        assert!(evicted > 0, "shrinking a warm EPC must write back");
        assert_eq!(
            m.sgx_counters().epc_evictions - evictions0,
            evicted as u64,
            "one eviction counted per EWB victim"
        );
        assert!(m.epc().resident_count() <= m.epc().effective_capacity());
        assert!(m.check_invariants().is_ok());
        m.release_epc_pressure();
        assert_eq!(m.epc().effective_capacity(), m.epc().capacity());
        // Touching the victims again loads them back within full capacity.
        for p in 0..8u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        assert!(m.epc().resident_count() >= resident0.min(8));
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn trace_sink_records_paging_faults_past_the_watermark() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
        m.mem_mut()
            .set_trace_sink(trace::TraceSink::with_config(1024, 0));
        for p in 0..16u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        let sink = m.mem_mut().take_trace_sink().expect("sink was armed");
        assert_eq!(sink.dropped(), 0);
        let faults: Vec<_> = sink
            .records()
            .filter_map(|r| match r.event {
                trace::TraceEvent::EpcFault { resident_pages, .. } => {
                    Some((r.cycles, resident_pages))
                }
                _ => None,
            })
            .collect();
        // The first 8 allocations are demand-zero and below the
        // watermark: no paging, no events. Every traced fault happens at
        // full residency (the 8-frame watermark).
        assert!(!faults.is_empty());
        assert!(faults.len() < 16, "below-watermark allocs are not traced");
        assert!(faults.iter().all(|&(_, resident)| resident == 8));
        assert!(faults.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(m.sgx_counters().epc_faults, 16);
    }

    #[test]
    fn zero_length_access_is_a_no_op_inside_and_outside_the_elrange() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
        let plain = m.alloc_untrusted(PAGE_SIZE);
        // The build already advanced the clock far past the first sample
        // point, so any trace poll would record a sample.
        m.mem_mut()
            .set_trace_sink(trace::TraceSink::with_config(64, 1));
        assert!(m.mem().trace_sample_due(t));
        let (cycles, mem, sgx) = (m.mem().cycles_of(t), *m.mem().counters(), *m.sgx_counters());
        for vaddr in [heap, heap + 15 * PAGE_SIZE, plain] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert_eq!(m.access(t, vaddr, 0, kind), AccessOutcome::default());
            }
        }
        assert_eq!(m.mem().cycles_of(t), cycles);
        assert_eq!(*m.mem().counters(), mem);
        assert_eq!(*m.sgx_counters(), sgx);
        let sink = m.mem_mut().take_trace_sink().expect("sink was armed");
        assert!(sink.is_empty(), "a zero-length access records nothing");
    }

    #[test]
    fn counter_field_round_trips_and_matches_fields() {
        let mut c = SgxCounters::default();
        for (i, f) in CounterField::ALL.into_iter().enumerate() {
            assert_eq!(CounterField::parse(f.name()), Some(f));
            c.set(f, i as u64 + 1);
            assert_eq!(c.get(f), i as u64 + 1);
        }
        assert_eq!(CounterField::parse("nope"), None);
        let listed: Vec<_> = c.fields().collect();
        assert_eq!(listed.len(), CounterField::ALL.len());
        assert_eq!(listed[0], ("ecalls", 1));
        assert_eq!(listed[11], ("fault_cycles", 12));
    }

    #[test]
    fn disabled_sink_changes_no_cycles() {
        let run = |traced: bool| {
            let (mut m, t) = small_machine(8);
            let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
            m.ecall_enter(t, e).unwrap();
            let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
            if traced {
                m.mem_mut().set_trace_sink(trace::TraceSink::new(256));
            }
            for p in 0..32u64 {
                m.access(t, heap + (p % 16) * PAGE_SIZE, 8, AccessKind::Write);
            }
            m.mem().cycles_of(t)
        };
        assert_eq!(run(false), run(true), "tracing never charges cycles");
    }
}

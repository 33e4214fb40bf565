//! The machine model: per-thread translation and L1 state, shared LLC and
//! page table, cycle clocks, and the single hot access path.

use crate::cache::{L1Cache, Llc};
use crate::counters::Counters;
use crate::latency::{LatencyError, LatencyModel};
use crate::paging::{PageStatus, PageTable, WalkCache};
use crate::recency::MAX_WAYS;
use crate::tlb::{Tlb, TlbOutcome};
use crate::{LINE_SHIFT, PAGE_SHIFT};
use ledger::Ledger;
use std::error::Error;
use std::fmt;

mod ledger;

/// Identifier of a simulated hardware thread, handed out by
/// [`Machine::add_thread`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Cross-layer attributes of an access, set by the SGX layer.
///
/// `mem-sim` knows nothing about enclaves; the SGX model communicates the
/// cost consequences of an access targeting the Processor Reserved Memory
/// through this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessAttrs {
    /// Charge an EPCM-verification cost on every TLB fill (paper §2.3).
    pub epcm_check: bool,
    /// The backing DRAM is inside the PRM: LLC misses pay the MEE
    /// multiplier.
    pub encrypted_dram: bool,
}

impl AccessAttrs {
    /// Attributes of an ordinary, non-enclave access.
    pub const PLAIN: AccessAttrs = AccessAttrs {
        epcm_check: false,
        encrypted_dram: false,
    };

    /// Attributes of an access to an EPC-resident enclave page.
    pub const EPC: AccessAttrs = AccessAttrs {
        epcm_check: true,
        encrypted_dram: true,
    };
}

/// One pre-decomposed run of a batched access stream: `len` contiguous
/// bytes at `vaddr`, read or written.
///
/// Workload inner loops that issue many accesses back to back describe
/// them as a slice of runs and hand the whole slice to
/// [`Machine::access_stream`], amortizing per-call dispatch (bounds
/// checks, latency-model loads, counter flushes) over the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRun {
    /// Starting virtual address of the run.
    pub vaddr: u64,
    /// Length in bytes; zero-length runs are skipped.
    pub len: u64,
    /// Whether the run loads or stores.
    pub kind: AccessKind,
}

impl StreamRun {
    /// Convenience constructor.
    #[inline]
    pub fn new(vaddr: u64, len: u64, kind: AccessKind) -> Self {
        StreamRun { vaddr, len, kind }
    }
}

/// What happened during one [`Machine::access`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles charged to the issuing thread.
    pub cycles: u64,
    /// At least one line required a page walk.
    pub dtlb_miss: bool,
    /// At least one line missed the LLC.
    pub llc_miss: bool,
    /// At least one page was touched for the first time (OS minor fault).
    pub minor_fault: bool,
}

/// Sizing of the modeled machine; defaults follow Table 3 of the paper.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// L1 dTLB entries / associativity.
    pub l1_tlb_entries: usize,
    /// L1 dTLB associativity.
    pub l1_tlb_ways: usize,
    /// Second-level TLB entries.
    pub stlb_entries: usize,
    /// Second-level TLB associativity.
    pub stlb_ways: usize,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: usize,
    /// Shared LLC associativity.
    pub llc_ways: usize,
    /// Latency constants.
    pub latency: LatencyModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            l1_tlb_entries: 64,
            l1_tlb_ways: 4,
            stlb_entries: 1536,
            stlb_ways: 12,
            llc_bytes: 12 << 20,
            llc_ways: 16,
            latency: LatencyModel::default(),
        }
    }
}

/// A rejected [`MachineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The latency model is not monotone.
    Latency(LatencyError),
    /// The named structure's ways lie outside `1..=16`, the ranks one
    /// recency word holds.
    Ways(&'static str, usize),
    /// The named TLB's entry count is not a positive multiple of its ways.
    TlbEntries(&'static str, usize),
    /// The LLC of this many bytes holds less than one set.
    LlcTooSmall(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Latency(e) => e.fmt(f),
            ConfigError::Ways(s, w) => write!(f, "{s} ways ({w}) must be in 1..={MAX_WAYS}"),
            ConfigError::TlbEntries(s, n) => {
                write!(
                    f,
                    "{s} entries ({n}) must be a positive multiple of its ways"
                )
            }
            ConfigError::LlcTooSmall(b) => write!(f, "an LLC of {b} bytes holds no full set"),
        }
    }
}

impl Error for ConfigError {}

impl MachineConfig {
    /// Checks the latency model and every TLB and LLC geometry,
    /// returning the first violated rule.
    fn validate(&self) -> Result<(), ConfigError> {
        self.latency.validate().map_err(ConfigError::Latency)?;
        let tlbs = [
            ("L1 dTLB", self.l1_tlb_entries, self.l1_tlb_ways),
            ("STLB", self.stlb_entries, self.stlb_ways),
        ];
        for (name, _, ways) in tlbs.into_iter().chain([("LLC", 0, self.llc_ways)]) {
            if !(1..=MAX_WAYS).contains(&ways) {
                return Err(ConfigError::Ways(name, ways));
            }
        }
        for (name, entries, ways) in tlbs {
            if entries == 0 || !entries.is_multiple_of(ways) {
                return Err(ConfigError::TlbEntries(name, entries));
            }
        }
        if self.llc_bytes >> LINE_SHIFT < self.llc_ways {
            return Err(ConfigError::LlcTooSmall(self.llc_bytes));
        }
        Ok(())
    }
}

/// Extra cycles of a translation that misses the L1 dTLB but hits the
/// second-level TLB (Table 3 class platform; small and fixed, so not part
/// of the tunable [`LatencyModel`]).
const STLB_HIT_CYCLES: u64 = 7;

/// Per-thread microarchitectural state.
#[derive(Debug, Clone)]
struct ThreadCtx {
    tlb: Tlb,
    /// The page of the last translation, which is the MRU entry of its
    /// L1 dTLB set until the next flush: translating it again would hit
    /// and change no replacement order, so the probe is skipped.
    last_page: Option<u64>,
    l1: L1Cache,
    walk_cache: WalkCache,
    cycles: u64,
}

/// The simulated machine.
///
/// Owns all shared structures and the per-thread contexts; see the crate
/// docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    threads: Vec<ThreadCtx>,
    llc: Llc,
    page_table: PageTable,
    counters: Ledger,
    /// The trace plane, when armed. Boxed so the disabled case is one
    /// null-pointer check; the per-line access loop never touches it.
    sink: Option<Box<trace::TraceSink>>,
    /// Conservative lower bound on the sink's next periodic-sample
    /// instant (`u64::MAX` when disarmed or sampling is off). The
    /// sink's schedule only moves forward, so `trace_sample_due` can
    /// answer "not yet" with a single integer compare — no pointer
    /// chase into the boxed sink — which is what keeps sampling off
    /// the batched hot path.
    sample_cache: u64,
}

impl Machine {
    /// Creates a machine with no threads; call [`Machine::add_thread`]
    /// before issuing accesses.
    ///
    /// # Panics
    ///
    /// Panics if [`Machine::try_new`] rejects `cfg`; use it to handle the
    /// error instead.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; try_new is the fallible form"
    )]
    pub fn new(cfg: MachineConfig) -> Self {
        match Machine::try_new(cfg) {
            Ok(m) => m,
            Err(e) => panic!("invalid MachineConfig: {e}"),
        }
    }

    /// Fallible constructor: rejects latency models whose orderings
    /// would underflow the stall/MEE decompositions in the access path,
    /// and TLB or LLC geometries the set model cannot hold.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let llc = Llc::new(cfg.llc_bytes, cfg.llc_ways);
        Ok(Machine {
            cfg,
            threads: Vec::new(),
            llc,
            page_table: PageTable::new(),
            counters: Ledger::default(),
            sink: None,
            sample_cache: u64::MAX,
        })
    }

    /// Adds a hardware thread and returns its id. Thread ids are dense,
    /// starting at zero.
    pub fn add_thread(&mut self) -> ThreadId {
        let ctx = ThreadCtx {
            tlb: Tlb::new(
                self.cfg.l1_tlb_entries,
                self.cfg.l1_tlb_ways,
                self.cfg.stlb_entries,
                self.cfg.stlb_ways,
            ),
            last_page: None,
            l1: L1Cache::new(crate::L1_CACHE_LINES),
            walk_cache: WalkCache::default(),
            cycles: 0,
        };
        self.threads.push(ctx);
        ThreadId(self.threads.len() - 1)
    }

    /// Number of threads created so far.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Issues a memory access of `len` bytes at `vaddr` on thread `tid`.
    ///
    /// The access is decomposed into 64-byte lines; each line is
    /// translated (per page), charged through the cache hierarchy, and
    /// accumulated into the thread clock and the global counters.
    /// Equivalent to [`Machine::access_stream`] with a single run.
    ///
    /// Accesses with `len == 0` are no-ops. Accesses extending past the
    /// top of the address space are clamped to its last byte.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not returned by [`Machine::add_thread`].
    #[inline]
    pub fn access(
        &mut self,
        tid: ThreadId,
        vaddr: u64,
        len: u64,
        kind: AccessKind,
        attrs: &AccessAttrs,
    ) -> AccessOutcome {
        self.access_stream(tid, &[StreamRun { vaddr, len, kind }], attrs)
    }

    /// Issues a batch of accesses on thread `tid` and returns the
    /// aggregate outcome: `cycles` summed over the batch, the boolean
    /// flags OR-ed across it.
    ///
    /// This is the hot path. Processing runs in a batch lets the machine
    /// load the latency model once, keep every counter in a register
    /// across the whole slice, and flush the totals a single time —
    /// per-access bookkeeping that dominated the old call-per-access
    /// profile. Each run is decomposed and charged exactly as
    /// [`Machine::access`] would, in order, so a stream of N runs is
    /// observably identical (outcome totals and counter snapshots) to N
    /// sequential `access` calls.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not returned by [`Machine::add_thread`].
    pub fn access_stream(
        &mut self,
        tid: ThreadId,
        runs: &[StreamRun],
        attrs: &AccessAttrs,
    ) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        let lat = self.cfg.latency;
        #[cfg(feature = "audit")]
        let c0 = *self.counters.get();
        let Machine {
            threads,
            llc,
            page_table,
            counters,
            ..
        } = self;
        let t = &mut threads[tid.0];
        // Batch-local accumulators: counters stay in registers across the
        // whole slice and are flushed to the ledger exactly once.
        let mut stlb_hits = 0u64;
        let mut dtlb_misses = 0u64;
        let mut page_faults = 0u64;
        let mut walk_cycles = 0u64;
        let mut mem_reads = 0u64;
        let mut mem_writes = 0u64;
        let mut llc_accesses = 0u64;
        let mut llc_misses = 0u64;
        let mut mee_cycles = 0u64;
        let mut stall_cycles = 0u64;
        let mut cycles = 0u64;
        let mut last_page = t.last_page;
        for run in runs {
            if run.len == 0 {
                continue;
            }
            let first_line = run.vaddr >> LINE_SHIFT;
            // The last byte is computed with checked arithmetic: a run
            // reaching past the top of the address space clamps to its
            // final byte instead of wrapping (silent in release, panic in
            // debug) to line 0.
            let last_byte = run.vaddr.saturating_add(run.len - 1);
            let last_line = last_byte >> LINE_SHIFT;
            // As 0/1 so read/write counting is branchless: the kind of
            // successive runs is data-dependent, and a conditional here
            // mispredicts on every mixed stream.
            let is_read = matches!(run.kind, AccessKind::Read) as u64;
            for line in first_line..=last_line {
                // Translate once per page change, across runs and calls.
                let page = line >> (PAGE_SHIFT - LINE_SHIFT);
                if last_page != Some(page) {
                    last_page = Some(page);
                    match t.tlb.translate(page) {
                        TlbOutcome::L1Hit => {}
                        TlbOutcome::StlbHit => {
                            stlb_hits += 1;
                            cycles += STLB_HIT_CYCLES;
                        }
                        TlbOutcome::Miss => {
                            dtlb_misses += 1;
                            out.dtlb_miss = true;
                            // Demand paging: is this the first touch?
                            if page_table.touch(page) == PageStatus::MinorFault {
                                page_faults += 1;
                                out.minor_fault = true;
                                cycles += lat.minor_fault;
                                t.walk_cache.flush(); // the fault handler ran
                            }
                            let fast = t.walk_cache.walk(page);
                            let mut walk = if fast { lat.walk_fast } else { lat.walk_slow };
                            if attrs.epcm_check {
                                walk += lat.epcm_check;
                            }
                            walk_cycles += walk;
                            cycles += walk;
                        }
                    }
                }
                // Charge the line through the cache hierarchy.
                mem_reads += is_read;
                mem_writes += 1 - is_read;
                let mem_cycles = if t.l1.access(line) {
                    lat.l1_hit
                } else {
                    llc_accesses += 1;
                    if llc.access(line) {
                        lat.llc_hit
                    } else {
                        llc_misses += 1;
                        out.llc_miss = true;
                        if attrs.encrypted_dram {
                            let enc = lat.dram_encrypted();
                            mee_cycles += enc - lat.dram.min(enc);
                            enc
                        } else {
                            lat.dram
                        }
                    }
                };
                // Safe subtraction: `Machine::try_new` rejected any
                // model with `llc_hit < l1_hit` or `dram < llc_hit`.
                stall_cycles += mem_cycles - lat.l1_hit;
                cycles += mem_cycles;
            }
        }
        t.last_page = last_page;
        t.cycles += cycles;
        out.cycles = cycles;
        counters.record_batch(&Counters {
            stlb_hits,
            dtlb_misses,
            page_faults,
            walk_cycles,
            mem_reads,
            mem_writes,
            llc_accesses,
            llc_misses,
            mee_cycles,
            stall_cycles,
            ..Counters::new()
        });
        // Every cycle this batch charged must be accounted to exactly one
        // counter bucket: STLB-hit penalties, OS fault handling, page
        // walks, hierarchy stalls, or the L1 baseline per line. A drift
        // here means the perf-counter decomposition the reports print no
        // longer sums to the cycles the workloads observe.
        #[cfg(feature = "audit")]
        {
            let d = *counters.get() - c0;
            assert_eq!(
                out.cycles,
                STLB_HIT_CYCLES * d.stlb_hits
                    + lat.minor_fault * d.page_faults
                    + d.walk_cycles
                    + d.stall_cycles
                    + lat.l1_hit * (d.mem_reads + d.mem_writes),
                "access cycles must decompose exactly into counter buckets"
            );
        }
        out
    }

    /// Charges `reads` loads and `writes` stores on thread `tid` that
    /// are known to hit its L1 on the page it translated last: each adds
    /// one access and `l1_hit` cycles, and nothing else changes.
    ///
    /// This is what [`Machine::access_stream`] charges for a run inside
    /// the line the thread touched last. The L1 is a tag array with no
    /// dirty state and the page needs no translation, so such a run
    /// changes no state; a caller that knows a run is one can count it
    /// and charge the count here instead.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not returned by [`Machine::add_thread`].
    #[inline]
    pub fn charge_l1_hits(&mut self, tid: ThreadId, reads: u64, writes: u64) {
        self.threads[tid.0].cycles += self.cfg.latency.l1_hit * (reads + writes);
        self.counters.record_l1_hits(reads, writes);
    }

    /// Charges `cycles` of pure computation to thread `tid`.
    pub fn compute(&mut self, tid: ThreadId, cycles: u64) {
        self.threads[tid.0].cycles += cycles;
        self.counters.charge_compute(cycles);
    }

    /// Charges `cycles` of overhead (transition, fault handling, syscall)
    /// to thread `tid` without classifying them as computation.
    pub fn charge(&mut self, tid: ThreadId, cycles: u64) {
        self.threads[tid.0].cycles += cycles;
    }

    /// Flushes thread `tid`'s TLB (and walk cache), as happens on every
    /// enclave transition.
    pub fn flush_tlb(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.0];
        t.tlb.flush();
        t.last_page = None;
        t.walk_cache.flush();
        self.counters.record_tlb_flush();
    }

    /// Current cycle clock of thread `tid`.
    pub fn cycles_of(&self, tid: ThreadId) -> u64 {
        self.threads[tid.0].cycles
    }

    /// Advances thread `tid`'s clock to at least `cycles` (synchronization
    /// point: a thread waiting on another simply observes the later time).
    pub fn sync_to(&mut self, tid: ThreadId, cycles: u64) {
        let t = &mut self.threads[tid.0];
        if t.cycles < cycles {
            t.cycles = cycles;
        }
    }

    /// Maximum clock across all threads: the elapsed wall-clock of the
    /// parallel execution so far.
    pub fn elapsed_cycles(&self) -> u64 {
        self.threads.iter().map(|t| t.cycles).max().unwrap_or(0)
    }

    /// Read-only view of the counter totals.
    pub fn counters(&self) -> &Counters {
        self.counters.get()
    }

    /// Resets counters and clocks but keeps cache/TLB/page-table state.
    /// Used to exclude warm-up or LibOS start-up from measurements.
    pub fn reset_measurement(&mut self) {
        self.counters.reset();
        for t in &mut self.threads {
            t.cycles = 0;
        }
    }

    /// The machine configuration this instance was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    // --- trace plane -----------------------------------------------------
    //
    // The sink lives here because every simulation layer (SGX, LibOS, the
    // harness) already holds the machine; they emit through it without a
    // side channel. Tracing never charges simulated cycles: when disabled
    // every helper below is a single `Option` check, and the per-line
    // loop in `access` does not consult the sink at all.

    /// Arms the trace plane. Replaces (and discards) any previous sink;
    /// surviving [`Machine::reset_measurement`] is intentional so the
    /// harness can arm right after resetting.
    pub fn set_trace_sink(&mut self, sink: trace::TraceSink) {
        self.sample_cache = sink.next_sample_at();
        self.sink = Some(Box::new(sink));
    }

    /// Disarms the trace plane, returning the sink and its records.
    pub fn take_trace_sink(&mut self) -> Option<trace::TraceSink> {
        self.sample_cache = u64::MAX;
        self.sink.take().map(|b| *b)
    }

    /// Read-only view of the armed sink, if any.
    pub fn trace_sink(&self) -> Option<&trace::TraceSink> {
        self.sink.as_deref()
    }

    /// Mutable view of the armed sink, if any.
    pub fn trace_sink_mut(&mut self) -> Option<&mut trace::TraceSink> {
        self.sink.as_deref_mut()
    }

    /// Whether tracing is armed.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits `event` stamped with thread `tid`'s current clock. No-op
    /// (one pointer check) when tracing is disabled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "thread ids are dense and few; the trace schema stores them as u32"
    )]
    #[inline]
    pub fn trace_emit(&mut self, tid: ThreadId, event: trace::TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let now = self.threads[tid.0].cycles;
            sink.emit(now, tid.0 as u32, event);
            // Recording a sample re-arms the sink's schedule; advance the
            // fast-path bound so polling goes back to one compare.
            self.sample_cache = sink.next_sample_at();
        }
    }

    /// Whether a periodic counter sample is due at thread `tid`'s clock.
    /// The SGX layer polls this and emits [`trace::TraceEvent::Sample`]
    /// with a snapshot it assembles.
    ///
    /// The common "not yet" answer is a single integer compare against a
    /// cached lower bound of the sink's schedule; the sink itself (which
    /// may have re-armed later via direct [`Machine::trace_sink_mut`]
    /// emission) is only consulted once that bound is reached.
    #[inline]
    pub fn trace_sample_due(&self, tid: ThreadId) -> bool {
        let now = self.threads[tid.0].cycles;
        if now < self.sample_cache {
            return false;
        }
        match self.sink.as_deref() {
            Some(sink) => sink.sample_due(now),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> (Machine, ThreadId) {
        let mut m = Machine::new(MachineConfig::default());
        let t = m.add_thread();
        (m, t)
    }

    #[test]
    fn first_access_faults_and_misses() {
        let (mut m, t) = machine();
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(out.dtlb_miss);
        assert!(out.llc_miss);
        assert!(out.minor_fault);
        assert_eq!(m.counters().page_faults, 1);
        assert_eq!(m.counters().dtlb_misses, 1);
    }

    #[test]
    fn repeat_access_is_cheap() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        let before = m.cycles_of(t);
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert_eq!(out.cycles, m.config().latency.l1_hit);
        assert_eq!(m.cycles_of(t) - before, out.cycles);
        assert!(!out.dtlb_miss && !out.llc_miss && !out.minor_fault);
    }

    #[test]
    fn zero_len_is_noop() {
        let (mut m, t) = machine();
        let out = m.access(t, 0x4000, 0, AccessKind::Write, &AccessAttrs::PLAIN);
        assert_eq!(out, AccessOutcome::default());
        assert_eq!(m.counters().mem_writes, 0);
    }

    #[test]
    fn multi_line_access_counts_lines() {
        let (mut m, t) = machine();
        // 256 bytes starting line-aligned: 4 lines.
        m.access(t, 0x8000, 256, AccessKind::Read, &AccessAttrs::PLAIN);
        assert_eq!(m.counters().mem_reads, 4);
    }

    #[test]
    fn page_spanning_access_translates_twice() {
        let (mut m, t) = machine();
        m.access(t, 0x5000 - 32, 64, AccessKind::Read, &AccessAttrs::PLAIN);
        assert_eq!(m.counters().dtlb_misses, 2);
        assert_eq!(m.counters().page_faults, 2);
    }

    #[test]
    fn tlb_flush_forces_rewalk_without_fault() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        m.flush_tlb(t);
        let before = m.counters().page_faults;
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(out.dtlb_miss);
        assert!(!out.minor_fault);
        assert_eq!(m.counters().page_faults, before);
        assert_eq!(m.counters().tlb_flushes, 1);
    }

    #[test]
    fn encrypted_dram_costs_more() {
        let (mut m, _) = machine();
        let t1 = m.add_thread();
        let t2 = m.add_thread();
        let plain = m.access(t1, 0x10_0000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        let epc = m.access(t2, 0x20_0000, 8, AccessKind::Read, &AccessAttrs::EPC);
        assert!(epc.cycles > plain.cycles);
    }

    #[test]
    fn threads_have_independent_clocks() {
        let mut m = Machine::new(MachineConfig::default());
        let a = m.add_thread();
        let b = m.add_thread();
        m.compute(a, 100);
        assert_eq!(m.cycles_of(a), 100);
        assert_eq!(m.cycles_of(b), 0);
        assert_eq!(m.elapsed_cycles(), 100);
        m.sync_to(b, 100);
        assert_eq!(m.cycles_of(b), 100);
    }

    #[test]
    fn reset_measurement_keeps_microarch_state() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        m.reset_measurement();
        assert_eq!(m.counters().dtlb_misses, 0);
        assert_eq!(m.cycles_of(t), 0);
        // The page is still mapped and cached: no fault, cheap access.
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(!out.minor_fault);
    }

    #[test]
    fn stall_cycles_track_hierarchy_latency() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        let stalls = m.counters().stall_cycles;
        assert!(stalls >= m.config().latency.dram - m.config().latency.l1_hit);
    }

    #[test]
    fn access_at_top_of_address_space_clamps_instead_of_overflowing() {
        // Regression: `(vaddr + len - 1)` used to overflow (debug panic,
        // silent wrap to line 0 in release) for accesses reaching the top
        // of the address space. The run now clamps to the final byte.
        let (mut m, t) = machine();
        let out = m.access(t, u64::MAX - 7, 64, AccessKind::Read, &AccessAttrs::PLAIN);
        // Clamped run covers bytes [MAX-7, MAX]: exactly one line.
        assert_eq!(m.counters().mem_reads, 1);
        assert!(out.cycles > 0);
    }

    #[test]
    fn top_page_is_translated_not_skipped() {
        // Regression: a `cur_page = u64::MAX` sentinel would collide with
        // the genuine top page number and skip its translation entirely.
        let (mut m, t) = machine();
        let out = m.access(t, u64::MAX - 63, 64, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(out.dtlb_miss);
        assert_eq!(m.counters().dtlb_misses, 1);
        assert_eq!(m.counters().page_faults, 1);
    }

    #[test]
    fn non_monotone_latency_rejected_at_construction() {
        let cfg = MachineConfig {
            latency: LatencyModel {
                l1_hit: 50,
                llc_hit: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            Machine::try_new(cfg),
            Err(ConfigError::Latency(LatencyError::LlcFasterThanL1 { .. }))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid MachineConfig")]
    fn new_panics_on_non_monotone_latency() {
        let cfg = MachineConfig {
            latency: LatencyModel {
                mee_mult_x100: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let _ = Machine::new(cfg);
    }

    #[test]
    fn stream_matches_sequential_access_calls() {
        let runs: Vec<StreamRun> = (0..64)
            .map(|i| StreamRun::new(0x4000 + i * 192, 128, AccessKind::Read))
            .chain((0..64).map(|i| StreamRun::new(0x9_0000 + i * 64, 8, AccessKind::Write)))
            .collect();
        let (mut a, ta) = machine();
        let (mut b, tb) = machine();
        let batched = a.access_stream(ta, &runs, &AccessAttrs::EPC);
        let mut seq = AccessOutcome::default();
        for r in &runs {
            let o = b.access(tb, r.vaddr, r.len, r.kind, &AccessAttrs::EPC);
            seq.cycles += o.cycles;
            seq.dtlb_miss |= o.dtlb_miss;
            seq.llc_miss |= o.llc_miss;
            seq.minor_fault |= o.minor_fault;
        }
        assert_eq!(batched, seq);
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.cycles_of(ta), b.cycles_of(tb));
    }

    #[test]
    fn empty_stream_and_zero_runs_are_noops() {
        let (mut m, t) = machine();
        let out = m.access_stream(t, &[], &AccessAttrs::PLAIN);
        assert_eq!(out, AccessOutcome::default());
        let out = m.access_stream(
            t,
            &[StreamRun::new(0x4000, 0, AccessKind::Write)],
            &AccessAttrs::PLAIN,
        );
        assert_eq!(out, AccessOutcome::default());
        assert_eq!(m.counters().mem_writes, 0);
    }

    #[test]
    fn counted_l1_hits_charge_what_same_line_runs_charge() {
        // Four same-line runs after a cold one, issued as runs on one
        // machine and as counted hits on the other.
        let first = StreamRun::new(0x4010, 8, AccessKind::Write);
        let repeats = [
            StreamRun::new(0x4018, 8, AccessKind::Read),
            StreamRun::new(0x4000, 16, AccessKind::Write),
            StreamRun::new(0x403c, 4, AccessKind::Read),
            StreamRun::new(0x4010, 8, AccessKind::Read),
        ];
        let (mut a, ta) = machine();
        let (mut b, tb) = machine();
        a.access_stream(ta, &[first], &AccessAttrs::EPC);
        a.access_stream(ta, &repeats, &AccessAttrs::EPC);
        b.access_stream(tb, &[first], &AccessAttrs::EPC);
        b.charge_l1_hits(tb, 3, 1);
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.cycles_of(ta), b.cycles_of(tb));
        // The decomposition the `audit` feature asserts per batch holds
        // over the counted hits too.
        let c = b.counters();
        let lat = b.config().latency;
        assert_eq!(
            b.cycles_of(tb),
            STLB_HIT_CYCLES * c.stlb_hits
                + lat.minor_fault * c.page_faults
                + c.walk_cycles
                + c.stall_cycles
                + lat.l1_hit * (c.mem_reads + c.mem_writes)
        );
    }
}

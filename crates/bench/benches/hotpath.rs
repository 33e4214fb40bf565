//! Hot-path throughput trajectory: how fast does the simulator simulate?
//!
//! Every figure in the suite is bottlenecked on the per-access pipeline —
//! `sgx_sim::SgxMachine::access` routing into `Epc::touch` plus
//! `mem_sim::Machine::access` — so this harness pins its *host*
//! throughput the same way `trace_overhead.rs` pins simulated cycles. It
//! embeds a frozen replica of the pre-optimization pipeline (`legacy`
//! below) and races three implementations over one deterministic
//! EPC-resident access stream with periodic enclave transitions:
//!
//! 1. `legacy`  — the frozen pre-PR pipeline: per-call dispatch across
//!    an un-inlined crate boundary, a SipHash `HashMap<PageKey, _>` EPC
//!    residency probe per page, two-pass u32-stamp TLB probes with
//!    `%`-indexed sets, a SipHash page table, a per-call latency-model
//!    clone, and a per-access trace poll through an `Option<Box<_>>`;
//! 2. `percall` — today's `SgxMachine::access`, one call per access;
//! 3. `stream`  — today's `SgxMachine::access_stream` over batched runs.
//!
//! All three must charge **identical simulated cycles and counters**
//! (the replica is cycle-faithful, which is what makes the race
//! meaningful), and the batched path must beat the replica by at least
//! [`SPEEDUP_FLOOR`]. A second race runs the same stream through the
//! workload API, `Env`'s scalar `read_u64`/`write_u64` (bulk runs as
//! `touch`) with one `secure_call` per window, twice: a plain `Env`,
//! which queues the accesses and charges them in batches, and an `Env`
//! with a cycle budget that never fires, which charges each access as
//! it happens. Both must charge identical cycles and counters. A third
//! race runs the same two `Env`s over stride-8 and stride-64
//! `read_u64`/`write_u64` scans of an EPC-resident region, whose
//! same-line and next-line accesses the plain `Env` folds into its
//! queue's tail. Every race alternates its contenders pass by pass, so
//! host drift lands on all of them alike.
//! Results land in a `BENCH_hotpath.json`; CI re-runs the harness in
//! smoke mode and fails if any measured speedup
//! (`speedup_stream_vs_legacy`, `speedup_env_batched_vs_percall`,
//! `speedup_env_scan_vs_percall`) falls
//! below its share of the committed trajectory point
//! (`SGXGAUGE_PERF_BASELINE`). Gating on the speedup *ratio* — both
//! contenders timed on the same host, same run — keeps the gate
//! machine-independent where raw ns/access would not be.
//!
//! # Why the floor is where it is
//!
//! The replica is calibrated against the real pre-PR build: checking out
//! the pre-PR tree and racing its actual `SgxMachine::access` against
//! today's over this exact profile (single-core container, trace sink
//! armed) measured 33.5 ns/access pre-PR vs 19.1 ns/access batched —
//! 1.76x — with byte-identical simulated cycles. The dispatch overheads
//! this PR removed (SipHash probes, `%`-set divisions, per-call clones,
//! heap-allocating batch queues) are real but sit on top of ~13
//! ns/access of irreducible *model* work (TLB LRU update, L1 tag probe,
//! counter and clock arithmetic) that any cycle-faithful implementation
//! must execute per line. That shared floor bounds the honest ratio
//! near 2x on this host; a 5x point would require either breaking cycle
//! fidelity or padding the replica with costs the pre-PR build never
//! paid. The trajectory therefore starts at the measured ~1.7x, and the
//! floor below guards the gap from regressing, not a hoped-for 5x.
//!
//! Env knobs: `SGXGAUGE_PERF_SMOKE=1` shrinks the stream for CI,
//! `SGXGAUGE_PERF_OUT=<path>` overrides where the JSON is written,
//! `SGXGAUGE_PERF_BASELINE=<path>` arms the regression gate.

use mem_sim::{AccessKind, StreamRun, PAGE_SIZE};
use sgx_sim::enclave::EnclaveId;
use sgx_sim::{Host, SgxConfig, SgxMachine};
use sgxgauge_bench::{banner, best_of, sgxgauge_bench};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{Env, EnvConfig, ExecMode, Region};

/// The batched path must beat the frozen legacy pipeline by at least
/// this factor. Set from the real pre-PR-build race (1.76x measured,
/// see the module docs): low enough to absorb single-core container
/// noise, high enough that losing any one recovered overhead class
/// (the arena EPC index, the division-free probes, the batched counter
/// flush) trips it.
const SPEEDUP_FLOOR: f64 = 1.35;

/// Accesses per simulated ECALL window: every window is bracketed by an
/// EEXIT/EENTER pair whose mandatory TLB flushes keep the refill and
/// page-walk machinery honestly exercised (§2.3), while the working set
/// stays EPC-resident so no jittered fault costs enter the race.
const WINDOW: usize = 256;

/// Hot working set in pages: slightly more L1D lines (576) than the
/// modeled L1 holds (512), so a fraction of accesses fall through to
/// the LLC probe path and the set-index arithmetic of both contenders
/// stays in the race.
const HOT_PAGES: u64 = 9;

/// Frozen replica of the pre-optimization access pipeline.
///
/// This is deliberately *not* shared with the library: it reproduces the
/// retired arithmetic — `%`-indexed set lookup, separate
/// lookup-then-insert TLB passes with `u32` LRU stamps, std `HashMap`s
/// (SipHash) for the page table and the EPC residency index, a per-call
/// latency-model clone, and per-call dispatch across what was an
/// un-inlined crate boundary — so the race above always compares
/// against the same fixed contender. Cycle charging is byte-identical
/// to the library by construction; the harness asserts it on every run.
mod legacy {
    use mem_sim::{AccessAttrs, AccessKind, LatencyModel, LINE_SHIFT, PAGE_SHIFT};
    use std::collections::HashMap;

    const STLB_HIT_CYCLES: u64 = 7;

    struct TlbLevel {
        tags: Vec<u64>,
        stamps: Vec<u32>,
        epochs: Vec<u64>,
        sets: usize,
        ways: usize,
        clock: u32,
        epoch: u64,
    }

    impl TlbLevel {
        fn new(entries: usize, ways: usize) -> Self {
            let sets = entries / ways;
            TlbLevel {
                tags: vec![u64::MAX; entries],
                stamps: vec![0; entries],
                epochs: vec![0; entries],
                sets,
                ways,
                clock: 0,
                epoch: 1,
            }
        }

        #[inline]
        fn set_of(&self, page: u64) -> usize {
            (page as usize) % self.sets
        }

        #[inline]
        fn valid(&self, idx: usize) -> bool {
            self.epochs[idx] == self.epoch && self.tags[idx] != u64::MAX
        }

        fn lookup(&mut self, page: u64) -> bool {
            let base = self.set_of(page) * self.ways;
            self.clock = self.clock.wrapping_add(1);
            for w in 0..self.ways {
                if self.valid(base + w) && self.tags[base + w] == page {
                    self.stamps[base + w] = self.clock;
                    return true;
                }
            }
            false
        }

        fn insert(&mut self, page: u64) {
            let base = self.set_of(page) * self.ways;
            self.clock = self.clock.wrapping_add(1);
            let mut victim = 0;
            let mut oldest_age = 0;
            for w in 0..self.ways {
                if !self.valid(base + w) {
                    victim = w;
                    break;
                }
                let age = self.clock.wrapping_sub(self.stamps[base + w]);
                if age >= oldest_age {
                    victim = w;
                    oldest_age = age;
                }
            }
            self.tags[base + victim] = page;
            self.stamps[base + victim] = self.clock;
            self.epochs[base + victim] = self.epoch;
        }

        fn flush(&mut self) {
            self.epoch += 1;
        }
    }

    enum TlbOutcome {
        L1Hit,
        StlbHit,
        Miss,
    }

    struct Tlb {
        l1: TlbLevel,
        stlb: TlbLevel,
    }

    impl Tlb {
        fn translate(&mut self, page: u64) -> TlbOutcome {
            if self.l1.lookup(page) {
                return TlbOutcome::L1Hit;
            }
            if self.stlb.lookup(page) {
                self.l1.insert(page);
                return TlbOutcome::StlbHit;
            }
            self.stlb.insert(page);
            self.l1.insert(page);
            TlbOutcome::Miss
        }
    }

    struct L1Cache {
        tags: Vec<u64>,
    }

    impl L1Cache {
        #[inline]
        fn access(&mut self, line: u64) -> bool {
            let s = (line as usize) & (self.tags.len() - 1);
            if self.tags[s] == line {
                true
            } else {
                self.tags[s] = line;
                false
            }
        }
    }

    struct Llc {
        tags: Vec<u64>,
        stamps: Vec<u32>,
        sets: usize,
        ways: usize,
        clock: u32,
    }

    impl Llc {
        fn access(&mut self, line: u64) -> bool {
            let set = (line as usize) % self.sets;
            let base = set * self.ways;
            self.clock = self.clock.wrapping_add(1);
            let mut victim = 0;
            let mut oldest_age = 0;
            for w in 0..self.ways {
                let t = self.tags[base + w];
                if t == line {
                    self.stamps[base + w] = self.clock;
                    return true;
                }
                if t == u64::MAX {
                    victim = w;
                    oldest_age = u32::MAX;
                    continue;
                }
                let age = self.clock.wrapping_sub(self.stamps[base + w]);
                if age >= oldest_age && oldest_age != u32::MAX {
                    victim = w;
                    oldest_age = age;
                }
            }
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }
    }

    struct WalkCache {
        tags: Vec<u64>,
        epochs: Vec<u64>,
        epoch: u64,
    }

    impl WalkCache {
        #[inline]
        fn walk(&mut self, page: u64) -> bool {
            let region = page >> 9;
            let slot = (region as usize) & (self.tags.len() - 1);
            if self.epochs[slot] == self.epoch && self.tags[slot] == region {
                true
            } else {
                self.tags[slot] = region;
                self.epochs[slot] = self.epoch;
                false
            }
        }

        fn flush(&mut self) {
            self.epoch += 1;
        }
    }

    /// The counter fields the pre-PR access path read-modify-wrote on
    /// every call (the library batches these into registers now). Kept
    /// so the harness can also assert counter fidelity, not just cycles.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Counters {
        pub stlb_hits: u64,
        pub dtlb_misses: u64,
        pub page_faults: u64,
        pub walk_cycles: u64,
        pub mem_reads: u64,
        pub mem_writes: u64,
        pub llc_accesses: u64,
        pub llc_misses: u64,
        pub mee_cycles: u64,
        pub stall_cycles: u64,
        pub tlb_flushes: u64,
    }

    impl Counters {
        /// Field-wise `self - earlier`, for per-repetition deltas.
        pub fn delta(self, earlier: Counters) -> Counters {
            Counters {
                stlb_hits: self.stlb_hits - earlier.stlb_hits,
                dtlb_misses: self.dtlb_misses - earlier.dtlb_misses,
                page_faults: self.page_faults - earlier.page_faults,
                walk_cycles: self.walk_cycles - earlier.walk_cycles,
                mem_reads: self.mem_reads - earlier.mem_reads,
                mem_writes: self.mem_writes - earlier.mem_writes,
                llc_accesses: self.llc_accesses - earlier.llc_accesses,
                llc_misses: self.llc_misses - earlier.llc_misses,
                mee_cycles: self.mee_cycles - earlier.mee_cycles,
                stall_cycles: self.stall_cycles - earlier.stall_cycles,
                tlb_flushes: self.tlb_flushes - earlier.tlb_flushes,
            }
        }
    }

    /// Per-call outcome struct, built exactly as the pre-PR path did.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Outcome {
        pub cycles: u64,
        pub dtlb_miss: bool,
        pub llc_miss: bool,
        pub minor_fault: bool,
    }

    /// The pre-PR memory machine: one thread, SipHash page table,
    /// per-call latency clone, unchecked `vaddr + len - 1` (callers stay
    /// clear of the top of the address space — the overflow is one of
    /// the bugs this PR fixed, not a behavior to reproduce).
    pub struct Machine {
        latency: LatencyModel,
        tlb: Tlb,
        l1: L1Cache,
        walk_cache: WalkCache,
        llc: Llc,
        pages: HashMap<u64, u64>,
        /// Simulated cycles charged so far (the equivalence check).
        pub cycles: u64,
        /// Per-access counter totals (the fidelity check).
        pub counters: Counters,
    }

    impl Machine {
        pub fn new(cfg: &mem_sim::MachineConfig) -> Self {
            Machine {
                latency: cfg.latency,
                tlb: Tlb {
                    l1: TlbLevel::new(cfg.l1_tlb_entries, cfg.l1_tlb_ways),
                    stlb: TlbLevel::new(cfg.stlb_entries, cfg.stlb_ways),
                },
                l1: L1Cache {
                    tags: vec![u64::MAX; mem_sim::L1_CACHE_LINES.next_power_of_two()],
                },
                walk_cache: WalkCache {
                    tags: vec![u64::MAX; 32],
                    epochs: vec![0; 32],
                    epoch: 1,
                },
                llc: Llc {
                    tags: vec![u64::MAX; cfg.llc_bytes >> LINE_SHIFT as usize],
                    stamps: vec![0; cfg.llc_bytes >> LINE_SHIFT as usize],
                    sets: (cfg.llc_bytes >> LINE_SHIFT as usize) / cfg.llc_ways,
                    ways: cfg.llc_ways,
                    clock: 0,
                },
                pages: HashMap::new(),
                cycles: 0,
                counters: Counters::default(),
            }
        }

        /// A faithful transcription of the pre-PR `Machine::access`:
        /// per-call latency-model clone (today's `LatencyModel` is
        /// `Copy`, hence the lint override), per-line read-modify-writes
        /// of every counter it maintained, the branching read/write
        /// classification, EPCM surcharges on EPC walks, the MEE
        /// multiplier on encrypted-DRAM fills, and the outcome struct.
        ///
        /// `inline(never)` models the pre-PR call boundary: the
        /// workspace builds without LTO, so `mem_sim::Machine::access`
        /// could never inline into the SGX layer or workload loops.
        #[inline(never)]
        #[allow(clippy::clone_on_copy)]
        pub fn access(
            &mut self,
            vaddr: u64,
            len: u64,
            kind: AccessKind,
            attrs: &AccessAttrs,
        ) -> Outcome {
            let mut out = Outcome::default();
            if len == 0 {
                return out;
            }
            let lat = self.latency.clone();
            let first_line = vaddr >> LINE_SHIFT;
            let last_line = (vaddr + len - 1) >> LINE_SHIFT;
            let mut cur_page = u64::MAX;
            let mut cycles = 0u64;
            for line in first_line..=last_line {
                let page = line >> (PAGE_SHIFT - LINE_SHIFT);
                if page != cur_page {
                    cur_page = page;
                    match self.tlb.translate(page) {
                        TlbOutcome::L1Hit => {}
                        TlbOutcome::StlbHit => {
                            self.counters.stlb_hits += 1;
                            cycles += STLB_HIT_CYCLES;
                        }
                        TlbOutcome::Miss => {
                            self.counters.dtlb_misses += 1;
                            out.dtlb_miss = true;
                            let slot = self.pages.entry(page).or_insert(0);
                            *slot += 1;
                            if *slot == 1 {
                                self.counters.page_faults += 1;
                                out.minor_fault = true;
                                cycles += lat.minor_fault;
                                self.walk_cache.flush();
                            }
                            let fast = self.walk_cache.walk(page);
                            let mut walk = if fast { lat.walk_fast } else { lat.walk_slow };
                            if attrs.epcm_check {
                                walk += lat.epcm_check;
                            }
                            self.counters.walk_cycles += walk;
                            cycles += walk;
                        }
                    }
                }
                match kind {
                    AccessKind::Read => self.counters.mem_reads += 1,
                    AccessKind::Write => self.counters.mem_writes += 1,
                }
                let mem_cycles = if self.l1.access(line) {
                    lat.l1_hit
                } else {
                    self.counters.llc_accesses += 1;
                    if self.llc.access(line) {
                        lat.llc_hit
                    } else {
                        self.counters.llc_misses += 1;
                        out.llc_miss = true;
                        if attrs.encrypted_dram {
                            let enc = lat.dram_encrypted();
                            self.counters.mee_cycles += enc - lat.dram.min(enc);
                            enc
                        } else {
                            lat.dram
                        }
                    }
                };
                self.counters.stall_cycles += mem_cycles - lat.l1_hit;
                cycles += mem_cycles;
            }
            self.cycles += cycles;
            out.cycles = cycles;
            out
        }

        /// The enclave-transition TLB flush, as the pre-PR
        /// `Machine::flush_tlb` performed it.
        pub fn flush_tlb(&mut self) {
            self.tlb.l1.flush();
            self.tlb.stlb.flush();
            self.walk_cache.flush();
            self.counters.tlb_flushes += 1;
        }
    }

    /// The pre-PR periodic-sample schedule, boxed as the machine boxed
    /// its sink: the pre-PR `trace_tick` chased this pointer and
    /// compared the schedule on every access (the snapshot itself was
    /// only assembled when due — which it never is at the interval the
    /// harness arms).
    pub struct Poll {
        interval: u64,
        next: u64,
    }

    impl Poll {
        #[inline]
        fn due(&self, now: u64) -> bool {
            self.interval != 0 && now >= self.next
        }
    }

    /// The pre-PR SGX pipeline around the memory machine: ELRANGE
    /// routing, the per-page streaming memo backed by a SipHash
    /// `HashMap<PageKey, usize>` residency index with clock reference
    /// bits, EEXIT/EENTER transitions with their mandatory flushes, and
    /// the per-access trace poll.
    pub struct Sgx {
        pub mem: Machine,
        elrange: (u64, u64),
        resident: HashMap<(usize, u64), usize>,
        frames: Vec<bool>,
        last_touched: Option<(usize, u64)>,
        poll: Option<Box<Poll>>,
        events: Vec<(u64, u32)>,
        eexit_cycles: u64,
        eenter_cycles: u64,
        pub ecalls: u64,
        pub snapshots: u64,
    }

    impl Sgx {
        pub fn new(
            mem: Machine,
            elrange: (u64, u64),
            eexit_cycles: u64,
            eenter_cycles: u64,
        ) -> Self {
            Sgx {
                mem,
                elrange,
                resident: HashMap::new(),
                frames: Vec::new(),
                last_touched: None,
                poll: None,
                events: Vec::new(),
                eexit_cycles,
                eenter_cycles,
                ecalls: 0,
                snapshots: 0,
            }
        }

        /// Arms the periodic-sample schedule (the bench uses an interval
        /// beyond the simulated horizon: the *poll* is the cost under
        /// test, not the snapshot).
        pub fn arm_poll(&mut self, interval: u64) {
            self.poll = Some(Box::new(Poll {
                interval,
                next: interval,
            }));
        }

        /// Marks a page resident, as the pre-PR EPC did after servicing
        /// its fault (the harness pre-faults the working set; the race
        /// itself must stay fault-free so no jittered driver costs enter
        /// the cycle comparison).
        pub fn make_resident(&mut self, page: u64) {
            let idx = self.frames.len();
            self.frames.push(false);
            self.resident.insert((0, page), idx);
        }

        /// A faithful transcription of the pre-PR `SgxMachine::access`
        /// resident path: ELRANGE route check, per-page memo then
        /// SipHash residency probe (refreshing the clock reference bit),
        /// the un-inlined memory access with EPC attributes, and the
        /// trace poll. `inline(never)` models the pre-PR `sgx-sim` crate
        /// boundary, as for [`Machine::access`].
        #[inline(never)]
        pub fn access(&mut self, vaddr: u64, len: u64, kind: AccessKind) -> Outcome {
            if vaddr >= self.elrange.0 && vaddr < self.elrange.1 {
                let first_page = vaddr >> PAGE_SHIFT;
                let last_page = (vaddr + len - 1) >> PAGE_SHIFT;
                for page in first_page..=last_page {
                    if self.last_touched == Some((0, page)) {
                        continue;
                    }
                    match self.resident.get(&(0, page)) {
                        Some(&idx) => {
                            self.frames[idx] = true;
                            self.last_touched = Some((0, page));
                        }
                        None => panic!("hot-path stream must stay EPC-resident"),
                    }
                }
                let out = self.mem.access(vaddr, len, kind, &AccessAttrs::EPC);
                self.trace_tick();
                out
            } else {
                let out = self.mem.access(vaddr, len, kind, &AccessAttrs::PLAIN);
                self.trace_tick();
                out
            }
        }

        /// One EEXIT + EENTER round trip: the transition cycle charges,
        /// both mandatory TLB flushes, the transition trace events, and
        /// the polls — exactly the pre-PR window boundary.
        pub fn transition(&mut self) {
            self.mem.cycles += self.eexit_cycles;
            self.mem.flush_tlb();
            self.record_event(0);
            self.trace_tick();
            self.ecalls += 1;
            self.mem.cycles += self.eenter_cycles;
            self.mem.flush_tlb();
            self.record_event(1);
            self.trace_tick();
        }

        #[inline]
        fn record_event(&mut self, code: u32) {
            let now = self.mem.cycles;
            self.events.push((now, code));
        }

        /// Pre-PR sampling poll: one `Option<Box>` pointer chase and a
        /// schedule compare per access.
        #[inline]
        fn trace_tick(&mut self) {
            if let Some(p) = self.poll.as_deref() {
                if p.due(self.mem.cycles) {
                    self.snapshots += 1;
                }
            }
        }
    }
}

/// One synthetic access, relative to the enclave heap base:
/// `(offset, len, kind)`.
type Access = (u64, u64, AccessKind);

/// Deterministic LCG-driven stream shaped like the suite's enclave
/// inner loops (B-Tree node walks, hashtable probes, OpenSSL block
/// processing): aligned 8-byte reads and writes alternating across a
/// hot working set of [`HOT_PAGES`] pages — page-alternating so the
/// streaming memo misses and the per-page EPC residency probe is truly
/// exercised on (nearly) every access — with 1 in 128 accesses a
/// page-crossing bulk run so the multi-line and page-crossing paths
/// stay in the race. The working set stays EPC- and LLC-resident: the
/// costs under test are dispatch and probe arithmetic, not simulated
/// DRAM waits that no host-side optimization can remove.
fn synth_stream(n: usize) -> Vec<Access> {
    let mut state: u64 = 0x5eed_cafe_f00d_0001;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..n)
        .map(|_| {
            let r = next();
            let kind = if r % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let offset = (next() % 512) * 8;
            if r % 128 == 1 {
                // Bulk run: page-crossing memcpy-style streak (stays
                // inside the warmed working set).
                let page = next() % (HOT_PAGES - 1);
                (page * PAGE_SIZE + offset, 512 + next() % 1536, kind)
            } else {
                // Hot inner loop: aligned single-line access.
                let page = next() % HOT_PAGES;
                (page * PAGE_SIZE + offset, 8, kind)
            }
        })
        .collect()
}

/// Sample interval armed on both contenders: far beyond the simulated
/// horizon, so the per-access *poll* is measured but no snapshot ever
/// fires inside the race.
const SINK_INTERVAL: u64 = u64::MAX / 2;

/// Builds, enters and warms the real platform: every hot page is
/// faulted into the EPC and every hot line touched, then measurement
/// state is reset and the trace plane armed (sweeps run with the sink
/// armed, so the race reproduces that configuration).
fn build_real(cfg: &SgxConfig) -> (SgxMachine, mem_sim::ThreadId, EnclaveId, u64) {
    let mut m = Host::builder().sgx(cfg.clone()).build_machine();
    let t = m.add_thread();
    let e = m
        .create_enclave(64 * PAGE_SIZE, 32 * PAGE_SIZE)
        .expect("enclave build");
    m.ecall_enter(t, e).expect("enter");
    let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).expect("heap alloc");
    for p in 0..HOT_PAGES {
        for l in 0..(PAGE_SIZE / 64) {
            m.access(t, heap + p * PAGE_SIZE + l * 64, 8, AccessKind::Read);
        }
    }
    m.reset_measurement();
    m.mem_mut()
        .set_trace_sink(trace::TraceSink::with_config(1 << 16, SINK_INTERVAL));
    (m, t, e, heap)
}

/// The scans of one [`EnvContender::scan`] round: `(stride, write)`.
const SCANS: [(u64, bool); 4] = [(8, false), (8, true), (64, false), (64, true)];

/// One `Env` contender: a Native enclave with the stream's working set
/// as a protected region.
struct EnvContender {
    env: Env,
    region: Region,
}

impl EnvContender {
    /// With `per_access`, a cycle budget that never fires makes the
    /// `Env` charge every access as it happens instead of queueing it.
    /// Untraced: an armed trace sink would force the per-access path on
    /// both contenders.
    fn new(per_access: bool) -> EnvContender {
        let bytes = 16 * PAGE_SIZE;
        let mut env = Env::new(EnvConfig::paper(ExecMode::Native, bytes)).expect("env");
        let region = env.alloc(bytes, Placement::Protected).expect("heap alloc");
        if per_access {
            env.arm_cycle_budget(u64::MAX);
        }
        EnvContender { env, region }
    }

    /// Runs `f` on the contender's `Env` and region, and returns the
    /// simulated cycles, counters and EPC faults it charged.
    fn measured(&mut self, f: impl FnOnce(&mut Env, Region)) -> (u64, mem_sim::Counters, u64) {
        let env = &mut self.env;
        let c0 = *env.machine().mem().counters();
        let f0 = env.machine().sgx_counters().epc_faults;
        let start = env.now();
        f(env, self.region);
        let faults = env.machine().sgx_counters().epc_faults - f0;
        (
            env.now() - start,
            *env.machine().mem().counters() - c0,
            faults,
        )
    }

    /// One pass over `stream` through `Env`'s scalar API, one
    /// `secure_call` per [`WINDOW`] accesses: 8-byte accesses as
    /// `read_u64`/`write_u64`, bulk runs as `touch`.
    fn pass(&mut self, stream: &[Access]) -> (u64, mem_sim::Counters, u64) {
        self.measured(|env, r| {
            let mut sum = 0u64;
            for window in stream.chunks(WINDOW) {
                env.secure_call(|env| {
                    for &(off, len, kind) in window {
                        match (len, kind) {
                            (8, AccessKind::Read) => sum = sum.wrapping_add(env.read_u64(r, off)),
                            (8, AccessKind::Write) => env.write_u64(r, off, sum),
                            _ => env.touch(r, off, len, kind == AccessKind::Write),
                        }
                    }
                })
                .expect("enter");
            }
            std::hint::black_box(sum);
        })
    }

    /// Scans the region `rounds` times over with each of [`SCANS`]: one
    /// `secure_call` per scan, `read_u64` or `write_u64` at every
    /// `stride` bytes. A stride-8 scan is the case `Env` folds most:
    /// seven of every eight accesses repeat the line queued last.
    fn scan(&mut self, rounds: usize) -> (u64, mem_sim::Counters, u64) {
        self.measured(|env, r| {
            let bytes = env.region_len(r);
            let mut sum = 0u64;
            for _ in 0..rounds {
                for (stride, write) in SCANS {
                    env.secure_call(|env| {
                        for off in (0..bytes).step_by(stride as usize) {
                            if write {
                                env.write_u64(r, off, sum);
                            } else {
                                sum = sum.wrapping_add(env.read_u64(r, off));
                            }
                        }
                    })
                    .expect("enter");
                }
            }
            std::hint::black_box(sum);
        })
    }
}

/// Times `contenders` one pass each, in turn, `reps` times over, so that
/// host drift lands on all of them alike. Returns, per contender, the
/// best host ns of one pass and the last pass's result.
fn alternate<R, const N: usize>(
    reps: usize,
    mut contenders: [&mut dyn FnMut() -> R; N],
) -> [(u64, R); N] {
    let mut best: [Option<(u64, R)>; N] = std::array::from_fn(|_| None);
    for _ in 0..reps {
        for (f, b) in contenders.iter_mut().zip(&mut best) {
            let (ns, out) = best_of(1, &mut **f);
            let ns = b.as_ref().map_or(ns, |&(prev, _)| prev.min(ns));
            *b = Some((ns, out));
        }
    }
    best.map(|b| b.expect("at least one repetition"))
}

/// One `Env` contender's race result: its best host ns of one pass, and
/// the last pass's simulated cycles and counters.
type EnvRaced = (u64, (u64, mem_sim::Counters));

/// Races `stream` through a per-access and a batched [`EnvContender`].
/// Returns `[per-access, batched]`.
fn env_race(stream: &[Access], reps: usize) -> [EnvRaced; 2] {
    let [mut percall, mut batched] = [EnvContender::new(true), EnvContender::new(false)];
    // Warm-up: faults the working set into the EPC.
    percall.pass(stream);
    batched.pass(stream);
    let run = |c: &mut EnvContender| {
        let (cycles, counters, faults) = c.pass(stream);
        assert_eq!(faults, 0, "resident regime");
        (cycles, counters)
    };
    alternate(reps, [&mut || run(&mut percall), &mut || run(&mut batched)])
}

/// Races [`SCANS`] over the region through a per-access and a batched
/// [`EnvContender`], as [`env_race`] races the stream. Returns
/// `[per-access, batched]` and the accesses of one pass.
fn scan_race(accesses: usize, reps: usize) -> ([EnvRaced; 2], usize) {
    let [mut percall, mut batched] = [EnvContender::new(true), EnvContender::new(false)];
    let bytes = percall.env.region_len(percall.region);
    let per_round: u64 = SCANS.iter().map(|&(stride, _)| bytes / stride).sum();
    let rounds = accesses.div_ceil(per_round as usize);
    percall.scan(1);
    batched.scan(1);
    let run = |c: &mut EnvContender| {
        let (cycles, counters, faults) = c.scan(rounds);
        assert_eq!(faults, 0, "resident regime");
        (cycles, counters)
    };
    let raced = alternate(reps, [&mut || run(&mut percall), &mut || run(&mut batched)]);
    (raced, rounds * per_round as usize)
}

fn main() {
    banner(
        "Hot-path throughput — perf trajectory of the access pipeline",
        "the simulator itself must be fast enough to sweep the paper grid",
    );
    let smoke = std::env::var("SGXGAUGE_PERF_SMOKE").is_ok_and(|v| v != "0");
    let n: usize = if smoke { 300_000 } else { 2_000_000 };
    // Smoke mode shrinks the stream ~7x, so each repetition is cheap but
    // a single descheduling blip distorts it far more; best-of over many
    // more repetitions buys back the stability the shorter stream loses.
    let reps = if smoke { 12 } else { 4 };
    let stream = synth_stream(n);
    let cfg = SgxConfig::default();

    // Contender 1: the frozen pre-PR pipeline replica, warmed over the
    // identical access sequence (fault-free: residency is pre-seeded, so
    // warm-up differs from the real machine only in TLB/walk-cache
    // state — erased by the flush pair that opens every window).
    let (rm, _, _, heap) = build_real(&cfg);
    let heap_page = heap >> 12;
    drop(rm);
    let mut ls = legacy::Sgx::new(
        legacy::Machine::new(&cfg.mem),
        (heap, heap + 16 * PAGE_SIZE),
        sgx_sim::costs::EEXIT_CYCLES,
        sgx_sim::costs::EENTER_CYCLES,
    );
    for p in 0..HOT_PAGES {
        ls.make_resident(heap_page + p);
    }
    for p in 0..HOT_PAGES {
        for l in 0..(PAGE_SIZE / 64) {
            ls.access(heap + p * PAGE_SIZE + l * 64, 8, AccessKind::Read);
        }
    }
    ls.mem.cycles = 0;
    ls.mem.counters = legacy::Counters::default();
    ls.arm_poll(SINK_INTERVAL);

    // Contender 2: today's per-call pipeline.
    let (mut pm, pt, pe, pheap) = build_real(&cfg);
    assert_eq!(pheap, heap, "enclave layout must be deterministic");

    // Contender 3: today's batched pipeline, one ECALL window per batch.
    let (mut sm, st, se, sheap) = build_real(&cfg);
    let runs: Vec<StreamRun> = stream
        .iter()
        .map(|&(off, len, kind)| StreamRun::new(sheap + off, len, kind))
        .collect();

    let mut legacy_counters = legacy::Counters::default();
    let mut percall_counters = mem_sim::Counters::new();
    let mut stream_counters = mem_sim::Counters::new();
    let [(legacy_ns, legacy_cycles), (percall_ns, percall_cycles), (stream_ns, stream_cycles)] =
        alternate(
            reps,
            [
                &mut || {
                    let c0 = ls.mem.counters;
                    let start = ls.mem.cycles;
                    for (i, &(off, len, kind)) in stream.iter().enumerate() {
                        if i % WINDOW == 0 {
                            ls.transition();
                        }
                        ls.access(heap + off, len, kind);
                    }
                    legacy_counters = ls.mem.counters.delta(c0);
                    ls.mem.cycles - start
                },
                &mut || {
                    let c0 = *pm.mem().counters();
                    let f0 = pm.sgx_counters().epc_faults;
                    let start = pm.mem().cycles_of(pt);
                    for (i, &(off, len, kind)) in stream.iter().enumerate() {
                        if i % WINDOW == 0 {
                            pm.ecall_exit(pt, pe).expect("exit");
                            pm.ecall_enter(pt, pe).expect("enter");
                        }
                        pm.access(pt, heap + off, len, kind);
                    }
                    assert_eq!(
                        pm.sgx_counters().epc_faults,
                        f0,
                        "the race must stay EPC-resident (jittered fault costs would \
                         break the cycle comparison)"
                    );
                    percall_counters = *pm.mem().counters() - c0;
                    pm.mem().cycles_of(pt) - start
                },
                &mut || {
                    let c0 = *sm.mem().counters();
                    let f0 = sm.sgx_counters().epc_faults;
                    let start = sm.mem().cycles_of(st);
                    for chunk in runs.chunks(WINDOW) {
                        sm.ecall_exit(st, se).expect("exit");
                        sm.ecall_enter(st, se).expect("enter");
                        sm.access_stream(st, chunk);
                    }
                    assert_eq!(sm.sgx_counters().epc_faults, f0, "resident regime");
                    stream_counters = *sm.mem().counters() - c0;
                    sm.mem().cycles_of(st) - start
                },
            ],
        );
    assert_eq!(ls.snapshots, 0, "no snapshot may fire inside the race");
    assert!(
        legacy_counters.dtlb_misses > 0 && legacy_counters.llc_accesses > 0,
        "stream must exercise the TLB-refill and LLC-probe paths"
    );

    // The race is only meaningful if all three charge identical
    // simulated cycles — the optimizations must be invisible to the
    // model. This is the hot-path analogue of the audit feature's
    // cycle-decomposition identity (which CI runs over the same paths
    // via the equivalence property tests). Counters are checked too:
    // the replica must be event-faithful, not just cycle-faithful.
    assert_eq!(
        legacy_cycles, percall_cycles,
        "legacy replica and SgxMachine::access disagree on simulated cycles"
    );
    assert_eq!(
        percall_cycles, stream_cycles,
        "SgxMachine::access and access_stream disagree on simulated cycles"
    );
    for (name, a, b, c) in [
        (
            "stlb_hits",
            legacy_counters.stlb_hits,
            percall_counters.stlb_hits,
            stream_counters.stlb_hits,
        ),
        (
            "dtlb_misses",
            legacy_counters.dtlb_misses,
            percall_counters.dtlb_misses,
            stream_counters.dtlb_misses,
        ),
        (
            "page_faults",
            legacy_counters.page_faults,
            percall_counters.page_faults,
            stream_counters.page_faults,
        ),
        (
            "walk_cycles",
            legacy_counters.walk_cycles,
            percall_counters.walk_cycles,
            stream_counters.walk_cycles,
        ),
        (
            "mem_reads",
            legacy_counters.mem_reads,
            percall_counters.mem_reads,
            stream_counters.mem_reads,
        ),
        (
            "mem_writes",
            legacy_counters.mem_writes,
            percall_counters.mem_writes,
            stream_counters.mem_writes,
        ),
        (
            "llc_accesses",
            legacy_counters.llc_accesses,
            percall_counters.llc_accesses,
            stream_counters.llc_accesses,
        ),
        (
            "llc_misses",
            legacy_counters.llc_misses,
            percall_counters.llc_misses,
            stream_counters.llc_misses,
        ),
        (
            "mee_cycles",
            legacy_counters.mee_cycles,
            percall_counters.mee_cycles,
            stream_counters.mee_cycles,
        ),
        (
            "stall_cycles",
            legacy_counters.stall_cycles,
            percall_counters.stall_cycles,
            stream_counters.stall_cycles,
        ),
        (
            "tlb_flushes",
            legacy_counters.tlb_flushes,
            percall_counters.tlb_flushes,
            stream_counters.tlb_flushes,
        ),
    ] {
        assert!(
            a == b && b == c,
            "contenders disagree on counter {name}: legacy {a}, percall {b}, stream {c}"
        );
    }

    // Contenders 4 and 5: the workload API, per access and batched.
    let raced = env_race(&stream, reps);
    // The `Env` windows bracket the same accesses with the same
    // transitions, so both charge what the machine contenders do.
    for (what, (_, (cycles, counters))) in ["per-access", "batched"].into_iter().zip(raced) {
        assert_eq!(
            cycles, percall_cycles,
            "{what} Env and SgxMachine::access disagree on simulated cycles"
        );
        assert_eq!(
            counters, percall_counters,
            "{what} Env and SgxMachine::access disagree on counters"
        );
    }
    let [(env_percall_ns, _), (env_batched_ns, _)] = raced;

    // The scan race: the same two `Env`s over line-stride scans, which
    // the batched one folds into its queue's tail.
    let ([(scan_percall_ns, scan_percall), (scan_batched_ns, scan_batched)], scan_n) =
        scan_race(n, reps);
    assert_eq!(
        scan_percall, scan_batched,
        "per-access and batched Env disagree on the scans' cycles or counters"
    );

    let ns_per = |ns: u64| ns as f64 / n as f64;
    let speedup_percall = legacy_ns as f64 / percall_ns as f64;
    let speedup_stream = legacy_ns as f64 / stream_ns as f64;
    let speedup_env = env_percall_ns as f64 / env_batched_ns as f64;
    let speedup_scan = scan_percall_ns as f64 / scan_batched_ns as f64;
    let scan_ns_per = |ns: u64| ns as f64 / scan_n as f64;
    let per_sec = n as f64 / (stream_ns as f64 / 1e9);
    println!(
        "legacy  {:>8.1} ns/access\npercall {:>8.1} ns/access ({:.2}x)\nstream  {:>8.1} ns/access ({:.2}x)",
        ns_per(legacy_ns),
        ns_per(percall_ns),
        speedup_percall,
        ns_per(stream_ns),
        speedup_stream,
    );
    println!(
        "Env per-access {:>8.1} ns/access\nEnv batched    {:>8.1} ns/access ({:.2}x)",
        ns_per(env_percall_ns),
        ns_per(env_batched_ns),
        speedup_env,
    );
    println!(
        "Env scan per-access {:>8.1} ns/access\nEnv scan batched    {:>8.1} ns/access ({:.2}x)",
        scan_ns_per(scan_percall_ns),
        scan_ns_per(scan_batched_ns),
        speedup_scan,
    );
    println!(
        "stream throughput: {:.1} M simulated accesses/sec, {:.1} sim cycles/access",
        per_sec / 1e6,
        stream_cycles as f64 / n as f64
    );

    let baseline = sgxgauge_bench(
        "hotpath",
        &[
            ("accesses", &n),
            ("smoke", &smoke),
            ("ns_per_access_legacy", &format!("{:.2}", ns_per(legacy_ns))),
            (
                "ns_per_access_percall",
                &format!("{:.2}", ns_per(percall_ns)),
            ),
            ("ns_per_access_stream", &format!("{:.2}", ns_per(stream_ns))),
            (
                "speedup_percall_vs_legacy",
                &format!("{speedup_percall:.3}"),
            ),
            ("speedup_stream_vs_legacy", &format!("{speedup_stream:.3}")),
            (
                "ns_per_access_env_percall",
                &format!("{:.2}", ns_per(env_percall_ns)),
            ),
            (
                "ns_per_access_env_batched",
                &format!("{:.2}", ns_per(env_batched_ns)),
            ),
            (
                "speedup_env_batched_vs_percall",
                &format!("{speedup_env:.3}"),
            ),
            (
                "ns_per_access_env_scan_percall",
                &format!("{:.2}", scan_ns_per(scan_percall_ns)),
            ),
            (
                "ns_per_access_env_scan",
                &format!("{:.2}", scan_ns_per(scan_batched_ns)),
            ),
            ("speedup_env_scan_vs_percall", &format!("{speedup_scan:.3}")),
            ("sim_accesses_per_sec_stream", &format!("{per_sec:.0}")),
            (
                "sim_cycles_per_access",
                &format!("{:.2}", stream_cycles as f64 / n as f64),
            ),
        ],
    );

    // Regression gate against the committed trajectory point.
    if let Some(baseline) = baseline {
        // Smoke runs trade stream length for speed, so their ratio is
        // noisier even after the extra repetitions; the gate loosens a
        // notch there to keep CI deterministic while still catching any
        // real regression (losing one recovered overhead class costs
        // well over 20% of the measured gap).
        let tolerance = if smoke { 0.80 } else { 0.90 };
        for (what, key, measured) in [
            ("stream", "speedup_stream_vs_legacy", speedup_stream),
            (
                "Env batching",
                "speedup_env_batched_vs_percall",
                speedup_env,
            ),
            (
                "Env scan folding",
                "speedup_env_scan_vs_percall",
                speedup_scan,
            ),
        ] {
            let baseline = baseline.number(key);
            println!(
                "{what}: baseline speedup {baseline:.2}x, measured {measured:.2}x \
                 (gate: >= {:.0}% of baseline)",
                tolerance * 100.0
            );
            assert!(
                measured >= tolerance * baseline,
                "hot-path regression: {what} speedup {measured:.2}x fell below {:.0}% of the \
                 committed {baseline:.2}x trajectory point",
                tolerance * 100.0
            );
        }
    }

    assert!(
        speedup_stream >= SPEEDUP_FLOOR,
        "stream speedup {speedup_stream:.2}x is below the {SPEEDUP_FLOOR}x floor"
    );
    println!("PASS: hot path holds the {SPEEDUP_FLOOR}x trajectory floor");
}

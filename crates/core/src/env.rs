//! The workload execution environment.
//!
//! [`Env`] is what every SGXGauge workload programs against. It owns the
//! simulated platform and routes each primitive through the right
//! substrate for the configured [`ExecMode`]:
//!
//! | primitive            | Vanilla        | Native                    | LibOS                        |
//! |-----------------------|----------------|---------------------------|------------------------------|
//! | `alloc(Protected)`    | plain memory   | enclave heap              | enclave heap                 |
//! | memory access         | plain          | EPC + MEE + EPCM          | EPC + MEE + EPCM             |
//! | `secure_call`         | function call  | ECALL round trip          | plain (already inside)       |
//! | `host_syscall`        | syscall        | OCALL                     | shim dispatch + OCALL        |
//! | file I/O              | syscall + copy | OCALL per batch + copy    | shim batches (+ PF crypto)   |
//! | `spawn_app_thread`    | thread         | thread (enters per call)  | thread + persistent ECALL    |
//!
//! Regions hold *real bytes*: reads and writes move data and
//! simultaneously drive the TLB/cache/EPC models, so the performance
//! counters come from the workload's organic access pattern.

use crate::modes::ExecMode;
use crate::workload::{TransientError, WorkloadError};
use faults::{FaultHook, InjectedFault};
use libos_sim::{LibosProcess, Manifest};
use mem_sim::{AccessKind, StreamRun, ThreadId, PAGE_SIZE};
use queue::Queued;
use sgx_sim::{costs, EnclaveId, SgxConfig, SgxMachine};
use std::collections::BTreeMap;

/// The machine behind a queue of not-yet-charged accesses.
///
/// Region reads and writes move their bytes at once, but their
/// accounting waits here as [`StreamRun`]s and is charged in one
/// [`SgxMachine::access_stream`] call, which charges exactly what the
/// same runs issued one at a time would. The fields are private to this
/// module, so [`Env`] reaches the machine only through
/// [`Queued::machine`], which flushes first, or [`Queued::view`], which
/// refuses while runs are queued: no other simulated operation can run,
/// and no counter or clock can be read, with runs still queued.
/// [`Queued::flush`] serves the operations that change only `Env`'s own
/// state, such as the current thread.
mod queue {
    use super::{AccessKind, SgxMachine, StreamRun, ThreadId};
    use mem_sim::{LINE_SHIFT, PAGE_SHIFT};

    /// Runs held before a flush. A flush is exact at any length; this
    /// only bounds the buffer, which a warm `Env` reuses without regrowing.
    const CAPACITY: usize = 1024;

    /// Lines per page as a shift: line `l` lies on page
    /// `l >> LINES_PER_PAGE_SHIFT`.
    const LINES_PER_PAGE_SHIFT: u32 = PAGE_SHIFT - LINE_SHIFT;

    #[derive(Debug, Clone)]
    pub(super) struct Queued {
        machine: SgxMachine,
        runs: Vec<StreamRun>,
        /// The thread every queued run belongs to.
        tid: ThreadId,
        /// Runs folded into counted L1 hits, by [`AccessKind`]: reads,
        /// then writes. Non-zero only while runs are queued.
        hits: [u64; 2],
    }

    impl Queued {
        pub(super) fn new(machine: SgxMachine, tid: ThreadId) -> Queued {
            Queued {
                machine,
                runs: Vec::with_capacity(CAPACITY),
                tid,
                hits: [0; 2],
            }
        }

        /// Charges `len` bytes at `vaddr` to `tid`: queued, or issued at
        /// once while a trace sink is armed, whose samples and fault
        /// events are stamped per access.
        ///
        /// A queued run folds into the queue's tail where that is exact.
        /// A run wholly inside the tail's last line is an L1 hit on the
        /// line and page this thread touched last, so it becomes a
        /// counted hit. A run of the tail's kind that starts on the
        /// tail's last line or the next one and ends on the tail's last
        /// page extends the tail: the part on the tail's last line, if
        /// any, is a counted hit, and the rest is the lines the tail
        /// would issue next, on a page whose translation and residency
        /// the tail already established. A run reaching into the next
        /// page never folds: a fault there flushes the TLB before the
        /// tail's lines are issued.
        #[inline]
        pub(super) fn access(&mut self, tid: ThreadId, vaddr: u64, len: u64, kind: AccessKind) {
            if self.machine.mem().tracing() {
                self.access_now(tid, StreamRun { vaddr, len, kind });
                return;
            }
            if len == 0 {
                return;
            }
            debug_assert!(
                self.runs.is_empty() || self.tid == tid,
                "queued runs of another thread: flush before switching threads"
            );
            let last_byte = vaddr.saturating_add(len - 1);
            if let Some(tail) = self.runs.last_mut() {
                let tail_line = tail.vaddr.saturating_add(tail.len - 1) >> LINE_SHIFT;
                let first = vaddr >> LINE_SHIFT;
                let last = last_byte >> LINE_SHIFT;
                if last == tail_line && first == tail_line {
                    self.hits[kind as usize] += 1;
                    return;
                }
                if first.wrapping_sub(tail_line) <= 1
                    && last >> LINES_PER_PAGE_SHIFT == tail_line >> LINES_PER_PAGE_SHIFT
                    && kind == tail.kind
                {
                    self.hits[kind as usize] += u64::from(first == tail_line);
                    tail.len = last_byte - tail.vaddr + 1;
                    return;
                }
            }
            if self.runs.len() == CAPACITY {
                self.drain();
            }
            self.tid = tid;
            self.runs.push(StreamRun { vaddr, len, kind });
        }

        /// Flushes, then charges `run` to `tid` at once: the path of an
        /// armed trace sink, fault hook or cycle budget.
        // Out of line: inlined, it would copy `access_stream`'s loop into
        // every scalar access.
        #[cold]
        #[inline(never)]
        pub(super) fn access_now(&mut self, tid: ThreadId, run: StreamRun) {
            self.flush();
            self.machine.access(tid, run.vaddr, run.len, run.kind);
        }

        // Out of line, like `access_now`, so flush points stay small.
        #[inline(never)]
        fn drain(&mut self) {
            self.machine.access_stream(self.tid, &self.runs);
            let [reads, writes] = std::mem::take(&mut self.hits);
            if reads | writes != 0 {
                self.machine.charge_l1_hits(self.tid, reads, writes);
            }
            self.runs.clear();
        }

        /// Charges every queued run, in order, and every counted hit.
        #[inline]
        pub(super) fn flush(&mut self) {
            if !self.runs.is_empty() {
                self.drain();
            }
        }

        /// The machine with every queued run charged: the one path to
        /// operate on it or read its clocks and counters.
        #[inline]
        pub(super) fn machine(&mut self) -> &mut SgxMachine {
            self.flush();
            &mut self.machine
        }

        /// The machine, for a reader holding only `&self`.
        ///
        /// # Panics
        ///
        /// Panics while runs are queued: their cycles and counters are
        /// not in the machine yet.
        pub(super) fn view(&self) -> &SgxMachine {
            assert!(
                self.runs.is_empty(),
                "Env::machine() with {} accesses not yet charged; read the machine \
                 after a flush point (e.g. secure_call, now) or through Env::machine_mut()",
                self.runs.len()
            );
            &self.machine
        }
    }
}

/// Where a region lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Inside the enclave (EPC-backed) in Native/LibOS modes; ordinary
    /// memory in Vanilla mode.
    Protected,
    /// Always ordinary, untrusted memory.
    Untrusted,
}

/// Handle to an allocated memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region(usize);

/// Handle to a simulated logical thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimThread {
    pub(crate) id: ThreadId,
    idx: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadKind {
    /// Application thread: lives inside the enclave in LibOS mode.
    App,
    /// Driver thread (load generator): always untrusted.
    Driver,
}

#[derive(Debug, Clone)]
struct ThreadMeta {
    id: ThreadId,
    kind: ThreadKind,
}

#[derive(Debug, Clone)]
struct RegionData {
    base: u64,
    data: Vec<u8>,
    protected: bool,
}

#[derive(Debug, Clone)]
struct FileEntry {
    data: Vec<u8>,
    /// True when the bytes are PF-sealed blocks rather than plaintext.
    sealed: bool,
}

impl FileEntry {
    /// Stores `data` in one copy: verbatim, or sealed block by block
    /// with real crypto when the PF shim of `pf` is active.
    fn store(pf: Option<&mut LibosProcess>, data: &[u8]) -> FileEntry {
        let Some(p) = pf else {
            return FileEntry {
                data: data.to_vec(),
                sealed: false,
            };
        };
        let mut out = Vec::with_capacity(data.len() + data.len() / 64);
        for block in data.chunks(PAGE_SIZE as usize) {
            let bytes = p.shim_mut().pf_seal(block).to_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        FileEntry {
            data: out,
            sealed: true,
        }
    }
}

/// Configuration of an [`Env`].
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// Platform model parameters.
    pub sgx: SgxConfig,
    /// Estimated protected bytes (sizes Native enclaves; checked against
    /// the LibOS enclave size).
    pub protected_hint: u64,
    /// LibOS manifest; `None` uses the Table 3 defaults with the binary
    /// named "workload".
    pub manifest: Option<Manifest>,
    /// Protected-files mode for LibOS file I/O (Appendix E).
    pub protected_files: bool,
}

/// Bytes of measured binary content for Native enclaves.
const NATIVE_CONTENT: u64 = 4 << 20;

/// I/O batch size: bytes per OCALL in Native mode.
const IO_BATCH: u64 = 64 << 10;

impl EnvConfig {
    /// Paper-faithful configuration for `mode` (92 MB EPC, 4 GB LibOS
    /// enclaves).
    pub fn paper(mode: ExecMode, protected_hint: u64) -> Self {
        EnvConfig {
            mode,
            sgx: SgxConfig::default(),
            protected_hint,
            manifest: None,
            protected_files: false,
        }
    }

    /// A configuration for fast unit tests: small EPC (1024 pages) and a
    /// small LibOS enclave, so launches take microseconds.
    pub fn quick_test(mode: ExecMode) -> Self {
        let mut cfg = EnvConfig::paper(mode, 1 << 20);
        cfg.sgx = SgxConfig::with_tiny_epc(1024, 16);
        cfg.manifest = Some(
            Manifest::builder("workload")
                .enclave_size(128 << 20)
                .internal_memory(8 << 20)
                .build(),
        );
        cfg
    }

    /// Enables switchless OCALLs with `workers` proxy threads (§5.6).
    pub fn with_switchless(mut self, workers: usize) -> Self {
        self.sgx.switchless_workers = workers;
        self
    }

    /// Enables LibOS protected-files mode (Appendix E).
    pub fn with_protected_files(mut self) -> Self {
        self.protected_files = true;
        self
    }
}

/// Watchdog panic payload: thrown via `std::panic::panic_any` when the
/// current thread's clock passes the armed cycle budget
/// ([`Env::arm_cycle_budget`]). The runner catches the unwind and turns
/// it into [`WorkloadError::Timeout`]; any other panic keeps propagating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBudgetExceeded {
    /// The configured budget.
    pub budget_cycles: u64,
    /// The thread clock when the watchdog fired.
    pub elapsed_cycles: u64,
}

/// Installs (once per process) a panic hook that stays silent for the
/// watchdog's [`CycleBudgetExceeded`] unwind — it is control flow, not a
/// failure, and is always caught by the runner — while delegating every
/// other panic to the previous hook unchanged.
fn silence_watchdog_unwinds() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<CycleBudgetExceeded>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// The execution environment. See the module docs for the mode table and
/// the crate docs for an example.
///
/// Cloning an `Env` forks its whole simulated platform: the clone charges
/// exactly the cycles and counters the original would for the same
/// operations. [`crate::Runner`] launches a LibOS enclave once and clones
/// it into every LibOS cell.
///
/// Region accesses are charged lazily: they queue up and are charged in
/// one batch at the next operation that can observe or change simulated
/// state (compute, a clock read, a transition, a syscall or I/O, a
/// phase mark, a thread switch, an allocation, `machine_mut`), which
/// charges exactly what charging them one by one would. Scans queue
/// little: an access within the line queued last is counted as an L1
/// hit, and one on the next line of the same page extends the queued
/// run. While a fault
/// hook, a cycle budget or a trace sink is armed, each access is charged
/// at once, so injections, the watchdog and trace samples see every
/// access's clock.
#[derive(Debug, Clone)]
pub struct Env {
    mode: ExecMode,
    sim: Queued,
    regions: Vec<RegionData>,
    files: BTreeMap<String, FileEntry>,
    native_enclave: Option<EnclaveId>,
    libos: Option<LibosProcess>,
    threads: Vec<ThreadMeta>,
    cur: usize,
    app_started: bool,
    /// Compiled fault-injection hook for this run, polled from the
    /// charging paths against the simulated thread clock.
    faults: Option<FaultHook>,
    /// Armed cycle budget; `None` disarms the watchdog.
    budget: Option<u64>,
}

impl Env {
    /// Builds the platform for `cfg`: creates the machine and main
    /// thread, and — depending on the mode — the Native enclave or the
    /// LibOS process (whose expensive launch happens here, so it can be
    /// excluded from measurement with [`Env::reset_measurement`]).
    ///
    /// # Errors
    ///
    /// Propagates enclave-creation failures.
    pub fn new(cfg: EnvConfig) -> Result<Env, WorkloadError> {
        // Resolve the LibOS manifest first: its thread count sets the
        // enclave's TCS budget (main thread + app threads + slack for
        // the runtime's own helpers).
        let manifest = match cfg.mode {
            ExecMode::LibOs => {
                let m = cfg.manifest.clone().unwrap_or_else(|| {
                    Manifest::builder("workload")
                        .protected_files(cfg.protected_files)
                        .build()
                });
                let m = if cfg.protected_files && !m.protected_files() {
                    Manifest::builder(m.binary())
                        .enclave_size(m.enclave_size())
                        .threads(m.threads())
                        .internal_memory(m.internal_memory())
                        .protected_files(true)
                        .build()
                } else {
                    m
                };
                Some(m)
            }
            _ => None,
        };
        let mut sgx = cfg.sgx.clone();
        if let Some(m) = &manifest {
            sgx.tcs_per_enclave = m.threads() + 2;
        }
        // Single-enclave envs are the degenerate co-tenant host.
        let mut machine = sgx_sim::Host::builder().sgx(sgx).build_machine();
        let main = machine.add_thread();
        let mut native_enclave = None;
        let mut libos = None;
        match cfg.mode {
            ExecMode::Vanilla => {}
            ExecMode::Native => {
                // Size the enclave to the workload: content + heap with
                // slack, as a porting developer would.
                let size =
                    NATIVE_CONTENT + cfg.protected_hint + cfg.protected_hint / 2 + (16 << 20);
                native_enclave = Some(machine.create_enclave(size, NATIVE_CONTENT)?);
            }
            ExecMode::LibOs => {
                let m = manifest.as_ref().expect("manifest resolved above");
                libos = Some(LibosProcess::launch(&mut machine, main, m)?);
            }
        }
        Ok(Env {
            mode: cfg.mode,
            sim: Queued::new(machine, main),
            regions: Vec::new(),
            files: BTreeMap::new(),
            native_enclave,
            libos,
            threads: vec![ThreadMeta {
                id: main,
                kind: ThreadKind::App,
            }],
            cur: 0,
            app_started: false,
            faults: None,
            budget: None,
        })
    }

    /// The configured mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The underlying SGX machine (counters, driver stats, EPC).
    ///
    /// # Panics
    ///
    /// Panics while region accesses are still queued (see [`Env`]): read
    /// it after a flush point such as [`Env::secure_call`] or
    /// [`Env::now`], or through [`Env::machine_mut`], which flushes.
    pub fn machine(&self) -> &SgxMachine {
        self.sim.view()
    }

    /// Mutable machine access, for harness-level plumbing; charges the
    /// queued region accesses first.
    pub fn machine_mut(&mut self) -> &mut SgxMachine {
        self.sim.machine()
    }

    /// LibOS start-up statistics, when running in LibOS mode.
    pub fn libos_startup(&self) -> Option<libos_sim::StartupStats> {
        self.libos.as_ref().map(|p| p.startup())
    }

    // ----- lifecycle -------------------------------------------------

    /// Marks the beginning of application execution: in LibOS mode the
    /// main thread enters the enclave and stays there. Call after
    /// [`Workload::setup`](crate::Workload::setup), before measurement.
    ///
    /// # Errors
    ///
    /// Propagates SGX transition failures.
    pub fn start_app(&mut self) -> Result<(), WorkloadError> {
        if self.app_started {
            return Ok(());
        }
        self.app_started = true;
        let m = self.sim.machine();
        if let Some(p) = &self.libos {
            p.enter(m, self.threads[0].id)?;
        }
        Ok(())
    }

    /// Resets all measurement state (counters, clocks, driver samples)
    /// while keeping caches, TLBs, EPC residency and page tables warm.
    pub fn reset_measurement(&mut self) {
        self.sim.machine().reset_measurement();
    }

    // ----- fault plane and watchdog ----------------------------------

    /// Installs the compiled fault hook for this run. The environment
    /// polls it from every charging path against the simulated thread
    /// clock, so the injected event stream is a pure function of the
    /// plan, the salt, and the workload's own access pattern.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.sim.flush();
        self.faults = Some(hook);
    }

    /// Arms the cycle-budget watchdog: once the current thread's clock
    /// passes `budget_cycles`, the next charging operation panics with a
    /// [`CycleBudgetExceeded`] payload, which the runner converts to
    /// [`WorkloadError::Timeout`]. Cancels any previously armed budget.
    pub fn arm_cycle_budget(&mut self, budget_cycles: u64) {
        silence_watchdog_unwinds();
        self.sim.flush();
        self.budget = Some(budget_cycles);
    }

    #[inline]
    fn check_budget(&mut self) {
        if let Some(budget) = self.budget {
            let elapsed = self
                .sim
                .machine()
                .mem()
                .cycles_of(self.threads[self.cur].id);
            if elapsed > budget {
                // Disarm first so drop glue running during the unwind
                // cannot trip the watchdog again.
                self.budget = None;
                std::panic::panic_any(CycleBudgetExceeded {
                    budget_cycles: budget,
                    elapsed_cycles: elapsed,
                });
            }
        }
    }

    /// Advances the fault plane: checks the watchdog, then applies every
    /// injected event that has come due on the current thread's clock.
    /// Called from each charging path; the common case (nothing armed or
    /// nothing due) is a couple of integer compares.
    #[inline]
    fn fault_tick(&mut self) {
        self.check_budget();
        if self.faults.is_none() {
            return;
        }
        let tid = self.threads[self.cur].id;
        // Poll against the clock captured at tick entry: injections below
        // advance the clock, and letting them re-trigger the schedule
        // within the same tick would never drain when an injected burst
        // costs more than its period.
        let now = self.sim.machine().mem().cycles_of(tid);
        loop {
            let ev = match self.faults.as_mut() {
                Some(h) => h.poll(now),
                None => None,
            };
            let Some(ev) = ev else { break };
            // Every applied injection lands in the trace stream so a
            // timeline shows *when* the fault plane perturbed the run.
            let m = self.sim.machine();
            m.mem_mut().trace_emit(tid, ev.trace_event());
            match ev {
                // The burst is consumed even outside an enclave (keeping
                // the event stream deterministic); injection itself is a
                // no-op there, as real AEX only interrupts enclave code.
                InjectedFault::Aex { exits } => {
                    for _ in 0..exits {
                        m.inject_aex(tid);
                    }
                }
                InjectedFault::EpcSpike { frames } => {
                    m.set_epc_pressure(tid, frames);
                }
                InjectedFault::EpcRelease => {
                    m.release_epc_pressure();
                }
            }
        }
    }

    /// Elapsed cycles: the maximum clock over all logical threads.
    pub fn elapsed_cycles(&mut self) -> u64 {
        self.sim.machine().mem().elapsed_cycles()
    }

    // ----- trace phases ----------------------------------------------

    /// Runs `f` inside a named workload phase span of the trace stream
    /// (e.g. `"build"`, `"query"`), closing the span on success or
    /// failure. Spans nest by nesting calls, so every span a workload
    /// opens is closed, innermost first. A no-op wrapper when no trace
    /// sink is installed, so instrumented workloads cost nothing in
    /// untraced runs.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error; otherwise any span-closing error.
    pub fn with_phase<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Env) -> Result<T, WorkloadError>,
    ) -> Result<T, WorkloadError> {
        let tid = self.threads[self.cur].id;
        self.sim.machine().trace_phase_begin(tid, name);
        let out = f(self);
        let closed = self.sim.machine().trace_phase_end(tid, name);
        let out = out?;
        closed?;
        Ok(out)
    }

    // ----- threads ---------------------------------------------------

    /// The main thread.
    pub fn main_thread(&self) -> SimThread {
        SimThread {
            id: self.threads[0].id,
            idx: 0,
        }
    }

    /// The thread operations currently charge to.
    pub fn current_thread(&self) -> SimThread {
        SimThread {
            id: self.threads[self.cur].id,
            idx: self.cur,
        }
    }

    /// Spawns an application thread. In LibOS mode the thread enters the
    /// enclave immediately and stays inside (Graphene assigns it a TCS).
    ///
    /// # Errors
    ///
    /// Propagates TCS exhaustion in LibOS mode.
    pub fn spawn_app_thread(&mut self) -> Result<SimThread, WorkloadError> {
        let m = self.sim.machine();
        let id = m.add_thread();
        if let Some(p) = &self.libos {
            p.enter(m, id)?;
        }
        self.threads.push(ThreadMeta {
            id,
            kind: ThreadKind::App,
        });
        Ok(SimThread {
            id,
            idx: self.threads.len() - 1,
        })
    }

    /// Spawns a driver (load-generator) thread: always untrusted, never
    /// inside an enclave, in any mode.
    pub fn spawn_driver_thread(&mut self) -> SimThread {
        let id = self.sim.machine().add_thread();
        self.threads.push(ThreadMeta {
            id,
            kind: ThreadKind::Driver,
        });
        SimThread {
            id,
            idx: self.threads.len() - 1,
        }
    }

    /// Runs `f` with operations charged to `th`, then restores the
    /// previous thread.
    pub fn with_thread<T>(&mut self, th: SimThread, f: impl FnOnce(&mut Env) -> T) -> T {
        // Queued runs belong to the thread that issued them.
        self.sim.flush();
        let prev = self.cur;
        self.cur = th.idx;
        let out = f(self);
        self.sim.flush();
        self.cur = prev;
        out
    }

    /// Clock of `th` in cycles.
    pub fn now_of(&mut self, th: SimThread) -> u64 {
        self.sim.machine().mem().cycles_of(th.id)
    }

    /// Clock of the current thread.
    pub fn now(&mut self) -> u64 {
        let tid = self.threads[self.cur].id;
        self.sim.machine().mem().cycles_of(tid)
    }

    /// Advances `th`'s clock to at least `cycles` (synchronization).
    pub fn sync_to(&mut self, th: SimThread, cycles: u64) {
        self.sim.machine().mem_mut().sync_to(th.id, cycles);
    }

    /// Fork/join: runs `f(env, i)` once per thread in `workers`, each
    /// starting no earlier than the current thread's clock; afterwards
    /// the current thread joins (advances to) the slowest worker.
    pub fn parallel(&mut self, workers: &[SimThread], mut f: impl FnMut(&mut Env, usize)) {
        let fork = self.now();
        for (i, &w) in workers.iter().enumerate() {
            self.sync_to(w, fork);
            self.with_thread(w, |env| f(env, i));
        }
        let m = self.sim.machine().mem();
        let join = workers
            .iter()
            .map(|w| m.cycles_of(w.id))
            .max()
            .unwrap_or(fork);
        let cur = self.current_thread();
        self.sync_to(cur, join);
    }

    // ----- memory ----------------------------------------------------

    /// Allocates a region of `bytes`.
    ///
    /// # Errors
    ///
    /// Fails when a protected allocation exhausts the enclave.
    pub fn alloc(&mut self, bytes: u64, placement: Placement) -> Result<Region, WorkloadError> {
        let protected = placement == Placement::Protected && self.mode != ExecMode::Vanilla;
        let m = self.sim.machine();
        let base = match (protected, self.mode) {
            (true, ExecMode::Native) => {
                let e = self.native_enclave.expect("native mode has an enclave");
                m.alloc_enclave_heap(e, bytes)?
            }
            (true, ExecMode::LibOs) => {
                let p = self.libos.as_ref().expect("libos mode has a process");
                p.alloc(m, bytes)?
            }
            _ => m.alloc_untrusted(bytes),
        };
        self.regions.push(RegionData {
            base,
            data: vec![0u8; bytes as usize],
            protected,
        });
        Ok(Region(self.regions.len() - 1))
    }

    /// Size of `region` in bytes.
    pub fn region_len(&self, region: Region) -> u64 {
        self.regions[region.0].data.len() as u64
    }

    /// Whether `region` is EPC-backed in this mode.
    pub fn region_protected(&self, region: Region) -> bool {
        self.regions[region.0].protected
    }

    #[inline]
    fn charge_access(&mut self, region: Region, off: u64, len: u64, kind: AccessKind) {
        let r = &self.regions[region.0];
        // Checked in every build: a release-mode overrun would silently
        // charge accesses past the region.
        assert!(
            off.checked_add(len)
                .is_some_and(|end| end <= r.data.len() as u64),
            "region access out of bounds"
        );
        let vaddr = r.base + off;
        let tid = self.threads[self.cur].id;
        if self.faults.is_some() || self.budget.is_some() {
            self.charge_armed(tid, StreamRun::new(vaddr, len, kind));
        } else {
            self.sim.access(tid, vaddr, len, kind);
        }
    }

    /// An armed fault hook or watchdog polls the clock after every
    /// access, so those accesses cannot wait in the queue.
    #[cold]
    #[inline(never)]
    fn charge_armed(&mut self, tid: ThreadId, run: StreamRun) {
        self.sim.access_now(tid, run);
        self.fault_tick();
    }

    /// Reads a `u64` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    #[inline]
    pub fn read_u64(&mut self, region: Region, off: u64) -> u64 {
        self.charge_access(region, off, 8, AccessKind::Read);
        let d = &self.regions[region.0].data;
        u64::from_le_bytes(
            d[off as usize..off as usize + 8]
                .try_into()
                .expect("8 bytes"),
        )
    }

    /// Writes a `u64` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    #[inline]
    pub fn write_u64(&mut self, region: Region, off: u64, v: u64) {
        self.charge_access(region, off, 8, AccessKind::Write);
        let d = &mut self.regions[region.0].data;
        d[off as usize..off as usize + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    #[inline]
    pub fn read_u32(&mut self, region: Region, off: u64) -> u32 {
        self.charge_access(region, off, 4, AccessKind::Read);
        let d = &self.regions[region.0].data;
        u32::from_le_bytes(
            d[off as usize..off as usize + 4]
                .try_into()
                .expect("4 bytes"),
        )
    }

    /// Writes a `u32` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    #[inline]
    pub fn write_u32(&mut self, region: Region, off: u64, v: u32) {
        self.charge_access(region, off, 4, AccessKind::Write);
        let d = &mut self.regions[region.0].data;
        d[off as usize..off as usize + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an `f64` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    #[inline]
    pub fn read_f64(&mut self, region: Region, off: u64) -> f64 {
        f64::from_bits(self.read_u64(region, off))
    }

    /// Writes an `f64` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    #[inline]
    pub fn write_f64(&mut self, region: Region, off: u64, v: f64) {
        self.write_u64(region, off, v.to_bits());
    }

    /// Copies `buf.len()` bytes out of the region.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    pub fn read_bytes(&mut self, region: Region, off: u64, buf: &mut [u8]) {
        self.charge_access(region, off, buf.len() as u64, AccessKind::Read);
        let d = &self.regions[region.0].data;
        buf.copy_from_slice(&d[off as usize..off as usize + buf.len()]);
    }

    /// Copies `buf` into the region.
    ///
    /// # Panics
    ///
    /// Panics when the access is out of bounds.
    pub fn write_bytes(&mut self, region: Region, off: u64, buf: &[u8]) {
        self.charge_access(region, off, buf.len() as u64, AccessKind::Write);
        let d = &mut self.regions[region.0].data;
        d[off as usize..off as usize + buf.len()].copy_from_slice(buf);
    }

    /// Accounting-only touch of `[off, off+len)` — drives the TLB, cache
    /// and EPC models without moving bytes. For streaming passes whose
    /// byte values are irrelevant.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn touch(&mut self, region: Region, off: u64, len: u64, write: bool) {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.charge_access(region, off, len, kind);
    }

    /// Charges `cycles` of pure computation to the current thread.
    pub fn compute(&mut self, cycles: u64) {
        let tid = self.threads[self.cur].id;
        self.sim.machine().compute(tid, cycles);
        self.fault_tick();
    }

    // ----- secure calls and syscalls ----------------------------------

    /// Executes `f` in the secure world: an ECALL round trip in Native
    /// mode, a plain call otherwise (Vanilla has no enclave; LibOS is
    /// already inside).
    ///
    /// # Errors
    ///
    /// Propagates transition failures (e.g. TCS exhaustion).
    pub fn secure_call<T>(&mut self, f: impl FnOnce(&mut Env) -> T) -> Result<T, WorkloadError> {
        let tid = self.threads[self.cur].id;
        let m = self.sim.machine();
        let out = match self.mode {
            ExecMode::Native if m.current_enclave(tid).is_none() => {
                let e = self.native_enclave.expect("native mode has an enclave");
                m.ecall_enter(tid, e)?;
                let out = f(self);
                self.sim.machine().ecall_exit(tid, e)?;
                out
            }
            // Nested secure section, or no ECALL in this mode.
            _ => f(self),
        };
        // Every mode leaves with its accesses charged, so the machine
        // can be read right after the call.
        self.sim.flush();
        Ok(out)
    }

    /// One host syscall with no payload (e.g. `accept`, `futex`).
    ///
    /// # Errors
    ///
    /// Propagates transition failures. Under an active fault plan the
    /// syscall may fail transiently
    /// ([`WorkloadError::Transient`]) — the cycles are still charged, as
    /// a failing syscall costs its round trip before reporting `EINTR`.
    pub fn host_syscall(&mut self) -> Result<(), WorkloadError> {
        let tid = self.threads[self.cur].id;
        let kind = self.threads[self.cur].kind;
        let m = self.sim.machine();
        match self.mode {
            ExecMode::Vanilla => {
                m.compute(tid, costs::HOST_SYSCALL_CYCLES);
            }
            ExecMode::Native => {
                if m.current_enclave(tid).is_some() {
                    m.ocall(tid, costs::HOST_SYSCALL_CYCLES)?;
                } else {
                    m.compute(tid, costs::HOST_SYSCALL_CYCLES);
                }
            }
            ExecMode::LibOs => {
                if kind == ThreadKind::App {
                    let p = self.libos.as_mut().expect("libos process");
                    p.shim_mut().syscall_host(m, tid)?;
                } else {
                    m.compute(tid, costs::HOST_SYSCALL_CYCLES);
                }
            }
        }
        self.fault_tick();
        if self.faults.as_mut().is_some_and(|h| h.syscall_fails()) {
            let at_cycles = self.sim.machine().mem().cycles_of(tid);
            return Err(TransientError::SyscallFailed { at_cycles }.into());
        }
        Ok(())
    }

    /// Transfers `bytes` across the trust boundary (socket send/recv,
    /// pipe): syscalls + staging copies, batched per mode.
    ///
    /// # Errors
    ///
    /// Propagates transition failures.
    pub fn io_transfer(&mut self, bytes: u64, _write: bool) -> Result<(), WorkloadError> {
        let tid = self.threads[self.cur].id;
        let kind = self.threads[self.cur].kind;
        let m = self.sim.machine();
        let copy = bytes.div_ceil(1024) * costs::HOST_COPY_CYCLES_PER_KIB;
        match self.mode {
            ExecMode::Vanilla => {
                m.compute(tid, costs::HOST_SYSCALL_CYCLES + copy);
            }
            ExecMode::Native => {
                if m.current_enclave(tid).is_some() {
                    let chunks = bytes.div_ceil(IO_BATCH).max(1);
                    for _ in 0..chunks {
                        m.ocall(tid, costs::HOST_SYSCALL_CYCLES + copy / chunks)?;
                    }
                } else {
                    m.compute(tid, costs::HOST_SYSCALL_CYCLES + copy);
                }
            }
            ExecMode::LibOs => {
                if kind == ThreadKind::App {
                    let p = self.libos.as_mut().expect("libos process");
                    p.shim_mut().file_transfer(m, tid, bytes, _write)?;
                } else {
                    m.compute(tid, costs::HOST_SYSCALL_CYCLES + copy);
                }
            }
        }
        self.fault_tick();
        Ok(())
    }

    // ----- files -------------------------------------------------------

    /// Installs an input file directly (setup phase, unmeasured).
    pub fn put_file(&mut self, name: &str, data: Vec<u8>) {
        self.files.insert(
            name.to_owned(),
            FileEntry {
                data,
                sealed: false,
            },
        );
    }

    /// Size of a file in bytes.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::FileNotFound`] when absent.
    pub fn file_len(&self, name: &str) -> Result<u64, WorkloadError> {
        self.files
            .get(name)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| WorkloadError::FileNotFound(name.to_owned()))
    }

    /// Raw stored bytes of a file (host view — sealed blocks in PF mode).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::FileNotFound`] when absent.
    pub fn file_raw(&self, name: &str) -> Result<&[u8], WorkloadError> {
        self.files
            .get(name)
            .map(|f| f.data.as_slice())
            .ok_or_else(|| WorkloadError::FileNotFound(name.to_owned()))
    }

    fn pf_active(&self) -> bool {
        self.mode == ExecMode::LibOs
            && self
                .libos
                .as_ref()
                .is_some_and(|p| p.shim().protected_files())
            && self.threads[self.cur].kind == ThreadKind::App
    }

    /// Fetches a file's plaintext: looks it up, lets the fault plane flip
    /// a stored bit (simulated bit rot on the untrusted host), and
    /// unseals PF files. A flip in a sealed file is caught by the block
    /// MAC; a flip in a plaintext file has no integrity check to hide
    /// behind, so it surfaces directly. Either way an injected flip
    /// becomes [`TransientError::IoCorruption`] — re-reading draws fresh.
    ///
    /// Returns `None` when the stored bytes are the plaintext, so callers
    /// read them in place; only unsealing or a flip makes new bytes.
    fn fetch_plain(&mut self, name: &str) -> Result<Option<Vec<u8>>, WorkloadError> {
        let stored = self
            .files
            .get(name)
            .ok_or_else(|| WorkloadError::FileNotFound(name.to_owned()))?;
        let flipped = self
            .faults
            .as_mut()
            .and_then(|h| h.corrupt_bit(stored.data.len()));
        let corrupted = || {
            Err(TransientError::IoCorruption {
                file: name.to_owned(),
            }
            .into())
        };
        if !(stored.sealed && self.pf_active()) {
            return if flipped.is_some() {
                corrupted()
            } else {
                Ok(None)
            };
        }
        let unsealed = match flipped {
            Some(bit) => {
                let mut data = stored.data.clone();
                data[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.pf_unseal_file(&data)
            }
            None => self.pf_unseal_file(&stored.data),
        };
        match unsealed {
            Ok(plain) => Ok(Some(plain)),
            // Genuine tampering stays a fatal Validation error; only the
            // injected flip is retry-worthy.
            Err(_) if flipped.is_some() => corrupted(),
            Err(e) => Err(e),
        }
    }

    /// Reads a whole file through the mode's I/O path into `region` at
    /// `off`; returns the plaintext byte count.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::FileNotFound`] when absent;
    /// [`WorkloadError::Validation`] when a PF block fails verification;
    /// [`WorkloadError::Transient`] when the fault plane corrupted the
    /// read.
    pub fn read_file_into(
        &mut self,
        name: &str,
        region: Region,
        off: u64,
    ) -> Result<u64, WorkloadError> {
        let plain = self.fetch_plain(name)?;
        let len = match &plain {
            Some(p) => p.len(),
            None => self.files[name].data.len(),
        };
        self.charge_file_io(len as u64, false)?;
        self.charge_access(region, off, len as u64, AccessKind::Write);
        let src = plain.as_deref().unwrap_or(&self.files[name].data);
        self.regions[region.0].data[off as usize..off as usize + len].copy_from_slice(src);
        Ok(len as u64)
    }

    /// Reads a whole file into a fresh byte vector (small files; the
    /// bytes land in unmodeled scratch space, only I/O costs are
    /// charged).
    ///
    /// # Errors
    ///
    /// Same as [`Env::read_file_into`].
    pub fn read_file(&mut self, name: &str) -> Result<Vec<u8>, WorkloadError> {
        let plain = match self.fetch_plain(name)? {
            Some(p) => p,
            None => self.files[name].data.clone(),
        };
        self.charge_file_io(plain.len() as u64, false)?;
        Ok(plain)
    }

    /// Writes `len` bytes of `region` (from `off`) to a file through the
    /// mode's I/O path; PF mode seals each 4 KiB block with real crypto.
    ///
    /// # Errors
    ///
    /// Propagates transition failures.
    pub fn write_file_from(
        &mut self,
        name: &str,
        region: Region,
        off: u64,
        len: u64,
    ) -> Result<(), WorkloadError> {
        self.charge_access(region, off, len, AccessKind::Read);
        self.charge_file_io(len, true)?;
        let pf = if self.pf_active() {
            self.libos.as_mut()
        } else {
            None
        };
        let data = &self.regions[region.0].data[off as usize..(off + len) as usize];
        self.files
            .insert(name.to_owned(), FileEntry::store(pf, data));
        Ok(())
    }

    /// Writes `data` to a file through the mode's I/O path.
    ///
    /// # Errors
    ///
    /// Propagates transition failures.
    pub fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), WorkloadError> {
        self.charge_file_io(data.len() as u64, true)?;
        let pf = if self.pf_active() {
            self.libos.as_mut()
        } else {
            None
        };
        self.files
            .insert(name.to_owned(), FileEntry::store(pf, data));
        Ok(())
    }

    fn charge_file_io(&mut self, bytes: u64, write: bool) -> Result<(), WorkloadError> {
        let tid = self.threads[self.cur].id;
        let kind = self.threads[self.cur].kind;
        let m = self.sim.machine();
        let copy = bytes.div_ceil(1024) * costs::HOST_COPY_CYCLES_PER_KIB;
        match self.mode {
            ExecMode::Vanilla => {
                let chunks = bytes.div_ceil(IO_BATCH).max(1);
                m.compute(tid, costs::HOST_SYSCALL_CYCLES * chunks + copy);
            }
            ExecMode::Native => {
                if m.current_enclave(tid).is_some() {
                    let chunks = bytes.div_ceil(IO_BATCH).max(1);
                    for _ in 0..chunks {
                        m.ocall(tid, costs::HOST_SYSCALL_CYCLES + copy / chunks)?;
                    }
                } else {
                    let chunks = bytes.div_ceil(IO_BATCH).max(1);
                    m.compute(tid, costs::HOST_SYSCALL_CYCLES * chunks + copy);
                }
            }
            ExecMode::LibOs => {
                if kind == ThreadKind::App {
                    let p = self.libos.as_mut().expect("libos process");
                    p.shim_mut().file_transfer(m, tid, bytes, write)?;
                } else {
                    let chunks = bytes.div_ceil(IO_BATCH).max(1);
                    m.compute(tid, costs::HOST_SYSCALL_CYCLES * chunks + copy);
                }
            }
        }
        self.fault_tick();
        Ok(())
    }

    fn pf_unseal_file(&self, data: &[u8]) -> Result<Vec<u8>, WorkloadError> {
        let p = self.libos.as_ref().expect("pf requires libos");
        let mut out = Vec::with_capacity(data.len());
        let mut pos = 0usize;
        while pos < data.len() {
            if pos + 4 > data.len() {
                return Err(WorkloadError::Validation(
                    "truncated PF block header".into(),
                ));
            }
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 4;
            if pos + len > data.len() {
                return Err(WorkloadError::Validation("truncated PF block".into()));
            }
            let blob = sgx_crypto::SealedBlob::from_bytes(&data[pos..pos + len])
                .map_err(|e| WorkloadError::Validation(format!("PF block parse: {e}")))?;
            let plain = p
                .shim()
                .pf_open(&blob)
                .map_err(|e| WorkloadError::Validation(format!("PF block MAC: {e}")))?;
            out.extend_from_slice(&plain);
            pos += len;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ExecMode;

    fn env(mode: ExecMode) -> Env {
        Env::new(EnvConfig::quick_test(mode)).unwrap()
    }

    #[test]
    fn region_roundtrip_all_modes() {
        for mode in ExecMode::ALL {
            let mut e = env(mode);
            e.start_app().unwrap();
            let r = e.alloc(4096, Placement::Protected).unwrap();
            // Protected memory must be touched from the secure world in
            // Native mode; secure_call is a plain call elsewhere.
            e.secure_call(|e| {
                e.write_u64(r, 8, 0xdead_beef);
                assert_eq!(e.read_u64(r, 8), 0xdead_beef, "{mode}");
                e.write_u32(r, 100, 7);
                assert_eq!(e.read_u32(r, 100), 7);
                e.write_f64(r, 200, 2.5);
                assert_eq!(e.read_f64(r, 200), 2.5);
            })
            .unwrap();
        }
    }

    #[test]
    fn protected_region_hits_epc_only_in_sgx_modes() {
        let mut v = env(ExecMode::Vanilla);
        v.start_app().unwrap();
        let r = v.alloc(4096, Placement::Protected).unwrap();
        v.write_u64(r, 0, 1);
        assert_eq!(v.machine_mut().sgx_counters().epc_faults, 0);
        assert!(!v.region_protected(r));

        let mut n = env(ExecMode::Native);
        n.start_app().unwrap();
        let r = n.alloc(4096, Placement::Protected).unwrap();
        assert!(n.region_protected(r));
        n.secure_call(|env| env.write_u64(r, 0, 1)).unwrap();
        assert!(n.machine().sgx_counters().epc_faults > 0);
    }

    #[test]
    fn secure_call_is_ecall_only_in_native() {
        let mut n = env(ExecMode::Native);
        n.start_app().unwrap();
        n.secure_call(|_| ()).unwrap();
        assert_eq!(n.machine().sgx_counters().ecalls, 1);

        let mut l = env(ExecMode::LibOs);
        l.start_app().unwrap();
        l.reset_measurement();
        l.secure_call(|_| ()).unwrap();
        assert_eq!(
            l.machine().sgx_counters().ecalls,
            0,
            "LibOS is already inside"
        );

        let mut v = env(ExecMode::Vanilla);
        v.start_app().unwrap();
        v.secure_call(|_| ()).unwrap();
        assert_eq!(v.machine().sgx_counters().ecalls, 0);
    }

    #[test]
    fn nested_secure_call_single_transition() {
        let mut n = env(ExecMode::Native);
        n.start_app().unwrap();
        n.secure_call(|env| env.secure_call(|_| ()).unwrap())
            .unwrap();
        assert_eq!(n.machine().sgx_counters().ecalls, 1);
    }

    #[test]
    fn file_roundtrip_all_modes() {
        for mode in ExecMode::ALL {
            let mut e = env(mode);
            e.put_file("input", vec![1, 2, 3, 4]);
            e.start_app().unwrap();
            let data = e.read_file("input").unwrap();
            assert_eq!(data, vec![1, 2, 3, 4], "{mode}");
            e.write_file("output", &[9, 8, 7]).unwrap();
            assert_eq!(e.read_file("output").unwrap(), vec![9, 8, 7], "{mode}");
        }
    }

    #[test]
    fn missing_file_errors() {
        let mut e = env(ExecMode::Vanilla);
        assert!(matches!(
            e.read_file("nope"),
            Err(WorkloadError::FileNotFound(_))
        ));
    }

    #[test]
    fn pf_mode_seals_on_disk_but_roundtrips() {
        let mut e =
            Env::new(EnvConfig::quick_test(ExecMode::LibOs).with_protected_files()).unwrap();
        e.start_app().unwrap();
        e.write_file("secret", b"plaintext payload").unwrap();
        // Host view must not contain the plaintext.
        let raw = e.file_raw("secret").unwrap().to_vec();
        assert!(
            !raw.windows(9).any(|w| w == b"plaintext"),
            "PF leaked plaintext"
        );
        // App view round-trips.
        assert_eq!(e.read_file("secret").unwrap(), b"plaintext payload");
    }

    #[test]
    fn libos_file_io_goes_through_shim_ocalls() {
        let mut e = env(ExecMode::LibOs);
        e.put_file("big", vec![0u8; 1 << 20]);
        e.start_app().unwrap();
        e.reset_measurement();
        let r = e.alloc(1 << 20, Placement::Protected).unwrap();
        e.read_file_into("big", r, 0).unwrap();
        assert!(
            e.machine_mut().sgx_counters().ocalls >= 4,
            "batched file OCALLs expected"
        );
    }

    #[test]
    fn native_file_io_uses_ocalls_only_inside_enclave() {
        let mut e = env(ExecMode::Native);
        e.put_file("f", vec![0u8; 128 << 10]);
        e.start_app().unwrap();
        e.reset_measurement();
        let r = e.alloc(128 << 10, Placement::Untrusted).unwrap();
        e.read_file_into("f", r, 0).unwrap(); // outside enclave
        assert_eq!(e.machine_mut().sgx_counters().ocalls, 0);
        e.secure_call(|env| env.read_file_into("f", r, 0).map(|_| ()))
            .unwrap()
            .unwrap();
        assert!(e.machine().sgx_counters().ocalls >= 2);
    }

    #[test]
    fn parallel_forks_and_joins_clocks() {
        let mut e = env(ExecMode::Vanilla);
        e.start_app().unwrap();
        let a = e.spawn_app_thread().unwrap();
        let b = e.spawn_app_thread().unwrap();
        e.compute(1_000); // main is at 1000 at fork
        e.parallel(&[a, b], |env, i| {
            env.compute((i as u64 + 1) * 500);
        });
        assert!(e.now_of(a) >= 1_500);
        assert!(e.now_of(b) >= 2_000);
        assert_eq!(e.now(), e.now_of(b), "main joined to slowest worker");
    }

    #[test]
    fn libos_app_threads_enter_enclave() {
        let mut e = env(ExecMode::LibOs);
        e.start_app().unwrap();
        e.reset_measurement();
        let t = e.spawn_app_thread().unwrap();
        assert_eq!(e.machine().sgx_counters().ecalls, 1);
        // App thread accesses protected memory without further ECALLs.
        let r = e.alloc(4096, Placement::Protected).unwrap();
        e.with_thread(t, |env| env.write_u64(r, 0, 5));
        assert_eq!(e.machine().sgx_counters().ecalls, 1);
    }

    #[test]
    fn driver_threads_stay_untrusted() {
        let mut e = env(ExecMode::LibOs);
        e.start_app().unwrap();
        e.reset_measurement();
        let d = e.spawn_driver_thread();
        e.with_thread(d, |env| env.host_syscall().unwrap());
        assert_eq!(e.machine().sgx_counters().ecalls, 0);
        assert_eq!(e.machine().sgx_counters().ocalls, 0);
    }

    #[test]
    fn touch_drives_counters_without_data() {
        let mut e = env(ExecMode::Vanilla);
        let r = e.alloc(1 << 20, Placement::Untrusted).unwrap();
        let before = e.machine().mem().counters().mem_reads;
        e.touch(r, 0, 1 << 20, false);
        let delta = e.machine_mut().mem().counters().mem_reads - before;
        assert_eq!(delta, (1 << 20) / 64, "one read per line");
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut e = env(ExecMode::Vanilla);
        let r = e.alloc(8, Placement::Untrusted).unwrap();
        let _ = e.read_u64(r, 4);
    }

    #[test]
    #[should_panic(expected = "region access out of bounds")]
    fn out_of_bounds_touch_panics() {
        let mut e = env(ExecMode::Vanilla);
        let r = e.alloc(4096, Placement::Untrusted).unwrap();
        e.touch(r, 4000, 97, false);
    }

    #[test]
    #[should_panic(expected = "region access out of bounds")]
    fn overflowing_touch_range_panics() {
        let mut e = env(ExecMode::Vanilla);
        let r = e.alloc(4096, Placement::Untrusted).unwrap();
        e.touch(r, 8, u64::MAX, false);
    }

    #[test]
    fn watchdog_panics_with_typed_payload() {
        let mut e = env(ExecMode::Vanilla);
        e.arm_cycle_budget(10_000);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            e.compute(5_000);
        }))
        .expect_err("the watchdog must fire");
        let exceeded = payload
            .downcast_ref::<CycleBudgetExceeded>()
            .expect("typed watchdog payload");
        assert_eq!(exceeded.budget_cycles, 10_000);
        assert!(exceeded.elapsed_cycles > 10_000);
    }

    #[test]
    fn injected_aex_storm_reaches_the_counters() {
        let mut e = env(ExecMode::Native);
        e.start_app().unwrap();
        let hook = faults::FaultPlan::parse("seed=1,aex=2@20000")
            .unwrap()
            .compile(0);
        e.set_fault_hook(hook);
        let r = e.alloc(64 << 10, Placement::Protected).unwrap();
        e.secure_call(|env| {
            for _ in 0..50 {
                env.touch(r, 0, 64 << 10, false);
                env.compute(10_000);
            }
        })
        .unwrap();
        let c = e.machine().sgx_counters();
        assert!(c.injected_aex > 0, "storm must fire inside the enclave");
        assert_eq!(c.aex_exits, c.epc_faults + c.injected_aex);
        assert!(e.machine().check_invariants().is_ok());
    }

    #[test]
    fn syscall_faults_are_transient_and_still_charged() {
        let mut e = env(ExecMode::Vanilla);
        e.set_fault_hook(
            faults::FaultPlan::parse("seed=3,syscall=1000")
                .unwrap()
                .compile(0),
        );
        let before = e.now();
        let err = e.host_syscall().expect_err("permille 1000 always fails");
        assert_eq!(err.class(), crate::workload::ErrorClass::Transient, "{err}");
        assert!(e.now() > before, "the failed syscall still cost cycles");
    }

    #[test]
    fn bitflip_surfaces_as_transient_corruption() {
        let mut e = env(ExecMode::Vanilla);
        e.put_file("data", vec![7u8; 4096]);
        e.set_fault_hook(
            faults::FaultPlan::parse("seed=4,bitflip=1000")
                .unwrap()
                .compile(0),
        );
        let err = e.read_file("data").expect_err("always corrupted");
        assert!(matches!(
            err,
            WorkloadError::Transient(TransientError::IoCorruption { .. })
        ));
        // Without the hook the very same file reads back clean: the
        // corruption lives in the fault plane, not the stored bytes.
        let mut clean = env(ExecMode::Vanilla);
        clean.put_file("data", vec![7u8; 4096]);
        assert_eq!(clean.read_file("data").unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn bitflip_in_read_file_into_leaves_the_stored_file_intact() {
        let mut e = env(ExecMode::Vanilla);
        e.start_app().unwrap();
        let r = e.alloc(4096, Placement::Untrusted).unwrap();
        e.put_file("data", vec![7u8; 4096]);
        e.set_fault_hook(
            faults::FaultPlan::parse("seed=4,bitflip=1000")
                .unwrap()
                .compile(0),
        );
        let err = e
            .read_file_into("data", r, 0)
            .expect_err("always corrupted");
        assert!(matches!(
            err,
            WorkloadError::Transient(TransientError::IoCorruption { .. })
        ));
        // The read borrows the stored bytes; the flip must not reach them.
        assert_eq!(e.file_raw("data").unwrap(), &[7u8; 4096][..]);
    }
}

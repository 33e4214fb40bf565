//! Co-tenant host: N enclaves sharing one EPC, EPCM and eviction clock.
//!
//! SGXGauge measures every workload in a single enclave, but production
//! SGX hosts pack many tenants onto one ~92 MB EPC. This module models
//! that regime without duplicating any machine state: a [`Host`] owns a
//! single [`crate::SgxMachine`] (one shared [`crate::Epc`], one
//! [`crate::Epcm`], one clock hand) and schedules the queued op streams
//! of N tenant enclaves with a deterministic cycle-fair interleaver.
//!
//! # Scheduling
//!
//! Tenants are serviced round-robin in registration order. On its turn a
//! tenant runs queued ops until its thread clock has advanced by at least
//! the host's *wave width* ([`HostBuilder::wave_cycles`]) — a fixed
//! configuration value, so an interleaving is a pure function of the
//! tenant specs, the op streams and the config, independent of wall
//! clock, thread count, or a sweep harness's `--jobs` setting.
//!
//! # Attribution
//!
//! Two complementary ledgers:
//!
//! * **charged** — the [`SgxCounters`] delta around each wave: what the
//!   tenant's own execution charged (its faults, its transitions, its
//!   evictions-forced-by-its-faults).
//! * **EPC stats** — [`EpcEnclaveStats`], maintained by the EPC itself on
//!   the owner of each frame: whose pages were victimized, regardless of
//!   which tenant's fault forced the sweep. The difference between the
//!   two views is exactly the noisy-neighbour signal.
//!
//! # Equivalence
//!
//! A one-tenant host is cycle- and counter-identical to driving a legacy
//! [`SgxMachine`] directly: the builder makes the same machine calls in
//! the same order (so the jitter stream matches), and wave boundaries
//! only read counters and open/close trace phases (no-ops without a
//! sink). A property test in this module pins that guarantee.

use std::collections::VecDeque;

use crate::enclave::EnclaveId;
use crate::epc::EpcEnclaveStats;
use crate::machine::{CounterField, SgxConfig, SgxCounters, SgxError, SgxMachine};
use mem_sim::{AccessKind, ThreadId};

/// Default wave width in cycles: a few transition costs' worth of work
/// per turn, small enough to interleave contending working sets tightly.
pub const DEFAULT_WAVE_CYCLES: u64 = 50_000;

/// Dense index of a tenant on a [`Host`], in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub usize);

/// Declarative description of one tenant enclave.
///
/// The fields are explicit (rather than derived from a working-set hint)
/// so an equivalence harness can replicate the exact build sequence on a
/// legacy machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant name: the trace phase label and report key.
    pub name: String,
    /// ELRANGE size in bytes.
    pub enclave_bytes: u64,
    /// Measured content bytes (streamed at build, ELDU'd on first touch).
    pub content_bytes: u64,
    /// Heap bytes allocated at build time — the tenant's working span
    /// that [`TenantOp::Access`] offsets index into.
    pub heap_bytes: u64,
}

impl TenantSpec {
    /// A tenant sized for a `heap_bytes` working span: the ELRANGE holds
    /// the heap plus a 16 MiB runtime image, of which 1 MiB is measured
    /// content (the shape the multi-enclave ablation bench uses).
    pub fn sized(name: &str, heap_bytes: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            enclave_bytes: heap_bytes + (16 << 20),
            content_bytes: 1 << 20,
            heap_bytes,
        }
    }
}

/// One schedulable unit of tenant work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantOp {
    /// Touch `len` bytes at `offset` into the tenant heap. Out-of-span
    /// values are wrapped/clamped into the heap (see [`TenantOp::apply`]).
    Access {
        /// Byte offset into the tenant heap.
        offset: u64,
        /// Bytes touched (clamped to the heap span remaining).
        len: u64,
        /// Write (true) or read (false).
        write: bool,
    },
    /// Pure in-enclave compute for `cycles` cycles.
    Compute {
        /// Compute cycles charged to the tenant thread.
        cycles: u64,
    },
    /// An OCALL whose untrusted work takes `work` cycles.
    Ocall {
        /// Untrusted work cycles.
        work: u64,
    },
}

impl TenantOp {
    /// Applies the op to `machine` on thread `tid`, resolving heap
    /// offsets against `heap_base`/`heap_bytes`. Shared by the host
    /// scheduler and by equivalence harnesses replaying the same ops on
    /// a legacy machine, so both sides resolve identically: offsets wrap
    /// modulo the span and lengths clamp to the span remaining.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`] from the OCALL path (the thread must be
    /// inside an enclave).
    pub fn apply(
        self,
        machine: &mut SgxMachine,
        tid: ThreadId,
        heap_base: u64,
        heap_bytes: u64,
    ) -> Result<(), SgxError> {
        match self {
            TenantOp::Access { offset, len, write } => {
                if heap_bytes == 0 {
                    return Ok(());
                }
                let off = offset % heap_bytes;
                let len = len.clamp(1, heap_bytes - off);
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                machine.access(tid, heap_base + off, len, kind);
            }
            TenantOp::Compute { cycles } => machine.compute(tid, cycles),
            TenantOp::Ocall { work } => machine.ocall(tid, work)?,
        }
        Ok(())
    }
}

/// Error from host scheduling: an SGX-level failure or a trace-plane
/// span violation surfaced while closing a wave phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// An SGX mechanism failed (e.g. an OCALL outside an enclave).
    Sgx(SgxError),
    /// The trace sink rejected a phase span.
    Trace(trace::TraceError),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Sgx(e) => write!(f, "host: {e}"),
            HostError::Trace(e) => write!(f, "host trace: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<SgxError> for HostError {
    fn from(e: SgxError) -> Self {
        HostError::Sgx(e)
    }
}

impl From<trace::TraceError> for HostError {
    fn from(e: trace::TraceError) -> Self {
        HostError::Trace(e)
    }
}

/// Builder for a [`Host`], and the one way to construct an
/// [`SgxMachine`] ([`HostBuilder::build_machine`]).
///
/// ```
/// use sgx_sim::host::{Host, TenantSpec};
/// use sgx_sim::SgxConfig;
///
/// let host = Host::builder()
///     .sgx(SgxConfig::with_tiny_epc(1024, 16))
///     .tenant(TenantSpec::sized("victim", 1 << 20))
///     .tenant(TenantSpec::sized("antagonist", 8 << 20))
///     .build()
///     .expect("two small tenants fit");
/// assert_eq!(host.tenant_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct HostBuilder {
    cfg: SgxConfig,
    wave_cycles: u64,
    tenants: Vec<TenantSpec>,
}

impl Default for HostBuilder {
    fn default() -> Self {
        HostBuilder {
            cfg: SgxConfig::default(),
            wave_cycles: DEFAULT_WAVE_CYCLES,
            tenants: Vec::new(),
        }
    }
}

impl HostBuilder {
    /// Sets the platform configuration (default: [`SgxConfig::default`]).
    pub fn sgx(mut self, cfg: SgxConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the scheduler wave width in cycles (default
    /// [`DEFAULT_WAVE_CYCLES`]); values below 1 are clamped to 1 so every
    /// wave makes progress.
    pub fn wave_cycles(mut self, cycles: u64) -> Self {
        self.wave_cycles = cycles.max(1);
        self
    }

    /// Registers a tenant. Tenants are built, scheduled and reported in
    /// registration order.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Builds the host: one shared machine, then per tenant — in
    /// registration order — a hardware thread, the enclave build
    /// (measurement pass included), an EENTER, and the heap allocation.
    /// This is exactly the legacy single-enclave call sequence repeated
    /// per tenant, so a one-tenant host draws the same jitter stream as
    /// a hand-driven [`SgxMachine`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`SgxError`] from enclave construction
    /// (content larger than the ELRANGE, heap exhaustion, TCS limits).
    pub fn build(self) -> Result<Host, SgxError> {
        let mut machine = SgxMachine::from_config(self.cfg);
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for spec in self.tenants {
            let tid = machine.add_thread();
            let enclave = machine.create_enclave(spec.enclave_bytes, spec.content_bytes)?;
            machine.ecall_enter(tid, enclave)?;
            let heap_base = machine.alloc_enclave_heap(enclave, spec.heap_bytes)?;
            tenants.push(Tenant {
                spec,
                tid,
                enclave,
                heap_base,
                cycle_base: 0,
                queue: VecDeque::new(),
                charged: SgxCounters::default(),
                waves: 0,
            });
        }
        // Build costs (measurement streams, EENTERs) were charged during
        // construction; tenant report clocks start now.
        for t in &mut tenants {
            t.cycle_base = machine.mem().cycles_of(t.tid);
        }
        Ok(Host {
            machine,
            wave_cycles: self.wave_cycles,
            tenants,
        })
    }

    /// The zero-tenant path: builds the bare shared machine, for callers
    /// that drive enclaves by hand.
    ///
    /// # Panics
    ///
    /// Panics if any tenant was registered: this path would drop it.
    pub fn build_machine(self) -> SgxMachine {
        // Checked in every build: a release build would otherwise run
        // without the tenants the caller registered.
        assert!(
            self.tenants.is_empty(),
            "build_machine() ignores registered tenants; use build()"
        );
        SgxMachine::from_config(self.cfg)
    }
}

/// Per-tenant scheduling state.
#[derive(Debug, Clone)]
struct Tenant {
    spec: TenantSpec,
    tid: ThreadId,
    enclave: EnclaveId,
    heap_base: u64,
    /// Thread cycles at the end of build; report clocks are relative.
    cycle_base: u64,
    queue: VecDeque<TenantOp>,
    /// Accumulated [`SgxCounters`] deltas over this tenant's waves.
    charged: SgxCounters,
    waves: u64,
}

/// Attribution snapshot for one tenant (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name from its [`TenantSpec`].
    pub name: String,
    /// The tenant's dense index.
    pub tenant: TenantId,
    /// Cycles consumed by the tenant's thread since build.
    pub cycles: u64,
    /// Scheduler waves granted.
    pub waves: u64,
    /// Counter deltas charged by the tenant's own execution.
    pub charged: SgxCounters,
    /// The EPC's owner-attributed view (residency, allocs, load-backs,
    /// clock-hand victimizations) for the tenant's enclave.
    pub epc: EpcEnclaveStats,
}

/// A co-tenant SGX host: N tenant enclaves over one shared machine,
/// scheduled by a deterministic cycle-fair round-robin interleaver.
///
/// Build with [`Host::builder`], queue work with [`Host::push_ops`], run
/// the interleaver with [`Host::run`], read back [`Host::tenant_report`].
#[derive(Debug)]
pub struct Host {
    machine: SgxMachine,
    wave_cycles: u64,
    tenants: Vec<Tenant>,
}

impl Host {
    /// Starts a [`HostBuilder`] with default config and wave width.
    pub fn builder() -> HostBuilder {
        HostBuilder::default()
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The configured scheduler wave width in cycles.
    pub fn wave_cycles(&self) -> u64 {
        self.wave_cycles
    }

    /// The shared machine (counters, EPC, trace plane).
    pub fn machine(&self) -> &SgxMachine {
        &self.machine
    }

    /// Mutable shared machine — e.g. to attach a trace sink before
    /// running, or to inject faults between waves.
    pub fn machine_mut(&mut self) -> &mut SgxMachine {
        &mut self.machine
    }

    /// The hardware thread driving tenant `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn tenant_thread(&self, id: TenantId) -> ThreadId {
        self.tenants[id.0].tid
    }

    /// Queues ops on tenant `id`'s stream, behind any already queued.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn push_ops<I: IntoIterator<Item = TenantOp>>(&mut self, id: TenantId, ops: I) {
        self.tenants[id.0].queue.extend(ops);
    }

    /// Runs the interleaver until every tenant's queue drains: tenants
    /// take turns in registration order, each turn executing ops until
    /// the tenant's thread clock advances by the wave width (at least
    /// one op per turn, so progress is guaranteed).
    ///
    /// Each wave is wrapped in a trace phase named after the tenant, so
    /// with a sink attached the JSONL timeline carries per-tenant spans;
    /// without one the phase hooks are no-ops.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HostError`] from an op or a phase close;
    /// unexecuted ops stay queued.
    pub fn run(&mut self) -> Result<(), HostError> {
        loop {
            let mut progressed = false;
            for i in 0..self.tenants.len() {
                if self.tenants[i].queue.is_empty() {
                    continue;
                }
                progressed = true;
                self.run_wave(i)?;
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Runs one wave of tenant `i`: ops until the wave width elapses on
    /// the tenant's thread clock or its queue drains, with the counter
    /// delta folded into the tenant's `charged` ledger.
    fn run_wave(&mut self, i: usize) -> Result<(), HostError> {
        let tid = self.tenants[i].tid;
        let heap_base = self.tenants[i].heap_base;
        let heap_bytes = self.tenants[i].spec.heap_bytes;
        let start = self.machine.mem().cycles_of(tid);
        let before = *self.machine.sgx_counters();
        self.machine
            .trace_phase_begin(tid, &self.tenants[i].spec.name);
        while let Some(op) = self.tenants[i].queue.pop_front() {
            op.apply(&mut self.machine, tid, heap_base, heap_bytes)?;
            if self.machine.mem().cycles_of(tid).saturating_sub(start) >= self.wave_cycles {
                break;
            }
        }
        self.machine
            .trace_phase_end(tid, &self.tenants[i].spec.name)?;
        let after = *self.machine.sgx_counters();
        let t = &mut self.tenants[i];
        for f in CounterField::ALL {
            let delta = after.get(f).saturating_sub(before.get(f));
            t.charged.set(f, t.charged.get(f) + delta);
        }
        t.waves += 1;
        Ok(())
    }

    /// Attribution snapshot for tenant `id` (see module docs for the
    /// charged-vs-EPC distinction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn tenant_report(&self, id: TenantId) -> TenantReport {
        let t = &self.tenants[id.0];
        TenantReport {
            name: t.spec.name.clone(),
            tenant: id,
            cycles: self
                .machine
                .mem()
                .cycles_of(t.tid)
                .saturating_sub(t.cycle_base),
            waves: t.waves,
            charged: t.charged,
            epc: self.machine.epc().enclave_stats(t.enclave),
        }
    }

    /// Reports for every tenant, in registration order.
    pub fn tenant_reports(&self) -> Vec<TenantReport> {
        (0..self.tenants.len())
            .map(|i| self.tenant_report(TenantId(i)))
            .collect()
    }

    /// Tears down tenant `id`'s enclave mid-run (EREMOVE): its queued
    /// ops are dropped and the shared EPC frees its frames with the
    /// clock-hand position preserved for the survivors. The tenant's
    /// report remains readable (cumulative history survives teardown).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn evict_tenant(&mut self, id: TenantId) {
        let enclave = self.tenants[id.0].enclave;
        self.tenants[id.0].queue.clear();
        self.machine.destroy_enclave(enclave);
    }
}

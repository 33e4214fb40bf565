//! The structured event vocabulary of the trace plane.

/// Index of an interned phase name inside a [`crate::TraceSink`].
///
/// Phase names are interned so that [`TraceRecord`]s stay `Copy`; the
/// sink that minted an id resolves it when it renders. Only a sink mints
/// ids, when it opens a span, and [`crate::TraceSink::emit`] refuses
/// phase events, so a phase event cannot be forged from a raw index or
/// carried into another sink:
///
/// ```compile_fail,E0603
/// use trace::{CounterSnapshot, PhaseId, TraceEvent};
///
/// let forged = TraceEvent::PhaseBegin {
///     id: PhaseId(0),
///     snap: CounterSnapshot::default(),
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PhaseId(pub(crate) u32);

/// Which fault-plane injection fired (mirrors `faults::InjectedFault`
/// without depending on that crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedKind {
    /// An injected AEX storm burst.
    Aex,
    /// An EPC pressure window opened (frames reserved).
    EpcSpike,
    /// The active EPC pressure window was released.
    EpcRelease,
}

impl InjectedKind {
    /// Stable lowercase name used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            InjectedKind::Aex => "aex",
            InjectedKind::EpcSpike => "epc_spike",
            InjectedKind::EpcRelease => "epc_release",
        }
    }
}

/// A flat snapshot of every counter the timeline analyses read.
///
/// Assembled by the SGX layer (it alone sees the memory counters, the SGX
/// event counters and the EPC occupancy together); this crate only stores
/// and subtracts them. All fields are cumulative totals, so two snapshots
/// subtract into interval deltas exactly like `perf` readouts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// EPC frames currently resident (occupancy, not cumulative).
    pub resident_pages: u64,
    /// Enclave page faults taken (`sgx_do_fault` analogue).
    pub epc_faults: u64,
    /// EPC frames allocated (demand-zero EAUG/EADD analogue).
    pub epc_allocs: u64,
    /// Pages evicted in EWB batches.
    pub epc_evictions: u64,
    /// Pages loaded back with ELDU.
    pub epc_loadbacks: u64,
    /// ECALLs performed.
    pub ecalls: u64,
    /// OCALLs performed (classic and switchless).
    pub ocalls: u64,
    /// Asynchronous enclave exits.
    pub aex_exits: u64,
    /// Data-TLB misses that required a page walk.
    pub dtlb_misses: u64,
    /// Last-level-cache misses.
    pub llc_misses: u64,
    /// OS minor page faults.
    pub page_faults: u64,
    /// Cycles of pure application computation.
    pub compute_cycles: u64,
    /// Memory-hierarchy stall cycles beyond an L1 hit.
    pub stall_cycles: u64,
    /// Hardware page-walk cycles (including EPCM checks).
    pub walk_cycles: u64,
    /// Extra stall cycles attributable to the Memory Encryption Engine
    /// (the encrypted-DRAM premium over plain DRAM; a subset of
    /// `stall_cycles`).
    pub mee_cycles: u64,
    /// Cycles spent in ECALL/OCALL/AEX transitions.
    pub transition_cycles: u64,
    /// Cycles spent handling EPC faults (paging: EWB/ELDU/alloc).
    pub fault_cycles: u64,
}

impl CounterSnapshot {
    /// Per-field saturating delta `self - earlier` (occupancy fields are
    /// carried from `self`, not subtracted).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            resident_pages: self.resident_pages,
            epc_faults: self.epc_faults.saturating_sub(earlier.epc_faults),
            epc_allocs: self.epc_allocs.saturating_sub(earlier.epc_allocs),
            epc_evictions: self.epc_evictions.saturating_sub(earlier.epc_evictions),
            epc_loadbacks: self.epc_loadbacks.saturating_sub(earlier.epc_loadbacks),
            ecalls: self.ecalls.saturating_sub(earlier.ecalls),
            ocalls: self.ocalls.saturating_sub(earlier.ocalls),
            aex_exits: self.aex_exits.saturating_sub(earlier.aex_exits),
            dtlb_misses: self.dtlb_misses.saturating_sub(earlier.dtlb_misses),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
            compute_cycles: self.compute_cycles.saturating_sub(earlier.compute_cycles),
            stall_cycles: self.stall_cycles.saturating_sub(earlier.stall_cycles),
            walk_cycles: self.walk_cycles.saturating_sub(earlier.walk_cycles),
            mee_cycles: self.mee_cycles.saturating_sub(earlier.mee_cycles),
            transition_cycles: self
                .transition_cycles
                .saturating_sub(earlier.transition_cycles),
            fault_cycles: self.fault_cycles.saturating_sub(earlier.fault_cycles),
        }
    }

    /// `(name, value)` pairs in declaration order, for generic emission.
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("resident_pages", self.resident_pages),
            ("epc_faults", self.epc_faults),
            ("epc_allocs", self.epc_allocs),
            ("epc_evictions", self.epc_evictions),
            ("epc_loadbacks", self.epc_loadbacks),
            ("ecalls", self.ecalls),
            ("ocalls", self.ocalls),
            ("aex_exits", self.aex_exits),
            ("dtlb_misses", self.dtlb_misses),
            ("llc_misses", self.llc_misses),
            ("page_faults", self.page_faults),
            ("compute_cycles", self.compute_cycles),
            ("stall_cycles", self.stall_cycles),
            ("walk_cycles", self.walk_cycles),
            ("mee_cycles", self.mee_cycles),
            ("transition_cycles", self.transition_cycles),
            ("fault_cycles", self.fault_cycles),
        ]
    }
}

/// One structured simulator event.
///
/// Everything here is `Copy`: phase names are interned ([`PhaseId`]) and
/// counter state travels as a flat [`CounterSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread entered an enclave through an ECALL.
    EcallEnter,
    /// A thread returned from an enclave (EEXIT).
    EcallExit,
    /// An OCALL round trip.
    Ocall {
        /// Served by a switchless proxy worker (no EEXIT/EENTER)?
        switchless: bool,
    },
    /// An asynchronous enclave exit + ERESUME round trip.
    Aex {
        /// Injected by the fault plane rather than organic?
        injected: bool,
    },
    /// An EPC *paging* fault: the faulting access triggered an EWB batch
    /// and/or an ELDU load-back. Demand-zero allocations below the EPC
    /// watermark are not paging activity and are not recorded (they show
    /// up in sampled `epc_allocs` instead) — this is what makes the
    /// paper's boundary cliff visible as "fault events appear only once
    /// residency crosses the watermark".
    EpcFault {
        /// The page came back via ELDU (previously evicted) rather than
        /// being freshly allocated.
        loadback: bool,
        /// Pages written back in the EWB batch serving this fault.
        evicted: u32,
        /// EPC frames resident at the instant the fault was taken.
        resident_pages: u64,
    },
    /// A LibOS shim syscall dispatch. Every shim syscall reaches the
    /// host through at least one OCALL.
    ShimSyscall,
    /// The fault plane applied an injection.
    FaultInjected {
        /// Which injection fired.
        kind: InjectedKind,
    },
    /// A workload-declared phase span opened.
    PhaseBegin {
        /// Interned phase name.
        id: PhaseId,
        /// Counter state at the boundary.
        snap: CounterSnapshot,
    },
    /// A workload-declared phase span closed.
    PhaseEnd {
        /// Interned phase name.
        id: PhaseId,
        /// Counter state at the boundary.
        snap: CounterSnapshot,
    },
    /// A periodic counter sample (fixed simulated-cycle intervals).
    Sample {
        /// Counter state at the sample instant.
        snap: CounterSnapshot,
    },
}

/// One entry of the ring buffer: an event stamped with the emitting
/// thread's simulated clock and a global sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in emission order (monotonic, survives ring overwrite so
    /// drops are visible as gaps).
    pub seq: u64,
    /// Simulated cycle clock of the emitting thread.
    pub cycles: u64,
    /// Index of the emitting simulated thread.
    pub thread: u32,
    /// The event.
    pub event: TraceEvent,
}

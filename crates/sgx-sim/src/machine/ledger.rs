//! The live SGX event counters of an [`SgxMachine`](super::SgxMachine).
//!
//! The fields are private to this module, so the named methods below
//! are the only writers of the counters a machine reports: an SGX event
//! that does not go through one of them does not compile. Transition
//! costs are charged from [`costs`] here; fault and wait cycles, which
//! the caller computes, arrive as arguments.

use super::SgxCounters;
use crate::costs;

/// The SGX counter totals of one machine; read them with
/// [`SgxLedger::get`].
#[derive(Debug, Clone, Default)]
pub(super) struct SgxLedger {
    counters: SgxCounters,
}

impl SgxLedger {
    /// The totals so far.
    #[inline]
    pub(super) fn get(&self) -> &SgxCounters {
        &self.counters
    }

    /// One page measured into a new enclave, which allocated a frame
    /// and evicted `evicted` pages to make room.
    pub(super) fn record_build_page(&mut self, evicted: u64) {
        let c = &mut self.counters;
        c.pages_measured += 1;
        c.epc_allocs += 1;
        c.epc_evictions += evicted;
    }

    /// One ECALL entry (EENTER).
    pub(super) fn record_eenter(&mut self) {
        self.counters.ecalls += 1;
        self.counters.transition_cycles += costs::EENTER_CYCLES;
    }

    /// One ECALL exit (EEXIT).
    pub(super) fn record_eexit(&mut self) {
        self.counters.transition_cycles += costs::EEXIT_CYCLES;
    }

    /// One classic OCALL: EEXIT out and EENTER back.
    pub(super) fn record_ocall(&mut self) {
        self.counters.ocalls += 1;
        self.counters.transition_cycles += costs::EEXIT_CYCLES + costs::EENTER_CYCLES;
    }

    /// One switchless OCALL that waited `wait_cycles` for a proxy.
    pub(super) fn record_switchless_ocall(&mut self, wait_cycles: u64) {
        self.counters.switchless_ocalls += 1;
        self.counters.transition_cycles += wait_cycles;
    }

    /// One EPC fault and the AEX that services it.
    pub(super) fn record_epc_fault(&mut self) {
        self.counters.epc_faults += 1;
        self.counters.aex_exits += 1;
    }

    /// `pages` EWB write-backs.
    pub(super) fn record_evictions(&mut self, pages: u64) {
        self.counters.epc_evictions += pages;
    }

    /// One frame allocated on demand.
    pub(super) fn record_alloc(&mut self) {
        self.counters.epc_allocs += 1;
    }

    /// One page loaded back (ELDU).
    pub(super) fn record_loadback(&mut self) {
        self.counters.epc_loadbacks += 1;
    }

    /// One AEX injected by the fault plane.
    pub(super) fn record_injected_aex(&mut self) {
        self.counters.aex_exits += 1;
        self.counters.injected_aex += 1;
    }

    /// `cycles` spent servicing faults, injected exits or reclaim.
    pub(super) fn charge_fault_cycles(&mut self, cycles: u64) {
        self.counters.fault_cycles += cycles;
    }

    /// Zeroes every counter.
    pub(super) fn reset(&mut self) {
        self.counters = SgxCounters::default();
    }
}

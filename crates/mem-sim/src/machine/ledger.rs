//! The live memory counters of a [`Machine`](super::Machine).
//!
//! The fields are private to this module, so the named methods below
//! are the only writers of the counters a machine reports: an
//! accounting path that does not go through one of them does not
//! compile. Each method is a handful of adds and inlines into its
//! caller.

use crate::counters::Counters;

/// The counter totals of one machine; read them with [`Ledger::get`].
#[derive(Debug, Clone, Default)]
pub(super) struct Ledger {
    counters: Counters,
}

impl Ledger {
    /// The totals so far.
    #[inline]
    pub(super) fn get(&self) -> &Counters {
        &self.counters
    }

    /// Flushes one `access_stream` batch, accumulated in registers.
    #[inline]
    pub(super) fn record_batch(&mut self, batch: &Counters) {
        let c = &mut self.counters;
        c.stlb_hits += batch.stlb_hits;
        c.dtlb_misses += batch.dtlb_misses;
        c.page_faults += batch.page_faults;
        c.walk_cycles += batch.walk_cycles;
        c.mem_reads += batch.mem_reads;
        c.mem_writes += batch.mem_writes;
        c.llc_accesses += batch.llc_accesses;
        c.llc_misses += batch.llc_misses;
        c.mee_cycles += batch.mee_cycles;
        c.stall_cycles += batch.stall_cycles;
    }

    /// Counts `reads` loads and `writes` stores that hit the L1.
    #[inline]
    pub(super) fn record_l1_hits(&mut self, reads: u64, writes: u64) {
        self.counters.mem_reads += reads;
        self.counters.mem_writes += writes;
    }

    /// Counts `cycles` of pure computation.
    #[inline]
    pub(super) fn charge_compute(&mut self, cycles: u64) {
        self.counters.compute_cycles += cycles;
    }

    /// Counts one TLB flush.
    #[inline]
    pub(super) fn record_tlb_flush(&mut self) {
        self.counters.tlb_flushes += 1;
    }

    /// Zeroes every counter.
    pub(super) fn reset(&mut self) {
        self.counters = Counters::new();
    }
}

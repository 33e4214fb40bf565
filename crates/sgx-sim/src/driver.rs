//! Instrumented-driver statistics (paper §5.1.1 and Appendix A).
//!
//! The paper instruments the Intel SGX kernel driver — which runs outside
//! the enclave and is therefore traceable — to time `sgx_alloc_page`,
//! `sgx_ewb`, `sgx_eldu` and `sgx_do_fault`. [`DriverStats`] plays that
//! role here: the machine records a latency sample every time it executes
//! one of those operations, and the Fig 7 bench reads back the means.

use std::fmt;

/// The four instrumented driver operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverOp {
    /// `sgx_alloc_page`: hand a free EPC frame to an enclave.
    AllocPage,
    /// `sgx_ewb`: encrypt + MAC + write back one EPC page.
    Ewb,
    /// `sgx_eldu`: decrypt + verify + load back one EPC page.
    Eldu,
    /// `sgx_do_fault`: the driver's EPC page-fault handler.
    DoFault,
}

impl DriverOp {
    /// All operations, in display order.
    pub const ALL: [DriverOp; 4] = [
        DriverOp::AllocPage,
        DriverOp::Ewb,
        DriverOp::Eldu,
        DriverOp::DoFault,
    ];

    /// The driver-source function name, as the paper reports it.
    pub fn function_name(&self) -> &'static str {
        match self {
            DriverOp::AllocPage => "sgx_alloc_page()",
            DriverOp::Ewb => "sgx_ewb()",
            DriverOp::Eldu => "sgx_eldu()",
            DriverOp::DoFault => "sgx_do_fault()",
        }
    }
}

impl fmt::Display for DriverOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.function_name())
    }
}

/// Accumulated latency statistics for one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Number of recorded executions.
    pub count: u64,
    /// Sum of latencies in cycles.
    pub total_cycles: u64,
    /// Smallest observed latency.
    pub min_cycles: u64,
    /// Largest observed latency.
    pub max_cycles: u64,
}

impl OpStats {
    /// Mean latency in cycles (zero when no samples).
    pub fn mean_cycles(&self) -> u64 {
        self.total_cycles.checked_div(self.count).unwrap_or(0)
    }

    /// Mean latency in microseconds at the given core frequency.
    #[expect(
        clippy::cast_precision_loss,
        reason = "a display-only latency; a mean below 2^52 cycles converts exactly"
    )]
    pub fn mean_micros(&self, ghz: f64) -> f64 {
        self.mean_cycles() as f64 / (ghz * 1000.0)
    }
}

/// Latency recorder for the instrumented driver functions.
///
/// ```
/// use sgx_sim::driver::{DriverStats, DriverOp};
/// let mut d = DriverStats::new();
/// d.record(DriverOp::Ewb, 12_000);
/// d.record(DriverOp::Ewb, 12_400);
/// assert_eq!(d.stats(DriverOp::Ewb).mean_cycles(), 12_200);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriverStats {
    alloc: OpStats,
    ewb: OpStats,
    eldu: OpStats,
    fault: OpStats,
}

impl DriverStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, op: DriverOp) -> &mut OpStats {
        match op {
            DriverOp::AllocPage => &mut self.alloc,
            DriverOp::Ewb => &mut self.ewb,
            DriverOp::Eldu => &mut self.eldu,
            DriverOp::DoFault => &mut self.fault,
        }
    }

    /// Records one execution of `op` taking `cycles`.
    pub fn record(&mut self, op: DriverOp, cycles: u64) {
        let s = self.slot(op);
        if s.count == 0 {
            s.min_cycles = cycles;
            s.max_cycles = cycles;
        } else {
            s.min_cycles = s.min_cycles.min(cycles);
            s.max_cycles = s.max_cycles.max(cycles);
        }
        s.count += 1;
        s.total_cycles += cycles;
    }

    /// Statistics for `op`.
    pub fn stats(&self, op: DriverOp) -> OpStats {
        match op {
            DriverOp::AllocPage => self.alloc,
            DriverOp::Ewb => self.ewb,
            DriverOp::Eldu => self.eldu,
            DriverOp::DoFault => self.fault,
        }
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &DriverStats) {
        for op in DriverOp::ALL {
            let o = other.stats(op);
            if o.count == 0 {
                continue;
            }
            let s = self.slot(op);
            if s.count == 0 {
                *s = o;
            } else {
                s.count += o.count;
                s.total_cycles += o.total_cycles;
                s.min_cycles = s.min_cycles.min(o.min_cycles);
                s.max_cycles = s.max_cycles.max(o.max_cycles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let mut d = DriverStats::new();
        d.record(DriverOp::Eldu, 100);
        d.record(DriverOp::Eldu, 300);
        let s = d.stats(DriverOp::Eldu);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean_cycles(), 200);
        assert_eq!(s.min_cycles, 100);
        assert_eq!(s.max_cycles, 300);
    }

    #[test]
    fn empty_stats_are_zero() {
        let d = DriverStats::new();
        assert_eq!(d.stats(DriverOp::DoFault).mean_cycles(), 0);
    }

    #[test]
    fn micros_conversion() {
        let mut d = DriverStats::new();
        d.record(DriverOp::Ewb, 3_800);
        // 3800 cycles at 3.8 GHz = 1 us.
        assert!((d.stats(DriverOp::Ewb).mean_micros(3.8) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = DriverStats::new();
        a.record(DriverOp::AllocPage, 10);
        let mut b = DriverStats::new();
        b.record(DriverOp::AllocPage, 30);
        b.record(DriverOp::DoFault, 5);
        a.merge(&b);
        assert_eq!(a.stats(DriverOp::AllocPage).count, 2);
        assert_eq!(a.stats(DriverOp::AllocPage).mean_cycles(), 20);
        assert_eq!(a.stats(DriverOp::DoFault).count, 1);
    }

    #[test]
    fn ops_have_names() {
        for op in DriverOp::ALL {
            assert!(op.function_name().starts_with("sgx_"));
        }
    }
}

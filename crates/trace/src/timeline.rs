//! Analysis passes: counter timelines and per-phase cycle attribution.

use crate::event::{CounterSnapshot, TraceEvent};
use crate::sink::TraceSink;

/// One point of a counter timeline: the snapshot carried by a periodic
/// sample or a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Simulated cycle clock of the emitting thread.
    pub cycles: u64,
    /// Cumulative counter state at that instant.
    pub snap: CounterSnapshot,
}

/// Cycle attribution of one workload-declared phase: where the span's
/// cycles went, in the paper's categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAttribution {
    /// Phase name.
    pub phase: String,
    /// Thread clock when the span opened.
    pub start_cycles: u64,
    /// Thread clock when the span closed.
    pub end_cycles: u64,
    /// Application cycles: span length minus every overhead category
    /// below (compute, plain memory stalls, page walks).
    pub app_cycles: u64,
    /// ECALL/OCALL/AEX transition cycles.
    pub transition_cycles: u64,
    /// EPC paging cycles (fault handling, EWB/ELDU batches).
    pub paging_cycles: u64,
    /// MEE premium: extra DRAM stall cycles paid for encrypted memory.
    pub mee_cycles: u64,
    /// EPC faults taken inside the span.
    pub epc_faults: u64,
}

impl PhaseAttribution {
    /// The row of span `phase`, opened at `start_cycles` with counters
    /// `start` and closed at `end_cycles` with counters `end`.
    pub(crate) fn of_span(
        phase: &str,
        start_cycles: u64,
        start: &CounterSnapshot,
        end_cycles: u64,
        end: &CounterSnapshot,
    ) -> Self {
        let d = end.delta(start);
        let total = end_cycles.saturating_sub(start_cycles);
        let overhead = d.transition_cycles + d.fault_cycles + d.mee_cycles;
        PhaseAttribution {
            phase: phase.to_owned(),
            start_cycles,
            end_cycles,
            app_cycles: total.saturating_sub(overhead),
            transition_cycles: d.transition_cycles,
            paging_cycles: d.fault_cycles,
            mee_cycles: d.mee_cycles,
            epc_faults: d.epc_faults,
        }
    }

    /// Total span length in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.end_cycles.saturating_sub(self.start_cycles)
    }
}

impl TraceSink {
    /// The counter timeline of the retained records: every record that
    /// carries a snapshot (periodic samples and phase boundaries), in
    /// emission order.
    pub fn timeline(&self) -> Vec<TimelinePoint> {
        self.records()
            .filter_map(|r| match r.event {
                TraceEvent::Sample { snap }
                | TraceEvent::PhaseBegin { snap, .. }
                | TraceEvent::PhaseEnd { snap, .. } => Some(TimelinePoint {
                    cycles: r.cycles,
                    snap,
                }),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_keeps_only_snapshot_records() {
        let mut s = TraceSink::with_config(64, 0);
        s.emit(1, 0, TraceEvent::EcallEnter).unwrap();
        s.emit(
            5,
            0,
            TraceEvent::Sample {
                snap: CounterSnapshot {
                    epc_faults: 3,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        s.emit(7, 0, TraceEvent::EcallExit).unwrap();
        let tl = s.timeline();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].cycles, 5);
        assert_eq!(tl[0].snap.epc_faults, 3);
    }

    #[test]
    fn attribution_subtracts_boundary_snapshots() {
        let mut s = TraceSink::with_config(64, 0);
        let at = |transition, fault, mee, faults| CounterSnapshot {
            transition_cycles: transition,
            fault_cycles: fault,
            mee_cycles: mee,
            epc_faults: faults,
            ..Default::default()
        };
        s.begin_phase("build", 100, 0, at(10, 0, 5, 0));
        s.end_phase("build", 1_100, 0, at(110, 300, 105, 7))
            .unwrap();
        let rows = s.phase_attribution();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.phase, "build");
        assert_eq!(row.total_cycles(), 1_000);
        assert_eq!(row.transition_cycles, 100);
        assert_eq!(row.paging_cycles, 300);
        assert_eq!(row.mee_cycles, 100);
        assert_eq!(row.epc_faults, 7);
        assert_eq!(row.app_cycles, 1_000 - 100 - 300 - 100);
    }

    #[test]
    fn attribution_survives_ring_overflow() {
        let mut s = TraceSink::with_config(4, 0);
        let zero = CounterSnapshot::default();
        s.begin_phase("run", 0, 0, zero);
        for i in 0..100 {
            s.emit(i + 1, 0, TraceEvent::EcallEnter).unwrap();
        }
        s.end_phase("run", 1_000, 0, zero).unwrap();
        assert!(s.dropped() > 0, "ring must have overflowed");
        let rows = s.phase_attribution();
        assert_eq!(rows.len(), 1, "span lost to overwrite");
        assert_eq!(rows[0].phase, "run");
        assert_eq!(rows[0].total_cycles(), 1_000);
    }

    #[test]
    fn nested_spans_each_get_a_row() {
        let mut s = TraceSink::with_config(64, 0);
        let zero = CounterSnapshot::default();
        s.begin_phase("outer", 0, 0, zero);
        s.begin_phase("inner", 10, 0, zero);
        s.end_phase("inner", 20, 0, zero).unwrap();
        s.end_phase("outer", 50, 0, zero).unwrap();
        let rows = s.phase_attribution();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].phase, "inner");
        assert_eq!(rows[1].phase, "outer");
        assert_eq!(rows[1].total_cycles(), 50);
    }
}

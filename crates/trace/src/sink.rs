//! The bounded ring-buffer sink.

use crate::event::{CounterSnapshot, PhaseId, TraceEvent, TraceRecord};
use crate::timeline::PhaseAttribution;
use std::error::Error;
use std::fmt;

/// Default ring capacity, in records.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Default periodic-sample spacing, in simulated cycles.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1 << 20;

/// Misuse of the phase-span API, reported as a value (never a panic):
/// the sweep executor must survive a workload that mismatches its spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A span was still open when the trace was finalized.
    UnclosedPhase {
        /// Name of the innermost open span.
        phase: String,
    },
    /// A span was closed out of order.
    PhaseMismatch {
        /// The innermost open span that should have closed first.
        expected: String,
        /// The name the caller tried to close.
        found: String,
    },
    /// A span was closed while none was open.
    NoOpenPhase {
        /// The name the caller tried to close.
        found: String,
    },
    /// [`TraceSink::emit`] was given a phase event; only the span API
    /// records those, since it mints and checks their ids.
    PhaseEvent,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnclosedPhase { phase } => {
                write!(f, "phase `{phase}` was never closed")
            }
            TraceError::PhaseMismatch { expected, found } => {
                write!(f, "phase `{found}` closed while `{expected}` is innermost")
            }
            TraceError::NoOpenPhase { found } => {
                write!(f, "phase `{found}` closed but no phase is open")
            }
            TraceError::PhaseEvent => write!(f, "phase events come only from the span API"),
        }
    }
}

impl Error for TraceError {}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// Records are appended in the program order of the owning simulation
/// (each sweep cell owns a private sink, so ordering is deterministic and
/// independent of how many OS threads drive the sweep). When the ring is
/// full the oldest record is overwritten and [`TraceSink::dropped`]
/// counts the loss; sequence numbers keep the surviving records globally
/// ordered.
#[derive(Debug, Clone)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
    seq: u64,
    sample_interval: u64,
    next_sample: u64,
    phases: Vec<String>,
    /// Open spans, innermost last: each span's id, begin clock and
    /// begin snapshot.
    stack: Vec<(PhaseId, u64, CounterSnapshot)>,
    /// One attribution row per closed span, in closing order. Built at
    /// span close rather than from the ring, so bulk events that
    /// overwrite a span's begin record cannot erase its row.
    rows: Vec<PhaseAttribution>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(DEFAULT_CAPACITY)
    }
}

impl TraceSink {
    /// A sink holding at most `capacity` records, sampling counters every
    /// [`DEFAULT_SAMPLE_INTERVAL`] simulated cycles.
    ///
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        TraceSink::with_config(capacity, DEFAULT_SAMPLE_INTERVAL)
    }

    /// A sink with explicit capacity and periodic-sample spacing
    /// (`sample_interval == 0` disables periodic samples).
    pub fn with_config(capacity: usize, sample_interval: u64) -> Self {
        TraceSink {
            records: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            seq: 0,
            sample_interval,
            next_sample: sample_interval,
            phases: Vec::new(),
            stack: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Appends an event stamped with the emitting thread's clock.
    ///
    /// # Errors
    ///
    /// [`TraceError::PhaseEvent`], recording nothing, for a phase event:
    /// only [`TraceSink::begin_phase`] and [`TraceSink::end_phase`] do.
    pub fn emit(&mut self, cycles: u64, thread: u32, event: TraceEvent) -> Result<(), TraceError> {
        if let TraceEvent::PhaseBegin { .. } | TraceEvent::PhaseEnd { .. } = event {
            return Err(TraceError::PhaseEvent);
        }
        self.push(cycles, thread, event);
        Ok(())
    }

    fn push(&mut self, cycles: u64, thread: u32, event: TraceEvent) {
        if let TraceEvent::Sample { .. } = event {
            self.note_sample(cycles);
        }
        let record = TraceRecord {
            seq: self.seq,
            cycles,
            thread,
            event,
        };
        self.seq += 1;
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Whether a periodic counter sample is due at simulated instant
    /// `cycles`. The caller (the SGX layer) assembles the snapshot and
    /// emits [`TraceEvent::Sample`], which re-arms the schedule.
    #[inline]
    pub fn sample_due(&self, cycles: u64) -> bool {
        self.sample_interval != 0 && cycles >= self.next_sample
    }

    /// The next simulated instant at which a periodic sample becomes
    /// due, or `u64::MAX` when periodic sampling is disabled.
    ///
    /// The schedule only ever moves forward (each recorded sample
    /// re-arms it later), so callers may cache this value as a
    /// conservative lower bound and skip consulting the sink entirely
    /// until their clock reaches it — the basis of the machine's cheap
    /// `trace_sample_due` fast path.
    #[inline]
    pub fn next_sample_at(&self) -> u64 {
        if self.sample_interval == 0 {
            u64::MAX
        } else {
            self.next_sample
        }
    }

    fn note_sample(&mut self, cycles: u64) {
        if self.sample_interval != 0 && cycles >= self.next_sample {
            // Re-arm at the next grid point strictly after `cycles`, so a
            // long stall does not trigger a catch-up burst of samples.
            self.next_sample = (cycles / self.sample_interval + 1) * self.sample_interval;
        }
    }

    /// Opens a phase span named `name` and records the boundary snapshot.
    pub fn begin_phase(
        &mut self,
        name: &str,
        cycles: u64,
        thread: u32,
        snap: CounterSnapshot,
    ) -> PhaseId {
        let id = self.intern(name);
        self.stack.push((id, cycles, snap));
        self.push(cycles, thread, TraceEvent::PhaseBegin { id, snap });
        id
    }

    /// Closes the innermost phase span, which must be named `name`, and
    /// appends its [`PhaseAttribution`] row.
    ///
    /// # Errors
    ///
    /// [`TraceError::NoOpenPhase`] when no span is open,
    /// [`TraceError::PhaseMismatch`] when the innermost span has a
    /// different name. Either way the sink stays usable.
    pub fn end_phase(
        &mut self,
        name: &str,
        cycles: u64,
        thread: u32,
        snap: CounterSnapshot,
    ) -> Result<(), TraceError> {
        let Some(&(top, start_cycles, start)) = self.stack.last() else {
            return Err(TraceError::NoOpenPhase { found: name.into() });
        };
        if self.phases[top.0 as usize] != name {
            return Err(TraceError::PhaseMismatch {
                expected: self.phases[top.0 as usize].clone(),
                found: name.into(),
            });
        }
        self.stack.pop();
        self.push(cycles, thread, TraceEvent::PhaseEnd { id: top, snap });
        let row = PhaseAttribution::of_span(name, start_cycles, &start, cycles, &snap);
        self.rows.push(row);
        Ok(())
    }

    /// Validates that every span was closed.
    ///
    /// # Errors
    ///
    /// [`TraceError::UnclosedPhase`] naming the innermost open span.
    pub fn finish(&self) -> Result<(), TraceError> {
        match self.stack.last() {
            None => Ok(()),
            Some(&(id, _, _)) => Err(TraceError::UnclosedPhase {
                phase: self.phases[id.0 as usize].clone(),
            }),
        }
    }

    fn intern(&mut self, name: &str) -> PhaseId {
        if let Some(i) = self.phases.iter().position(|p| p == name) {
            return PhaseId(i as u32);
        }
        self.phases.push(name.to_owned());
        PhaseId((self.phases.len() - 1) as u32)
    }

    /// Resolves an id this sink minted back to its name.
    pub(crate) fn phase_name(&self, id: PhaseId) -> &str {
        &self.phases[id.0 as usize]
    }

    /// The per-phase cycle attribution: one row per closed span, in
    /// closing order (an inner span's row precedes its parent's). Rows
    /// are kept outside the ring, so they survive traces whose bulk
    /// events overflowed it. Nested spans each get their own row, with
    /// inner cycles counted in both (spans, not a partition).
    pub fn phase_attribution(&self) -> &[PhaseAttribution] {
        &self.rows
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        let (tail, front) = self.records.split_at(self.head);
        front.iter().chain(tail.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> CounterSnapshot {
        CounterSnapshot::default()
    }

    #[test]
    fn records_come_back_in_order() {
        let mut s = TraceSink::new(16);
        for i in 0..5u64 {
            s.emit(i * 10, 0, TraceEvent::EcallEnter).unwrap();
        }
        let seqs: Vec<u64> = s.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.emitted(), 5);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut s = TraceSink::new(8);
        for i in 0..20u64 {
            s.emit(i, 0, TraceEvent::Ocall { switchless: false })
                .unwrap();
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.dropped(), 12);
        let seqs: Vec<u64> = s.records().map(|r| r.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest evicted first");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut s = TraceSink::new(0);
        s.emit(1, 0, TraceEvent::EcallEnter).unwrap();
        s.emit(2, 0, TraceEvent::EcallExit).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
    }

    /// A phase id minted by one sink, emitted into another, used to
    /// index past the second sink's names when it rendered.
    #[test]
    fn emit_refuses_phase_events() {
        let mut donor = TraceSink::new(16);
        let id = donor.begin_phase("donor", 0, 0, snap());
        let mut s = TraceSink::new(16);
        for event in [
            TraceEvent::PhaseBegin { id, snap: snap() },
            TraceEvent::PhaseEnd { id, snap: snap() },
        ] {
            assert_eq!(s.emit(1, 0, event), Err(TraceError::PhaseEvent));
        }
        assert_eq!((s.emitted(), s.finish()), (0, Ok(())));
        assert!(!s.render_jsonl().contains("phase"));
    }

    #[test]
    fn phase_round_trip() {
        let mut s = TraceSink::new(16);
        s.begin_phase("build", 10, 0, snap());
        s.begin_phase("probe", 20, 0, snap());
        assert!(s.end_phase("probe", 30, 0, snap()).is_ok());
        assert!(s.end_phase("build", 40, 0, snap()).is_ok());
        assert_eq!(s.finish(), Ok(()));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn phase_misuse_is_a_typed_error_not_a_panic() {
        let mut s = TraceSink::new(16);
        assert_eq!(
            s.end_phase("ghost", 1, 0, snap()),
            Err(TraceError::NoOpenPhase {
                found: "ghost".into()
            })
        );
        s.begin_phase("outer", 2, 0, snap());
        s.begin_phase("inner", 3, 0, snap());
        assert_eq!(
            s.end_phase("outer", 4, 0, snap()),
            Err(TraceError::PhaseMismatch {
                expected: "inner".into(),
                found: "outer".into()
            })
        );
        assert_eq!(
            s.finish(),
            Err(TraceError::UnclosedPhase {
                phase: "inner".into()
            })
        );
        // The sink is still usable after every error.
        assert!(s.end_phase("inner", 5, 0, snap()).is_ok());
        assert!(s.end_phase("outer", 6, 0, snap()).is_ok());
        assert_eq!(s.finish(), Ok(()));
    }

    #[test]
    fn interning_reuses_ids() {
        let mut s = TraceSink::new(16);
        let a = s.begin_phase("round", 1, 0, snap());
        s.end_phase("round", 2, 0, snap()).unwrap();
        let b = s.begin_phase("round", 3, 0, snap());
        assert_eq!(a, b);
        assert_eq!(s.phase_name(a), "round");
    }

    #[test]
    fn sampling_schedule_rearms_without_bursts() {
        let mut s = TraceSink::with_config(64, 100);
        assert!(!s.sample_due(99));
        assert!(s.sample_due(100));
        s.emit(100, 0, TraceEvent::Sample { snap: snap() }).unwrap();
        assert!(!s.sample_due(199));
        // A long stall fires exactly one sample, then re-anchors.
        s.emit(1_234, 0, TraceEvent::Sample { snap: snap() })
            .unwrap();
        assert!(!s.sample_due(1_299));
        assert!(s.sample_due(1_300));
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let s = TraceSink::with_config(64, 0);
        assert!(!s.sample_due(u64::MAX));
    }
}

//! The YCSB-A operation stream.

use crate::dist::{Uniform, Zipfian};

/// Kind of a generated store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read of one record.
    Read,
    /// Overwrite of one record's value.
    Update,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// What to do.
    pub kind: OpKind,
    /// Target key.
    pub key: u64,
}

/// Percent of YCSB-A operations that are reads; the rest are updates.
const READ_PERCENT: u64 = 50;

/// A YCSB core workload A (50 % read / 50 % update) over zipfian keys
/// and `records` initial records.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Workload {
    records: u64,
    seed: u64,
}

impl Workload {
    /// Creates a workload over `records` initial records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero.
    pub fn new(records: u64, seed: u64) -> Self {
        assert!(records > 0, "need at least one record");
        Workload { records, seed }
    }

    /// Infinite operation stream for the run phase; `take(n)` it.
    pub fn operations(&self) -> OperationStream {
        OperationStream {
            keys: Zipfian::new(self.records, self.seed),
            choice: Uniform::new(100, self.seed ^ 0xdead_beef),
        }
    }
}

/// Iterator yielding the run-phase [`Operation`]s.
#[derive(Debug, Clone)]
pub struct OperationStream {
    keys: Zipfian,
    choice: Uniform,
}

impl Iterator for OperationStream {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        let kind = if self.choice.next_key() < READ_PERCENT {
            OpKind::Read
        } else {
            OpKind::Update
        };
        Some(Operation {
            kind,
            key: self.keys.next_key(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_a_is_half_writes() {
        let wl = Workload::new(1_000, 1);
        let ops: Vec<_> = wl.operations().take(10_000).collect();
        let updates = ops.iter().filter(|o| o.kind == OpKind::Update).count();
        assert!((4_500..5_500).contains(&updates), "updates {updates}");
    }

    #[test]
    fn stream_is_deterministic() {
        let wl = Workload::new(500, 77);
        let a: Vec<_> = wl.operations().take(100).collect();
        let b: Vec<_> = wl.operations().take(100).collect();
        assert_eq!(a, b);
    }

    /// Memcached's run-phase stream at `records = 1024`, seed `0x5ca1e`:
    /// its first 64 `(kind, key)` pairs. The figure goldens and perfbench
    /// fingerprints depend on this exact stream, so a change to either
    /// draw (its seed, its distribution, or the generator it reads) must
    /// fail here, not in a sweep.
    #[test]
    fn memcached_key_stream_is_pinned() {
        const KINDS: &str = "URUUURURRRRUUURURRRURUUUURRUUUUUURRUUUUUURUURRRUUUUUURRRURRUURRU";
        const KEYS: [u64; 64] = [
            6, 130, 76, 81, 2, 220, 129, 1, 6, 706, 139, 252, 440, 42, 17, 1, 213, 0, 33, 279, 5,
            93, 303, 232, 43, 812, 0, 2, 0, 424, 924, 1, 21, 0, 0, 9, 1, 6, 4, 982, 113, 38, 611,
            0, 79, 7, 24, 89, 0, 1, 0, 1, 42, 89, 382, 183, 68, 439, 17, 73, 158, 16, 45, 1,
        ];
        let ops: Vec<_> = Workload::new(1024, 0x5ca1e).operations().take(64).collect();
        let kinds: String = ops
            .iter()
            .map(|o| match o.kind {
                OpKind::Read => 'R',
                OpKind::Update => 'U',
            })
            .collect();
        let keys: Vec<u64> = ops.iter().map(|o| o.key).collect();
        assert_eq!(kinds, KINDS);
        assert_eq!(keys, KEYS);
    }
}

//! Host-time benchmark of the SGXGauge suite.
//!
//! Runs real suite cells through `SuiteRunner::run` (the entry point of
//! `sgxgauge suite`) with one worker, times each `Workload::setup` and
//! `Workload::execute` through a delegating wrapper ([`timer::Timed`]),
//! checks every cell's simulated fingerprint ([`fingerprint`]), and, in
//! the traced run, times the public calls into each layer
//! ([`probes`]). See `README.md` for the metrics and workloads.

pub mod fingerprint;
pub mod grid;
pub mod probes;
pub mod recorded;
pub mod timer;

use sgxgauge_core::{SuiteRunner, SweepReport, Workload};
use std::time::{Duration, Instant};
use timer::{Phase, Span, SpanLog, Timed};

/// Median of `v` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Host time `f` takes.
pub fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// One timed `SuiteRunner::run` over a grid.
#[derive(Debug)]
pub struct Sweep {
    /// What the sweep produced.
    pub report: SweepReport,
    /// Host time of the whole `SuiteRunner::run` call.
    pub wall: Duration,
    /// Every `setup` and `execute` span, in call order.
    pub spans: Vec<Span>,
}

impl Sweep {
    /// Runs `workloads` through `runner`, each wrapped in a [`Timed`].
    pub fn run(runner: &SuiteRunner, workloads: &[&dyn Workload]) -> Sweep {
        let log = SpanLog::default();
        let wrapped: Vec<Timed<'_>> = workloads.iter().map(|w| Timed::new(*w, &log)).collect();
        let refs: Vec<&dyn Workload> = wrapped.iter().map(|w| w as &dyn Workload).collect();
        let t0 = Instant::now();
        let report = runner.run(&refs);
        let wall = t0.elapsed();
        Sweep {
            report,
            wall,
            spans: log.spans(),
        }
    }

    /// Summed host seconds of every span of `phase`.
    pub fn total_s(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Simulated memory accesses (`mem_reads + mem_writes`) over all cells.
    pub fn accesses(&self) -> u64 {
        self.report
            .reports()
            .map(|r| r.counters.mem_reads + r.counters.mem_writes)
            .sum()
    }
}

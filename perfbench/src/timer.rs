//! A delegating [`Workload`] that records host time around `setup` and
//! `execute` and changes nothing else.

use sgxgauge_core::WorkloadSpec;
use sgxgauge_core::{Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which trait call a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Workload::setup`: input generation, unmeasured by the simulator.
    Setup,
    /// `Workload::execute`: the simulator's measured region.
    Execute,
}

/// One timed call, as offsets from the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The wrapped workload.
    pub workload: &'static str,
    /// Which call.
    pub phase: Phase,
    /// Start, from the log's epoch.
    pub start: Duration,
    /// End, from the log's epoch.
    pub end: Duration,
}

impl Span {
    /// Host time the call took.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span log shared by every [`Timed`] wrapper of one sweep.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// The recorded spans, in the order the calls finished.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }

    fn time<T>(&self, workload: &'static str, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                workload,
                phase,
                start,
                end,
            });
        out
    }
}

/// Wraps a workload, timing `setup` and `execute` into a [`SpanLog`].
pub struct Timed<'a> {
    inner: &'a dyn Workload,
    log: &'a SpanLog,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: &'a dyn Workload, log: &'a SpanLog) -> Self {
        Timed { inner, log }
    }
}

impl Workload for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn property(&self) -> &'static str {
        self.inner.property()
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        self.inner.supported_modes()
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        self.inner.spec(setting)
    }

    fn setup(&self, env: &mut Env, setting: InputSetting) -> Result<(), WorkloadError> {
        self.log
            .time(self.name(), Phase::Setup, || self.inner.setup(env, setting))
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        self.log.time(self.name(), Phase::Execute, || {
            self.inner.execute(env, setting)
        })
    }
}

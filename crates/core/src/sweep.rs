//! Parallel sweep execution of the benchmark grid.
//!
//! The paper's methodology is a grid: every workload × execution mode ×
//! input setting, repeated. Each cell is an independent simulation — one
//! [`Env`](crate::Env) owning its own machine, LibOS cells a fork of the
//! runner's one launched platform — so cells can run on separate OS
//! threads with no shared mutable simulator state. [`SuiteRunner`]
//! fans the grid over a scoped thread pool fed by a work queue, captures
//! per-cell panics (a crashing workload fails one cell, never the sweep),
//! and aggregates results **in grid order**, so a parallel sweep produces
//! byte-identical reports to a sequential one.
//!
//! # Example
//!
//! ```
//! use sgxgauge_core::{RunnerConfig, SuiteRunner, InputSetting};
//! # use sgxgauge_core::{Env, ExecMode, Workload, WorkloadError, WorkloadOutput, WorkloadSpec};
//! # struct Noop;
//! # impl Workload for Noop {
//! #     fn name(&self) -> &'static str { "Noop" }
//! #     fn property(&self) -> &'static str { "test" }
//! #     fn supported_modes(&self) -> &'static [ExecMode] { &[ExecMode::Vanilla] }
//! #     fn spec(&self, _: InputSetting) -> WorkloadSpec { WorkloadSpec::new(4096, "noop") }
//! #     fn setup(&self, _: &mut Env, _: InputSetting) -> Result<(), WorkloadError> { Ok(()) }
//! #     fn execute(&self, env: &mut Env, _: InputSetting) -> Result<WorkloadOutput, WorkloadError> {
//! #         env.compute(1); Ok(WorkloadOutput::default())
//! #     }
//! # }
//! let suite = SuiteRunner::new(RunnerConfig::quick_test()).settings(&[InputSetting::Low]);
//! let sweep = suite.run(&[&Noop]);
//! assert_eq!(sweep.cells.len(), 1);
//! assert!(sweep.cells[0].result.is_ok());
//! ```

use crate::checkpoint::CheckpointSink;
use crate::io::ArtifactError;
use crate::modes::{ExecMode, InputSetting};
use crate::runner::{RunReport, Runner, RunnerConfig};
use crate::workload::{ErrorClass, Workload, WorkloadError};
use faults::FaultPlan;
use sgx_sim::costs::RETRY_BACKOFF_BASE_CYCLES;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The optional co-tenancy coordinate of a grid cell: how many tenants
/// shared the EPC while the cell ran, and how many of them were
/// antagonists. Its [`Display`](std::fmt::Display) form `t{N}a{M}`
/// round-trips through [`FromStr`](std::str::FromStr) and appends as a
/// fifth `/`-separated [`CellKey`] field; cells without the dimension
/// keep the classic four-field form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantDim {
    /// Total tenants on the shared host (at least 1).
    pub tenants: u8,
    /// Antagonist tenants among them (at most `tenants - 1`).
    pub antagonists: u8,
}

impl std::fmt::Display for TenantDim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}a{}", self.tenants, self.antagonists)
    }
}

impl std::str::FromStr for TenantDim {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix('t')
            .ok_or_else(|| format!("tenant dimension `{s}` must start with `t`"))?;
        let (tenants, antagonists) = rest
            .split_once('a')
            .ok_or_else(|| format!("tenant dimension `{s}` is missing its `a` separator"))?;
        let tenants = tenants
            .parse::<u8>()
            .map_err(|e| format!("bad tenant count in `{s}`: {e}"))?;
        let antagonists = antagonists
            .parse::<u8>()
            .map_err(|e| format!("bad antagonist count in `{s}`: {e}"))?;
        Ok(TenantDim {
            tenants,
            antagonists,
        })
    }
}

/// The typed key of one benchmark-grid cell.
///
/// Every layer that used to thread `(workload, mode, setting, rep)`
/// tuples — the sweep queue, checkpoint fingerprints and lookups, report
/// grouping — now passes this one type. Its [`Display`](std::fmt::Display)
/// form `workload/mode/setting/rep` round-trips through
/// [`FromStr`](std::str::FromStr); co-tenant cells append a fifth
/// [`TenantDim`] field (`workload/mode/setting/rep/tNaM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// Index into the workload slice passed to [`SuiteRunner::run`].
    pub workload: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Input setting.
    pub setting: InputSetting,
    /// Repetition number, `0..repetitions`.
    pub rep: usize,
    /// Co-tenancy coordinate, absent for classic single-enclave cells.
    pub tenant: Option<TenantDim>,
}

impl CellKey {
    /// The key of this cell's repetition series: the same coordinate with
    /// `rep` zeroed. All repetitions of one (workload, mode, setting)
    /// share a series key, which is what aggregation groups by.
    #[must_use]
    pub fn series(&self) -> CellKey {
        CellKey { rep: 0, ..*self }
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.workload, self.mode, self.setting, self.rep
        )?;
        if let Some(t) = self.tenant {
            write!(f, "/{t}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for CellKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('/');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| format!("cell key `{s}` is missing its {what}"))
        };
        let workload = next("workload index")?
            .parse::<usize>()
            .map_err(|e| format!("bad workload index in `{s}`: {e}"))?;
        let mode = next("mode")?.parse::<ExecMode>()?;
        let setting = next("setting")?.parse::<InputSetting>()?;
        let rep = next("repetition")?
            .parse::<usize>()
            .map_err(|e| format!("bad repetition in `{s}`: {e}"))?;
        // One optional trailing field: the `tNaM` co-tenancy coordinate.
        let tenant = parts.next().map(str::parse::<TenantDim>).transpose()?;
        if parts.next().is_some() {
            return Err(format!("trailing fields in cell key `{s}`"));
        }
        Ok(CellKey {
            workload,
            mode,
            setting,
            rep,
            tenant,
        })
    }
}

/// How a cell failed — structured, so retry policy and reporting never
/// parse message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The last attempt failed transiently; the retry budget (if any)
    /// was exhausted without a success.
    Transient,
    /// A deterministic workload error — retrying reproduces it.
    Fatal,
    /// The watchdog cancelled the attempt at its cycle budget.
    TimedOut,
    /// The cell panicked rather than returning an error.
    Panicked,
    /// The cell was never executed: the sweep stopped claiming work
    /// (quarantine threshold exceeded) before this cell's turn. Skipped
    /// cells are never checkpointed, so a resume runs them.
    Skipped,
    /// The cell was deliberately shed by campaign supervision (open
    /// circuit breaker, drained retry budget, blown stage deadline)
    /// rather than executed. Degraded cells are a *decision*, not a
    /// failure: they are deterministic run-to-run and recomputed on
    /// resume instead of being checkpointed.
    Degraded,
}

impl std::fmt::Display for CellErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CellErrorKind::Transient => "transient",
            CellErrorKind::Fatal => "fatal",
            CellErrorKind::TimedOut => "timed-out",
            CellErrorKind::Panicked => "panicked",
            CellErrorKind::Skipped => "skipped",
            CellErrorKind::Degraded => "degraded",
        })
    }
}

impl std::str::FromStr for CellErrorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transient" => Ok(CellErrorKind::Transient),
            "fatal" => Ok(CellErrorKind::Fatal),
            "timed-out" => Ok(CellErrorKind::TimedOut),
            "panicked" => Ok(CellErrorKind::Panicked),
            "skipped" => Ok(CellErrorKind::Skipped),
            "degraded" => Ok(CellErrorKind::Degraded),
            other => Err(format!("unknown cell error kind `{other}`")),
        }
    }
}

/// Why a cell produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Failure classification (drives retry policy and exit codes).
    pub kind: CellErrorKind,
    /// The workload error's display text, or the panic payload.
    pub message: String,
}

impl CellError {
    /// Classifies a [`WorkloadError`] into a cell outcome.
    pub fn from_workload(e: &WorkloadError) -> Self {
        let kind = match e {
            WorkloadError::Timeout { .. } => CellErrorKind::TimedOut,
            _ => match e.class() {
                ErrorClass::Transient => CellErrorKind::Transient,
                ErrorClass::Fatal => CellErrorKind::Fatal,
            },
        };
        CellError {
            kind,
            message: e.to_string(),
        }
    }

    /// True when the cell panicked rather than returning an error.
    pub fn panicked(&self) -> bool {
        self.kind == CellErrorKind::Panicked
    }

    /// True when this outcome poisons the cell: a deterministic fatal
    /// error or a panic that persisted across the whole retry budget.
    /// Quarantined cells are recorded (with their attempt trail) and
    /// counted against [`SuiteRunner::max_quarantine`] instead of
    /// aborting the sweep.
    pub fn quarantines(&self) -> bool {
        matches!(self.kind, CellErrorKind::Fatal | CellErrorKind::Panicked)
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// One failed attempt in a cell's retry history. The trail records
/// every *non-final* failure (the final outcome lives in
/// [`SweepCell::result`]), so a quarantined cell carries the evidence
/// of what it did on each attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFailure {
    /// 1-based attempt ordinal.
    pub attempt: usize,
    /// How that attempt failed.
    pub kind: CellErrorKind,
    /// The attempt's error text.
    pub message: String,
}

/// One executed grid cell: its coordinate plus the outcome.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Grid coordinate.
    pub cell: CellKey,
    /// Workload name (kept here so errors stay attributable).
    pub workload: &'static str,
    /// The run's report, or why there is none.
    pub result: Result<RunReport, CellError>,
    /// Attempts executed (1 when the first try settled the cell).
    pub attempts: usize,
    /// Total simulated-cycle backoff accounted across retries (never
    /// slept on the host; purely part of the resilience ledger).
    pub backoff_cycles: u64,
    /// The failures of every non-final attempt, oldest first (empty
    /// when the first attempt settled the cell). Excluded from
    /// [`SweepReport::fingerprint`] so checkpoints that predate trails
    /// still resume fingerprint-identically.
    pub trail: Vec<AttemptFailure>,
}

/// Why a sweep could not produce (or persist) its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The artifact plane failed (checkpoint write, recovery, corrupt
    /// resume file) in a way retries could not fix.
    Artifact(ArtifactError),
    /// More cells were quarantined than [`SuiteRunner::max_quarantine`]
    /// tolerates: the run is globally sick and failed fast. Completed
    /// cells are already checkpointed; a resume re-runs the skipped
    /// remainder.
    QuarantineExceeded {
        /// Number of quarantined (fatal/panicked) cells observed.
        quarantined: usize,
        /// The configured tolerance.
        max: usize,
        /// The quarantined cells themselves, in grid order, so
        /// operators can see *which* cells poisoned the run rather
        /// than just how many.
        cells: Vec<CellKey>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Artifact(e) => write!(f, "artifact plane failure: {e}"),
            SweepError::QuarantineExceeded {
                quarantined,
                max,
                cells,
            } => {
                write!(
                    f,
                    "sweep is globally sick: {quarantined} cells quarantined \
                     (tolerance {max}); completed cells are checkpointed"
                )?;
                if !cells.is_empty() {
                    let list: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
                    write!(f, " [{}]", list.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ArtifactError> for SweepError {
    fn from(e: ArtifactError) -> Self {
        SweepError::Artifact(e)
    }
}

/// All cells of one sweep, in grid order regardless of how many threads
/// executed them.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Executed cells in enumeration order.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Successful reports in grid order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.cells.iter().filter_map(|c| c.result.as_ref().ok())
    }

    /// Failed cells in grid order.
    pub fn errors(&self) -> impl Iterator<Item = (&SweepCell, &CellError)> {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref().err().map(|e| (c, e)))
    }

    /// Quarantined cells (fatal or panicked past the retry budget), in
    /// grid order.
    pub fn quarantined(&self) -> impl Iterator<Item = (&SweepCell, &CellError)> {
        self.errors().filter(|(_, e)| e.quarantines())
    }

    /// Cells the sweep never executed because it stopped claiming work
    /// (quarantine threshold tripped).
    pub fn skipped(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| {
            matches!(
                c.result,
                Err(CellError {
                    kind: CellErrorKind::Skipped,
                    ..
                })
            )
        })
    }

    /// An order-sensitive digest over every cell's identity, counters and
    /// outputs (FNV-1a). Two sweeps that executed the same grid with the
    /// same results — e.g. a sequential and a parallel run — hash equal.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.cells {
            h.str(c.workload);
            h.u64(c.cell.workload as u64);
            h.u64(c.cell.mode as u64);
            h.u64(c.cell.setting as u64);
            h.u64(c.cell.rep as u64);
            // Hashed only when present, so classic sweeps fingerprint
            // identically to before the dimension existed.
            if let Some(t) = c.cell.tenant {
                h.u64(u64::from(t.tenants));
                h.u64(u64::from(t.antagonists));
            }
            h.u64(c.attempts as u64);
            h.u64(c.backoff_cycles);
            match &c.result {
                Ok(r) => {
                    h.u64(1);
                    h.u64(r.runtime_cycles);
                    h.u64(r.clock_hz);
                    for (_, v) in r.counters.fields() {
                        h.u64(v);
                    }
                    for (_, v) in r.sgx.fields() {
                        h.u64(v);
                    }
                    h.u64(r.output.ops);
                    h.u64(r.output.checksum);
                    for (name, v) in &r.output.metrics {
                        h.str(name);
                        h.u64(v.to_bits());
                    }
                }
                Err(e) => {
                    h.u64(2);
                    h.str(&e.kind.to_string());
                    h.str(&e.message);
                }
            }
        }
        h.finish()
    }
}

/// FNV-1a, the digest behind [`SweepReport::fingerprint`], the per-cell
/// fault salts and the checkpoint grid guard.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
        self.byte(0xff); // delimiter
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Fans the benchmark grid across OS threads.
///
/// Construction is builder-style: [`SuiteRunner::new`] covers every mode
/// and setting with the config's repetition count; [`SuiteRunner::modes`],
/// [`SuiteRunner::settings`] and [`SuiteRunner::threads`] narrow or tune.
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    runner: Runner,
    modes: Vec<ExecMode>,
    settings: Vec<InputSetting>,
    threads: usize,
    retries: usize,
    max_quarantine: Option<usize>,
    tenant: Option<TenantDim>,
}

impl SuiteRunner {
    /// A sweep over every mode and setting, `cfg.repetitions` times each,
    /// with one worker per available core.
    pub fn new(cfg: RunnerConfig) -> Self {
        SuiteRunner {
            runner: Runner::new(cfg),
            modes: ExecMode::ALL.to_vec(),
            settings: InputSetting::ALL.to_vec(),
            threads: 0,
            retries: 0,
            max_quarantine: None,
            tenant: None,
        }
    }

    /// Stamps every grid cell with a co-tenancy coordinate: the sweep
    /// itself still runs one workload per cell, but its keys, salts and
    /// fingerprints carry the dimension so co-tenant campaigns checkpoint
    /// and report distinctly from classic runs of the same grid.
    #[must_use]
    pub fn tenant(mut self, dim: TenantDim) -> Self {
        self.tenant = Some(dim);
        self
    }

    /// Restricts the sweep to `modes` (kept in the given order).
    #[must_use]
    pub fn modes(mut self, modes: &[ExecMode]) -> Self {
        self.modes = modes.to_vec();
        self
    }

    /// Restricts the sweep to `settings` (kept in the given order).
    #[must_use]
    pub fn settings(mut self, settings: &[InputSetting]) -> Self {
        self.settings = settings.to_vec();
        self
    }

    /// Uses exactly `n` worker threads; `0` (the default) means one per
    /// available core.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Injects faults from `plan` into every cell, salted per cell and
    /// per attempt so retries face a fresh (but deterministic) draw.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.runner = self.runner.faults(plan);
        self
    }

    /// Traces every cell (see [`Runner::tracing`]). Each cell owns a
    /// private sink, so traces stay byte-identical no matter how many
    /// worker threads drive the sweep.
    #[must_use]
    pub fn tracing(mut self, cfg: crate::runner::TraceConfig) -> Self {
        self.runner = self.runner.tracing(cfg);
        self
    }

    /// Cancels any cell whose measured region exceeds `cycles` simulated
    /// cycles; the cell fails with [`CellErrorKind::TimedOut`].
    #[must_use]
    pub fn cell_budget(mut self, cycles: u64) -> Self {
        self.runner = self.runner.cell_budget(cycles);
        self
    }

    /// Retries each transiently failing cell up to `n` extra times; the
    /// attempt count and accounted backoff land in the [`SweepCell`].
    #[must_use]
    pub fn retries(mut self, n: usize) -> Self {
        self.retries = n;
        self
    }

    /// The configured retry budget (extra attempts per cell).
    pub fn retry_budget(&self) -> usize {
        self.retries
    }

    /// Tolerates at most `n` quarantined cells before the sweep is
    /// declared globally sick: workers stop claiming cells, the
    /// remainder is marked [`CellErrorKind::Skipped`], and
    /// [`SuiteRunner::try_run`] (and the checkpointed runners) fail
    /// fast with [`SweepError::QuarantineExceeded`].
    #[must_use]
    pub fn max_quarantine(mut self, n: usize) -> Self {
        self.max_quarantine = Some(n);
        self
    }

    /// The underlying per-cell runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Enumerates the grid for `workloads` in canonical order: workload,
    /// then mode (skipping unsupported), then setting, then repetition.
    pub fn grid(&self, workloads: &[&dyn Workload]) -> Vec<CellKey> {
        let reps = self.runner.config().repetitions.max(1);
        let mut cells = Vec::new();
        for (wi, w) in workloads.iter().enumerate() {
            for &mode in &self.modes {
                if !w.supports(mode) {
                    continue;
                }
                for &setting in &self.settings {
                    for rep in 0..reps {
                        cells.push(CellKey {
                            workload: wi,
                            mode,
                            setting,
                            rep,
                            tenant: self.tenant,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Runs the grid across the configured worker threads.
    ///
    /// Each worker pulls the next unclaimed cell off a shared queue,
    /// builds a private [`Env`](crate::Env), and writes the outcome into
    /// the cell's slot, so the report order is the grid order no matter
    /// which thread finished when. A panicking cell is captured into a
    /// [`CellError`] and the sweep continues.
    pub fn run(&self, workloads: &[&dyn Workload]) -> SweepReport {
        self.execute_resumable(workloads, Vec::new(), None)
    }

    /// [`SuiteRunner::run`], but enforcing the quarantine tolerance:
    /// returns [`SweepError::QuarantineExceeded`] when more cells were
    /// quarantined than [`SuiteRunner::max_quarantine`] allows.
    ///
    /// # Errors
    ///
    /// [`SweepError::QuarantineExceeded`] when the run is globally sick.
    pub fn try_run(&self, workloads: &[&dyn Workload]) -> Result<SweepReport, SweepError> {
        let report = self.execute_resumable(workloads, Vec::new(), None);
        self.enforce_quarantine(&report)?;
        Ok(report)
    }

    /// Checks a finished report against the quarantine tolerance.
    pub(crate) fn enforce_quarantine(&self, report: &SweepReport) -> Result<(), SweepError> {
        if let Some(max) = self.max_quarantine {
            let cells: Vec<CellKey> = report.quarantined().map(|(c, _)| c.cell).collect();
            let quarantined = cells.len();
            if quarantined > max {
                return Err(SweepError::QuarantineExceeded {
                    quarantined,
                    max,
                    cells,
                });
            }
        }
        Ok(())
    }

    /// Runs an explicit subset of cells across the configured worker
    /// threads, outcomes in the order the cells were given.
    ///
    /// This is the building block campaign orchestrators schedule waves
    /// with: every cell outcome is a pure function of its (cell,
    /// attempt) fault salt, so the returned vector is byte-identical to
    /// a sequential run of the same cells no matter how workers
    /// interleaved. No quarantine supervision is applied here —
    /// the caller owns cell-level policy.
    pub fn run_cells(&self, workloads: &[&dyn Workload], cells: &[CellKey]) -> Vec<SweepCell> {
        fan_out(
            cells.len(),
            self.threads,
            || false,
            |i| self.run_cell(workloads, cells[i]),
        )
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| skipped_cell(workloads, cells[i])))
        .collect()
    }

    /// Runs the grid on the calling thread, no pool involved — the
    /// reference implementation parallel sweeps must match byte for byte.
    pub fn run_sequential(&self, workloads: &[&dyn Workload]) -> SweepReport {
        let cells = self.grid(workloads);
        let mut out = Vec::with_capacity(cells.len());
        for cell in cells {
            out.push(self.run_cell(workloads, cell));
        }
        SweepReport { cells: out }
    }

    /// Runs the grid with resume support: `prefilled` slots (grid
    /// index → already-completed cell, from a checkpoint) are not
    /// re-run, and every freshly completed cell is offered to `sink`
    /// before the sweep moves on.
    pub(crate) fn execute_resumable(
        &self,
        workloads: &[&dyn Workload],
        prefilled: Vec<(usize, SweepCell)>,
        sink: Option<&CheckpointSink<'_>>,
    ) -> SweepReport {
        let cells = self.grid(workloads);
        let mut slots: Vec<Option<SweepCell>> = (0..cells.len()).map(|_| None).collect();
        let mut seeded_quarantine = 0usize;
        for (i, cell) in prefilled {
            if let Err(e) = &cell.result {
                if e.quarantines() {
                    seeded_quarantine += 1;
                }
            }
            slots[i] = Some(cell);
        }
        let todo: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
        let quarantined = AtomicUsize::new(seeded_quarantine);
        let sick = AtomicBool::new(
            self.max_quarantine
                .is_some_and(|max| seeded_quarantine > max),
        );
        let halt = || sick.load(Ordering::Relaxed);
        let fresh = fan_out(todo.len(), self.threads, halt, |k| {
            let i = todo[k];
            let done = self.run_cell(workloads, cells[i]);
            if let Err(e) = &done.result {
                if e.quarantines() {
                    let q = quarantined.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.max_quarantine.is_some_and(|max| q > max) {
                        sick.store(true, Ordering::Relaxed);
                    }
                }
            }
            if let Some(sink) = sink {
                sink.record(i, &done);
            }
            done
        });
        for (&i, done) in todo.iter().zip(fresh) {
            slots[i] = done;
        }
        // Unclaimed slots (the sweep went sick) become Skipped cells:
        // enumerated in the report, absent from the checkpoint, re-run
        // on resume.
        let out = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| skipped_cell(workloads, cells[i])))
            .collect();
        SweepReport { cells: out }
    }

    /// Executes one cell, retrying transient failures within the retry
    /// budget and converting errors and panics into the outcome.
    fn run_cell(&self, workloads: &[&dyn Workload], cell: CellKey) -> SweepCell {
        let w = workloads[cell.workload];
        let max_attempts = self.retries + 1;
        let mut attempts = 0;
        let mut backoff_cycles = 0u64;
        let mut trail: Vec<AttemptFailure> = Vec::new();
        let result = loop {
            attempts += 1;
            let salt = attempt_salt(w.name(), &cell, attempts);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.runner.run_salted(w, cell.mode, cell.setting, salt)
            }));
            let err = match outcome {
                Ok(Ok(report)) => break Ok(report),
                Ok(Err(e)) => CellError::from_workload(&e),
                Err(payload) => CellError {
                    kind: CellErrorKind::Panicked,
                    message: panic_text(payload.as_ref()),
                },
            };
            if err.kind == CellErrorKind::Transient && attempts < max_attempts {
                // Deterministic exponential backoff, accounted in
                // simulated cycles — the sweep never sleeps on the host.
                // The doubling saturates: past attempt 64 the shift alone
                // would be UB, and the ledger must pin at u64::MAX rather
                // than wrap the cycle clock back toward zero.
                let step = 1u64
                    .checked_shl((attempts - 1).min(64) as u32)
                    .map_or(u64::MAX, |exp| {
                        RETRY_BACKOFF_BASE_CYCLES.saturating_mul(exp)
                    });
                backoff_cycles = backoff_cycles.saturating_add(step);
                trail.push(AttemptFailure {
                    attempt: attempts,
                    kind: err.kind,
                    message: err.message,
                });
                continue;
            }
            // Exhausted (or not retryable): the LAST error is the
            // cell's outcome — it reflects the freshest fault draw.
            break Err(err);
        };
        SweepCell {
            cell,
            workload: w.name(),
            result,
            attempts,
            backoff_cycles,
            trail,
        }
    }
}

/// The workspace's one worker pool: runs `job(i)` for every `i` in
/// `0..n` on `threads` scoped workers (`0` = one per available core)
/// and returns the outcomes in index order, so the result cannot depend
/// on the worker count or on which worker finished first. Each worker
/// claims the next unclaimed index; once `halt()` holds, workers stop
/// claiming and every unclaimed index stays `None`. A panicking job
/// propagates once every worker has stopped.
pub fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    halt: impl Fn() -> bool + Sync,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while !halt() {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, job(i)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, out) in done {
                slots[i] = Some(out);
            }
        }
    });
    slots
}

/// The placeholder for a cell the sweep never claimed.
fn skipped_cell(workloads: &[&dyn Workload], cell: CellKey) -> SweepCell {
    SweepCell {
        cell,
        workload: workloads[cell.workload].name(),
        result: Err(CellError {
            kind: CellErrorKind::Skipped,
            message: "sweep stopped before this cell was executed".to_string(),
        }),
        attempts: 0,
        backoff_cycles: 0,
        trail: Vec::new(),
    }
}

/// The per-attempt fault salt: a digest of the cell coordinate and the
/// attempt ordinal, so every (cell, attempt) pair sees a distinct but
/// reproducible fault stream regardless of worker scheduling.
fn attempt_salt(name: &str, cell: &CellKey, attempt: usize) -> u64 {
    let mut h = Fnv::new();
    h.str(name);
    h.u64(cell.workload as u64);
    h.u64(cell.mode as u64);
    h.u64(cell.setting as u64);
    h.u64(cell.rep as u64);
    // Only co-tenant cells fold the dimension in, so classic cells keep
    // their historical fault streams.
    if let Some(t) = cell.tenant {
        h.u64(u64::from(t.tenants));
        h.u64(u64::from(t.antagonists));
    }
    h.u64(attempt as u64);
    h.finish()
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Env, Placement};
    use crate::workload::{WorkloadError, WorkloadOutput, WorkloadSpec};

    /// Deterministic workload touching protected memory.
    struct Stream;

    impl Workload for Stream {
        fn name(&self) -> &'static str {
            "Stream"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla, ExecMode::Native]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(1 << 20, "stream")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            let len: u64 = match setting {
                InputSetting::Low => 64 << 10,
                InputSetting::Medium => 128 << 10,
                InputSetting::High => 256 << 10,
            };
            let r = env.alloc(len, Placement::Protected)?;
            env.secure_call(|env| {
                let mut sum = 0u64;
                for i in 0..len / 64 {
                    env.write_u64(r, i * 64, i);
                    sum = sum.wrapping_add(env.read_u64(r, i * 64));
                }
                Ok::<u64, WorkloadError>(sum)
            })??;
            Ok(WorkloadOutput {
                ops: len / 64,
                checksum: 7,
                metrics: vec![],
            })
        }
    }

    /// Panics in `execute` for Native mode only.
    struct FaultyNative;

    impl Workload for FaultyNative {
        fn name(&self) -> &'static str {
            "FaultyNative"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla, ExecMode::Native]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(1 << 20, "faulty")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            _setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            if env.mode() == ExecMode::Native {
                panic!("injected failure");
            }
            env.compute(10);
            Ok(WorkloadOutput {
                ops: 1,
                checksum: 1,
                metrics: vec![],
            })
        }
    }

    fn suite() -> SuiteRunner {
        let mut cfg = RunnerConfig::quick_test();
        cfg.repetitions = 2;
        SuiteRunner::new(cfg).settings(&[InputSetting::Low, InputSetting::Medium])
    }

    #[test]
    fn grid_enumerates_in_canonical_order() {
        let s = suite();
        let grid = s.grid(&[&Stream]);
        // 2 supported modes x 2 settings x 2 reps.
        assert_eq!(grid.len(), 8);
        assert_eq!(
            grid[0],
            CellKey {
                workload: 0,
                mode: ExecMode::Vanilla,
                setting: InputSetting::Low,
                rep: 0,
                tenant: None,
            }
        );
        assert_eq!(grid[1].rep, 1);
        assert_eq!(grid[2].setting, InputSetting::Medium);
        assert_eq!(grid[4].mode, ExecMode::Native);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let s = suite();
        let seq = s.run_sequential(&[&Stream]);
        let par = s.clone().threads(4).run(&[&Stream]);
        assert_eq!(seq.cells.len(), par.cells.len());
        assert_eq!(
            seq.fingerprint(),
            par.fingerprint(),
            "parallel sweep must be byte-identical"
        );
        for (a, b) in seq.cells.iter().zip(par.cells.iter()) {
            assert_eq!(a.cell, b.cell, "grid order must be preserved");
        }
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let s = suite().threads(2);
        let sweep = s.run(&[&Stream, &FaultyNative]);
        assert_eq!(sweep.cells.len(), 16);
        let errors: Vec<_> = sweep.errors().collect();
        // FaultyNative panics in Native mode: 2 settings x 2 reps.
        assert_eq!(errors.len(), 4);
        for (cell, err) in &errors {
            assert_eq!(cell.workload, "FaultyNative");
            assert_eq!(cell.cell.mode, ExecMode::Native);
            assert!(err.panicked());
            assert_eq!(err.kind, CellErrorKind::Panicked);
            assert!(err.message.contains("injected failure"));
            assert_eq!(cell.attempts, 1, "panics are not retried");
        }
        // Every other cell still produced a report.
        assert_eq!(sweep.reports().count(), 12);
    }

    #[test]
    fn fingerprint_detects_result_differences() {
        let s = suite();
        let a = s.run_sequential(&[&Stream]);
        let mut b = s.run_sequential(&[&Stream]);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "simulation must be deterministic"
        );
        if let Ok(r) = &mut b.cells[0].result {
            r.runtime_cycles += 1;
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn unsupported_modes_are_skipped_not_errored() {
        let s = suite().modes(&[ExecMode::LibOs]);
        let sweep = s.run(&[&Stream]);
        assert!(sweep.cells.is_empty(), "Stream does not support LibOS");
    }

    /// Fails transiently a fixed number of times, then succeeds. Only
    /// meaningful in single-threaded sweeps (interior counter).
    struct Flaky {
        remaining: std::sync::atomic::AtomicUsize,
    }

    impl Flaky {
        fn failing(n: usize) -> Self {
            Flaky {
                remaining: std::sync::atomic::AtomicUsize::new(n),
            }
        }
    }

    impl Workload for Flaky {
        fn name(&self) -> &'static str {
            "Flaky"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(0, "flaky")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            _setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            env.compute(100);
            let left = self.remaining.load(Ordering::SeqCst);
            if left > 0 {
                self.remaining.store(left - 1, Ordering::SeqCst);
                return Err(crate::workload::TransientError::SyscallFailed {
                    at_cycles: env.elapsed_cycles(),
                }
                .into());
            }
            Ok(WorkloadOutput {
                ops: 1,
                checksum: 9,
                metrics: vec![],
            })
        }
    }

    fn tiny_suite() -> SuiteRunner {
        SuiteRunner::new(RunnerConfig::quick_test())
            .modes(&[ExecMode::Vanilla])
            .settings(&[InputSetting::Low])
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let w = Flaky::failing(2);
        let sweep = tiny_suite().retries(3).run_sequential(&[&w]);
        assert_eq!(sweep.cells.len(), 1);
        let cell = &sweep.cells[0];
        assert!(cell.result.is_ok(), "{:?}", cell.result);
        assert_eq!(cell.attempts, 3, "two failures, then success");
        // base << 0 + base << 1 accounted for the two retries.
        assert_eq!(cell.backoff_cycles, 3 * RETRY_BACKOFF_BASE_CYCLES);
    }

    #[test]
    fn retry_exhaustion_keeps_the_last_error() {
        let w = Flaky::failing(usize::MAX);
        let sweep = tiny_suite().retries(1).run_sequential(&[&w]);
        let cell = &sweep.cells[0];
        let err = cell.result.as_ref().unwrap_err();
        assert_eq!(err.kind, CellErrorKind::Transient);
        assert!(err.message.contains("syscall"), "{}", err.message);
        assert_eq!(cell.attempts, 2, "one retry, then exhaustion");
        assert_eq!(cell.backoff_cycles, RETRY_BACKOFF_BASE_CYCLES);
    }

    #[test]
    fn backoff_accounting_saturates_at_the_doubling_boundary() {
        // 80 retries push the doubling well past both overflow points:
        // base * 2^k exceeds u64::MAX around k = 50, and the shift
        // itself would be UB at k = 64. The ledger must pin at
        // u64::MAX instead of wrapping (or aborting) the cycle clock.
        let w = Flaky::failing(usize::MAX);
        let sweep = tiny_suite().retries(80).run_sequential(&[&w]);
        let cell = &sweep.cells[0];
        assert_eq!(cell.attempts, 81);
        assert_eq!(cell.backoff_cycles, u64::MAX, "saturated, not wrapped");

        // Just below the base*2^k overflow boundary the exact doubling
        // sum still holds: sum_{k=0}^{attempts-2} base << k.
        let w = Flaky::failing(usize::MAX);
        let sweep = tiny_suite().retries(10).run_sequential(&[&w]);
        let cell = &sweep.cells[0];
        assert_eq!(
            cell.backoff_cycles,
            RETRY_BACKOFF_BASE_CYCLES * ((1u64 << 10) - 1),
            "exact geometric sum below the saturation boundary"
        );
    }

    /// Always fails deterministically.
    struct Broken;

    impl Workload for Broken {
        fn name(&self) -> &'static str {
            "Broken"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(0, "broken")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            _env: &mut Env,
            _setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            Err(WorkloadError::Validation("always wrong".into()))
        }
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let sweep = tiny_suite().retries(5).run_sequential(&[&Broken]);
        let cell = &sweep.cells[0];
        let err = cell.result.as_ref().unwrap_err();
        assert_eq!(err.kind, CellErrorKind::Fatal);
        assert_eq!(cell.attempts, 1);
        assert_eq!(cell.backoff_cycles, 0);
    }

    #[test]
    fn cell_error_kind_display_round_trips() {
        for kind in [
            CellErrorKind::Transient,
            CellErrorKind::Fatal,
            CellErrorKind::TimedOut,
            CellErrorKind::Panicked,
            CellErrorKind::Skipped,
            CellErrorKind::Degraded,
        ] {
            let shown = kind.to_string();
            assert_eq!(shown.parse::<CellErrorKind>().unwrap(), kind);
        }
        assert!("weird".parse::<CellErrorKind>().is_err());
    }

    #[test]
    fn retry_trail_records_every_non_final_failure() {
        let w = Flaky::failing(2);
        let sweep = tiny_suite().retries(3).run_sequential(&[&w]);
        let cell = &sweep.cells[0];
        assert!(cell.result.is_ok());
        assert_eq!(
            cell.trail.len(),
            2,
            "two transient failures preceded success"
        );
        assert_eq!(cell.trail[0].attempt, 1);
        assert_eq!(cell.trail[1].attempt, 2);
        assert!(cell
            .trail
            .iter()
            .all(|a| a.kind == CellErrorKind::Transient));
    }

    fn broken_suite(reps: usize) -> SuiteRunner {
        let mut cfg = RunnerConfig::quick_test();
        cfg.repetitions = reps;
        SuiteRunner::new(cfg)
            .modes(&[ExecMode::Vanilla])
            .settings(&[InputSetting::Low])
            .threads(1)
    }

    #[test]
    fn quarantine_threshold_fails_fast_and_skips_the_remainder() {
        let s = broken_suite(4).max_quarantine(0);
        let err = s.try_run(&[&Broken]).unwrap_err();
        match err {
            SweepError::QuarantineExceeded {
                quarantined,
                max,
                cells,
            } => {
                assert_eq!(quarantined, 1);
                assert_eq!(max, 0);
                assert_eq!(cells.len(), 1, "the poisoned cell is enumerated");
                assert_eq!(cells[0].to_string(), "0/Vanilla/Low/0");
            }
            other => panic!("expected QuarantineExceeded, got {other:?}"),
        }
        // The report (via the non-failing path) enumerates both the
        // quarantined cell and the skipped remainder.
        let report = s.run(&[&Broken]);
        assert_eq!(report.quarantined().count(), 1);
        assert_eq!(
            report.skipped().count(),
            3,
            "one worker stops after first quarantine"
        );
    }

    #[test]
    fn quarantine_within_tolerance_completes_the_sweep() {
        let s = broken_suite(3).max_quarantine(3);
        let report = s.try_run(&[&Broken]).expect("within tolerance");
        assert_eq!(report.quarantined().count(), 3);
        assert_eq!(report.skipped().count(), 0);
    }
}

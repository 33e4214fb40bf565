//! Campaign execution: stages, waves, artifacts, and crash-safe resume.
//!
//! A campaign is executed stage by stage; within a stage the grid is
//! consumed in *waves* of `jobs` cells. All supervision decisions
//! ([`Supervisor::admit`]) happen sequentially in grid order at the
//! start of a wave, the admitted cells run in parallel, and outcomes
//! are observed — again in grid order — at the wave boundary. Because
//! the wave width comes from the config (never from the machine) and
//! cell outcomes are pure functions of the salted fault plan, two runs
//! of the same campaign make byte-identical decisions regardless of how
//! many host threads actually executed the cells.
//!
//! Crash-safety rides entirely on the core artifact plane: every
//! compared artifact (`report.csv`, `checkpoint.json`, `trace.jsonl`)
//! is published sealed through a verified temp and a rename, and a
//! (re)started stage first quarantines any temp a crash left
//! un-renamed, then adopts the checkpoint. An adopted
//! cell flows through the *same* admission/observation sequence as an
//! executed one, so a resumed campaign converges on the same artifacts
//! as an uninterrupted run.

use crate::config::{CampaignConfig, StageSpec};
use crate::supervisor::{Admission, Observation, Supervisor, SupervisorHealth};
use faults::prng::splitmix64;
use sgxgauge_core::sweep::{CellError, CellErrorKind, SweepCell};
use sgxgauge_core::workload::Workload;
use sgxgauge_core::{
    io, ArtifactError, ArtifactIo, CellKey, ChaosFs, RealFs, ReportTable, RunnerConfig,
    SuiteRunner, TenantDim,
};
use std::path::Path;
use std::sync::Arc;
use trace::{CampaignEvent, CampaignLog, ShedReason};

/// Why a campaign could not complete.
#[derive(Debug)]
pub enum CampaignError {
    /// The configuration is unusable (unknown workload names, etc.).
    Config(String),
    /// The artifact plane failed in a way retries could not fix — this
    /// is also how a simulated process kill surfaces.
    Artifact(ArtifactError),
    /// More cells quarantined (fatal/panicked) than the campaign
    /// tolerates.
    Quarantine {
        /// Stage that crossed the threshold.
        stage: String,
        /// Quarantined cells observed campaign-wide.
        quarantined: usize,
        /// The configured tolerance.
        max: usize,
        /// The quarantined cells, in observation order.
        cells: Vec<CellKey>,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Config(msg) => write!(f, "campaign config: {msg}"),
            CampaignError::Artifact(e) => write!(f, "campaign artifact plane: {e}"),
            CampaignError::Quarantine {
                stage,
                quarantined,
                max,
                cells,
            } => {
                write!(
                    f,
                    "campaign is globally sick at stage `{stage}`: \
                     {quarantined} cells quarantined (tolerance {max})"
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

impl std::error::Error for CampaignError {}

impl From<ArtifactError> for CampaignError {
    fn from(e: ArtifactError) -> Self {
        CampaignError::Artifact(e)
    }
}

/// Outcome of one stage, for the campaign report and `health.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// The stage was skipped whole (degraded antagonist).
    pub skipped: bool,
    /// Cells freshly executed this run.
    pub executed: usize,
    /// Cells adopted from the stage checkpoint.
    pub adopted: usize,
    /// Cells shed by supervision.
    pub shed: usize,
    /// Quarantined (fatal/panicked) cells.
    pub quarantined: usize,
    /// Simulated runtime cycles of the stage's settled cells.
    pub runtime_cycles: u64,
    /// Simulated backoff cycles accounted by the stage's retries.
    pub backoff_cycles: u64,
    /// Temp siblings of interrupted publishes that the stage's startup
    /// recovery quarantined.
    pub recovered: usize,
}

/// What one campaign run did, across all stages.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-stage outcomes, in stage order.
    pub stages: Vec<StageReport>,
    /// Final supervision counters.
    pub health: SupervisorHealth,
    /// Total simulated runtime cycles across settled cells.
    pub total_runtime_cycles: u64,
    /// Total simulated backoff cycles across retries.
    pub total_backoff_cycles: u64,
}

impl CampaignReport {
    /// All simulated cycles the campaign accounted (runtime + backoff).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_runtime_cycles
            .saturating_add(self.total_backoff_cycles)
    }
}

/// Runs a campaign, writing the per-stage artifact tree under `out`:
/// `<out>/<stage>/{report.csv, checkpoint.json, trace.jsonl, health.json}`.
///
/// `chaos` applies each stage's `io_faults` plan to the artifact plane;
/// `kill` (used by the soak harness) is a campaign-wide [`ChaosFs`]
/// whose `crash_rename` plan kills the process at the N-th artifact
/// rename: it sits under every stage's io-fault layer, so a
/// fault-retried rename still ticks its countdown. Resume is
/// implicit: each stage quarantines stray temps and adopts its
/// checkpoint before executing anything.
///
/// # Errors
///
/// [`CampaignError`] — a config problem, a non-transient artifact
/// failure (including the simulated kill), or a blown quarantine
/// tolerance.
pub fn run_campaign(
    cfg: &CampaignConfig,
    out: &Path,
    chaos: bool,
    kill: Option<Arc<ChaosFs>>,
) -> Result<CampaignReport, CampaignError> {
    let suite = sgxgauge_workloads::suite_scaled(cfg.scale);
    let mut supervisor = Supervisor::new(
        cfg.breaker_threshold,
        cfg.breaker_cooldown,
        cfg.retry_budget_cycles,
    );
    let mut report = CampaignReport::default();
    let mut quarantined_cells: Vec<CellKey> = Vec::new();
    for (si, stage) in cfg.stages.iter().enumerate() {
        let stage_salt = splitmix64(cfg.seed.wrapping_add(si as u64 + 1));
        let stage_dir = out.join(&stage.name);
        let io = stage_io(stage, chaos, kill.as_ref(), stage_salt);
        let io: &dyn ArtifactIo = io.as_ref();
        io.create_dir_all(&stage_dir)?;
        let mut log = CampaignLog::new();
        if supervisor.is_degraded() && stage.antagonist {
            // An antagonist stage exists to create stress; a degraded
            // campaign cannot afford it. Its artifacts still exist (so
            // the tree shape is run-independent), just empty.
            log.push(
                supervisor.health().retry_spent_cycles,
                CampaignEvent::StageSkipped {
                    stage: stage.name.clone(),
                    reason: ShedReason::AntagonistSkipped,
                },
            );
            let skipped = StageReport {
                name: stage.name.clone(),
                skipped: true,
                ..StageReport::default()
            };
            let table = stage_table(&stage.name);
            io::publish_sealed(io, &stage_dir.join("report.csv"), &table.render())?;
            io::publish_sealed(io, &stage_dir.join("trace.jsonl"), &log.render_jsonl())?;
            write_health(io, &stage_dir, &supervisor, &skipped)?;
            report.stages.push(skipped);
            continue;
        }
        let sr = run_stage(
            cfg,
            stage,
            stage_salt,
            &suite,
            io,
            &stage_dir,
            &mut supervisor,
            &mut log,
            &mut quarantined_cells,
        )?;
        report.total_runtime_cycles = report
            .total_runtime_cycles
            .saturating_add(sr.runtime_cycles);
        report.total_backoff_cycles = report
            .total_backoff_cycles
            .saturating_add(sr.backoff_cycles);
        let total_quarantined = quarantined_cells.len();
        report.stages.push(sr);
        if let Some(max) = cfg.max_quarantine {
            if total_quarantined > max {
                return Err(CampaignError::Quarantine {
                    stage: stage.name.clone(),
                    quarantined: total_quarantined,
                    max,
                    cells: quarantined_cells,
                });
            }
        }
    }
    report.health = supervisor.health();
    Ok(report)
}

fn base_runner_config(cfg: &CampaignConfig) -> RunnerConfig {
    let mut base = if cfg.quick_profile {
        RunnerConfig::quick_test()
    } else {
        RunnerConfig::paper(cfg.reps)
    };
    base.repetitions = cfg.reps;
    base
}

/// Selects the stage's workload subset, in config order (the whole
/// suite when the stage names none).
fn stage_workloads<'a>(
    stage: &StageSpec,
    suite: &'a [Box<dyn Workload>],
) -> Result<Vec<&'a dyn Workload>, CampaignError> {
    if stage.workloads.is_empty() {
        return Ok(suite.iter().map(AsRef::as_ref).collect());
    }
    let mut picked = Vec::new();
    for name in &stage.workloads {
        let found = suite.iter().find(|w| w.name() == name).ok_or_else(|| {
            CampaignError::Config(format!(
                "stage `{}` names unknown workload `{name}`",
                stage.name
            ))
        })?;
        picked.push(found.as_ref());
    }
    Ok(picked)
}

fn stage_io(
    stage: &StageSpec,
    chaos: bool,
    kill: Option<&Arc<ChaosFs>>,
    stage_salt: u64,
) -> Arc<dyn ArtifactIo> {
    let inner: Arc<dyn ArtifactIo> = match kill {
        Some(kill) => kill.clone(),
        None => Arc::new(RealFs),
    };
    match (&stage.io_faults, chaos) {
        (Some(plan), true) => {
            // Each stage gets its own deterministic io-fault stream; the
            // kill countdown (if any) lives *under* the chaos layer so a
            // fault-retried rename still ticks it.
            Arc::new(ChaosFs::new(inner, plan.salted(stage_salt)))
        }
        _ => inner,
    }
}

fn stage_table(stage: &str) -> ReportTable {
    ReportTable::new(
        &format!("campaign stage {stage}"),
        &[
            "cell",
            "workload",
            "mode",
            "setting",
            "rep",
            "outcome",
            "attempts",
            "backoff_cycles",
            "runtime_cycles",
            "ops",
            "checksum",
        ],
    )
}

/// Quarantines the stray temps of the stage's compared artifacts and
/// counts them.
fn recover_stage(io: &dyn ArtifactIo, stage_dir: &Path) -> Result<usize, ArtifactError> {
    let mut recovered = 0;
    for artifact in ["checkpoint.json", "report.csv", "trace.jsonl"] {
        if io::recover(io, &stage_dir.join(artifact))?.is_some() {
            recovered += 1;
        }
    }
    Ok(recovered)
}

#[allow(clippy::too_many_arguments)]
fn run_stage(
    cfg: &CampaignConfig,
    stage: &StageSpec,
    stage_salt: u64,
    suite: &[Box<dyn Workload>],
    io: &dyn ArtifactIo,
    stage_dir: &Path,
    supervisor: &mut Supervisor,
    log: &mut CampaignLog,
    quarantined_cells: &mut Vec<CellKey>,
) -> Result<StageReport, CampaignError> {
    let workloads = stage_workloads(stage, suite)?;
    let mut base = base_runner_config(cfg);
    if stage.tenants > 1 {
        // Co-tenancy: `tenants` enclaves share one machine's EPC, so
        // each cell runs against its per-tenant share of the pool. The
        // floor keeps a degenerate config (tiny EPC, many tenants) a
        // slow stage instead of an unbootable one.
        let share = base.env.sgx.epc_bytes / stage.tenants;
        base.env.sgx.epc_bytes = share.max(base.env.sgx.epc_reserved_bytes + (64 << 12));
    }
    // The stage's normal and degraded runners are clones of one runner,
    // so they share its LibOS launch.
    let base = SuiteRunner::new(base);
    // Stage validation bounds both counts; a stage that slipped past it
    // is a config error here, never a key its own resume refuses.
    let tenant = if stage.tenants > 0 {
        let clamp = |n: u64| u8::try_from(n).unwrap_or(u8::MAX);
        let dim = TenantDim::new(clamp(stage.tenants), clamp(stage.antagonists));
        Some(dim.map_err(CampaignError::Config)?)
    } else {
        None
    };
    let make_runner = |retries: usize| {
        let mut runner = base
            .clone()
            .modes(&stage.modes)
            .settings(&stage.settings)
            .threads(cfg.jobs)
            .retries(retries);
        if let Some(dim) = tenant {
            runner = runner.tenant(dim);
        }
        if let Some(plan) = &stage.faults {
            runner = runner.faults(plan.salted(stage_salt));
        }
        runner
    };
    let normal = make_runner(cfg.retries);
    let degraded = make_runner(0);
    let grid = normal.grid(&workloads);
    let checkpoint = normal.checkpoint(&workloads);
    let fault_seed = stage
        .faults
        .as_ref()
        .map_or(0, |p| p.salted(stage_salt).seed);
    let mut sr = StageReport {
        name: stage.name.clone(),
        ..StageReport::default()
    };

    // Crash recovery, then checkpoint adoption. A missing, stale, or
    // unreadable checkpoint simply means a fresh stage: resume must
    // never be able to make a campaign fail that would have succeeded
    // from scratch.
    sr.recovered = recover_stage(io, stage_dir)?;
    let checkpoint_path = stage_dir.join("checkpoint.json");
    let mut adopted: Vec<Option<SweepCell>> = (0..grid.len()).map(|_| None).collect();
    if io.exists(&checkpoint_path) {
        for (index, cell) in checkpoint.load(io, &checkpoint_path).unwrap_or_default() {
            adopted[index] = Some(cell);
        }
    }

    supervisor.begin_stage(stage.deadline_cycles);
    log.push(
        supervisor.health().retry_spent_cycles,
        CampaignEvent::StageBegin {
            stage: stage.name.clone(),
            cells: grid.len(),
            fault_seed,
        },
    );

    let mut settled: Vec<Option<SweepCell>> = (0..grid.len()).map(|_| None).collect();
    let wave_width = cfg.jobs.max(1);
    let mut wave_start = 0;
    while wave_start < grid.len() {
        let wave_end = (wave_start + wave_width).min(grid.len());
        // Pick the executing runner for the wave *before* admissions:
        // degraded-ness only flips at wave boundaries, so this is the
        // state every cell of the wave sees.
        let runner = if supervisor.is_degraded() {
            &degraded
        } else {
            &normal
        };
        let mut to_run: Vec<(usize, CellKey)> = Vec::new();
        let mut probes: Vec<bool> = (wave_start..wave_end).map(|_| false).collect();
        for j in wave_start..wave_end {
            let key = grid[j];
            let workload = workloads[key.workload].name();
            match supervisor.admit(workload, &key.to_string(), key.rep, log) {
                Admission::Run { probe } => {
                    probes[j - wave_start] = probe;
                    if adopted[j].is_none() {
                        to_run.push((j, key));
                    }
                }
                Admission::Shed(reason) => {
                    settled[j] = Some(shed_cell(workload, key, reason));
                    sr.shed += 1;
                }
            }
        }
        let keys: Vec<CellKey> = to_run.iter().map(|&(_, k)| k).collect();
        let executed = runner.run_cells(&workloads, &keys);
        for ((j, _), cell) in to_run.iter().zip(executed) {
            settled[*j] = Some(cell);
            sr.executed += 1;
        }
        // Observe in grid order at the wave boundary — adopted cells
        // included, so supervision replays identically on resume.
        for j in wave_start..wave_end {
            let key = grid[j];
            let workload = workloads[key.workload].name();
            if settled[j].is_none() {
                if let Some(cell) = adopted[j].take() {
                    settled[j] = Some(cell);
                    sr.adopted += 1;
                }
            }
            let Some(cell) = settled[j].as_ref() else {
                continue;
            };
            if matches!(
                cell.result,
                Err(CellError {
                    kind: CellErrorKind::Degraded,
                    ..
                })
            ) {
                continue;
            }
            let obs = observe_cell(cell);
            supervisor.observe(workload, probes[j - wave_start], obs, log);
            sr.runtime_cycles = sr.runtime_cycles.saturating_add(obs.cell_cycles);
            sr.backoff_cycles = sr.backoff_cycles.saturating_add(obs.backoff_cycles);
            if let Err(e) = &cell.result {
                if e.quarantines() {
                    sr.quarantined += 1;
                    quarantined_cells.push(key);
                }
            }
        }
        // Checkpoint the settled (non-shed) prefix so a kill inside the
        // next wave resumes here. Shed cells are supervision decisions,
        // recomputed on resume, never persisted.
        let durable = settled
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|cell| (index, cell)))
            .filter(|(_, cell)| {
                !matches!(
                    cell.result,
                    Err(CellError {
                        kind: CellErrorKind::Degraded,
                        ..
                    })
                )
            });
        io::publish_sealed(io, &checkpoint_path, &checkpoint.render(durable))?;
        wave_start = wave_end;
    }

    log.push(
        supervisor.health().retry_spent_cycles,
        CampaignEvent::StageEnd {
            stage: stage.name.clone(),
            executed: sr.executed + sr.adopted,
            shed: sr.shed,
            spent_cycles: supervisor.stage_spent_cycles(),
        },
    );

    let mut table = stage_table(&stage.name);
    for (j, slot) in settled.iter().enumerate() {
        if let Some(cell) = slot {
            let name = workloads[grid[j].workload].name();
            table.push_row(report_row(&grid[j], name, cell));
        }
    }
    io::publish_sealed(io, &stage_dir.join("report.csv"), &table.render())?;
    io::publish_sealed(io, &stage_dir.join("trace.jsonl"), &log.render_jsonl())?;
    write_health(io, stage_dir, supervisor, &sr)?;
    Ok(sr)
}

fn shed_cell(workload: &'static str, key: CellKey, reason: ShedReason) -> SweepCell {
    SweepCell {
        cell: key,
        workload,
        result: Err(CellError {
            kind: CellErrorKind::Degraded,
            message: format!("shed by campaign supervision: {}", reason.name()),
        }),
        attempts: 0,
        backoff_cycles: 0,
        trail: Vec::new(),
    }
}

fn observe_cell(cell: &SweepCell) -> Observation {
    match &cell.result {
        Ok(report) => Observation {
            ok: true,
            transient: false,
            backoff_cycles: cell.backoff_cycles,
            cell_cycles: report.runtime_cycles,
        },
        Err(e) => Observation {
            ok: false,
            transient: e.kind == CellErrorKind::Transient,
            backoff_cycles: cell.backoff_cycles,
            cell_cycles: 0,
        },
    }
}

fn report_row(key: &CellKey, workload: &str, cell: &SweepCell) -> Vec<String> {
    let (outcome, runtime, ops, checksum) = match &cell.result {
        Ok(report) => (
            "ok".to_owned(),
            report.runtime_cycles,
            report.output.ops,
            report.output.checksum,
        ),
        Err(e) => (e.kind.to_string(), 0, 0, 0),
    };
    vec![
        key.to_string(),
        workload.to_owned(),
        key.mode.to_string(),
        key.setting.to_string(),
        key.rep.to_string(),
        outcome,
        cell.attempts.to_string(),
        cell.backoff_cycles.to_string(),
        runtime.to_string(),
        ops.to_string(),
        checksum.to_string(),
    ]
}

/// Writes the run-specific `health.json` (attempt trails, recovery and
/// shed counters). Deliberately *excluded* from soak byte-comparison:
/// it records how this particular run got here, not where it landed.
fn write_health(
    io: &dyn ArtifactIo,
    stage_dir: &Path,
    supervisor: &Supervisor,
    sr: &StageReport,
) -> Result<(), ArtifactError> {
    let h = supervisor.health();
    let body = format!(
        "{{\"stage\":\"{}\",\"executed\":{},\"adopted\":{},\"shed\":{},\
         \"quarantined\":{},\"recovered\":{},\"runtime_cycles\":{},\
         \"backoff_cycles\":{},\"retry_spent_cycles\":{},\"degraded\":{},\
         \"breaker_trips\":{},\"cells_shed\":{}}}\n",
        sr.name,
        sr.executed,
        sr.adopted,
        sr.shed,
        sr.quarantined,
        sr.recovered,
        sr.runtime_cycles,
        sr.backoff_cycles,
        h.retry_spent_cycles,
        h.degraded,
        h.breaker_trips,
        h.cells_shed
    );
    let path = stage_dir.join("health.json");
    io::retry_transient(io::PUBLISH_ATTEMPTS, || {
        io::write_atomic_with(io, &path, &body)
    })
}

//! Campaign execution: stages, artifacts, and crash-safe resume.
//!
//! A campaign is executed stage by stage; each stage is one
//! [`SuiteRunner::sweep`] with the campaign's [`Supervisor`] as its
//! policy. The sweep admits the grid in *waves* of `jobs` cells, in
//! grid order, runs the admitted cells in parallel, and shows the
//! supervisor their outcomes — again in grid order — once the wave has
//! settled. Because the wave width comes from the config (never from
//! the machine) and cell outcomes are pure functions of the salted
//! fault plan, two runs of the same campaign make byte-identical
//! decisions regardless of how many host threads actually executed the
//! cells.
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
use crate::supervisor::{Supervisor, SupervisorHealth};
use faults::prng::splitmix64;
use sgxgauge_core::sweep::SweepCell;
use sgxgauge_core::workload::Workload;
use sgxgauge_core::{
    io, ArtifactError, ArtifactIo, CellKey, ChaosFs, CheckpointFile, EnvConfig, ExecMode, RealFs,
    ReportTable, RunnerConfig, SuiteRunner,
};
use std::path::Path;
use std::sync::Arc;
use trace::{CampaignEvent, ShedReason};

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
    /// Temps quarantined by the startup recovery of every stage this
    /// run reached, including a stage an error cut short.
    pub recovered: usize,
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
    let mut report = CampaignReport::default();
    run_into(cfg, out, chaos, kill, &mut report)?;
    Ok(report)
}

/// [`run_campaign`], filling `report` as it goes, so a run that fails
/// still reports what it did up to the failure.
pub(crate) fn run_into(
    cfg: &CampaignConfig,
    out: &Path,
    chaos: bool,
    kill: Option<Arc<ChaosFs>>,
    report: &mut CampaignReport,
) -> Result<(), CampaignError> {
    let suite = sgxgauge_workloads::suite_scaled(cfg.scale);
    let mut supervisor = Supervisor::new(
        cfg.breaker_threshold,
        cfg.breaker_cooldown,
        cfg.retry_budget_cycles,
    );
    let mut quarantined_cells: Vec<CellKey> = Vec::new();
    for (si, stage) in cfg.stages.iter().enumerate() {
        let stage_salt = splitmix64(cfg.seed.wrapping_add(si as u64 + 1));
        let stage_dir = out.join(&stage.name);
        let io = stage_io(stage, chaos, kill.as_ref(), stage_salt);
        let io: &dyn ArtifactIo = io.as_ref();
        io.create_dir_all(&stage_dir)?;
        if supervisor.is_degraded() && stage.antagonist {
            // An antagonist stage exists to create stress; a degraded
            // campaign cannot afford it. Its artifacts still exist (so
            // the tree shape is run-independent), just empty.
            supervisor.event(CampaignEvent::StageSkipped {
                stage: stage.name.clone(),
                reason: ShedReason::AntagonistSkipped,
            });
            let skipped = StageReport {
                name: stage.name.clone(),
                skipped: true,
                ..StageReport::default()
            };
            let table = stage_table(&stage.name);
            io::publish_sealed(io, &stage_dir.join("report.csv"), &table.render())?;
            let log = supervisor.take_log();
            io::publish_sealed(io, &stage_dir.join("trace.jsonl"), &log.render_jsonl())?;
            write_health(io, &stage_dir, &supervisor, &skipped)?;
            report.stages.push(skipped);
            continue;
        }
        let recovered = recover_stage(io, &stage_dir)?;
        report.recovered += recovered;
        let mut sr = run_stage(
            cfg,
            stage,
            stage_salt,
            &suite,
            io,
            &stage_dir,
            &mut supervisor,
            &mut quarantined_cells,
        )?;
        sr.recovered = recovered;
        write_health(io, &stage_dir, &supervisor, &sr)?;
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
    Ok(())
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

/// Runs one stage's grid as a sweep under the supervisor and publishes
/// its report and trace; the caller writes `health.json`.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    cfg: &CampaignConfig,
    stage: &StageSpec,
    stage_salt: u64,
    suite: &[Box<dyn Workload>],
    io: &dyn ArtifactIo,
    stage_dir: &Path,
    supervisor: &mut Supervisor,
    quarantined_cells: &mut Vec<CellKey>,
) -> Result<StageReport, CampaignError> {
    let workloads = stage_workloads(stage, suite)?;
    let mut runner = SuiteRunner::new(RunnerConfig {
        env: EnvConfig::scaled(ExecMode::Vanilla, cfg.scale),
        repetitions: cfg.reps,
    })
    .modes(&stage.modes)
    .settings(&stage.settings)
    .threads(cfg.jobs)
    .retries(cfg.retries);
    if let Some(plan) = &stage.faults {
        runner = runner.faults(plan.salted(stage_salt));
    }
    let fault_seed = stage
        .faults
        .as_ref()
        .map_or(0, |p| p.salted(stage_salt).seed);
    let mut sr = StageReport {
        name: stage.name.clone(),
        ..StageReport::default()
    };

    // A missing, stale, or unreadable checkpoint simply means a fresh
    // stage: resume must never be able to make a campaign fail that
    // would have succeeded from scratch.
    let path = stage_dir.join("checkpoint.json");
    let adopted = if io.exists(&path) {
        runner.checkpoint(&workloads).load(io, &path).ok()
    } else {
        None
    };
    let grid_len = runner.grid(&workloads).len();
    let mut was_adopted = vec![false; grid_len];
    for (index, _) in adopted.iter().flatten() {
        was_adopted[*index] = true;
    }

    supervisor.begin_stage(stage.deadline_cycles);
    supervisor.event(CampaignEvent::StageBegin {
        stage: stage.name.clone(),
        cells: grid_len,
        fault_seed,
    });
    let file = CheckpointFile {
        io,
        path: &path,
        adopted,
    };
    let sweep = runner.sweep(&workloads, supervisor, Some(file))?;
    let mut table = stage_table(&stage.name);
    for (cell, adopted) in sweep.cells.iter().zip(was_adopted) {
        table.push_row(report_row(cell));
        if cell.shed() {
            sr.shed += 1;
            continue;
        }
        if adopted {
            sr.adopted += 1;
        } else {
            sr.executed += 1;
        }
        let runtime = cell.result.as_ref().map_or(0, |r| r.runtime_cycles);
        sr.runtime_cycles = sr.runtime_cycles.saturating_add(runtime);
        sr.backoff_cycles = sr.backoff_cycles.saturating_add(cell.backoff_cycles);
        if cell.result.as_ref().is_err_and(|e| e.quarantines()) {
            sr.quarantined += 1;
            quarantined_cells.push(cell.cell);
        }
    }
    supervisor.event(CampaignEvent::StageEnd {
        stage: stage.name.clone(),
        executed: sr.executed + sr.adopted,
        shed: sr.shed,
        spent_cycles: supervisor.stage_spent_cycles(),
    });
    io::publish_sealed(io, &stage_dir.join("report.csv"), &table.render())?;
    let log = supervisor.take_log();
    io::publish_sealed(io, &stage_dir.join("trace.jsonl"), &log.render_jsonl())?;
    Ok(sr)
}

fn report_row(cell: &SweepCell) -> Vec<String> {
    let key = &cell.cell;
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
        cell.workload.to_owned(),
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

//! Executing (workload × mode × setting) combinations.

use crate::env::{CycleBudgetExceeded, Env, EnvConfig};
use crate::modes::{ExecMode, InputSetting};
use crate::workload::{Workload, WorkloadError, WorkloadOutput};
use faults::FaultPlan;
use libos_sim::StartupStats;
use mem_sim::Counters;
use sgx_sim::{DriverStats, SgxCounters};
use std::sync::{Arc, OnceLock};

/// Configuration of the per-run trace sink ([`Runner::tracing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in records; the oldest records are
    /// overwritten (and counted as dropped) past this bound.
    pub capacity: usize,
    /// Spacing of periodic counter samples in simulated cycles; `0`
    /// disables periodic sampling (phase boundaries still snapshot).
    pub sample_interval_cycles: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: trace::DEFAULT_CAPACITY,
            sample_interval_cycles: trace::DEFAULT_SAMPLE_INTERVAL,
        }
    }
}

/// Configuration of a [`Runner`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Base environment template (the mode field is overridden per run).
    pub env: EnvConfig,
    /// Repetitions per combination; the paper uses ≥10 and reports the
    /// geometric mean, which [`crate::report`] computes from the reports.
    pub repetitions: usize,
}

impl RunnerConfig {
    /// Paper-faithful platform with `reps` repetitions.
    pub fn paper(reps: usize) -> Self {
        RunnerConfig {
            env: EnvConfig::paper(ExecMode::Vanilla, 0),
            repetitions: reps,
        }
    }

    /// Fast configuration for tests.
    pub fn quick_test() -> Self {
        RunnerConfig {
            env: EnvConfig::quick_test(ExecMode::Vanilla),
            repetitions: 1,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Mode the run executed in.
    pub mode: ExecMode,
    /// Input setting.
    pub setting: InputSetting,
    /// Measured wall-clock in cycles (max over thread clocks).
    pub runtime_cycles: u64,
    /// Hardware counters of the measured region.
    pub counters: Counters,
    /// SGX event counters of the measured region.
    pub sgx: SgxCounters,
    /// Driver latency samples of the measured region.
    pub driver: DriverStats,
    /// LibOS start-up statistics (LibOS mode only; excluded from
    /// `runtime_cycles` per Appendix D).
    pub libos_startup: Option<StartupStats>,
    /// Core clock of the machine the run executed on, in Hz.
    pub clock_hz: u64,
    /// The workload's output (ops, checksum, metrics).
    pub output: WorkloadOutput,
    /// Phase-resolved counter timeline: one snapshot per periodic sample
    /// and per phase boundary. Empty unless the run was traced.
    pub timeline: Vec<trace::TimelinePoint>,
    /// Per-phase cycle attribution (app vs transition vs paging vs MEE).
    /// Empty unless the run was traced.
    pub phases: Vec<trace::PhaseAttribution>,
    /// The raw trace stream, for JSONL export. `None` unless the run was
    /// traced. Not persisted by checkpoints.
    pub trace: Option<trace::TraceSink>,
}

impl RunReport {
    /// Runtime in seconds at the machine's configured clock.
    pub fn runtime_seconds(&self) -> f64 {
        self.runtime_cycles as f64 / self.clock_hz.max(1) as f64
    }

    /// The machine clock in GHz, for display.
    pub fn clock_ghz(&self) -> f64 {
        self.clock_hz as f64 / 1e9
    }
}

/// The launched LibOS platform a [`Runner`] clones into every LibOS run.
///
/// A LibOS launch measures the whole 4 GB enclave (~1 M EPC evictions)
/// and depends only on the runner's fixed [`EnvConfig`], never on the
/// workload or setting, so it is simulated once and each run starts from
/// a fork of the result. A failed launch fails every LibOS run the same
/// way. Clones of a runner share the one launch.
#[derive(Clone, Default)]
struct LaunchedLibos(Arc<OnceLock<Result<Env, WorkloadError>>>);

impl LaunchedLibos {
    /// A fork of the LibOS platform `base` describes, launching it on
    /// first use.
    fn fork(&self, base: &EnvConfig) -> Result<Env, WorkloadError> {
        self.0
            .get_or_init(|| {
                let mut cfg = base.clone();
                cfg.mode = ExecMode::LibOs;
                Env::new(cfg)
            })
            .clone()
    }
}

impl std::fmt::Debug for LaunchedLibos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchedLibos")
            .field("launched", &self.0.get().is_some())
            .finish()
    }
}

/// Runs workloads and produces [`RunReport`]s.
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: RunnerConfig,
    faults: Option<FaultPlan>,
    cell_budget: Option<u64>,
    trace: Option<TraceConfig>,
    libos: LaunchedLibos,
}

impl Runner {
    /// Creates a runner.
    pub fn new(cfg: RunnerConfig) -> Self {
        Runner {
            cfg,
            faults: None,
            cell_budget: None,
            trace: None,
            libos: LaunchedLibos::default(),
        }
    }

    /// Installs a trace sink into every run: the report's `timeline`,
    /// `phases` and `trace` fields are filled, and the whole measured
    /// region executes inside an implicit `"run"` phase span.
    #[must_use]
    pub fn tracing(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Injects faults from `plan` into every run (see
    /// [`faults::FaultPlan`]).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Cancels any run whose measured region exceeds `cycles` simulated
    /// cycles, surfacing [`WorkloadError::Timeout`].
    #[must_use]
    pub fn cell_budget(mut self, cycles: u64) -> Self {
        self.cell_budget = Some(cycles);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    /// The fault plan in use, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The per-run cycle budget, if any.
    pub fn cell_budget_cycles(&self) -> Option<u64> {
        self.cell_budget
    }

    /// Whether this runner, or any clone of it, has launched the LibOS
    /// platform its LibOS runs are forked from.
    pub fn libos_launched(&self) -> bool {
        self.libos.0.get().is_some()
    }

    /// Runs one (workload, mode, setting) combination once and reports.
    ///
    /// The sequence mirrors the paper's methodology: build the platform
    /// (enclave creation / LibOS launch), run `setup` unmeasured, enter
    /// the application, reset all counters, execute, snapshot. The LibOS
    /// launch is simulated once per runner and forked for each run, which
    /// charges exactly what a fresh launch would.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Other`] when the workload does not support
    /// `mode`; otherwise whatever the workload surfaces.
    pub fn run_once(
        &self,
        workload: &dyn Workload,
        mode: ExecMode,
        setting: InputSetting,
    ) -> Result<RunReport, WorkloadError> {
        self.run_salted(workload, mode, setting, 0)
    }

    /// [`Runner::run_once`] with an explicit fault salt: the sweep
    /// executor passes a per-cell, per-attempt salt so a retried cell
    /// faces a fresh fault draw while the sweep stays deterministic.
    ///
    /// # Errors
    ///
    /// Same as [`Runner::run_once`].
    pub fn run_salted(
        &self,
        workload: &dyn Workload,
        mode: ExecMode,
        setting: InputSetting,
        salt: u64,
    ) -> Result<RunReport, WorkloadError> {
        if !workload.supports(mode) {
            return Err(WorkloadError::Other(format!(
                "{} does not support {mode} mode",
                workload.name()
            )));
        }
        let mut env = match mode {
            ExecMode::LibOs => self.libos.fork(&self.cfg.env)?,
            _ => {
                let mut env_cfg = self.cfg.env.clone();
                env_cfg.mode = mode;
                env_cfg.protected_hint = workload.spec(setting).protected_bytes;
                Env::new(env_cfg)?
            }
        };
        workload.setup(&mut env, setting)?;
        env.start_app()?;
        let libos_startup = env.libos_startup();
        env.reset_measurement();
        // Faults and the watchdog arm only for the measured region:
        // setup and enclave builds are the harness's own work.
        if let Some(plan) = &self.faults {
            if !plan.is_empty() {
                env.set_fault_hook(plan.compile(salt));
            }
        }
        if let Some(tc) = self.trace {
            env.machine_mut()
                .mem_mut()
                .set_trace_sink(trace::TraceSink::with_config(
                    tc.capacity,
                    tc.sample_interval_cycles,
                ));
        }
        if let Some(budget) = self.cell_budget {
            env.arm_cycle_budget(budget);
        }
        let execute = |env: &mut Env| match self.cell_budget {
            // With a watchdog armed, catch its typed unwind and surface
            // it as an error; any other panic keeps propagating.
            Some(_) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    workload.execute(env, setting)
                })) {
                    Ok(res) => res,
                    Err(payload) => match payload.downcast::<CycleBudgetExceeded>() {
                        Ok(exceeded) => Err(WorkloadError::Timeout {
                            budget_cycles: exceeded.budget_cycles,
                            elapsed_cycles: exceeded.elapsed_cycles,
                        }),
                        Err(other) => std::panic::resume_unwind(other),
                    },
                }
            }
            None => workload.execute(env, setting),
        };
        // Traced, the whole measured region runs inside an implicit span
        // so even un-instrumented workloads get one attribution row.
        let output = if self.trace.is_some() {
            env.with_phase("run", execute)?
        } else {
            execute(&mut env)?
        };
        let (timeline, phases, trace_sink) = if self.trace.is_some() {
            let sink = env
                .machine_mut()
                .mem_mut()
                .take_trace_sink()
                .expect("sink installed before execute");
            // `with_phase` closes every span `Env` opens; a span opened
            // on the machine itself and left open is a typed error.
            sink.finish()?;
            (sink.timeline(), sink.phase_attribution(), Some(sink))
        } else {
            (Vec::new(), Vec::new(), None)
        };
        Ok(RunReport {
            workload: workload.name(),
            mode,
            setting,
            runtime_cycles: env.elapsed_cycles(),
            counters: *env.machine().mem().counters(),
            sgx: *env.machine().sgx_counters(),
            driver: env.machine().driver_stats().clone(),
            libos_startup,
            clock_hz: mem_sim::CLOCK_HZ,
            output,
            timeline,
            phases,
            trace: trace_sink,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Placement;
    use crate::workload::WorkloadSpec;

    /// A minimal workload touching protected memory.
    struct Toy;

    impl Workload for Toy {
        fn name(&self) -> &'static str {
            "Toy"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(1 << 20, "toy")
        }

        fn setup(&self, env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            env.put_file("in", vec![7u8; 4096]);
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            _setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            let r = env.alloc(64 << 10, Placement::Protected)?;
            env.secure_call(|env| {
                let n = env.read_file_into("in", r, 0)?;
                let mut sum = 0u64;
                for i in 0..n / 8 {
                    sum = sum.wrapping_add(env.read_u64(r, i * 8));
                }
                Ok::<u64, WorkloadError>(sum)
            })??;
            Ok(WorkloadOutput {
                ops: 1,
                checksum: 42,
                metrics: vec![],
            })
        }
    }

    #[test]
    fn run_once_all_modes() {
        let runner = Runner::new(RunnerConfig::quick_test());
        for mode in ExecMode::ALL {
            let r = runner.run_once(&Toy, mode, InputSetting::Low).unwrap();
            assert_eq!(r.workload, "Toy");
            assert!(r.runtime_cycles > 0, "{mode}");
            assert_eq!(r.output.checksum, 42);
            match mode {
                ExecMode::Vanilla => {
                    assert_eq!(r.sgx.ecalls, 0);
                    assert!(r.libos_startup.is_none());
                }
                ExecMode::Native => assert_eq!(r.sgx.ecalls, 1),
                ExecMode::LibOs => {
                    assert!(r.libos_startup.is_some());
                    assert_eq!(r.sgx.ecalls, 0, "startup excluded from measurement");
                }
            }
        }
    }

    #[test]
    fn sgx_modes_slower_than_vanilla() {
        let runner = Runner::new(RunnerConfig::quick_test());
        let v = runner
            .run_once(&Toy, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let n = runner
            .run_once(&Toy, ExecMode::Native, InputSetting::Low)
            .unwrap();
        assert!(n.runtime_cycles > v.runtime_cycles);
    }

    #[test]
    fn libos_runs_share_one_launch() {
        let runner = Runner::new(RunnerConfig::quick_test());
        let clone = runner.clone();
        runner
            .run_once(&Toy, ExecMode::Native, InputSetting::Low)
            .unwrap();
        assert!(!runner.libos_launched(), "a Native run does not launch");
        let a = runner
            .run_once(&Toy, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert!(
            clone.libos_launched(),
            "clones of a runner share its launch"
        );
        let b = clone
            .run_once(&Toy, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.sgx, b.sgx);
        assert_eq!(a.libos_startup, b.libos_startup);
    }

    /// Computes forever; only a watchdog can stop it.
    struct Unbounded;

    impl Workload for Unbounded {
        fn name(&self) -> &'static str {
            "Unbounded"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(0, "spin")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            _setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            loop {
                env.compute(10_000);
            }
        }
    }

    #[test]
    fn watchdog_cancels_unbounded_workload() {
        let runner = Runner::new(RunnerConfig::quick_test()).cell_budget(1_000_000);
        let err = runner
            .run_once(&Unbounded, ExecMode::Vanilla, InputSetting::Low)
            .expect_err("must time out");
        match err {
            WorkloadError::Timeout {
                budget_cycles,
                elapsed_cycles,
            } => {
                assert_eq!(budget_cycles, 1_000_000);
                assert!(elapsed_cycles > 1_000_000);
            }
            other => panic!("expected a timeout, got {other}"),
        }
    }

    #[test]
    fn fault_plan_perturbs_runs_deterministically() {
        let plan = faults::FaultPlan::parse("seed=11,aex=2@30000").unwrap();
        let run = |salt| {
            Runner::new(RunnerConfig::quick_test())
                .faults(plan.clone())
                .run_salted(&Toy, ExecMode::Native, InputSetting::Low, salt)
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.runtime_cycles, b.runtime_cycles, "same salt, same run");
        assert_eq!(a.sgx, b.sgx);
        let clean = Runner::new(RunnerConfig::quick_test())
            .run_once(&Toy, ExecMode::Native, InputSetting::Low)
            .unwrap();
        assert_eq!(clean.sgx.injected_aex, 0, "no plan, no injection");
    }
}

//! The [`Workload`] trait and its supporting types.

use crate::env::Env;
use crate::modes::{ExecMode, InputSetting};
use sgx_sim::SgxError;
use std::error::Error;
use std::fmt;

/// A failure that is expected to go away on retry: the condition was
/// injected (or environmental), not a property of the workload or its
/// inputs. The sweep executor retries these within its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransientError {
    /// A host syscall failed transiently (EINTR/EAGAIN analogue).
    SyscallFailed {
        /// Thread clock when the syscall failed.
        at_cycles: u64,
    },
    /// A file read came back corrupted (bit rot, torn write); the sealed
    /// MAC or a consistency check caught it.
    IoCorruption {
        /// The affected file.
        file: String,
    },
}

impl fmt::Display for TransientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientError::SyscallFailed { at_cycles } => {
                write!(f, "host syscall failed at cycle {at_cycles}")
            }
            TransientError::IoCorruption { file } => {
                write!(f, "corrupted read from `{file}`")
            }
        }
    }
}

/// Retry classification of a [`WorkloadError`]: would the same cell
/// plausibly succeed if run again?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Environmental; a retry with a fresh fault draw may succeed.
    Transient,
    /// Deterministic; retrying reproduces the failure.
    Fatal,
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Fatal => "fatal",
        })
    }
}

impl std::str::FromStr for ErrorClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transient" => Ok(ErrorClass::Transient),
            "fatal" => Ok(ErrorClass::Fatal),
            other => Err(format!("unknown error class `{other}`")),
        }
    }
}

/// Errors surfaced by workloads and the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// An SGX-level failure (TCS exhaustion, enclave memory, …).
    Sgx(SgxError),
    /// A missing input file.
    FileNotFound(String),
    /// The workload's self-validation failed (wrong result).
    Validation(String),
    /// A retry-worthy environmental failure (see [`TransientError`]).
    Transient(TransientError),
    /// The run exceeded its cycle budget and was cancelled.
    Timeout {
        /// The configured budget.
        budget_cycles: u64,
        /// The thread clock when the watchdog fired.
        elapsed_cycles: u64,
    },
    /// The trace sink found the run's phase spans mismatched or left
    /// open at teardown (spans come from
    /// [`Env::with_phase`](crate::Env::with_phase)). Deterministic — the
    /// same workload mismatches its spans on every run.
    Trace(trace::TraceError),
    /// Anything else, described.
    Other(String),
}

impl WorkloadError {
    /// Classifies the error for retry decisions — structured, so no
    /// caller ever has to parse a message string.
    pub fn class(&self) -> ErrorClass {
        match self {
            WorkloadError::Transient(_) => ErrorClass::Transient,
            _ => ErrorClass::Fatal,
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Sgx(e) => write!(f, "sgx error: {e}"),
            WorkloadError::FileNotFound(n) => write!(f, "file not found: {n}"),
            WorkloadError::Validation(m) => write!(f, "validation failed: {m}"),
            WorkloadError::Transient(t) => write!(f, "transient: {t}"),
            WorkloadError::Timeout {
                budget_cycles,
                elapsed_cycles,
            } => write!(
                f,
                "cycle budget exceeded: {elapsed_cycles} of {budget_cycles} allowed"
            ),
            WorkloadError::Trace(e) => write!(f, "trace misuse: {e}"),
            WorkloadError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl From<trace::TraceError> for WorkloadError {
    fn from(e: trace::TraceError) -> Self {
        WorkloadError::Trace(e)
    }
}

impl From<TransientError> for WorkloadError {
    fn from(e: TransientError) -> Self {
        WorkloadError::Transient(e)
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Sgx(e) => Some(e),
            WorkloadError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SgxError> for WorkloadError {
    fn from(e: SgxError) -> Self {
        WorkloadError::Sgx(e)
    }
}

/// Static description of one (workload, setting) combination, the analog
/// of a row slice of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Estimated bytes of protected (in-enclave) memory the run needs;
    /// the runner sizes Native-mode enclaves from this.
    pub protected_bytes: u64,
    /// Human-readable parameter summary (e.g. "Elements 1 M").
    pub params: String,
}

impl WorkloadSpec {
    /// Convenience constructor.
    pub fn new(protected_bytes: u64, params: impl Into<String>) -> Self {
        WorkloadSpec {
            protected_bytes,
            params: params.into(),
        }
    }
}

/// What a workload produced: a validation checksum plus metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadOutput {
    /// Number of application-level operations completed (requests,
    /// lookups, hashes …) for throughput/latency derivations.
    pub ops: u64,
    /// A deterministic checksum of the computed result, so every mode can
    /// be cross-checked against Vanilla.
    pub checksum: u64,
    /// Named metrics specific to the workload (e.g. mean request latency
    /// in cycles for Lighttpd).
    pub metrics: Vec<(String, f64)>,
}

impl WorkloadOutput {
    /// Looks up a named metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A benchmark in the SGXGauge suite.
///
/// Implementations are stateless descriptions; all mutable state lives in
/// the [`Env`]. `setup` prepares inputs (unmeasured), `execute` is the
/// measured region. The `Send + Sync` bounds let the parallel sweep
/// executor ([`crate::sweep`]) share workload descriptions across worker
/// threads; stateless descriptions satisfy them trivially.
pub trait Workload: Send + Sync {
    /// Workload name as the paper spells it (e.g. "BTree").
    fn name(&self) -> &'static str;

    /// The property column of Table 2 (e.g. "Data/CPU-intensive").
    fn property(&self) -> &'static str;

    /// Modes this workload supports (Table 2: four of the ten run only
    /// under Vanilla + LibOS).
    fn supported_modes(&self) -> &'static [ExecMode];

    /// Sizing for `setting`.
    fn spec(&self, setting: InputSetting) -> WorkloadSpec;

    /// Prepares inputs (writes input files, etc.). Runs unmeasured,
    /// outside the enclave.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] when preparation fails.
    fn setup(&self, env: &mut Env, setting: InputSetting) -> Result<(), WorkloadError>;

    /// The measured execution.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] when the run fails or self-validation
    /// does not pass.
    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError>;

    /// Whether `mode` is supported.
    fn supports(&self, mode: ExecMode) -> bool {
        self.supported_modes().contains(&mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_metric_lookup() {
        let out = WorkloadOutput {
            ops: 1,
            checksum: 2,
            metrics: vec![("lat".into(), 3.5)],
        };
        assert_eq!(out.metric("lat"), Some(3.5));
        assert_eq!(out.metric("nope"), None);
    }

    #[test]
    fn error_display_and_from() {
        let e: WorkloadError = SgxError::NotInEnclave.into();
        assert!(e.to_string().contains("sgx error"));
        assert!(WorkloadError::FileNotFound("x".into())
            .to_string()
            .contains('x'));
        let t: WorkloadError = TransientError::SyscallFailed { at_cycles: 7 }.into();
        assert!(t.to_string().contains("transient"));
        assert!(t.to_string().contains('7'));
    }

    #[test]
    fn error_classification() {
        use ErrorClass::*;
        let cases: Vec<(WorkloadError, ErrorClass)> = vec![
            (SgxError::NotInEnclave.into(), Fatal),
            (WorkloadError::FileNotFound("f".into()), Fatal),
            (WorkloadError::Validation("v".into()), Fatal),
            (WorkloadError::Other("o".into()), Fatal),
            (
                WorkloadError::Timeout {
                    budget_cycles: 10,
                    elapsed_cycles: 12,
                },
                Fatal,
            ),
            (
                WorkloadError::Trace(trace::TraceError::NoOpenPhase { found: "p".into() }),
                Fatal,
            ),
            (
                TransientError::SyscallFailed { at_cycles: 1 }.into(),
                Transient,
            ),
            (
                TransientError::IoCorruption { file: "f".into() }.into(),
                Transient,
            ),
        ];
        for (err, class) in cases {
            assert_eq!(err.class(), class, "{err}");
        }
    }

    #[test]
    fn error_class_display_round_trips() {
        for class in [ErrorClass::Transient, ErrorClass::Fatal] {
            let shown = class.to_string();
            assert_eq!(shown.parse::<ErrorClass>().unwrap(), class);
        }
        assert!("flaky".parse::<ErrorClass>().is_err());
    }
}

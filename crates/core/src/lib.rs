//! SGXGauge core: the benchmark-suite harness.
//!
//! This crate is the paper's primary contribution as a library: a
//! framework for running diverse workloads against Intel SGX in the three
//! execution modes of Table 1 —
//!
//! * **Vanilla** — no SGX; the workload runs on the bare machine model,
//! * **Native**  — the workload's sensitive kernel is ported into an
//!   enclave and reached via ECALLs,
//! * **LibOS**   — the unmodified workload runs entirely inside a
//!   Graphene-like library OS (see [`libos_sim`]),
//!
//! under the three input settings of Table 1 (Low < EPC, Medium ≈ EPC,
//! High > EPC), collecting the performance counters the paper analyses.
//!
//! Workloads implement [`Workload`] and program against [`Env`], which
//! routes memory accesses, file and network I/O, secure calls and logical
//! threads through the right substrate for the current mode. [`Runner`]
//! executes (workload × mode × setting) combinations and produces
//! [`RunReport`]s; [`SuiteRunner`] fans whole grids of combinations
//! across OS threads with deterministic, grid-ordered aggregation; and
//! [`report`] turns groups of reports into the paper's ratio tables and
//! CSV files.
//!
//! # Example
//!
//! ```
//! use sgxgauge_core::{Env, EnvConfig, ExecMode, InputSetting};
//! use sgxgauge_core::env::Placement;
//!
//! let mut env = Env::new(EnvConfig::scaled(ExecMode::Vanilla, 1024)).unwrap();
//! let region = env.alloc(4096, Placement::Protected).unwrap();
//! env.write_u64(region, 0, 42);
//! assert_eq!(env.read_u64(region, 0), 42);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod env;
pub mod io;
pub mod modes;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod workload;

pub use checkpoint::{CheckpointFile, GridCheckpoint, CHECKPOINT_VERSION};
pub use env::{Env, EnvConfig, Region, SimThread};
pub use io::{ArtifactError, ArtifactIo, ChaosFs, IoErrorKind, RealFs};
pub use mem_sim::CLOCK_HZ;
pub use modes::{ExecMode, InputSetting};
pub use report::{RatioRow, ReportTable};
pub use runner::{RunReport, Runner, RunnerConfig, TraceConfig};
pub use sweep::{
    fan_out, Admission, CellError, CellErrorKind, CellKey, Pool, SuiteRunner, SweepCell,
    SweepError, SweepPolicy, SweepReport,
};
pub use workload::{
    ErrorClass, TransientError, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

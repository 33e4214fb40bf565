//! SGXGauge — a comprehensive benchmark suite for Intel SGX, reproduced on
//! a simulated SGX substrate.
//!
//! This facade crate re-exports the whole workspace so examples and
//! integration tests can use one import root. See the README for the
//! architecture overview and `DESIGN.md` for the per-experiment index.
//!
//! # Example
//!
//! Run one workload in Native mode on the paper's platform:
//!
//! ```
//! use sgxgauge::core::{EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig};
//! use sgxgauge::workloads::HashJoin;
//!
//! # fn main() -> Result<(), sgxgauge::core::WorkloadError> {
//! let runner = Runner::new(RunnerConfig {
//!     env: EnvConfig::quick_test(ExecMode::Vanilla), // small platform for doctests
//!     repetitions: 1,
//! });
//! let report = runner.run_once(&HashJoin::scaled(1024), ExecMode::Native, InputSetting::Low)?;
//! assert!(report.sgx.ecalls > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use campaign;
pub use faults;
pub use gauge_stats as stats;
pub use libos_sim as libos;
pub use mem_sim as mem;
pub use sgx_crypto as crypto;
pub use sgx_sim as sgx;
pub use sgxgauge_core as core;
pub use sgxgauge_workloads as workloads;
pub use trace;

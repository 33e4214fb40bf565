//! SGXGauge — a comprehensive benchmark suite for Intel SGX, reproduced on
//! a simulated SGX substrate.
//!
//! This facade crate re-exports the whole workspace so examples and
//! integration tests can use one import root. See the README for the
//! architecture overview and `DESIGN.md` for the per-experiment index.
//!
//! # Example
//!
//! Run one workload in Native mode, inputs and platform shrunk by one divisor:
//!
//! ```
//! use sgxgauge::core::{ExecMode, InputSetting, Runner, RunnerConfig};
//! use sgxgauge::workloads::HashJoin;
//!
//! # fn main() -> Result<(), sgxgauge::core::WorkloadError> {
//! let d = 1024;
//! let runner = Runner::new(RunnerConfig::scaled(d));
//! let report = runner.run_once(&HashJoin::scaled(d), ExecMode::Native, InputSetting::Low)?;
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

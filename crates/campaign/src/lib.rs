//! Declarative chaos campaigns over the SGXGauge sweep executor.
//!
//! A *campaign* is an ordered list of sweep stages — each with its own
//! mode/setting/workload grid, simulated-fault plan, host-I/O fault
//! plan, and simulated-cycle deadline — governed by one campaign-wide
//! resilience policy: a global retry budget accounted in simulated
//! backoff cycles, per-workload circuit breakers, and degraded-mode
//! load shedding. The whole thing is declared in a small TOML-subset
//! config ([`CampaignConfig`]) and executed by [`run_campaign`], which
//! writes a per-stage artifact tree
//! (`<out>/<stage>/{report.csv, checkpoint.json, trace.jsonl,
//! health.json}`) through the core crate's crash-safe artifact plane.
//!
//! # Determinism, stated once
//!
//! Everything the campaign decides is a pure function of the config:
//!
//! * cell outcomes are pure functions of the stage-salted fault plan
//!   (the simulator never consults wall-clock time or host randomness),
//! * each stage is one [`SuiteRunner::sweep`](sgxgauge_core::SuiteRunner::sweep)
//!   with the [`Supervisor`] as its policy; supervision decisions
//!   happen at *wave* boundaries, and the wave width is the config's
//!   `jobs` value — never the machine's core count — so admission
//!   order is config-derived,
//! * a checkpoint-adopted cell flows through the same admission and
//!   observation sequence as a freshly executed one.
//!
//! The payoff is the strongest robustness claim in the workspace: kill
//! the campaign at seeded points mid-write, resume it from the
//! checkpoint, repeat, and the final artifacts are **byte-identical**
//! to an uninterrupted run. [`run_soak`] is that claim as an executable
//! harness; CI runs it on every push.
//!
//! This crate is dependency-free beyond its workspace siblings and
//! performs no host I/O outside the injectable
//! [`ArtifactIo`](sgxgauge_core::ArtifactIo) plane.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod runner;
pub mod soak;
pub mod supervisor;

pub use config::{CampaignConfig, StageSpec};
pub use runner::{run_campaign, CampaignError, CampaignReport, StageReport};
pub use soak::{run_soak, SoakOutcome};
pub use supervisor::{Supervisor, SupervisorHealth};

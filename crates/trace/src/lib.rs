//! Simulation-time tracing plane for the SGXGauge simulator.
//!
//! The paper's headline results are *time-resolved*: Appendix A
//! instruments the SGX driver to sample `sgx_ewb`/`sgx_eldu`/
//! `sgx_do_fault`, and the EPC-boundary cliff only shows up when counters
//! are read per phase rather than end-to-end. This crate is the
//! observability layer that makes those readouts possible on the
//! simulated substrate:
//!
//! * [`TraceEvent`] — the structured event vocabulary (enclave
//!   transitions, EPC paging batches, LibOS shim syscalls, fault-plane
//!   injections, workload-declared phases, periodic counter samples),
//! * [`TraceSink`] — a bounded ring buffer of [`TraceRecord`]s keyed on
//!   the *simulated* thread clock, with drop accounting and deterministic
//!   ordering (events are appended in program order of the owning cell,
//!   so traces are identical run-to-run and independent of `--jobs`),
//! * [`timeline`](TraceSink::timeline)/[`phase_attribution`](TraceSink::phase_attribution) —
//!   a Fig-7-style counter timeline of the retained records and a
//!   per-phase cycle-attribution breakdown built as each span closes.
//!
//! # Zero cost when disabled
//!
//! The sink is *hosted* by `mem_sim::Machine` as an `Option`; every
//! emission point in the simulator compiles down to one `Option`
//! pointer check when tracing is off, and the per-line memory hot path
//! emits nothing at all. The `trace_overhead` bench pins this contract:
//! the simulated cycle counts of a traced and an untraced run are
//! required to be *identical* (tracing never charges cycles), and the
//! disabled-sink run must stay within 2% of the pre-trace-plane golden
//! cycle count.
//!
//! This crate is dependency-free and knows nothing about the simulator
//! crates; they feed it [`CounterSnapshot`]s they assemble themselves.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod campaign;
mod event;
pub mod json;
mod log;
mod sink;
mod timeline;

pub use campaign::{BreakerState, CampaignEvent, CampaignLog, ShedReason};
pub use event::{CounterSnapshot, InjectedKind, PhaseId, TraceEvent, TraceRecord};
pub use log::{EventLog, LogEvent};
pub use sink::{TraceError, TraceSink, DEFAULT_CAPACITY, DEFAULT_SAMPLE_INTERVAL};
pub use timeline::{PhaseAttribution, TimelinePoint};

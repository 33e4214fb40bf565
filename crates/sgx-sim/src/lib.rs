//! Performance model of Intel SGX.
//!
//! This crate layers the SGX mechanisms the paper characterizes on top of
//! the [`mem_sim`] machine model:
//!
//! * the **Enclave Page Cache** ([`epc::Epc`]): 92 MB of 4 KiB frames
//!   inside the 128 MB PRM, with clock eviction in 16-page EWB batches and
//!   ELDU load-backs (paper §2.2, Appendix A),
//! * the **EPCM** ([`epcm::Epcm`]): per-frame ownership records verified
//!   on TLB fills for enclave pages (§2.3, Fig 1),
//! * the **MEE**: modeled as a DRAM-latency multiplier on PRM traffic
//!   (via [`mem_sim::AccessAttrs`]),
//! * **enclave lifecycle** ([`enclave`], [`machine::SgxMachine`]):
//!   ECREATE / EADD+EEXTEND measurement / EINIT, ECALL/OCALL transitions
//!   at ≈17 k cycles with TLB flushes, AEX on faults (§2.3),
//! * **switchless OCALLs** ([`switchless::SwitchlessPool`]): proxy threads
//!   on dedicated cores serving exit-less calls (§5.6),
//! * **driver instrumentation** ([`driver::DriverStats`]): latency samples
//!   of `sgx_alloc_page`, `sgx_ewb`, `sgx_eldu`, `sgx_do_fault`, matching
//!   the instrumented-driver methodology of Appendix A.
//!
//! The entry point is [`SgxMachine`]: create enclaves, enter them, issue
//! accesses, and read back [`SgxCounters`] + [`mem_sim::Counters`].
//!
//! # Example
//!
//! ```
//! use sgx_sim::{Host, SgxConfig};
//! use mem_sim::AccessKind;
//!
//! let mut m = Host::builder().sgx(SgxConfig::default()).build_machine();
//! let t = m.add_thread();
//! let e = m.create_enclave(64 << 20, 16 << 20).expect("enclave fits PRM rules");
//! m.ecall_enter(t, e);
//! let base = m.enclave(e).heap_base();
//! m.access(t, base, 4096, AccessKind::Write);
//! m.ecall_exit(t, e);
//! assert_eq!(m.sgx_counters().ecalls, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)
)]
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod costs;
pub mod driver;
pub mod enclave;
pub mod epc;
pub mod epcm;
pub mod host;
pub mod machine;
pub mod switchless;

pub use driver::{DriverOp, DriverStats};
pub use enclave::{Enclave, EnclaveId};
pub use epc::{Epc, EpcEnclaveStats, EpcFaultKind, PageKey};
pub use epcm::{Epcm, EpcmEntry};
pub use host::{Host, HostBuilder, HostError, TenantId, TenantOp, TenantReport, TenantSpec};
pub use machine::{CounterField, InitStats, SgxConfig, SgxCounters, SgxError, SgxMachine};
pub use switchless::SwitchlessPool;

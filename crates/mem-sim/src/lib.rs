//! Structural performance model of a memory hierarchy.
//!
//! `mem-sim` is the bottom substrate of the SGXGauge reproduction. It models
//! the parts of the machine that the paper's measurements are sensitive to:
//!
//! * a two-level data TLB per hardware thread ([`tlb::Tlb`]),
//! * a 4-level page-walk cost model with a page-walk cache ([`paging`]),
//! * demand paging with minor-fault costs ([`paging::PageTable`]),
//! * dense `(space, page)` maps, shared with the SGX layer's EPC and
//!   EPCM ([`pagemap`]),
//! * a set-associative shared last-level cache ([`cache::Llc`]) with small
//!   per-thread L1 front-ends,
//! * per-thread cycle clocks and a global [`Counters`] snapshot.
//!
//! The central entry point is [`Machine::access`]: every simulated memory
//! access of every workload funnels through it, producing the performance
//! counters (dTLB misses, page-walk cycles, stall cycles, LLC misses, page
//! faults) that the SGXGauge paper reports. The SGX layer (`sgx-sim`) wraps
//! accesses with [`AccessAttrs`] to charge EPCM checks and MEE-encrypted
//! DRAM latency without `mem-sim` knowing anything about enclaves.
//!
//! # Example
//!
//! ```
//! use mem_sim::{Machine, MachineConfig, AccessKind, AccessAttrs};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let t = m.add_thread();
//! let out = m.access(t, 0x10_0000, 8, AccessKind::Read, &AccessAttrs::default());
//! assert!(out.cycles > 0);
//! assert_eq!(m.counters().mem_reads, 1);
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

pub mod cache;
pub mod counters;
pub mod latency;
pub mod machine;
pub mod pagemap;
pub mod paging;
mod recency;
mod setidx;
pub mod tlb;

pub use cache::Llc;
pub use counters::Counters;
pub use latency::{LatencyError, LatencyModel};
pub use machine::{
    AccessAttrs, AccessKind, AccessOutcome, ConfigError, Machine, MachineConfig, StreamRun,
    ThreadId,
};
pub use paging::PageTable;
pub use tlb::Tlb;

/// Size of a (small) memory page in bytes. Matches the 4 KiB pages that the
/// SGX EPC manages.
pub const PAGE_SIZE: u64 = 4096;

/// Base-2 logarithm of [`PAGE_SIZE`], used to convert addresses to page
/// numbers with a shift.
pub const PAGE_SHIFT: u32 = 12;

/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;

/// Base-2 logarithm of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Per-thread L1 data-cache lines (32 KiB of [`LINE_SIZE`] lines).
pub const L1_CACHE_LINES: usize = 512;

/// Core clock frequency in Hz, for converting cycle counts to wall-clock
/// time (Table 3: Xeon E-2186G @ 3.8 GHz).
pub const CLOCK_HZ: u64 = 3_800_000_000;

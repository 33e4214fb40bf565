//! Deterministic fault injection for the SGXGauge simulator.
//!
//! Long sweeps over the paper's grid live or die on noisy SGX mechanisms
//! — AEX interrupts, EPC thrashing, transition storms (paper §2.2–§2.3).
//! The sweep executor must be able to *provoke* those conditions
//! deterministically to prove it survives them. This crate provides the
//! two halves of that story:
//!
//! * [`FaultPlan`] — a seeded, declarative description of which faults to
//!   inject (parsed from a CLI spec string such as
//!   `seed=42,aex=3@50000,epc=64@400000:100000,syscall=20,bitflip=5`),
//! * [`FaultHook`] — the per-run compiled form, advanced by the
//!   environment's hot paths against the *simulated* thread clock,
//!
//! Everything here is pure state-machine code over simulated cycles: no
//! wall clock, no OS randomness, no dependencies. The same plan compiled
//! with the same salt produces the same event stream on every run, on
//! every thread count — which is what makes fault-injection sweeps
//! fingerprint-stable and resumable.
//!
//! Cycle *costs* of injected events are intentionally absent: an injected
//! AEX is charged by `sgx-sim` from its canonical `costs` module, never
//! from here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fnv;
pub mod hook;
pub mod iofaults;
pub mod plan;
pub mod prng;

pub use fnv::Fnv;
pub use hook::{FaultHook, InjectedFault};
pub use iofaults::IoFaultPlan;
pub use plan::{AexStorm, EpcSpike, FaultPlan};
pub use prng::XorShift64;

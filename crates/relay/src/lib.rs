//! Cross-enclave message relay with a deterministic network fault plane.
//!
//! SGXGauge benchmarks one enclave at a time; this crate models the
//! next regime up — *systems built from enclaves*. N party enclaves on
//! one co-tenant [`sgx_sim::host::Host`] exchange protocol rounds
//! through an untrusted host relay, and the interesting quantity is how
//! the per-message transition and paging costs amplify across a
//! multi-round protocol, especially under hostile network weather.
//!
//! Three layers, bottom to top:
//!
//! * [`Relay`] — the message plane: cycle-stamped envelopes, a
//!   deterministic delivery queue, and a compiled
//!   [`faults::NetFaultHook`] deciding drops/delays/duplication/
//!   reordering per message and partitions/kills per schedule window.
//!   Every decision is a pure hash of (seed, salt, message sequence),
//!   so relays are byte-identical run-to-run and across `--jobs`.
//! * [`FailureDetector`] — a cycle-based heartbeat-less detector:
//!   a party silent for the suspicion window
//!   ([`sgx_sim::costs::RELAY_SUSPECT_CYCLES`]) is declared suspect,
//!   and recovers on its next delivery. Typed events feed the campaign
//!   supervision vocabulary ([`trace::CampaignEvent`]).
//! * [`SignRound`] / [`run_mpc`] — a t-of-n threshold-signing protocol
//!   (modeled on the DKLs23-style share-exchange flow) that *degrades
//!   gracefully*: rounds complete with any quorum of `t` live parties,
//!   retries time out with doubling backoff
//!   ([`sgx_sim::costs::RELAY_SEND_TIMEOUT_CYCLES`]), every round is
//!   bounded by a cycle watchdog
//!   ([`sgx_sim::costs::RELAY_ROUND_BUDGET_CYCLES`]), and losing
//!   quorum is a typed [`MpcError::QuorumLost`] — never a panic or a
//!   hang.
//!
//! Everything is keyed on simulated cycles: no wall clock, no OS
//! randomness, no threads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod detector;
pub mod mpc;
pub mod net;
pub mod sign;

pub use detector::{DetectorEvent, DetectorEventKind, FailureDetector};
pub use mpc::{run_mpc, MpcConfig, MpcError, MpcReport, RoundStat};
pub use net::{Delivery, Envelope, Relay, RelayStats, SendOutcome};
pub use sign::SignRound;
pub use trace::relay::NetDropReason;

/// A party's dense id on the relay (also its tenant index on the host).
pub type PartyId = u32;

/// Bounded retry: a party re-requests a missing share at most this many
/// times per round, with the send timeout doubling per attempt.
pub const MAX_SEND_ATTEMPTS: u32 = 4;

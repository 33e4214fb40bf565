//! Typed relay network events.
//!
//! The vocabulary for what the *cross-enclave relay* did with each
//! message: queued it with what latency, delivered it, or dropped it
//! and why. Supervision-level decisions (suspicions, recoveries,
//! timeouts, quorum loss) use the campaign vocabulary in
//! [`crate::campaign`]; this module carries the per-message layer
//! underneath, so per-round transition and paging amplification can be
//! attributed to concrete deliveries.
//!
//! A [`NetLog`] is keyed on simulated cycles: two runs of the same plan
//! render byte-identical streams across `--jobs`.

use crate::log::{EventLog, LogEvent};
use std::fmt::Write as _;

/// Why the relay dropped a message instead of queueing a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDropReason {
    /// The fault plane's per-message drop draw fired.
    Faulted,
    /// A scheduled partition covered the link at send time.
    Partitioned,
    /// The sender was inside a kill window.
    SenderDead,
    /// The receiver was inside a kill window.
    ReceiverDead,
}

impl NetDropReason {
    /// Stable lower-case name used in rendered artifacts.
    pub fn name(self) -> &'static str {
        match self {
            NetDropReason::Faulted => "faulted",
            NetDropReason::Partitioned => "partitioned",
            NetDropReason::SenderDead => "sender_dead",
            NetDropReason::ReceiverDead => "receiver_dead",
        }
    }
}

/// One relay-level message event, in the order the relay processed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A message was accepted and scheduled for delivery.
    Sent {
        /// Relay-wide message sequence number.
        seq: u64,
        /// Sending party.
        from: u32,
        /// Receiving party.
        to: u32,
        /// Protocol round the message belongs to.
        round: u32,
        /// Simulated cycle the delivery is scheduled at.
        deliver_at: u64,
        /// Whether the fault plane scheduled a duplicate delivery too.
        duplicated: bool,
    },
    /// A scheduled delivery reached its receiver.
    Delivered {
        /// Relay-wide message sequence number.
        seq: u64,
        /// Sending party.
        from: u32,
        /// Receiving party.
        to: u32,
        /// Protocol round the message belongs to.
        round: u32,
        /// Whether this was the fault plane's duplicate copy.
        duplicate: bool,
    },
    /// A message was dropped at send time.
    Dropped {
        /// Relay-wide message sequence number.
        seq: u64,
        /// Sending party.
        from: u32,
        /// Receiving party.
        to: u32,
        /// Protocol round the message belongs to.
        round: u32,
        /// Why it was dropped.
        reason: NetDropReason,
    },
}

impl LogEvent for NetEvent {
    const TRACE: &'static str = "sgxgauge-relay";
    const CLOCK_KEY: &'static str = "cycles";

    fn write_fields(&self, out: &mut String) {
        match self {
            NetEvent::Sent {
                seq,
                from,
                to,
                round,
                deliver_at,
                duplicated,
            } => {
                let _ = write!(
                    out,
                    "\"sent\",\"msg\":{seq},\"from\":{from},\"to\":{to},\"round\":{round},\
                     \"deliver_at\":{deliver_at},\"duplicated\":{duplicated}"
                );
            }
            NetEvent::Delivered {
                seq,
                from,
                to,
                round,
                duplicate,
            } => {
                let _ = write!(
                    out,
                    "\"delivered\",\"msg\":{seq},\"from\":{from},\"to\":{to},\"round\":{round},\
                     \"duplicate\":{duplicate}"
                );
            }
            NetEvent::Dropped {
                seq,
                from,
                to,
                round,
                reason,
            } => {
                let _ = write!(
                    out,
                    "\"dropped\",\"msg\":{seq},\"from\":{from},\"to\":{to},\"round\":{round},\
                     \"reason\":\"{}\"",
                    reason.name()
                );
            }
        }
    }
}

/// An ordered relay message log: every [`NetEvent`] with the simulated
/// cycle at which the relay processed it.
pub type NetLog = EventLog<NetEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_stable_and_self_describing() {
        let mut log = NetLog::new();
        log.push(
            1_000,
            NetEvent::Sent {
                seq: 0,
                from: 0,
                to: 1,
                round: 0,
                deliver_at: 5_700,
                duplicated: false,
            },
        );
        log.push(
            1_100,
            NetEvent::Dropped {
                seq: 1,
                from: 0,
                to: 2,
                round: 0,
                reason: NetDropReason::ReceiverDead,
            },
        );
        log.push(
            5_700,
            NetEvent::Delivered {
                seq: 0,
                from: 0,
                to: 1,
                round: 0,
                duplicate: false,
            },
        );
        let lines: Vec<String> = log.render_jsonl().lines().map(String::from).collect();
        assert_eq!(lines[0], "{\"trace\":\"sgxgauge-relay\",\"records\":3}");
        assert_eq!(
            lines[1],
            "{\"seq\":0,\"cycles\":1000,\"event\":\"sent\",\"msg\":0,\"from\":0,\"to\":1,\
             \"round\":0,\"deliver_at\":5700,\"duplicated\":false}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":1,\"cycles\":1100,\"event\":\"dropped\",\"msg\":1,\"from\":0,\"to\":2,\
             \"round\":0,\"reason\":\"receiver_dead\"}"
        );
        assert_eq!(
            lines[3],
            "{\"seq\":2,\"cycles\":5700,\"event\":\"delivered\",\"msg\":0,\"from\":0,\"to\":1,\
             \"round\":0,\"duplicate\":false}"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut log = NetLog::new();
            for i in 0..6u64 {
                log.push(
                    i * 10,
                    NetEvent::Delivered {
                        seq: i,
                        from: (i % 3) as u32,
                        to: ((i + 1) % 3) as u32,
                        round: 0,
                        duplicate: i % 2 == 1,
                    },
                );
            }
            log.render_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn drop_reason_names_are_stable() {
        assert_eq!(NetDropReason::Faulted.name(), "faulted");
        assert_eq!(NetDropReason::Partitioned.name(), "partitioned");
        assert_eq!(NetDropReason::SenderDead.name(), "sender_dead");
        assert_eq!(NetDropReason::ReceiverDead.name(), "receiver_dead");
    }
}

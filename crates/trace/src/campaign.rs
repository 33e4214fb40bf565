//! Typed campaign supervision events.
//!
//! The cell-level trace plane records what the *simulated machine* did;
//! this module is the vocabulary for what the *campaign supervisor*
//! decided: breaker transitions, shed cells, drained budgets, SLO
//! overruns. Every degraded-mode decision a campaign makes must be
//! visible as one of these events — they are the audit trail that lets
//! an operator reconstruct why a cell was never executed.
//!
//! A [`CampaignLog`] renders byte-identical JSONL for identical
//! decisions, which is what lets the soak harness `cmp` supervision
//! traces across kill/resume cycles. Events are stamped with the campaign's *simulated* spend clock (the
//! cycles accounted to executed cells, retries and backoff at decision
//! time), never wall-clock time.

use crate::json::escape;
use crate::log::{EventLog, LogEvent};
use std::fmt::Write as _;

/// Circuit-breaker state for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Cells flow normally; consecutive transient failures are counted.
    Closed,
    /// The workload is shedding: its cells are marked degraded without
    /// being executed until the cooldown has passed.
    Open,
    /// Cooldown over: the next cell runs as a probe. Success closes the
    /// breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name used in rendered artifacts.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Why the campaign shed a cell (or a whole stage) instead of running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The workload's circuit breaker was open.
    BreakerOpen,
    /// The campaign-wide retry budget was drained; degraded mode drops
    /// repetitions beyond the first.
    RetryBudgetDrained,
    /// The stage blew its simulated-cycle deadline.
    SloExceeded,
    /// The stage is marked as an antagonist and the campaign was already
    /// degraded when it was reached.
    AntagonistSkipped,
}

impl ShedReason {
    /// Stable lower-case name used in rendered artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::BreakerOpen => "breaker_open",
            ShedReason::RetryBudgetDrained => "retry_budget_drained",
            ShedReason::SloExceeded => "slo_exceeded",
            ShedReason::AntagonistSkipped => "antagonist_skipped",
        }
    }
}

/// One supervision decision, in the order the campaign made it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignEvent {
    /// A stage started executing.
    StageBegin {
        /// Stage name from the campaign config.
        stage: String,
        /// Grid cells the stage enumerates.
        cells: usize,
        /// Per-stage fault-plan seed after campaign salting (0 = none).
        fault_seed: u64,
    },
    /// A stage finished (all cells executed, shed, or adopted).
    StageEnd {
        /// Stage name.
        stage: String,
        /// Cells that executed to an outcome.
        executed: usize,
        /// Cells shed by supervision.
        shed: usize,
        /// Simulated cycles the stage spent (runtime + backoff).
        spent_cycles: u64,
    },
    /// A whole stage was skipped without enumerating its cells.
    StageSkipped {
        /// Stage name.
        stage: String,
        /// Why.
        reason: ShedReason,
    },
    /// A workload's breaker changed state.
    BreakerTransition {
        /// Workload name.
        workload: String,
        /// Previous state.
        from: BreakerState,
        /// New state.
        to: BreakerState,
        /// Consecutive transient failures observed at transition time.
        consecutive_failures: usize,
    },
    /// A cell was shed: marked degraded without being executed.
    CellShed {
        /// The cell key display form (`workload/mode/setting/rep`).
        cell: String,
        /// Workload name.
        workload: String,
        /// Why.
        reason: ShedReason,
    },
    /// A half-open breaker sent a probe cell through.
    ProbeResult {
        /// The probe cell key.
        cell: String,
        /// Workload name.
        workload: String,
        /// Whether the probe succeeded (closing the breaker).
        ok: bool,
    },
    /// The campaign-wide retry budget crossed into the drained state.
    RetryBudgetDrained {
        /// Backoff cycles accounted when the budget drained.
        spent_cycles: u64,
        /// The configured budget.
        budget_cycles: u64,
    },
}

impl LogEvent for CampaignEvent {
    const TRACE: &'static str = "sgxgauge-campaign";
    /// Stamped with the campaign's simulated spend clock.
    const CLOCK_KEY: &'static str = "spent_cycles";

    fn write_fields(&self, out: &mut String) {
        match self {
            CampaignEvent::StageBegin {
                stage,
                cells,
                fault_seed,
            } => {
                let _ = write!(
                    out,
                    "\"stage_begin\",\"stage\":\"{}\",\"cells\":{cells},\"fault_seed\":{fault_seed}",
                    escape(stage)
                );
            }
            CampaignEvent::StageEnd {
                stage,
                executed,
                shed,
                spent_cycles,
            } => {
                let _ = write!(
                    out,
                    "\"stage_end\",\"stage\":\"{}\",\"executed\":{executed},\"shed\":{shed},\
                     \"stage_cycles\":{spent_cycles}",
                    escape(stage)
                );
            }
            CampaignEvent::StageSkipped { stage, reason } => {
                let _ = write!(
                    out,
                    "\"stage_skipped\",\"stage\":\"{}\",\"reason\":\"{}\"",
                    escape(stage),
                    reason.name()
                );
            }
            CampaignEvent::BreakerTransition {
                workload,
                from,
                to,
                consecutive_failures,
            } => {
                let _ = write!(
                    out,
                    "\"breaker\",\"workload\":\"{}\",\"from\":\"{}\",\"to\":\"{}\",\
                     \"consecutive_failures\":{consecutive_failures}",
                    escape(workload),
                    from.name(),
                    to.name()
                );
            }
            CampaignEvent::CellShed {
                cell,
                workload,
                reason,
            } => {
                let _ = write!(
                    out,
                    "\"cell_shed\",\"cell\":\"{}\",\"workload\":\"{}\",\"reason\":\"{}\"",
                    escape(cell),
                    escape(workload),
                    reason.name()
                );
            }
            CampaignEvent::ProbeResult { cell, workload, ok } => {
                let _ = write!(
                    out,
                    "\"probe\",\"cell\":\"{}\",\"workload\":\"{}\",\"ok\":{ok}",
                    escape(cell),
                    escape(workload)
                );
            }
            CampaignEvent::RetryBudgetDrained {
                spent_cycles,
                budget_cycles,
            } => {
                let _ = write!(
                    out,
                    "\"retry_budget_drained\",\"backoff_cycles\":{spent_cycles},\
                     \"budget_cycles\":{budget_cycles}"
                );
            }
        }
    }
}

/// An ordered campaign supervision log: every event with the simulated
/// spend clock at which the supervisor made the decision.
pub type CampaignLog = EventLog<CampaignEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_stable_and_self_describing() {
        let mut log = CampaignLog::new();
        log.push(
            0,
            CampaignEvent::StageBegin {
                stage: "baseline".into(),
                cells: 12,
                fault_seed: 7,
            },
        );
        log.push(
            5_000,
            CampaignEvent::BreakerTransition {
                workload: "BTree".into(),
                from: BreakerState::Closed,
                to: BreakerState::Open,
                consecutive_failures: 3,
            },
        );
        log.push(
            5_000,
            CampaignEvent::CellShed {
                cell: "2/Vanilla/Low/1".into(),
                workload: "BTree".into(),
                reason: ShedReason::BreakerOpen,
            },
        );
        let text = log.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 events");
        assert_eq!(lines[0], "{\"trace\":\"sgxgauge-campaign\",\"records\":3}");
        assert!(lines[1].contains("\"stage_begin\""));
        assert!(lines[2].contains("\"from\":\"closed\""));
        assert!(lines[2].contains("\"to\":\"open\""));
        assert!(lines[3].contains("\"reason\":\"breaker_open\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut log = CampaignLog::new();
            for i in 0..5u64 {
                log.push(
                    i * 100,
                    CampaignEvent::ProbeResult {
                        cell: format!("0/Vanilla/Low/{i}"),
                        workload: "Blockchain".into(),
                        ok: i % 2 == 0,
                    },
                );
            }
            log.render_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BreakerState::HalfOpen.name(), "half_open");
        assert_eq!(ShedReason::SloExceeded.name(), "slo_exceeded");
        assert_eq!(ShedReason::AntagonistSkipped.name(), "antagonist_skipped");
    }
}

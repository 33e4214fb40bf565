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
        out.push_str("\"event\":");
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
    fn every_event_renders_its_pinned_line() {
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
            900,
            CampaignEvent::StageEnd {
                stage: "baseline".into(),
                executed: 10,
                shed: 2,
                spent_cycles: 900,
            },
        );
        log.push(
            900,
            CampaignEvent::StageSkipped {
                stage: "soak \"b\"".into(),
                reason: ShedReason::SloExceeded,
            },
        );
        log.push(
            1_000,
            CampaignEvent::BreakerTransition {
                workload: "BTree".into(),
                from: BreakerState::Closed,
                to: BreakerState::Open,
                consecutive_failures: 3,
            },
        );
        log.push(
            1_100,
            CampaignEvent::CellShed {
                cell: "2/Vanilla/Low/1".into(),
                workload: "BTree".into(),
                reason: ShedReason::BreakerOpen,
            },
        );
        log.push(
            1_200,
            CampaignEvent::ProbeResult {
                cell: "2/Vanilla/Low/2".into(),
                workload: "BTree".into(),
                ok: false,
            },
        );
        log.push(
            1_300,
            CampaignEvent::RetryBudgetDrained {
                spent_cycles: 5_000,
                budget_cycles: 4_000,
            },
        );
        let expected = [
            r#"{"trace":"sgxgauge-campaign","records":7}"#,
            r#"{"seq":0,"spent_cycles":0,"event":"stage_begin","stage":"baseline","cells":12,"fault_seed":7}"#,
            r#"{"seq":1,"spent_cycles":900,"event":"stage_end","stage":"baseline","executed":10,"shed":2,"stage_cycles":900}"#,
            r#"{"seq":2,"spent_cycles":900,"event":"stage_skipped","stage":"soak \"b\"","reason":"slo_exceeded"}"#,
            r#"{"seq":3,"spent_cycles":1000,"event":"breaker","workload":"BTree","from":"closed","to":"open","consecutive_failures":3}"#,
            r#"{"seq":4,"spent_cycles":1100,"event":"cell_shed","cell":"2/Vanilla/Low/1","workload":"BTree","reason":"breaker_open"}"#,
            r#"{"seq":5,"spent_cycles":1200,"event":"probe","cell":"2/Vanilla/Low/2","workload":"BTree","ok":false}"#,
            r#"{"seq":6,"spent_cycles":1300,"event":"retry_budget_drained","backoff_cycles":5000,"budget_cycles":4000}"#,
        ];
        let text = log.render_jsonl();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(text.ends_with("}\n"), "every line is newline-terminated");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BreakerState::HalfOpen.name(), "half_open");
        assert_eq!(ShedReason::SloExceeded.name(), "slo_exceeded");
        assert_eq!(ShedReason::AntagonistSkipped.name(), "antagonist_skipped");
    }
}

//! Campaign supervision: circuit breakers, the global retry budget,
//! and per-stage deadlines as one pure state machine.
//!
//! The [`Supervisor`] never runs anything and never touches a clock or
//! the filesystem. It is the campaign's [`SweepPolicy`]: a stage's
//! sweep asks it to admit each cell of a wave (in grid order) and then
//! shows it what actually happened (also in grid order, once the whole
//! wave has settled). All of its state transitions are pure functions
//! of that observation order, which is itself a pure function of the
//! campaign config. That is the whole determinism argument: a resumed
//! campaign replays the same admission sequence (adopted cells are
//! observed exactly like executed ones) and therefore makes
//! byte-identical shed decisions.
//!
//! Every decision the supervisor takes is emitted as a typed
//! [`CampaignEvent`] into the stage's [`CampaignLog`], so breaker trips
//! and shed cells are first-class trace records, not log prose.

use sgxgauge_core::{Admission, CellErrorKind, CellKey, SweepCell, SweepPolicy};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use trace::{BreakerState, CampaignEvent, CampaignLog, ShedReason};

/// What the supervisor reads of one admitted (or adopted) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observation {
    /// The cell settled successfully.
    ok: bool,
    /// The cell's final failure was transient (retry-worthy); only
    /// these count toward opening a breaker.
    transient: bool,
    /// Simulated backoff cycles the cell's retries accounted — charged
    /// against the campaign's global retry budget.
    backoff_cycles: u64,
    /// Simulated runtime cycles of the cell (0 for failed cells) —
    /// charged against the stage deadline together with backoff.
    cell_cycles: u64,
}

impl Observation {
    fn of(cell: &SweepCell) -> Observation {
        Observation {
            ok: cell.result.is_ok(),
            transient: matches!(&cell.result, Err(e) if e.kind == CellErrorKind::Transient),
            backoff_cycles: cell.backoff_cycles,
            cell_cycles: cell.result.as_ref().map_or(0, |r| r.runtime_cycles),
        }
    }
}

/// Per-workload circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Healthy; counts consecutive transient failures.
    Closed { consecutive: usize },
    /// Tripped; sheds cells until the cooldown is spent.
    Open { cooldown_left: usize },
    /// Cooled down; admits exactly one probe cell.
    HalfOpen { probe_pending: bool },
}

/// Aggregate counters for `health.json` and the campaign report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorHealth {
    /// Simulated backoff cycles spent from the global retry budget.
    pub retry_spent_cycles: u64,
    /// Whether the retry budget is drained (campaign is degraded).
    pub degraded: bool,
    /// Breaker open transitions across the campaign.
    pub breaker_trips: u64,
    /// Cells shed across the campaign, by any reason.
    pub cells_shed: u64,
}

/// The campaign-wide supervision state machine.
///
/// Breakers are scoped per workload and reset at every stage boundary;
/// the retry budget and the degraded flag persist across stages.
#[derive(Debug)]
pub struct Supervisor {
    /// Consecutive transient failures that open a breaker (0 = off).
    threshold: usize,
    /// Shed cells per open period before a half-open probe.
    cooldown: usize,
    /// Global retry budget in simulated backoff cycles (0 = unlimited).
    budget_cycles: u64,
    spent_cycles: u64,
    degraded: bool,
    drain_announced: bool,
    breakers: BTreeMap<String, Breaker>,
    stage_deadline: u64,
    stage_spent: u64,
    trips: u64,
    shed: u64,
    log: CampaignLog,
}

impl Supervisor {
    /// A fresh supervisor with the campaign's policy knobs.
    #[must_use]
    pub fn new(threshold: usize, cooldown: usize, budget_cycles: u64) -> Supervisor {
        Supervisor {
            threshold,
            cooldown: cooldown.max(1),
            budget_cycles,
            spent_cycles: 0,
            degraded: false,
            drain_announced: false,
            breakers: BTreeMap::new(),
            stage_deadline: 0,
            stage_spent: 0,
            trips: 0,
            shed: 0,
            log: CampaignLog::new(),
        }
    }

    /// Logs `event`, stamped with the campaign's spend clock.
    pub(crate) fn event(&mut self, event: CampaignEvent) {
        self.log.push(self.spent_cycles, event);
    }

    /// Hands over the events logged since the last call.
    pub(crate) fn take_log(&mut self) -> CampaignLog {
        std::mem::replace(&mut self.log, CampaignLog::new())
    }

    /// Starts a stage: breakers reset (a new stage is a new fault
    /// regime), the stage cycle ledger restarts against `deadline`
    /// (0 = no deadline). The retry budget carries over.
    pub fn begin_stage(&mut self, deadline_cycles: u64) {
        self.breakers.clear();
        self.stage_deadline = deadline_cycles;
        self.stage_spent = 0;
    }

    /// Whether the global retry budget is drained.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Simulated cycles (runtime + backoff) observed in this stage.
    #[must_use]
    pub fn stage_spent_cycles(&self) -> u64 {
        self.stage_spent
    }

    /// Aggregate counters for health reporting.
    #[must_use]
    pub fn health(&self) -> SupervisorHealth {
        SupervisorHealth {
            retry_spent_cycles: self.spent_cycles,
            degraded: self.degraded,
            breaker_trips: self.trips,
            cells_shed: self.shed,
        }
    }

    /// Decides one cell's fate. Called sequentially in grid order;
    /// earlier admissions in the same wave are visible to later ones
    /// (cooldown ticks, probe reservation), which is deterministic
    /// because grid order is.
    fn decide(&mut self, workload: &str, cell: &str, rep: usize) -> Admission {
        // Degraded mode sheds every repetition beyond the first: the
        // campaign keeps measuring each coordinate once but stops
        // paying for statistical depth.
        if self.degraded && rep > 0 {
            return self.shed(workload, cell, ShedReason::RetryBudgetDrained);
        }
        if self.stage_deadline > 0 && self.stage_spent > self.stage_deadline {
            return self.shed(workload, cell, ShedReason::SloExceeded);
        }
        if self.threshold == 0 {
            return Admission::Run;
        }
        let threshold = self.threshold;
        let entry = self
            .breakers
            .entry(workload.to_owned())
            .or_insert(Breaker::Closed { consecutive: 0 });
        match *entry {
            Breaker::Closed { .. } => Admission::Run,
            Breaker::Open { cooldown_left } => {
                let left = cooldown_left.saturating_sub(1);
                if left == 0 {
                    *entry = Breaker::HalfOpen {
                        probe_pending: false,
                    };
                    self.event(CampaignEvent::BreakerTransition {
                        workload: workload.to_owned(),
                        from: BreakerState::Open,
                        to: BreakerState::HalfOpen,
                        consecutive_failures: threshold,
                    });
                } else {
                    *entry = Breaker::Open {
                        cooldown_left: left,
                    };
                }
                self.shed(workload, cell, ShedReason::BreakerOpen)
            }
            Breaker::HalfOpen { probe_pending } => {
                if probe_pending {
                    self.shed(workload, cell, ShedReason::BreakerOpen)
                } else {
                    *entry = Breaker::HalfOpen {
                        probe_pending: true,
                    };
                    Admission::Probe
                }
            }
        }
    }

    fn shed(&mut self, workload: &str, cell: &str, reason: ShedReason) -> Admission {
        self.shed += 1;
        self.event(CampaignEvent::CellShed {
            cell: cell.to_owned(),
            workload: workload.to_owned(),
            reason,
        });
        Admission::Shed(format!("shed by campaign supervision: {}", reason.name()))
    }

    /// Reports one admitted (or checkpoint-adopted) cell's outcome, in
    /// grid order once its wave has settled. `probe` must echo the
    /// admission decision.
    fn settle(&mut self, workload: &str, cell: &str, probe: bool, obs: Observation) {
        self.stage_spent = self
            .stage_spent
            .saturating_add(obs.cell_cycles)
            .saturating_add(obs.backoff_cycles);
        self.spend_backoff(obs.backoff_cycles);
        if self.threshold == 0 {
            return;
        }
        let threshold = self.threshold;
        let cooldown = self.cooldown;
        let entry = self
            .breakers
            .entry(workload.to_owned())
            .or_insert(Breaker::Closed { consecutive: 0 });
        if probe {
            let (next, to) = if obs.ok {
                (Breaker::Closed { consecutive: 0 }, BreakerState::Closed)
            } else {
                (
                    Breaker::Open {
                        cooldown_left: cooldown,
                    },
                    BreakerState::Open,
                )
            };
            *entry = next;
            self.event(CampaignEvent::ProbeResult {
                cell: cell.to_owned(),
                workload: workload.to_owned(),
                ok: obs.ok,
            });
            self.event(CampaignEvent::BreakerTransition {
                workload: workload.to_owned(),
                from: BreakerState::HalfOpen,
                to,
                consecutive_failures: if obs.ok { 0 } else { threshold },
            });
            if !obs.ok {
                self.trips += 1;
            }
            return;
        }
        match *entry {
            Breaker::Closed { consecutive } => {
                if obs.ok || !obs.transient {
                    *entry = Breaker::Closed { consecutive: 0 };
                } else {
                    let consecutive = consecutive + 1;
                    if consecutive >= threshold {
                        *entry = Breaker::Open {
                            cooldown_left: cooldown,
                        };
                        self.trips += 1;
                        self.event(CampaignEvent::BreakerTransition {
                            workload: workload.to_owned(),
                            from: BreakerState::Closed,
                            to: BreakerState::Open,
                            consecutive_failures: consecutive,
                        });
                    } else {
                        *entry = Breaker::Closed { consecutive };
                    }
                }
            }
            // Outcomes for cells admitted while the breaker was not
            // closed are probe outcomes (handled above) or shed cells
            // (never observed), so nothing reaches here.
            Breaker::Open { .. } | Breaker::HalfOpen { .. } => {}
        }
    }

    fn spend_backoff(&mut self, backoff_cycles: u64) {
        self.spent_cycles = self.spent_cycles.saturating_add(backoff_cycles);
        if self.budget_cycles > 0 && self.spent_cycles > self.budget_cycles && !self.degraded {
            self.degraded = true;
            if !self.drain_announced {
                self.drain_announced = true;
                self.event(CampaignEvent::RetryBudgetDrained {
                    spent_cycles: self.spent_cycles,
                    budget_cycles: self.budget_cycles,
                });
            }
        }
    }
}

/// Admissions read the breakers and budgets that earlier outcomes set,
/// so the supervisor is admitted wave by wave.
impl SweepPolicy for Supervisor {
    fn waves(&self) -> bool {
        true
    }

    fn admit(&mut self, cell: CellKey, workload: &'static str) -> Admission {
        self.decide(workload, &cell.to_string(), cell.rep)
    }

    /// A degraded campaign stops paying for retries.
    fn retries(&self, configured: usize) -> usize {
        if self.degraded {
            0
        } else {
            configured
        }
    }

    fn observe(&mut self, cell: &SweepCell, probe: bool) -> ControlFlow<()> {
        let key = cell.cell.to_string();
        self.settle(cell.workload, &key, probe, Observation::of(cell));
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shed(reason: ShedReason) -> Admission {
        Admission::Shed(format!("shed by campaign supervision: {}", reason.name()))
    }

    fn ok() -> Observation {
        Observation {
            ok: true,
            transient: false,
            backoff_cycles: 0,
            cell_cycles: 100,
        }
    }

    fn transient(backoff: u64) -> Observation {
        Observation {
            ok: false,
            transient: true,
            backoff_cycles: backoff,
            cell_cycles: 0,
        }
    }

    #[test]
    fn breaker_opens_cools_probes_and_recloses() {
        let mut sup = Supervisor::new(2, 2, 0);
        sup.begin_stage(0);
        // Two consecutive transient failures open the breaker.
        assert_eq!(sup.decide("BTree", "BTree", 0), Admission::Run);
        sup.settle("BTree", "BTree", false, transient(10));
        assert_eq!(sup.decide("BTree", "BTree", 1), Admission::Run);
        sup.settle("BTree", "BTree", false, transient(10));
        // Open: two cooldown cells are shed; the second admission
        // transitions to half-open but is itself still shed.
        assert_eq!(
            sup.decide("BTree", "BTree", 2),
            shed(ShedReason::BreakerOpen)
        );
        assert_eq!(
            sup.decide("BTree", "BTree", 3),
            shed(ShedReason::BreakerOpen)
        );
        // Half-open: exactly one probe runs; a sibling in the same wave
        // is shed.
        assert_eq!(sup.decide("BTree", "BTree", 4), Admission::Probe);
        assert_eq!(
            sup.decide("BTree", "BTree", 5),
            shed(ShedReason::BreakerOpen)
        );
        // Successful probe recloses the breaker.
        sup.settle("BTree", "BTree", true, ok());
        assert_eq!(sup.decide("BTree", "BTree", 6), Admission::Run);
        assert_eq!(sup.health().breaker_trips, 1);
        assert_eq!(sup.health().cells_shed, 3);
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let mut sup = Supervisor::new(1, 1, 0);
        sup.begin_stage(0);
        sup.decide("Bfs", "Bfs", 0);
        sup.settle("Bfs", "Bfs", false, transient(1));
        // cooldown=1: the first open admission flips straight to
        // half-open (and is shed); the next admits the probe.
        assert_eq!(sup.decide("Bfs", "Bfs", 1), shed(ShedReason::BreakerOpen));
        assert_eq!(sup.decide("Bfs", "Bfs", 2), Admission::Probe);
        sup.settle("Bfs", "Bfs", true, transient(1));
        // Probe failed (settle with probe=true and !ok reopens).
        assert_eq!(sup.decide("Bfs", "Bfs", 3), shed(ShedReason::BreakerOpen));
        assert_eq!(sup.health().breaker_trips, 2);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut sup = Supervisor::new(2, 1, 0);
        sup.begin_stage(0);
        for _ in 0..4 {
            assert_eq!(sup.decide("Svm", "Svm", 0), Admission::Run);
            sup.settle("Svm", "Svm", false, transient(1));
            assert_eq!(sup.decide("Svm", "Svm", 0), Admission::Run);
            sup.settle("Svm", "Svm", true, ok());
        }
        assert_eq!(sup.health().breaker_trips, 0);
    }

    #[test]
    fn budget_drain_fires_once_and_sheds_later_reps() {
        let mut sup = Supervisor::new(0, 1, 100);
        sup.begin_stage(0);
        sup.decide("Svm", "Svm", 0);
        sup.settle("Svm", "Svm", false, transient(101));
        assert!(sup.is_degraded());
        sup.settle("Svm", "Svm", false, transient(50));
        let drained = sup
            .take_log()
            .events()
            .filter(|(_, e)| matches!(e, CampaignEvent::RetryBudgetDrained { .. }))
            .count();
        assert_eq!(drained, 1);
        assert_eq!(sup.decide("Svm", "Svm", 0), Admission::Run);
        assert_eq!(
            sup.decide("Svm", "Svm", 1),
            shed(ShedReason::RetryBudgetDrained)
        );
    }

    #[test]
    fn stage_deadline_sheds_the_remainder_and_resets_per_stage() {
        let mut sup = Supervisor::new(0, 1, 0);
        sup.begin_stage(50);
        sup.decide("Bfs", "Bfs", 0);
        sup.settle(
            "Bfs",
            "Bfs",
            false,
            Observation {
                ok: true,
                transient: false,
                backoff_cycles: 0,
                cell_cycles: 60,
            },
        );
        assert_eq!(sup.decide("Bfs", "Bfs", 1), shed(ShedReason::SloExceeded));
        sup.begin_stage(50);
        assert_eq!(sup.decide("Bfs", "Bfs", 0), Admission::Run);
    }

    #[test]
    fn breakers_reset_at_stage_boundaries() {
        let mut sup = Supervisor::new(1, 5, 0);
        sup.begin_stage(0);
        sup.decide("Svm", "Svm", 0);
        sup.settle("Svm", "Svm", false, transient(1));
        assert_eq!(sup.decide("Svm", "Svm", 1), shed(ShedReason::BreakerOpen));
        sup.begin_stage(0);
        assert_eq!(sup.decide("Svm", "Svm", 0), Admission::Run);
    }
}

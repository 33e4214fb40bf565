//! Host-backed t-of-n threshold-signing driver.
//!
//! [`run_mpc`] builds one co-tenant [`Host`] with N party enclaves and
//! drives R signing rounds through the [`Relay`], interleaving message
//! deliveries with the host's wave scheduler
//! ([`Host::run_wave_for`]): a delivery enqueues the receiver's verify
//! work *between* waves at a deterministic cycle boundary, so the
//! per-round transition and paging amplification of the protocol is
//! exactly attributable in the tenant ledgers.
//!
//! The driver advances a global *frontier* (the max of the party
//! thread clocks) from event to event — next delivery, next retry
//! deadline, next fault-schedule edge, round watchdog — charging idle
//! waits as in-enclave compute so timeouts are cycle-accounted. Every
//! loop iteration strictly advances the frontier or completes the
//! round, and every round is bounded by
//! [`costs::RELAY_ROUND_BUDGET_CYCLES`], so a run terminates for every
//! plan: quorum loss is a typed error, never a hang.

use faults::prng::splitmix64;
use faults::NetFaultPlan;
use sgx_sim::costs;
use sgx_sim::host::{Host, HostError, TenantId, TenantOp, TenantSpec};
use trace::relay::{NetDropReason, NetLog};
use trace::{CampaignEvent, CampaignLog};

use crate::detector::DetectorEventKind;
use crate::net::{Relay, RelayStats};
use crate::sign::SignRound;
use crate::{FailureDetector, PartyId};

/// Configuration of one threshold-signing run.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Number of party enclaves (n).
    pub parties: u32,
    /// Signing threshold (t): rounds complete with any t live parties.
    pub threshold: u32,
    /// Signing rounds to run (R).
    pub rounds: u32,
    /// The network fault plan (compiled per run under the caller's salt).
    pub net: NetFaultPlan,
    /// Per-party enclave heap bytes.
    pub heap_bytes: u64,
}

impl MpcConfig {
    /// A t-of-n run with default rounds and heap, on the default host
    /// (paper platform, default wave width).
    pub fn new(parties: u32, threshold: u32) -> MpcConfig {
        MpcConfig {
            parties,
            threshold,
            rounds: 8,
            net: NetFaultPlan::default(),
            heap_bytes: 1 << 20,
        }
    }

    /// Sets the network fault plan.
    #[must_use]
    pub fn net(mut self, plan: NetFaultPlan) -> MpcConfig {
        self.net = plan;
        self
    }

    /// Sets the number of signing rounds.
    #[must_use]
    pub fn rounds(mut self, rounds: u32) -> MpcConfig {
        self.rounds = rounds;
        self
    }

    fn validate(&self) -> Result<(), MpcError> {
        if self.parties < 2 || self.parties > 64 {
            return Err(MpcError::Config(format!(
                "parties must be in 2..=64, got {}",
                self.parties
            )));
        }
        if self.threshold < 1 || self.threshold > self.parties {
            return Err(MpcError::Config(format!(
                "threshold must be in 1..={}, got {}",
                self.parties, self.threshold
            )));
        }
        if self.rounds == 0 {
            return Err(MpcError::Config("rounds must be non-zero".into()));
        }
        Ok(())
    }
}

/// Error from a threshold-signing run.
#[derive(Debug, Clone, PartialEq)]
pub enum MpcError {
    /// The configuration was rejected before any enclave was built.
    Config(String),
    /// The host substrate failed.
    Host(HostError),
    /// Live parties fell below the signing threshold. Carries the
    /// partial report so supervision events up to the abort survive.
    QuorumLost {
        /// Round during which quorum was lost (0-based).
        round: u32,
        /// Parties still live when the protocol aborted.
        live: u32,
        /// The configured threshold.
        threshold: u32,
        /// Everything observed up to the abort.
        partial: Box<MpcReport>,
    },
}

impl std::fmt::Display for MpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpcError::Config(msg) => write!(f, "mpc config: {msg}"),
            MpcError::Host(e) => write!(f, "mpc host: {e}"),
            MpcError::QuorumLost {
                round,
                live,
                threshold,
                ..
            } => write!(
                f,
                "quorum lost in round {round}: {live} live parties < threshold {threshold}"
            ),
        }
    }
}

impl std::error::Error for MpcError {}

impl From<HostError> for MpcError {
    fn from(e: HostError) -> Self {
        MpcError::Host(e)
    }
}

/// Outcome of one signing round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStat {
    /// Round ordinal (0-based).
    pub round: u32,
    /// Frontier cycle the round started at.
    pub started_at: u64,
    /// Frontier cycle the round completed or timed out at.
    pub ended_at: u64,
    /// Whether a quorum of parties completed the round.
    pub completed: bool,
    /// Parties holding a full share quorum when the round ended.
    pub signers: u32,
    /// Retry attempts issued during the round.
    pub retries: u32,
}

impl RoundStat {
    /// Round latency in simulated cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.ended_at.saturating_sub(self.started_at)
    }
}

/// Everything a threshold-signing run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcReport {
    /// Number of parties.
    pub parties: u32,
    /// The signing threshold.
    pub threshold: u32,
    /// Per-round outcomes, in order.
    pub rounds: Vec<RoundStat>,
    /// Relay message counters.
    pub stats: RelayStats,
    /// The per-message relay log.
    pub net_log: NetLog,
    /// Supervision events (suspicions, recoveries, timeouts).
    pub supervision: CampaignLog,
    /// Total frontier cycles consumed by the run.
    pub total_cycles: u64,
    /// Fold of the aggregate signatures of all completed rounds.
    pub checksum: u64,
}

impl MpcReport {
    /// Rounds that reached quorum completion.
    pub fn completed_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.completed).count()
    }

    /// Quorum-survival fraction in permille: completed rounds over all
    /// rounds attempted.
    pub fn survival_permille(&self) -> u64 {
        if self.rounds.is_empty() {
            return 0;
        }
        self.completed_rounds() as u64 * 1000 / self.rounds.len() as u64
    }

    /// Mean latency of completed rounds, in cycles (0 when none).
    pub fn mean_round_latency(&self) -> u64 {
        let done: Vec<u64> = self
            .rounds
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.latency_cycles())
            .collect();
        if done.is_empty() {
            return 0;
        }
        done.iter().sum::<u64>() / done.len() as u64
    }

    /// Maximum latency over completed rounds, in cycles.
    pub fn max_round_latency(&self) -> u64 {
        self.rounds
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.latency_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Number of `party_suspected` supervision events.
    pub fn suspect_events(&self) -> usize {
        self.supervision
            .events()
            .filter(|(_, e)| matches!(e, CampaignEvent::PartySuspected { .. }))
            .count()
    }

    /// Number of `party_recovered` supervision events.
    pub fn recover_events(&self) -> usize {
        self.supervision
            .events()
            .filter(|(_, e)| matches!(e, CampaignEvent::PartyRecovered { .. }))
            .count()
    }
}

/// The signing share party `p` contributes to round `r` — a pure hash,
/// so the protocol transcript is a function of (plan seed, salt) alone.
fn share(base: u64, round: u32, party: PartyId) -> u64 {
    splitmix64(base ^ (u64::from(round) << 32) ^ u64::from(party))
}

fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Internal driver state shared by the round loop.
///
/// All protocol logic runs in *protocol time*: each party's clock is
/// its tenant thread clock rebased to zero at protocol start, so fault
/// schedule windows (`partykill=2@100000:...`) mean "cycles into the
/// run" regardless of how enclave build costs distributed over the
/// party threads.
struct Driver {
    host: Host,
    relay: Relay,
    detector: FailureDetector,
    supervision: CampaignLog,
    n: u32,
    threshold: u32,
    share_base: u64,
    /// Per-party tenant clock at protocol start.
    bases: Vec<u64>,
}

impl Driver {
    /// Party `p`'s clock in protocol time.
    fn clock(&self, p: PartyId) -> u64 {
        self.host
            .tenant_cycles(TenantId(p as usize))
            .saturating_sub(self.bases[p as usize])
    }

    fn frontier(&self) -> u64 {
        (0..self.n).map(|p| self.clock(p)).max().unwrap_or(0)
    }

    fn alive(&self, p: PartyId, now: u64) -> bool {
        !self.relay.hook().party_dead(p, now)
    }

    fn live_count(&self, now: u64) -> u32 {
        (0..self.n).filter(|p| self.alive(*p, now)).count() as u32
    }

    /// Drains tenant `p`'s queued ops through the wave scheduler.
    fn drain(&mut self, p: PartyId) -> Result<(), HostError> {
        while self.host.run_wave_for(TenantId(p as usize))? {}
        Ok(())
    }

    /// Charges `p` the marshalling of one relay send and issues it at
    /// `p`'s own (protocol-time) clock.
    fn charged_send(
        &mut self,
        p: PartyId,
        to: PartyId,
        round: u32,
        payload: u64,
    ) -> Result<(), HostError> {
        self.host.push_ops(
            TenantId(p as usize),
            [TenantOp::Ocall {
                work: costs::HOST_SYSCALL_CYCLES,
            }],
        );
        self.drain(p)?;
        let now = self.clock(p);
        self.relay.send(now, p, to, round, payload);
        Ok(())
    }

    /// Applies all deliveries due at `now`: records shares, charges the
    /// receivers' verify work, feeds the failure detector.
    fn deliver_due(&mut self, now: u64, sr: &mut SignRound) -> Result<(), HostError> {
        for d in self.relay.due(now) {
            let env = d.envelope;
            if !self.alive(env.to, d.at_cycles) {
                self.relay.discard(&d, NetDropReason::ReceiverDead);
                continue;
            }
            if let Some(ev) = self.detector.heard(env.from, d.at_cycles) {
                if ev.kind == DetectorEventKind::Recovered {
                    self.supervision.push(
                        ev.at_cycles,
                        CampaignEvent::PartyRecovered { party: ev.party },
                    );
                }
            }
            if env.round == sr.round() && sr.on_share(env.to, env.from) {
                self.host.push_ops(
                    TenantId(env.to as usize),
                    [TenantOp::Compute {
                        cycles: costs::SIGN_VERIFY_CYCLES,
                    }],
                );
                self.drain(env.to)?;
            }
        }
        Ok(())
    }

    /// Raises newly due suspicions at `now`.
    fn tick_detector(&mut self, now: u64) {
        for ev in self.detector.tick(now) {
            if let DetectorEventKind::Suspected { silent_cycles } = ev.kind {
                self.supervision.push(
                    ev.at_cycles,
                    CampaignEvent::PartySuspected {
                        party: ev.party,
                        silent_cycles,
                    },
                );
            }
        }
    }

    /// Charges every live party idle compute up to protocol-time
    /// `target` so waiting on a timeout is cycle-accounted, then
    /// returns the new frontier.
    fn advance_to(&mut self, target: u64) -> Result<u64, HostError> {
        for p in 0..self.n {
            if !self.alive(p, target) {
                continue;
            }
            let clock = self.clock(p);
            if clock < target {
                self.host.push_ops(
                    TenantId(p as usize),
                    [TenantOp::Compute {
                        cycles: target - clock,
                    }],
                );
                self.drain(p)?;
            }
        }
        Ok(self.frontier().max(target))
    }

    fn report(&self, rounds: Vec<RoundStat>, checksum: u64) -> MpcReport {
        MpcReport {
            parties: self.n,
            threshold: self.threshold,
            rounds,
            stats: self.relay.stats(),
            net_log: self.relay.log().clone(),
            supervision: self.supervision.clone(),
            total_cycles: self.frontier(),
            checksum,
        }
    }
}

/// Runs `cfg.rounds` threshold-signing rounds over `cfg.parties` party
/// enclaves under the configured network weather, salted per (cell,
/// attempt) by `salt` exactly like the enclave-side fault plane.
///
/// # Errors
///
/// [`MpcError::Config`] before any enclave is built,
/// [`MpcError::Host`] if the substrate fails, and
/// [`MpcError::QuorumLost`] (with the partial report attached) the
/// moment live parties fall below the threshold.
pub fn run_mpc(cfg: &MpcConfig, salt: u64) -> Result<MpcReport, MpcError> {
    cfg.validate()?;
    let n = cfg.parties;
    let t = cfg.threshold;

    let mut builder = Host::builder();
    for p in 0..n {
        builder = builder.tenant(TenantSpec::sized(&format!("p{p}"), cfg.heap_bytes));
    }
    let host = builder.build().map_err(HostError::Sgx)?;

    let relay = Relay::new(&cfg.net, salt);
    let bases = (0..n as usize)
        .map(|i| host.tenant_cycles(TenantId(i)))
        .collect();
    let mut d = Driver {
        detector: FailureDetector::new(n as usize, costs::RELAY_SUSPECT_CYCLES, 0),
        supervision: CampaignLog::new(),
        n,
        threshold: t,
        share_base: splitmix64(cfg.net.seed ^ splitmix64(salt)),
        bases,
        host,
        relay,
    };

    let mut rounds: Vec<RoundStat> = Vec::with_capacity(cfg.rounds as usize);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;

    for round in 0..cfg.rounds {
        let round_start = d.frontier();
        let deadline = round_start.saturating_add(costs::RELAY_ROUND_BUDGET_CYCLES);
        let mut sr = SignRound::new(round, n, t, round_start);

        // Rejoin: a party whose kill window just closed still carries
        // the clock it froze at when it died, which would put its sends
        // back inside the window. Catch every live party up to the
        // round start before anyone broadcasts.
        d.advance_to(round_start)?;

        // Broadcast phase: every live party generates its share
        // in-enclave and relays it to every peer.
        for p in 0..n {
            if !d.alive(p, round_start) {
                continue;
            }
            d.host.push_ops(
                TenantId(p as usize),
                [TenantOp::Compute {
                    cycles: costs::SIGN_SHARE_CYCLES,
                }],
            );
            d.drain(p)?;
            sr.note_broadcast(p);
            let payload = share(d.share_base, round, p);
            for q in 0..n {
                if q != p {
                    d.charged_send(p, q, round, payload)?;
                }
            }
        }

        // Event loop: deliveries, suspicion, retries, watchdog.
        let stat = loop {
            let frontier = d.frontier();
            d.deliver_due(frontier, &mut sr)?;
            d.tick_detector(frontier);

            if sr.complete() {
                break RoundStat {
                    round,
                    started_at: round_start,
                    ended_at: d.frontier(),
                    completed: true,
                    signers: sr.signers().len() as u32,
                    retries: sr.retries(),
                };
            }

            let live = d.live_count(frontier);
            if live < t {
                d.supervision.push(
                    frontier,
                    CampaignEvent::QuorumLost {
                        round,
                        live,
                        threshold: t,
                    },
                );
                let partial = Box::new(d.report(rounds, checksum));
                return Err(MpcError::QuorumLost {
                    round,
                    live,
                    threshold: t,
                    partial,
                });
            }

            if frontier >= deadline {
                d.supervision.push(
                    frontier,
                    CampaignEvent::RoundTimeout {
                        round,
                        signers: sr.signers().len() as u32,
                        threshold: t,
                    },
                );
                break RoundStat {
                    round,
                    started_at: round_start,
                    ended_at: frontier,
                    completed: false,
                    signers: sr.signers().len() as u32,
                    retries: sr.retries(),
                };
            }

            // Pull-retry: a party past its deadline re-requests its
            // missing shares; each live broadcaster resends one hop
            // out, drawing fresh per-message fault decisions.
            for p in 0..n {
                if !d.alive(p, frontier) {
                    continue;
                }
                if d.sr_due_retry(&mut sr, p, frontier)? {
                    for q in sr.missing(p) {
                        if d.alive(q, frontier) {
                            let payload = share(d.share_base, round, q);
                            d.charged_send(q, p, round, payload)?;
                        }
                    }
                }
            }

            // Jump to the next event; the round deadline bounds the hop
            // so the loop always terminates.
            let mut next = deadline;
            if let Some(at) = d.relay.next_due() {
                next = next.min(at);
            }
            if let Some(at) = sr.next_deadline() {
                next = next.min(at);
            }
            if let Some(at) = d.relay.hook().next_schedule_edge(frontier) {
                next = next.min(at);
            }
            let next = next.max(frontier + 1);
            d.advance_to(next)?;
        };

        if stat.completed {
            // Aggregate: XOR of the t lowest-id signers' shares.
            let mut agg = 0u64;
            for p in sr.signers().into_iter().take(t as usize) {
                agg ^= share(d.share_base, round, p);
            }
            checksum = fnv_fold(checksum, agg);
        }
        rounds.push(stat);
    }

    // Settle: land the last in-flight deliveries so the ledgers
    // quiesce (sent == delivered + dropped) and late recoveries are
    // still observed.
    for delivery in d.relay.due(u64::MAX) {
        let env = delivery.envelope;
        if !d.alive(env.to, delivery.at_cycles) {
            d.relay.discard(&delivery, NetDropReason::ReceiverDead);
            continue;
        }
        if let Some(ev) = d.detector.heard(env.from, delivery.at_cycles) {
            if ev.kind == DetectorEventKind::Recovered {
                d.supervision.push(
                    ev.at_cycles,
                    CampaignEvent::PartyRecovered { party: ev.party },
                );
            }
        }
    }

    Ok(d.report(rounds, checksum))
}

impl Driver {
    /// Charges the re-request marshalling when `p`'s retry fires.
    fn sr_due_retry(
        &mut self,
        sr: &mut SignRound,
        p: PartyId,
        now: u64,
    ) -> Result<bool, HostError> {
        if sr.due_retry(p, now).is_none() {
            return Ok(false);
        }
        self.host.push_ops(
            TenantId(p as usize),
            [TenantOp::Ocall {
                work: costs::HOST_SYSCALL_CYCLES,
            }],
        );
        self.drain(p)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(parties: u32, threshold: u32) -> MpcConfig {
        let mut cfg = MpcConfig::new(parties, threshold);
        cfg.rounds = 3;
        cfg.heap_bytes = 64 << 10;
        cfg
    }

    #[test]
    fn fault_free_run_completes_every_round() {
        let report = run_mpc(&quick(4, 3), 0).expect("clean run");
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.completed_rounds(), 3);
        assert_eq!(report.survival_permille(), 1000);
        assert!(report.mean_round_latency() > 0);
        assert_eq!(report.stats.dropped, 0);
        assert_eq!(report.suspect_events(), 0);
        // Every round: 4 broadcasts of 3 messages each.
        assert_eq!(report.stats.sent, 3 * 4 * 3);
        assert_eq!(report.stats.delivered, report.stats.sent);
    }

    #[test]
    fn runs_are_byte_identical() {
        let cfg = quick(4, 3).net(NetFaultPlan::parse("drop=80,dup=50,reorder=100").unwrap());
        let a = run_mpc(&cfg, 5).expect("run a");
        let b = run_mpc(&cfg, 5).expect("run b");
        assert_eq!(a, b);
        assert_eq!(a.net_log.render_jsonl(), b.net_log.render_jsonl());
        assert_eq!(a.supervision.render_jsonl(), b.supervision.render_jsonl());
    }

    #[test]
    fn salt_changes_the_weather_not_the_protocol() {
        let cfg = quick(4, 3).net(NetFaultPlan::parse("drop=200").unwrap());
        let a = run_mpc(&cfg, 1).expect("run a");
        let b = run_mpc(&cfg, 2).expect("run b");
        assert_eq!(a.rounds.len(), b.rounds.len());
        assert_ne!(
            a.net_log.render_jsonl(),
            b.net_log.render_jsonl(),
            "different salts must draw different drops"
        );
    }

    #[test]
    fn losing_quorum_is_a_typed_error_with_partial_report() {
        // 3-of-3 with one party dead from the start: quorum is
        // unreachable the moment the first round is checked.
        let cfg = quick(3, 3).net(NetFaultPlan::parse("partykill=1@0:100000000").unwrap());
        match run_mpc(&cfg, 0) {
            Err(MpcError::QuorumLost {
                round,
                live,
                threshold,
                partial,
            }) => {
                assert_eq!(round, 0);
                assert_eq!(live, 2);
                assert_eq!(threshold, 3);
                let text = partial.supervision.render_jsonl();
                assert!(text.contains("\"quorum_lost\""), "got: {text}");
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    #[test]
    fn kill_window_degrades_gracefully_and_recovers() {
        // The acceptance scenario: 5 parties, t=3, party 2 dead for
        // cycles 100k..600k of the run. Every round must still reach
        // quorum, and supervision must show exactly one suspicion and
        // one recovery — both for party 2.
        let cfg = MpcConfig::new(5, 3)
            .net(NetFaultPlan::parse("drop=50,partykill=2@100000:500000").unwrap());
        let r = run_mpc(&cfg, 0).expect("degraded run completes");
        assert_eq!(r.completed_rounds(), r.rounds.len());
        assert_eq!(r.survival_permille(), 1000);
        assert_eq!(r.suspect_events(), 1);
        assert_eq!(r.recover_events(), 1);
        let text = r.supervision.render_jsonl();
        assert!(
            text.contains("\"event\":\"party_suspected\",\"party\":2"),
            "got: {text}"
        );
        assert!(
            text.contains("\"event\":\"party_recovered\",\"party\":2"),
            "got: {text}"
        );
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        assert!(matches!(run_mpc(&quick(1, 1), 0), Err(MpcError::Config(_))));
        assert!(matches!(run_mpc(&quick(3, 4), 0), Err(MpcError::Config(_))));
        let mut cfg = quick(3, 2);
        cfg.rounds = 0;
        assert!(matches!(run_mpc(&cfg, 0), Err(MpcError::Config(_))));
    }
}

//! MPC trajectory: what does the network fault plane cost the
//! threshold-signing protocol?
//!
//! Two deterministic numbers pin the relay's resilience layer:
//!
//! 1. **Round-latency amplification** — the mean signing-round latency
//!    on a heavily lossy network (`drop=500`: half of all messages
//!    eaten) over the clean-network mean. Losing that many shares
//!    forces the pull-retry machinery through its doubling backoff, so
//!    rounds must get visibly slower — but boundedly: a spiralling
//!    value means retries are re-triggering instead of converging.
//!
//! 2. **Storm survival overhead** — total protocol cycles under the
//!    acceptance storm (`drop=50,partykill=2@100000:500000`) over the
//!    clean run's, with survival pinned at 1000‰ and exactly one
//!    suspect/recover pair. The ratio sits slightly *below* 1.0 — a
//!    dead party skips its broadcasts — and the gate keeps the
//!    resilience machinery (detection, rejoin catch-up, retries) from
//!    quietly inflating it as the protocol evolves.
//!
//! Like `resilience.rs` and `cotenancy.rs`, nothing here is wall-clock:
//! both ratios are pure functions of the fault plan and the cost model,
//! so the committed `BENCH_mpc.json` point is exact and the gate can be
//! tight.
//!
//! Env knobs: `SGXGAUGE_PERF_OUT=<path>` overrides where the JSON is
//! written, `SGXGAUGE_PERF_BASELINE=<path>` arms the regression gate.

use faults::NetFaultPlan;
use relay::{run_mpc, MpcConfig};
use sgxgauge_bench::{banner, sgxgauge_bench};

/// Measured ratios may exceed the committed trajectory point by at most
/// this factor. Both are deterministic, so the headroom absorbs
/// deliberate cost-model retuning only.
const HEADROOM: f64 = 1.25;

/// The lossy network must visibly slow rounds — otherwise the bench
/// would be gating noise, not the retry machinery.
const AMPLIFICATION_FLOOR: f64 = 1.05;

fn main() {
    banner(
        "MPC — round-latency amplification and storm survival overhead",
        "threshold signing under the network fault plane as exact trajectory points",
    );

    let shape = || MpcConfig::new(5, 3).rounds(8);
    let clean = run_mpc(&shape(), 1).expect("clean network holds quorum");
    let lossy_plan = NetFaultPlan::parse("drop=500").expect("lossy plan parses");
    let lossy = run_mpc(&shape().net(lossy_plan), 1).expect("3-of-5 quorum survives the loss");
    let storm_plan =
        NetFaultPlan::parse("drop=50,partykill=2@100000:500000").expect("storm plan parses");
    let storm = run_mpc(&shape().net(storm_plan), 1).expect("3-of-5 quorum survives the storm");

    for (name, report) in [("clean", &clean), ("lossy", &lossy), ("storm", &storm)] {
        assert_eq!(
            report.survival_permille(),
            1000,
            "graceful degradation: the {name} run may slow rounds, never lose them"
        );
    }
    assert!(
        lossy.rounds.iter().map(|s| s.retries).sum::<u32>() > 0,
        "half the messages lost must force pull-retries"
    );
    assert_eq!(
        storm.suspect_events(),
        1,
        "the kill window must surface as exactly one suspicion"
    );
    assert_eq!(
        storm.recover_events(),
        1,
        "and the killed party must rejoin"
    );

    let clean_latency = clean.mean_round_latency();
    let lossy_latency = lossy.mean_round_latency();
    let amplification = lossy_latency as f64 / clean_latency.max(1) as f64;
    let overhead = storm.total_cycles as f64 / clean.total_cycles.max(1) as f64;
    println!(
        "clean mean round {clean_latency:>9} cycles  total {:>10}\n\
         lossy mean round {lossy_latency:>9} cycles  amplification {amplification:.4}x\n\
         storm total {:>10} cycles  overhead {overhead:.4}x",
        clean.total_cycles, storm.total_cycles
    );
    assert!(
        amplification > AMPLIFICATION_FLOOR,
        "the lossy network must visibly slow rounds: \
         {amplification:.4}x <= {AMPLIFICATION_FLOOR}x"
    );

    let baseline = sgxgauge_bench(
        "mpc",
        &[
            ("clean_mean_round_latency", &clean_latency),
            ("lossy_mean_round_latency", &lossy_latency),
            ("latency_amplification", &format!("{amplification:.4}")),
            ("clean_total_cycles", &clean.total_cycles),
            ("storm_total_cycles", &storm.total_cycles),
            ("storm_overhead", &format!("{overhead:.4}")),
            ("survival_permille", &1000),
        ],
    );

    // Regression gate against the committed trajectory point.
    if let Some(baseline) = baseline {
        let base_amplification = baseline.number("latency_amplification");
        let base_overhead = baseline.number("storm_overhead");
        println!(
            "baseline amplification {base_amplification:.4} overhead {base_overhead:.4} \
             (gate: <= {HEADROOM:.2}x baseline)"
        );
        assert!(
            amplification <= base_amplification * HEADROOM,
            "mpc regression: latency amplification {amplification:.4} exceeds \
             {HEADROOM}x the committed {base_amplification:.4} point"
        );
        assert!(
            overhead <= base_overhead * HEADROOM,
            "mpc regression: storm overhead {overhead:.4} exceeds \
             {HEADROOM}x the committed {base_overhead:.4} point"
        );
    }
    println!("PASS: amplification {amplification:.4}x, overhead {overhead:.4}x");
}

//! Resilience trajectory: what does surviving the storm cost?
//!
//! The campaign plane's whole value proposition is that a fault storm
//! changes *when* work completes, never *what* it computes — and that
//! the price of that guarantee (retry re-execution, backoff spend,
//! recomputing a crashed wave on restart) stays a small, pinned fraction of the
//! clean-run cycle bill. This harness measures exactly that:
//!
//! 1. runs one campaign grid fault-free and once more under a combined
//!    simulated-syscall + host-I/O fault storm, and reports
//!    `overhead_fraction = (storm - clean) / clean` in simulated
//!    cycles (runtime + retry backoff);
//! 2. runs the storm config as a kill/resume soak — three seeded
//!    kills, stray temps quarantined on every restart — and asserts
//!    the tentpole convergence claim while recording how many temps
//!    the recovery path actually quarantined.
//!
//! Unlike `hotpath.rs`, nothing here is wall-clock: every number is a
//! deterministic function of the config and the salted fault plans, so
//! the committed `BENCH_resilience.json` trajectory point is exact and
//! the regression gate can be tight. A rising overhead fraction means
//! the supervision machinery started paying for resilience it didn't
//! need (spurious retries, over-eager backoff); the gate fails before
//! that lands.
//!
//! Env knobs: `SGXGAUGE_PERF_OUT=<path>` overrides where the JSON is
//! written, `SGXGAUGE_PERF_BASELINE=<path>` arms the regression gate.

use campaign::{run_campaign, run_soak, CampaignConfig};
use sgxgauge_bench::{banner, sgxgauge_bench};
use std::path::PathBuf;

/// The measured overhead fraction may exceed the committed trajectory
/// point by at most this factor. The metric is deterministic (simulated
/// cycles, salted plans — no host noise), so the headroom only absorbs
/// deliberate cost-model retuning, not measurement jitter; a supervision
/// regression that doubles retry spend blows well through it.
const OVERHEAD_HEADROOM: f64 = 1.25;

/// The shared grid: an EPC-sensitive stage plus a syscall-heavy one,
/// two reps, two-wide waves — small enough for CI seconds, wide enough
/// that retries, backoff and checkpoint adoption all occur under the
/// storm plans. The storm draws each host syscall failed at 1% —
/// Blockchain issues enough syscalls that cells fail transiently and
/// recover within the retry allowance (the probe at 2%+ tips into
/// permanent transients, which would measure giving up, not surviving).
fn config(name: &str, storm: bool) -> CampaignConfig {
    let faults = if storm {
        "faults = \"syscall=10\"\nio_faults = \"eio=30,torn=15\"\n"
    } else {
        ""
    };
    let text = format!(
        "[campaign]\nname = \"{name}\"\nseed = 42\nscale = 4096\n\
         reps = 2\njobs = 2\nretries = 2\n\
         breaker_threshold = 3\nbreaker_cooldown = 1\n\
         [[stage]]\nname = \"join\"\nmodes = [\"vanilla\"]\n\
         settings = [\"low\"]\nworkloads = [\"HashJoin\"]\n{faults}\
         [[stage]]\nname = \"chain\"\nmodes = [\"vanilla\"]\n\
         settings = [\"low\"]\nworkloads = [\"Blockchain\"]\n{faults}"
    );
    CampaignConfig::parse(&text).expect("bench config parses")
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sgxgauge-bench-resilience-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn main() {
    banner(
        "Resilience overhead — cycle cost of surviving the fault storm",
        "retry + backoff + recovery spend as a fraction of the clean bill",
    );

    // Leg 1: clean vs storm on the identical grid.
    let clean_out = scratch("clean");
    let clean = run_campaign(&config("clean", false), &clean_out, true, None)
        .expect("clean campaign completes");
    let storm_out = scratch("storm");
    let storm = run_campaign(&config("storm", true), &storm_out, true, None)
        .expect("storm campaign completes");
    let clean_total = clean.total_cycles();
    let storm_total = storm.total_cycles();
    assert!(clean_total > 0, "clean campaign must do work");
    assert!(
        storm_total >= clean_total,
        "the storm can only add cycles: clean {clean_total}, storm {storm_total}"
    );
    assert!(
        storm.total_backoff_cycles > 0,
        "a syscall storm with retries must spend backoff"
    );
    let failed_rows = |out: &std::path::Path, stage: &str| {
        std::fs::read_to_string(out.join(stage).join("report.csv"))
            .expect("stage report")
            .lines()
            .filter(|l| l.contains(",transient,") || l.contains(",degraded,"))
            .count()
    };
    assert_eq!(
        failed_rows(&storm_out, "chain"),
        0,
        "the storm must be survivable: every cell recovers within its retries"
    );
    let overhead = (storm_total - clean_total) as f64 / clean_total as f64;
    println!(
        "clean {:>10} cycles\nstorm {:>10} cycles ({} backoff)\noverhead {:.4} of clean",
        clean_total, storm_total, storm.total_backoff_cycles, overhead
    );

    // Leg 2: the storm config as a kill/resume soak. Convergence is the
    // tentpole invariant; the recovery counters quantify how much the
    // quarantine path was actually exercised while holding it.
    let soak_out = scratch("soak");
    let outcome = run_soak(&config("storm", true), &soak_out, 3).expect("soak completes");
    assert_eq!(outcome.kills_fired, 3, "every scheduled kill must land");
    assert!(
        outcome.converged,
        "soak diverged from golden: {:?}",
        outcome.mismatches
    );
    assert_eq!(
        outcome.golden_cycles, outcome.storm_cycles,
        "converged runs must also agree on the cycle bill"
    );
    let recovered = outcome.recovered;
    let adopted: usize = outcome.report.stages.iter().map(|s| s.adopted).sum();
    println!(
        "soak: 3 kills fired, converged; final pass adopted {adopted} cells, \
         recovery quarantined {recovered} temps across every restart"
    );

    for dir in [&clean_out, &storm_out, &soak_out] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let baseline = sgxgauge_bench(
        "resilience",
        &[
            ("clean_cycles", &clean_total),
            ("storm_cycles", &storm_total),
            ("storm_backoff_cycles", &storm.total_backoff_cycles),
            ("overhead_fraction", &format!("{overhead:.4}")),
            ("soak_kills", &outcome.kills_fired),
            ("soak_converged", &outcome.converged),
            ("soak_final_adopted", &adopted),
            ("soak_recovered_artifacts", &recovered),
        ],
    );

    // Regression gate against the committed trajectory point.
    if let Some(baseline) = baseline {
        let baseline = baseline.number("overhead_fraction");
        println!(
            "baseline overhead {:.4}, measured {:.4} (gate: <= {:.2}x baseline)",
            baseline, overhead, OVERHEAD_HEADROOM
        );
        assert!(
            overhead <= baseline * OVERHEAD_HEADROOM,
            "resilience regression: storm overhead {overhead:.4} exceeds \
             {OVERHEAD_HEADROOM}x the committed {baseline:.4} trajectory point"
        );
    }
    println!("PASS: storm survival cost pinned at {overhead:.4} of clean cycles");
}

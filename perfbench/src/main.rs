//! Host-time benchmark of the SGXGauge suite.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload all [--seed <n>] [--seconds <s>]
//! perfbench --record
//! ```
//!
//! With `--trace 0` it sweeps the workload's grid again and again for
//! `--seconds` and reports the end-to-end metrics as medians over the
//! sweeps. With `--trace 1` it reports the per-layer metrics of one
//! untraced sweep, the layer probes and one traced sweep. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; every metric also
//! goes to standard error as `name value unit`. `--workload all` prints
//! both sets of metrics for every workload as a table. `--record` prints
//! `src/recorded.rs` for the current simulator.

use sgxgauge_core::{Env, Workload};
use sgxgauge_perfbench::fingerprint::{self, Tally};
use sgxgauge_perfbench::grid::{Grid, GRIDS};
use sgxgauge_perfbench::probes::{self, ProbeConfig};
use sgxgauge_perfbench::recorded::RECORDED;
use sgxgauge_perfbench::timer::Phase;
use sgxgauge_perfbench::{median, timed, Sweep};
use std::process::ExitCode;
use std::time::Instant;

/// `(name, value, unit)`.
type Metric = (String, f64, &'static str);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 60.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.record && args.workload != "all" && Grid::find(&args.workload).is_none() {
        let names: Vec<&str> = GRIDS.iter().map(|g| g.name).collect();
        return Err(format!(
            "--workload must be `all` or one of: {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// End-to-end metrics: sweeps the grid until another sweep would pass
/// `seconds`, and reports medians over the sweeps.
fn untraced(grid: &Grid, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let workloads = grid.workloads();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let runner = grid.runner();
    let start = Instant::now();
    let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak = None;
    loop {
        let sweep = Sweep::run(&runner, &refs);
        fingerprint::check(&sweep.report, RECORDED, tally);
        // Later sweeps reuse and fragment the first one's freed heap, so
        // only the first sweep's peak is a property of the simulator.
        if peak.is_none() {
            peak = Some(peak_rss_mb()?);
        }
        let w = sweep.wall.as_secs_f64();
        let exec = sweep.total_s(Phase::Execute);
        eprintln!(
            "sweep {}: wall {w:.4} s, execute {exec:.4} s",
            wall.len() + 1
        );
        wall.push(w);
        setup.push(w - exec);
        rate.push(sweep.accesses() as f64 / exec / 1e6);
        if start.elapsed().as_secs_f64() + w > seconds {
            break;
        }
    }
    Ok(vec![
        ("wall_s".into(), median(&wall), "s"),
        ("setup_s".into(), median(&setup), "s"),
        ("sim_maccess_per_s".into(), median(&rate), "M/s"),
        (
            "peak_rss_mb".into(),
            peak.expect("at least one sweep ran"),
            "MiB",
        ),
    ])
}

/// Per-layer metrics: one untraced sweep, the layer probes, `Env::new`
/// for every cell, then one traced sweep.
fn traced(grid: &Grid, seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let workloads = grid.workloads();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let runner = grid.runner();

    let untraced = Sweep::run(&runner, &refs);
    fingerprint::check(&untraced.report, RECORDED, tally);

    let mut m = probes::run(&ProbeConfig::paper(seed), tally).map_err(|e| e.to_string())?;
    let probe = |m: &[Metric], name: &str| {
        m.iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
            .expect("probes report every named metric")
    };

    let mut env_new_s = 0.0;
    for cell in runner.grid(&refs) {
        let mut cfg = runner.runner().config().env.clone();
        cfg.mode = cell.mode;
        cfg.protected_hint = refs[cell.workload].spec(cell.setting).protected_bytes;
        let mut env = None;
        env_new_s += timed(|| env = Some(Env::new(cfg))).as_secs_f64();
        env.expect("Env::new ran").map_err(|e| e.to_string())?;
    }

    let sweep = Sweep::run(&runner, &refs);
    fingerprint::check(&sweep.report, RECORDED, tally);
    let wall = sweep.wall.as_secs_f64();
    let setup_s = sweep.total_s(Phase::Setup);
    let execute_s = sweep.total_s(Phase::Execute);
    let sum = |f: &dyn Fn(&sgxgauge_core::RunReport) -> u64| -> u64 {
        sweep.report.reports().map(f).sum()
    };
    let accesses = sweep.accesses();
    let llc_accesses = sum(&|r| r.counters.llc_accesses);
    let dtlb_misses = sum(&|r| r.counters.dtlb_misses);
    let llc_misses = sum(&|r| r.counters.llc_misses);

    m.push(("env.new_s".into(), env_new_s, "s"));
    m.push(("workloads.setup_s".into(), setup_s, "s"));
    m.push(("workloads.execute_s".into(), execute_s, "s"));
    m.push((
        "workloads.kernel_est_s".into(),
        execute_s - accesses as f64 * probe(&m, "env.access_ns.seq") * 1e-9,
        "s",
    ));
    m.push((
        "sweep.overhead_s".into(),
        wall - (env_new_s + setup_s + execute_s),
        "s",
    ));
    m.push((
        "bench.span_overhead_frac".into(),
        wall / untraced.wall.as_secs_f64() - 1.0,
        "ratio",
    ));
    m.push((
        "sim.runtime_cycles".into(),
        sum(&|r| r.runtime_cycles) as f64,
        "cycles",
    ));
    m.push(("mem.accesses".into(), accesses as f64, "count"));
    m.push(("mem.dtlb_misses".into(), dtlb_misses as f64, "count"));
    m.push((
        "mem.stlb_hits".into(),
        sum(&|r| r.counters.stlb_hits) as f64,
        "count",
    ));
    m.push((
        "mem.walk_cycles".into(),
        sum(&|r| r.counters.walk_cycles) as f64,
        "cycles",
    ));
    m.push(("mem.llc_accesses".into(), llc_accesses as f64, "count"));
    m.push(("mem.llc_misses".into(), llc_misses as f64, "count"));
    m.push((
        "mem.mee_cycles".into(),
        sum(&|r| r.counters.mee_cycles) as f64,
        "cycles",
    ));
    m.push((
        "mem.tlb_flushes".into(),
        sum(&|r| r.counters.tlb_flushes) as f64,
        "count",
    ));
    m.push((
        "mem.dtlb_miss_ratio".into(),
        dtlb_misses as f64 / accesses.max(1) as f64,
        "ratio",
    ));
    m.push((
        "mem.llc_miss_ratio".into(),
        llc_misses as f64 / llc_accesses.max(1) as f64,
        "ratio",
    ));
    m.push(("sgx.ecalls".into(), sum(&|r| r.sgx.ecalls) as f64, "count"));
    m.push(("sgx.ocalls".into(), sum(&|r| r.sgx.ocalls) as f64, "count"));
    m.push((
        "sgx.aex_exits".into(),
        sum(&|r| r.sgx.aex_exits) as f64,
        "count",
    ));
    m.push((
        "sgx.epc_evictions".into(),
        sum(&|r| r.sgx.epc_evictions) as f64,
        "count",
    ));
    m.push((
        "sgx.epc_loadbacks".into(),
        sum(&|r| r.sgx.epc_loadbacks) as f64,
        "count",
    ));
    m.push((
        "sgx.transition_cycles".into(),
        sum(&|r| r.sgx.transition_cycles) as f64,
        "cycles",
    ));
    m.push((
        "sgx.fault_cycles".into(),
        sum(&|r| r.sgx.fault_cycles) as f64,
        "cycles",
    ));
    Ok(m)
}

fn json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// `--record`: one sweep of every grid, rendered as `src/recorded.rs`.
fn record() {
    println!(
        "//! Recorded simulated fingerprints of every benchmark cell, written by\n\
         //! `--record`.\n\nuse crate::fingerprint::Recorded;\n\n\
         /// One entry per cell of every grid in [`crate::grid::GRIDS`].\n\
         pub const RECORDED: &[Recorded] = &["
    );
    for grid in &GRIDS {
        let workloads = grid.workloads();
        let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
        let sweep = Sweep::run(&grid.runner(), &refs);
        for (cell, e) in sweep.report.errors() {
            eprintln!("{} failed: {e}", cell.workload);
        }
        print!("{}", fingerprint::render(&sweep.report));
    }
    println!("];");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        record();
        return ExitCode::SUCCESS;
    }
    let grids: Vec<&Grid> = match Grid::find(&args.workload) {
        Some(g) => vec![g],
        None => GRIDS.iter().collect(),
    };
    let table = args.workload == "all";
    let mut tally = Tally::default();
    let mut last = Vec::new();
    for grid in grids {
        let runs: &[bool] = if table {
            &[false, true]
        } else if args.trace {
            &[true]
        } else {
            &[false]
        };
        for &trace in runs {
            let metrics = if trace {
                traced(grid, args.seed, &mut tally)
            } else {
                untraced(grid, args.seconds, &mut tally)
            };
            let metrics = match metrics {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", grid.name);
                    return ExitCode::FAILURE;
                }
            };
            for (n, v, u) in &metrics {
                if table {
                    println!("{:<16} {:<36} {:>16.6} {u}", grid.name, n, v);
                } else {
                    eprintln!("{n} {v} {u}");
                }
            }
            last = metrics;
        }
    }
    for why in &tally.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    if table {
        println!(
            "cells and probe checks: {} attempted, {} failed",
            tally.attempted, tally.failed
        );
        return if tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("{}", json(&tally, &last));
    ExitCode::SUCCESS
}

//! Integration: a LibOS run forked from a runner's one launch is
//! indistinguishable from a run on a freshly launched enclave.
//!
//! A [`Runner`] simulates the LibOS launch (the whole-ELRANGE
//! measurement pass) once and clones the launched `Env` into every LibOS
//! cell. These tests pin that the fork changes nothing a run reports:
//! cycles, counters, driver samples, start-up statistics, outputs and
//! trace bytes, with the fault plane armed.

use proptest::prelude::*;
use sgxgauge::core::env::Placement;
use sgxgauge::core::{
    Env, EnvConfig, ExecMode, InputSetting, RunReport, Runner, RunnerConfig, TraceConfig,
};
use sgxgauge::faults::FaultPlan;
use sgxgauge::workloads::suite_scaled;

/// AEX storms and EPC pressure spikes, so forks are compared on the
/// fault and eviction paths too.
const STORM: &str = "seed=7,aex=2@40000,epc=64@200000:50000";

/// The divisor of the inputs and the platform.
const D: u64 = 1024;

fn runner() -> Runner {
    Runner::new(RunnerConfig::scaled(D))
        .tracing(TraceConfig::default())
        .faults(FaultPlan::parse(STORM).expect("valid plan"))
}

/// Everything a run reports, trace bytes included.
fn assert_same_run(fork: &RunReport, fresh: &RunReport) {
    let name = fresh.workload;
    assert_eq!(fork.runtime_cycles, fresh.runtime_cycles, "{name}");
    assert_eq!(fork.counters, fresh.counters, "{name}");
    assert_eq!(fork.sgx, fresh.sgx, "{name}");
    assert_eq!(fork.driver, fresh.driver, "{name}");
    assert_eq!(fork.libos_startup, fresh.libos_startup, "{name}");
    assert_eq!(fork.output, fresh.output, "{name}");
    let jsonl = |r: &RunReport| r.trace.as_ref().map(|t| t.render_jsonl());
    assert_eq!(jsonl(fork), jsonl(fresh), "{name} trace");
}

/// Every LibOS workload run on one runner (all but the first cell a
/// fork) matches the same workload on a runner of its own, and a second
/// fork after all the others matches too: runs never write back into
/// the launched template.
#[test]
fn libos_cells_forked_from_one_launch_match_fresh_launches() {
    let shared = runner();
    let workloads = suite_scaled(D);
    let libos: Vec<_> = workloads
        .iter()
        .filter(|w| w.supports(ExecMode::LibOs))
        .collect();
    assert!(libos.len() >= 2, "the suite has LibOS workloads");
    for w in &libos {
        let fork = shared
            .run_once(w.as_ref(), ExecMode::LibOs, InputSetting::Low)
            .unwrap_or_else(|e| panic!("{} forked: {e}", w.name()));
        let fresh = runner()
            .run_once(w.as_ref(), ExecMode::LibOs, InputSetting::Low)
            .unwrap_or_else(|e| panic!("{} fresh: {e}", w.name()));
        assert!(fork.libos_startup.is_some());
        assert_same_run(&fork, &fresh);
    }
    let first = libos[0].as_ref();
    let again = shared
        .run_once(first, ExecMode::LibOs, InputSetting::Low)
        .expect("second fork");
    let fresh = runner()
        .run_once(first, ExecMode::LibOs, InputSetting::Low)
        .expect("fresh");
    assert_same_run(&again, &fresh);
}

/// One `Env` operation of the fork property.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { off: u64, v: u64 },
    Read { off: u64 },
    Touch { off: u64, len: u64, write: bool },
    Compute { cycles: u64 },
    Syscall,
    Io { bytes: u64 },
    Spawn,
}

/// The region every op works on: larger than the EPC (1 MiB at `D`), so
/// touches page.
const REGION: u64 = 6 << 20;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..REGION / 8, any::<u64>()).prop_map(|(w, v)| Op::Write { off: w * 8, v }),
        (0..REGION / 8).prop_map(|w| Op::Read { off: w * 8 }),
        (0..REGION, 1u64..(256 << 10), any::<bool>()).prop_map(|(off, len, write)| Op::Touch {
            off,
            len: len.min(REGION - off),
            write
        }),
        (1u64..50_000).prop_map(|cycles| Op::Compute { cycles }),
        (0u8..1).prop_map(|_| Op::Syscall),
        (1u64..(512 << 10)).prop_map(|bytes| Op::Io { bytes }),
        (0u8..1).prop_map(|_| Op::Spawn),
    ]
}

/// Runs `ops` on `env` as the runner runs a cell: enter the app, reset
/// the counters, arm the fault plane and trace sink, then execute.
/// Returns the sum of every value read back.
fn drive(env: &mut Env, ops: &[Op]) -> u64 {
    env.start_app().expect("enter");
    env.reset_measurement();
    env.set_fault_hook(FaultPlan::parse(STORM).expect("valid plan").compile(3));
    env.machine_mut()
        .mem_mut()
        .set_trace_sink(trace::TraceSink::with_config(1 << 16, 100_000));
    let r = env.alloc(REGION, Placement::Protected).expect("region");
    let mut sum = 0u64;
    let mut threads = 1;
    for &op in ops {
        match op {
            Op::Write { off, v } => env.write_u64(r, off, v),
            Op::Read { off } => sum = sum.wrapping_add(env.read_u64(r, off)),
            Op::Touch { off, len, write } => env.touch(r, off, len, write),
            Op::Compute { cycles } => env.compute(cycles),
            // Injected syscall failures are part of the compared run.
            Op::Syscall => sum = sum.wrapping_add(u64::from(env.host_syscall().is_err())),
            Op::Io { bytes } => env.io_transfer(bytes, true).expect("io"),
            // The manifest leaves TCS slots for a few threads.
            Op::Spawn if threads < 4 => {
                env.spawn_app_thread().expect("spawn");
                threads += 1;
            }
            Op::Spawn => {}
        }
    }
    sum
}

/// What the fork property compares.
fn observed(env: &mut Env, sum: u64) -> impl PartialEq + std::fmt::Debug {
    let elapsed = env.elapsed_cycles();
    let m = env.machine();
    let facts = (
        sum,
        elapsed,
        *m.mem().counters(),
        *m.sgx_counters(),
        m.driver_stats().clone(),
        m.epc().resident_count(),
        m.epc().evicted_count(),
        env.libos_startup(),
    );
    let trace = env
        .machine_mut()
        .mem_mut()
        .take_trace_sink()
        .map(|t| t.render_jsonl());
    (facts, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random op sequences, a clone of a launched LibOS `Env`
    /// charges exactly what a freshly launched one does, and the
    /// template stays as launched: a second clone driven the same way
    /// matches as well.
    #[test]
    fn forked_libos_env_matches_fresh_launch(ops in prop::collection::vec(op(), 1..60)) {
        let cfg = EnvConfig::scaled(ExecMode::LibOs, D);
        let template = Env::new(cfg.clone()).expect("launch");
        let mut fresh = Env::new(cfg).expect("launch");
        let sum = drive(&mut fresh, &ops);
        let want = observed(&mut fresh, sum);
        for _ in 0..2 {
            let mut fork = template.clone();
            let sum = drive(&mut fork, &ops);
            prop_assert_eq!(&observed(&mut fork, sum), &want);
        }
    }
}

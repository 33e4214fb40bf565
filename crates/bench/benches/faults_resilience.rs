//! Micro-benchmarks of the fault-injection plane.
//!
//! The fault hook is polled from every instrumented `Env` operation, so
//! its quiescent cost is paid millions of times per sweep; these benches
//! pin that cost (and the end-to-end overhead of running a workload
//! under an active plan) so regressions in the resilience layer are
//! caught the same way simulator hot-path regressions are.

use faults::FaultPlan;
use sgxgauge_bench::time_per_iter;
use sgxgauge_core::{EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge_workloads::HashJoin;
use std::hint::black_box;

fn bench_hook_poll() {
    // A sparse storm: almost every poll takes the fast "not due" path.
    let plan = FaultPlan::parse("seed=1,aex=2@1000000").expect("plan");
    let mut hook = plan.compile(0);
    let mut now = 0u64;
    time_per_iter("fault_hook_poll_quiescent", || {
        now += 50;
        black_box(hook.poll(black_box(now)));
    });
}

fn quick_runner() -> RunnerConfig {
    RunnerConfig {
        env: EnvConfig::quick_test(ExecMode::Vanilla),
        repetitions: 1,
    }
}

fn bench_clean_vs_faulted_run() {
    let wl = HashJoin::scaled(1024);
    let clean = Runner::new(quick_runner());
    time_per_iter("run_native_clean", || {
        clean
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .expect("clean run")
    });
    let faulted = Runner::new(quick_runner())
        .faults(FaultPlan::parse("seed=7,aex=2@20000,epc=8@90000:30000").expect("plan"));
    time_per_iter("run_native_faulted", || {
        faulted
            .run_salted(&wl, ExecMode::Native, InputSetting::Low, 1)
            .expect("faulted run")
    });
}

fn main() {
    bench_hook_poll();
    bench_clean_vs_faulted_run();
}

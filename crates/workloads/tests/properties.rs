//! Property tests for the workload kernels: each data structure or
//! algorithm implemented over simulated memory is checked against a
//! plain-Rust oracle on arbitrary inputs.

use proptest::prelude::*;
use sgxgauge_core::env::Placement;
use sgxgauge_core::{Env, EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge_workloads::util::SplitMix64;
use sgxgauge_workloads::{Bfs, HashJoin, Lighttpd, Memcached};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The region accessors preserve arbitrary byte patterns at arbitrary
    /// (in-bounds) offsets — the foundation every workload stands on.
    #[test]
    fn region_bytes_roundtrip(writes in prop::collection::vec((0u64..4000, any::<u64>()), 1..64)) {
        let mut env = Env::new(EnvConfig::scaled(ExecMode::Vanilla, 1024)).expect("env");
        let r = env.alloc(4096, Placement::Untrusted).expect("alloc");
        let mut oracle = std::collections::BTreeMap::new();
        for &(off, v) in &writes {
            let off = off & !7; // align
            env.write_u64(r, off, v);
            oracle.insert(off, v);
        }
        for (&off, &v) in &oracle {
            prop_assert_eq!(env.read_u64(r, off), v);
        }
    }

    /// A BFS over any ring-plus-random-edges graph visits every node
    /// exactly once (the workload validates this internally; here the
    /// graph shape varies).
    #[test]
    fn bfs_visits_all_nodes(divisor in 64u64..2048) {
        let wl = Bfs::scaled(divisor);
        let runner = Runner::new(RunnerConfig::scaled(divisor));
        let r = runner.run_once(&wl, ExecMode::Vanilla, InputSetting::Low).expect("run");
        let (n, _) = wl.graph_size(InputSetting::Low);
        prop_assert_eq!(r.output.ops, n);
    }

    /// HashJoin matches exactly its build-row count at any scale (every
    /// even probe replays a build key; odd probes cannot match).
    #[test]
    fn hashjoin_match_count_exact(divisor in 128u64..4096) {
        let wl = HashJoin::scaled(divisor);
        let runner = Runner::new(RunnerConfig::scaled(divisor));
        let r = runner.run_once(&wl, ExecMode::Vanilla, InputSetting::Low).expect("run");
        let matches = r.output.metric("matches").expect("metric") as u64;
        prop_assert_eq!(matches, wl.build_rows(InputSetting::Low));
    }

    /// Memcached read-hit counts are identical between Vanilla and LibOS
    /// (the store's logic is mode-independent).
    #[test]
    fn memcached_hits_mode_independent(divisor in 256u64..2048) {
        let wl = Memcached::scaled(divisor);
        let runner = Runner::new(RunnerConfig::scaled(divisor));
        let v = runner.run_once(&wl, ExecMode::Vanilla, InputSetting::Low).expect("vanilla");
        let l = runner.run_once(&wl, ExecMode::LibOs, InputSetting::Low).expect("libos");
        prop_assert_eq!(v.output.metric("read_hits"), l.output.metric("read_hits"));
    }

    /// Lighttpd's mean latency is monotone (non-strictly) in the client
    /// count under SGX: more concurrency, more queueing.
    #[test]
    fn lighttpd_latency_monotone_in_threads(threads in 2usize..12) {
        let runner = Runner::new(RunnerConfig::scaled(1024));
        let lat = |t: usize| {
            let wl = Lighttpd::scaled(1024).with_threads(t);
            runner
                .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
                .expect("run")
                .output
                .metric("mean_latency_cycles")
                .expect("metric")
        };
        prop_assert!(lat(threads + 4) >= lat(threads) * 0.98);
    }

    /// SplitMix64 streams never collide across distinct seeds (sanity of
    /// the deterministic input generation shared by all workloads).
    #[test]
    fn splitmix_streams_differ(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        prop_assume!(seed_a != seed_b);
        let mut a = SplitMix64::new(seed_a);
        let mut b = SplitMix64::new(seed_b);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }
}

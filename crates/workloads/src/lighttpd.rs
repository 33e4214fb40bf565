//! Lighttpd workload (§4.2.9) — a single-threaded event-driven web
//! server under concurrent load.
//!
//! The server hosts a 20 KB page (as in the paper / HotCalls) and an
//! `ab`-style closed-loop client drives it with a configurable number of
//! concurrent connections. The server runs on one thread — concurrency
//! shows up as queueing delay, which is why the paper's Fig 3 sees
//! request latency grow by up to 7x under SGX as transition costs
//! lengthen per-request service time.

use crate::util::{fold, scale_down};
use sgxgauge_core::env::{Placement, SimThread};
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Served page size (paper: "a web-page of size 20 KB").
const PAGE_BYTES: u64 = 20 << 10;

/// Request line + headers on the wire.
const REQ_BYTES: u64 = 256;

/// One-way network delay, cycles.
const NET_DELAY: u64 = 3_000;

/// HTTP parsing + response-header formatting cost, cycles.
const PARSE_CYCLES: u64 = 2_500;

/// The Lighttpd workload. See the module docs.
#[derive(Debug, Clone)]
pub struct Lighttpd {
    divisor: u64,
    threads: usize,
}

impl Lighttpd {
    /// Paper-scale instance (50 K/60 K/70 K requests, 16 client threads).
    pub fn new() -> Self {
        Lighttpd {
            divisor: 1,
            threads: 16,
        }
    }

    /// Instance with request counts divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        Lighttpd {
            divisor: divisor.max(1),
            threads: 16,
        }
    }

    /// Overrides the number of concurrent `ab` client threads (Fig 3
    /// sweeps this).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one client");
        self.threads = threads;
        self
    }

    /// Total requests for `setting` (Table 2).
    pub fn requests(&self, setting: InputSetting) -> u64 {
        let n: u64 = match setting {
            InputSetting::Low => 50_000,
            InputSetting::Medium => 60_000,
            InputSetting::High => 70_000,
        };
        scale_down(n, self.divisor, 64)
    }

    /// Concurrent client threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for Lighttpd {
    fn default() -> Self {
        Lighttpd::new()
    }
}

impl Workload for Lighttpd {
    fn name(&self) -> &'static str {
        "Lighttpd"
    }

    fn property(&self) -> &'static str {
        "ECALL-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        WorkloadSpec::new(
            8 << 20,
            format!(
                "Requests: {} Threads: {}",
                self.requests(setting),
                self.threads
            ),
        )
    }

    fn setup(&self, env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
        // The document root: one 20 KB page.
        let page: Vec<u8> = (0..PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        env.put_file("htdocs/index.html", page);
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let requests = self.requests(setting);
        let server = env.main_thread();

        // Server start-up: read config, load the page into its in-memory
        // cache (lighttpd serves hot files from memory).
        let cache = env.alloc(PAGE_BYTES, Placement::Protected)?;
        let page_len = env.read_file_into("htdocs/index.html", cache, 0)?;

        // ab clients.
        let clients: Vec<SimThread> = (0..self.threads)
            .map(|_| env.spawn_driver_thread())
            .collect();

        let per_client = requests / clients.len() as u64;
        let mut latencies: Vec<u64> =
            Vec::with_capacity((per_client * clients.len() as u64) as usize);
        let mut checksum = 0u64;

        // Closed loop: each client issues its next request as soon as the
        // previous response arrives. The single-threaded server serializes
        // service; we interleave clients round-robin, which is exactly
        // the arrival order of a synchronized closed loop.
        for _round in 0..per_client {
            for &client in &clients {
                // Client sends the request.
                let issue = env.with_thread(client, |env| {
                    env.io_transfer(REQ_BYTES, true)?;
                    Ok::<u64, WorkloadError>(env.now())
                })?;
                // Server accepts when free and the request has arrived.
                env.sync_to(server, issue + NET_DELAY);
                let done = env
                    .with_thread(server, |env| {
                        env.io_transfer(REQ_BYTES, false)?; // read request
                        env.compute(PARSE_CYCLES);
                        // Serve the page from the in-memory cache.
                        let mut acc = 0u64;
                        let mut off = 0u64;
                        while off < page_len {
                            acc = acc.wrapping_add(env.read_u64(cache, off));
                            off += 64;
                        }
                        env.io_transfer(page_len, true)?; // sendfile
                        Ok::<(u64, u64), WorkloadError>((env.now(), acc))
                    })
                    .map(|(t, acc)| {
                        checksum = fold(checksum, acc);
                        t
                    })?;
                let ready = done + NET_DELAY;
                env.sync_to(client, ready);
                latencies.push(ready - issue);
            }
        }

        let n = latencies.len() as u64;
        let mean = latencies.iter().sum::<u64>() as f64 / n as f64;
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let p95 = sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)] as f64;
        let throughput = n as f64 / (env.elapsed_cycles() as f64 / sgxgauge_core::CLOCK_HZ as f64);

        Ok(WorkloadOutput {
            ops: n,
            checksum,
            metrics: vec![
                ("mean_latency_cycles".into(), mean),
                ("p95_latency_cycles".into(), p95),
                ("requests_per_second".into(), throughput),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn serves_all_requests() {
        let wl = Lighttpd::scaled(512);
        let runner = Runner::new(RunnerConfig::quick_test());
        let r = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let expect = (wl.requests(InputSetting::Low) / 16) * 16;
        assert_eq!(r.output.ops, expect);
        assert!(r.output.metric("mean_latency_cycles").unwrap() > 0.0);
    }

    #[test]
    fn latency_grows_with_concurrency() {
        // Fig 3: latency rises with the number of concurrent clients.
        let runner = Runner::new(RunnerConfig::quick_test());
        let lat = |threads: usize| {
            let wl = Lighttpd::scaled(512).with_threads(threads);
            runner
                .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
                .unwrap()
                .output
                .metric("mean_latency_cycles")
                .unwrap()
        };
        let one = lat(1);
        let sixteen = lat(16);
        assert!(
            sixteen > 2.0 * one,
            "16-thread latency {sixteen} vs 1-thread {one}"
        );
    }

    #[test]
    fn libos_slower_than_vanilla_per_request() {
        let wl = Lighttpd::scaled(512);
        let runner = Runner::new(RunnerConfig::quick_test());
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let l = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert!(
            l.output.metric("mean_latency_cycles").unwrap()
                > v.output.metric("mean_latency_cycles").unwrap()
        );
        assert_eq!(v.output.checksum, l.output.checksum);
    }

    #[test]
    fn request_counts_follow_table2() {
        let wl = Lighttpd::new();
        assert_eq!(wl.requests(InputSetting::Low), 50_000);
        assert_eq!(wl.requests(InputSetting::High), 70_000);
        assert_eq!(wl.threads(), 16);
    }
}

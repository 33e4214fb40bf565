//! Layer probes for the traced run: host time per public call into
//! `Env`, `SgxMachine`, `mem_sim::Machine` and `LibosProcess::launch`, on
//! deterministic access streams, plus checks that the probes compared
//! with each other do identical simulated work.
//!
//! Every SGX probe machine is built by `Env::new` for a Native enclave,
//! and each pass runs inside one ECALL, so the `Env` probe and the
//! `SgxMachine` probes share one memory layout and one transition
//! pattern, and their simulated counters can be compared exactly.

use crate::fingerprint::Tally;
use crate::{median, timed};
use libos_sim::{LibosProcess, Manifest};
use mem_sim::{AccessAttrs, AccessKind, StreamRun, ThreadId};
use sgx_sim::{EnclaveId, Host, SgxMachine};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{Env, EnvConfig, ExecMode, WorkloadError};

/// Timed passes per probe; the median is reported.
const PASSES: usize = 3;
/// Runs per `access_stream` call.
const BATCH: usize = 4096;
/// Span of one bulk `Env` call.
const BULK_SPAN: u64 = 4096;
/// `Env::new` adds the main thread first and builds the Native enclave
/// first, so both get id 0.
const MAIN: ThreadId = ThreadId(0);
const ENCLAVE: EnclaveId = EnclaveId(0);

/// Address order of a probe stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// One 8-byte access per cache line, in address order (a scan).
    Seq,
    /// 8-byte accesses at uniformly random aligned offsets (probes).
    Rand,
}

impl Pattern {
    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Seq => "seq",
            Pattern::Rand => "rand",
        }
    }
}

/// Working-set size of a probe stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Fits the EPC: no evictions once warm.
    Resident,
    /// 1.5x the EPC: steady-state eviction and loadback.
    OverEpc,
}

impl Footprint {
    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Footprint::Resident => "resident",
            Footprint::OverEpc => "over_epc",
        }
    }
}

/// The platform and sizes of a probe run.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Platform every probe machine is built on.
    pub env: EnvConfig,
    /// Accesses per pass.
    pub accesses: usize,
    /// Footprint of the EPC-resident streams.
    pub resident_bytes: u64,
    /// Seed of the random streams.
    pub seed: u64,
}

impl ProbeConfig {
    /// The paper platform, 2 M accesses per pass, a 16 MiB resident set.
    pub fn paper(seed: u64) -> ProbeConfig {
        ProbeConfig {
            env: EnvConfig::paper(ExecMode::Native, 0),
            accesses: 1 << 21,
            resident_bytes: 16 << 20,
            seed,
        }
    }

    fn bytes(&self, fp: Footprint) -> u64 {
        match fp {
            Footprint::Resident => self.resident_bytes,
            Footprint::OverEpc => self.env.sgx.epc_bytes / 2 * 3,
        }
    }

    fn env(&self, bytes: u64) -> Result<Env, WorkloadError> {
        let mut cfg = self.env.clone();
        cfg.mode = ExecMode::Native;
        cfg.protected_hint = bytes;
        Env::new(cfg)
    }
}

/// A probe stream: `(offset, kind)` pairs inside a `bytes`-sized region,
/// one write in four.
pub fn stream(pattern: Pattern, bytes: u64, n: usize, seed: u64) -> Vec<(u64, AccessKind)> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let lines = bytes / 64;
    (0..n as u64)
        .map(|i| {
            let off = match pattern {
                Pattern::Seq => (i % lines) * 64,
                Pattern::Rand => {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 11) % (bytes / 8)) * 8
                }
            };
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (off, kind)
        })
        .collect()
}

/// Main-thread clock plus every mem-sim and SGX counter.
fn snapshot(m: &SgxMachine) -> Vec<u64> {
    let mut v = vec![m.mem().cycles_of(MAIN)];
    v.extend(m.mem().counters().fields().into_iter().map(|(_, x)| x));
    v.extend(m.sgx_counters().fields().map(|(_, x)| x));
    v
}

/// Host time per unit and the simulated work of the timed passes.
struct Measured {
    ns: f64,
    work: Vec<u64>,
}

/// One warm pass, then [`PASSES`] timed ones over `units` units each.
fn measure<T>(
    state: &mut T,
    units: usize,
    mut pass: impl FnMut(&mut T),
    work: impl Fn(&T) -> Vec<u64>,
) -> Measured {
    pass(state);
    let before = work(state);
    let ns: Vec<f64> = (0..PASSES)
        .map(|_| timed(|| pass(state)).as_secs_f64() * 1e9 / units as f64)
        .collect();
    let after = work(state);
    Measured {
        ns: median(&ns),
        work: after.iter().zip(&before).map(|(a, b)| a - b).collect(),
    }
}

/// One ECALL per pass, on the raw machine of an `Env`.
fn ecall(env: &mut Env, f: impl FnOnce(&mut SgxMachine)) {
    let m = env.machine_mut();
    m.ecall_enter(MAIN, ENCLAVE)
        .expect("main thread enters its enclave");
    f(m);
    m.ecall_exit(MAIN, ENCLAVE)
        .expect("main thread leaves its enclave");
}

fn sgx_access(
    cfg: &ProbeConfig,
    bytes: u64,
    s: &[(u64, AccessKind)],
) -> Result<Measured, WorkloadError> {
    let mut env = cfg.env(bytes)?;
    let base = env.machine_mut().alloc_enclave_heap(ENCLAVE, bytes)?;
    Ok(measure(
        &mut env,
        s.len(),
        |env| {
            ecall(env, |m| {
                for &(off, kind) in s {
                    m.access(MAIN, base + off, 8, kind);
                }
            })
        },
        |env| snapshot(env.machine()),
    ))
}

fn sgx_stream(
    cfg: &ProbeConfig,
    bytes: u64,
    s: &[(u64, AccessKind)],
) -> Result<Measured, WorkloadError> {
    let mut env = cfg.env(bytes)?;
    let base = env.machine_mut().alloc_enclave_heap(ENCLAVE, bytes)?;
    let runs: Vec<StreamRun> = s
        .iter()
        .map(|&(off, kind)| StreamRun::new(base + off, 8, kind))
        .collect();
    Ok(measure(
        &mut env,
        s.len(),
        |env| {
            ecall(env, |m| {
                for chunk in runs.chunks(BATCH) {
                    m.access_stream(MAIN, chunk);
                }
            })
        },
        |env| snapshot(env.machine()),
    ))
}

fn env_access(
    cfg: &ProbeConfig,
    bytes: u64,
    s: &[(u64, AccessKind)],
) -> Result<Measured, WorkloadError> {
    let mut env = cfg.env(bytes)?;
    let r = env.alloc(bytes, Placement::Protected)?;
    Ok(measure(
        &mut env,
        s.len(),
        |env| {
            env.secure_call(|env| {
                let mut sum = 0u64;
                for &(off, kind) in s {
                    match kind {
                        AccessKind::Read => sum = sum.wrapping_add(env.read_u64(r, off)),
                        AccessKind::Write => env.write_u64(r, off, sum),
                    }
                }
                std::hint::black_box(sum);
            })
            .expect("main thread enters its enclave")
        },
        |env| snapshot(env.machine()),
    ))
}

/// Alternating `touch` and `read_bytes` over consecutive 4 KiB spans.
fn env_bulk(cfg: &ProbeConfig, bytes: u64) -> Result<Measured, WorkloadError> {
    let mut env = cfg.env(bytes)?;
    let r = env.alloc(bytes, Placement::Protected)?;
    let mut buf = vec![0u8; BULK_SPAN as usize];
    Ok(measure(
        &mut env,
        (bytes / 64) as usize,
        |env| {
            env.secure_call(|env| {
                for (i, off) in (0..bytes).step_by(BULK_SPAN as usize).enumerate() {
                    if i % 2 == 0 {
                        env.touch(r, off, BULK_SPAN, false);
                    } else {
                        env.read_bytes(r, off, &mut buf);
                    }
                }
                std::hint::black_box(&buf);
            })
            .expect("main thread enters its enclave")
        },
        |env| snapshot(env.machine()),
    ))
}

fn mem_access(cfg: &ProbeConfig, s: &[(u64, AccessKind)]) -> Measured {
    let mut m = mem_sim::Machine::new(cfg.env.sgx.mem.clone());
    let t = m.add_thread();
    measure(
        &mut m,
        s.len(),
        |m| {
            for &(off, kind) in s {
                m.access(t, off, 8, kind, &AccessAttrs::EPC);
            }
        },
        |m| {
            let mut v = vec![m.cycles_of(t)];
            v.extend(m.counters().fields().into_iter().map(|(_, x)| x));
            v
        },
    )
}

/// Host seconds and start-up evictions of one LibOS launch with the
/// default manifest on a fresh paper-platform machine.
fn libos_launch(cfg: &ProbeConfig) -> Result<(f64, u64), WorkloadError> {
    let mut m = Host::builder().sgx(cfg.env.sgx.clone()).build_machine();
    let t = m.add_thread();
    let manifest = Manifest::builder("workload").build();
    let mut launched = None;
    let secs = timed(|| launched = Some(LibosProcess::launch(&mut m, t, &manifest))).as_secs_f64();
    let process = launched.expect("launch ran")?;
    Ok((secs, process.startup().epc_evictions))
}

/// Runs every probe, checking on each stream that `SgxMachine::access`
/// and `access_stream` charge identical cycles and counters, and that
/// the `Env` probe charges what the `SgxMachine::access` probe does.
/// Returns `(metric, value, unit)` triples.
///
/// # Errors
///
/// Propagates a failure to build a probe machine.
pub fn run(
    cfg: &ProbeConfig,
    tally: &mut Tally,
) -> Result<Vec<(String, f64, &'static str)>, WorkloadError> {
    let mut out = Vec::new();
    let same = |tally: &mut Tally, what: String, a: &Measured, b: &Measured| {
        tally.record((a.work != b.work).then(|| format!("{what}: simulated work differs")));
    };
    for fp in [Footprint::Resident, Footprint::OverEpc] {
        let bytes = cfg.bytes(fp);
        for pat in [Pattern::Seq, Pattern::Rand] {
            let s = stream(pat, bytes, cfg.accesses, cfg.seed);
            let tag = format!("{}.{}", pat.name(), fp.name());
            let per_call = sgx_access(cfg, bytes, &s)?;
            let batched = sgx_stream(cfg, bytes, &s)?;
            same(
                tally,
                format!("sgx access vs access_stream on {tag}"),
                &per_call,
                &batched,
            );
            out.push((format!("sgx.access_ns.{tag}"), per_call.ns, "ns"));
            out.push((format!("sgx.access_stream_ns.{tag}"), batched.ns, "ns"));
            if fp == Footprint::Resident {
                let env = env_access(cfg, bytes, &s)?;
                same(
                    tally,
                    format!("Env vs SgxMachine access on {tag}"),
                    &env,
                    &per_call,
                );
                out.push((format!("env.access_ns.{}", pat.name()), env.ns, "ns"));
                out.push((
                    format!("mem.access_ns.{}", pat.name()),
                    mem_access(cfg, &s).ns,
                    "ns",
                ));
            }
        }
    }
    let bulk = env_bulk(cfg, cfg.resident_bytes)?;
    out.push(("env.bulk_ns_per_line".to_owned(), bulk.ns, "ns"));

    let mut launch_s = Vec::new();
    let mut evictions = 0;
    for _ in 0..PASSES {
        let (secs, ev) = libos_launch(cfg)?;
        launch_s.push(secs);
        evictions = ev;
    }
    let launch_s = median(&launch_s);
    out.push(("libos.launch_s".to_owned(), launch_s, "s"));
    out.push((
        "libos.startup_evictions".to_owned(),
        evictions as f64,
        "count",
    ));
    out.push((
        "libos.launch_ns_per_eviction".to_owned(),
        launch_s * 1e9 / evictions.max(1) as f64,
        "ns",
    ));
    Ok(out)
}

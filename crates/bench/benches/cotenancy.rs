//! Co-tenancy trajectory: what does sharing the EPC cost?
//!
//! Two deterministic numbers pin the tenant-aware host model:
//!
//! 1. **Interleaver skew** — two tenants whose working sets *both* fit
//!    the shared EPC, run co-resident versus back-to-back on solo
//!    hosts. With zero contention the only divergence is the order in
//!    which the machine's jitter stream is consumed, so the fraction
//!    must stay near zero; a growing value means the scheduler itself
//!    started charging cycles (a wave-accounting bug, not jitter).
//!
//! 2. **Victim slowdown** — the noisy-neighbor headline: an
//!    all-resident victim's cycle bill with an EPC-thrashing antagonist
//!    co-resident, over its bill with the same neighbor idle. The
//!    shared clock hand must make this visibly worse than 1.0 (the
//!    whole point of the co-tenancy model) but it must not drift as
//!    the eviction or scheduling machinery evolves.
//!
//! Like `resilience.rs`, nothing here is wall-clock: every number is a
//! pure function of the specs, the op streams and the wave width, so
//! the committed `BENCH_cotenancy.json` point is exact and the gate can
//! be tight.
//!
//! Env knobs: `SGXGAUGE_PERF_OUT=<path>` overrides where the JSON is
//! written, `SGXGAUGE_PERF_BASELINE=<path>` arms the regression gate.

use mem_sim::PAGE_SIZE;
use sgx_sim::host::{Host, TenantId, TenantOp, TenantSpec};
use sgx_sim::SgxConfig;
use sgxgauge_bench::{banner, sgxgauge_bench};

/// Measured fractions may exceed the committed trajectory point by at
/// most this factor. Both metrics are deterministic, so the headroom
/// absorbs deliberate cost-model retuning only.
const HEADROOM: f64 = 1.25;

/// Additive slack for the skew gate: the skew baseline is close to
/// zero, where a pure multiplicative bound would reject harmless
/// jitter-stream re-orderings.
const SKEW_SLACK: f64 = 0.01;

/// The victim must visibly suffer — otherwise the sweep family would be
/// plotting noise.
const SLOWDOWN_FLOOR: f64 = 1.05;

fn spec(name: &str, heap_pages: u64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        enclave_bytes: (heap_pages + 16) * PAGE_SIZE,
        content_bytes: 0,
        heap_bytes: heap_pages * PAGE_SIZE,
    }
}

/// A looping read/compute stream over `span_pages` of tenant heap.
fn stream(span_pages: u64, ops: u64, write: bool) -> Vec<TenantOp> {
    (0..ops)
        .flat_map(|i| {
            [
                TenantOp::Access {
                    offset: (i % span_pages) * PAGE_SIZE,
                    len: 64,
                    write,
                },
                TenantOp::Compute { cycles: 500 },
            ]
        })
        .collect()
}

fn run_host(cfg: &SgxConfig, tenants: &[(TenantSpec, Vec<TenantOp>)]) -> Vec<u64> {
    let mut b = Host::builder().sgx(cfg.clone()).wave_cycles(5_000);
    for (spec, _) in tenants {
        b = b.tenant(spec.clone());
    }
    let mut host = b.build().expect("host builds");
    for (i, (_, ops)) in tenants.iter().enumerate() {
        host.push_ops(TenantId(i), ops.iter().copied());
    }
    host.run().expect("host runs");
    if let Err(e) = host.machine().check_invariants() {
        panic!("host invariants violated: {e}");
    }
    host.tenant_reports().iter().map(|r| r.cycles).collect()
}

fn main() {
    banner(
        "Co-tenancy — interleaver skew and noisy-neighbor slowdown",
        "shared-EPC cycle attribution as exact trajectory points",
    );

    // Leg 1: interleaver skew. 64 + 64 resident pages in a 256-page
    // EPC: no contention, so co-residency may only reorder the jitter
    // stream, never add scheduler cycles.
    let roomy = SgxConfig::with_tiny_epc(256, 16);
    let a = (spec("a", 64), stream(64, 2_000, false));
    let b = (spec("b", 64), stream(64, 2_000, true));
    let solo: u64 = run_host(&roomy, std::slice::from_ref(&a))[0]
        + run_host(&roomy, std::slice::from_ref(&b))[0];
    let co: u64 = run_host(&roomy, &[a, b]).iter().sum();
    let skew = (co as f64 - solo as f64).abs() / solo as f64;
    println!("solo {solo:>12} cycles\nco   {co:>12} cycles  skew {skew:.4}");
    assert!(
        skew < 0.05,
        "uncontended co-residency must be near-free, measured skew {skew:.4}"
    );

    // Leg 2: victim slowdown. An 8-page victim against a 128-page
    // antagonist in a 64-page EPC — the antagonist's stream keeps the
    // clock hand sweeping through the victim's resident set.
    let tight = SgxConfig::with_tiny_epc(64, 4);
    let victim = || (spec("victim", 8), stream(8, 1_000, false));
    let idle = (spec("antagonist", 128), Vec::new());
    let noisy = (spec("antagonist", 128), stream(128, 1_000, true));
    let quiet_cycles = run_host(&tight, &[victim(), idle])[0];
    let noisy_cycles = run_host(&tight, &[victim(), noisy])[0];
    let slowdown = noisy_cycles as f64 / quiet_cycles as f64;
    println!(
        "victim quiet {quiet_cycles:>12} cycles\nvictim noisy {noisy_cycles:>12} cycles  \
         slowdown {slowdown:.4}x"
    );
    assert!(
        slowdown > SLOWDOWN_FLOOR,
        "the antagonist must visibly slow the victim: {slowdown:.4}x <= {SLOWDOWN_FLOOR}x"
    );

    let baseline = sgxgauge_bench(
        "cotenancy",
        &[
            ("solo_cycles", &solo),
            ("cotenant_cycles", &co),
            ("interleave_skew_fraction", &format!("{skew:.4}")),
            ("victim_quiet_cycles", &quiet_cycles),
            ("victim_noisy_cycles", &noisy_cycles),
            ("victim_slowdown", &format!("{slowdown:.4}")),
        ],
    );

    // Regression gate against the committed trajectory point.
    if let Some(baseline) = baseline {
        let base_skew = baseline.number("interleave_skew_fraction");
        let base_slowdown = baseline.number("victim_slowdown");
        println!(
            "baseline skew {base_skew:.4} slowdown {base_slowdown:.4} \
             (gate: <= {HEADROOM:.2}x baseline)"
        );
        assert!(
            skew <= base_skew * HEADROOM + SKEW_SLACK,
            "co-tenancy regression: interleaver skew {skew:.4} exceeds \
             {HEADROOM}x the committed {base_skew:.4} point"
        );
        assert!(
            slowdown <= base_slowdown * HEADROOM,
            "co-tenancy regression: victim slowdown {slowdown:.4} exceeds \
             {HEADROOM}x the committed {base_slowdown:.4} point"
        );
    }
    println!("PASS: skew {skew:.4}, victim slowdown {slowdown:.4}x");
}

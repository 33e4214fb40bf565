//! Ablations of the paper's platform: SGX2 EDMM, TLB reach, EWB batch
//! size and MEE latency. Each builds its own platform variants.

use super::Output;
use crate::{fk, fx, runner, scale};
use libos_sim::{LibosProcess, Manifest, StartupStats};
use mem_sim::{AccessKind, ThreadId, PAGE_SIZE};
use sgx_sim::{Host, SgxConfig};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{EnvConfig, ExecMode, InputSetting, RunReport};
use sgxgauge_workloads::HashJoin;

fn edmm_launch(edmm: bool, enclave_size: u64) -> (StartupStats, u64) {
    let cfg = SgxConfig {
        sgx2_edmm: edmm,
        ..Default::default()
    };
    let mut m = Host::builder().sgx(cfg).build_machine();
    let t = m.add_thread();
    let manifest = Manifest::builder("app").enclave_size(enclave_size).build();
    let p = LibosProcess::launch(&mut m, t, &manifest).expect("launch");
    // Steady state: touch 64 MB of heap twice.
    p.enter(&mut m, ThreadId(0)).ok();
    let heap = p.alloc(&mut m, 64 << 20).expect("heap");
    m.reset_measurement();
    for _ in 0..2 {
        for pg in 0..(64 << 20) / PAGE_SIZE {
            m.access(t, heap + pg * PAGE_SIZE, 8, AccessKind::Read);
        }
    }
    (p.startup(), m.mem().cycles_of(t))
}

/// Ablation: SGX1 whole-enclave measurement vs SGX2 dynamic memory
/// (EDMM).
///
/// Appendix D explains that SGX v1 had to load the complete enclave into
/// the EPC for measurement — the root cause of Graphene's ≈1 M start-up
/// evictions at 4 GB — while SGX v2 allows heaps beyond the EPC and
/// demand allocation. This ablation quantifies what the paper's start-up
/// observations would look like on an EDMM platform: measurement cost
/// collapses, while steady-state behaviour (which the paper measures
/// after excluding start-up) barely moves.
pub(super) fn sgx2_edmm() -> Output {
    let mut table = ReportTable::new(
        "SGX1 vs SGX2 LibOS launch (4 GB enclave) + steady-state heap walk",
        &[
            "platform",
            "startup_evictions",
            "startup_mcycles",
            "steady_state_mcycles",
        ],
    );
    for (name, edmm) in [("SGX1 (paper)", false), ("SGX2 EDMM", true)] {
        let (s, steady) = edmm_launch(edmm, 4 << 30);
        table.push_row(vec![
            name.to_string(),
            fk(s.epc_evictions),
            (s.cycles / 1_000_000).to_string(),
            (steady / 1_000_000).to_string(),
        ]);
    }
    Output::new(
        "Ablation — SGX1 measurement vs SGX2 EDMM",
        "EDMM eliminates the ~1M start-up evictions; steady state unchanged",
        table,
        &[
            "Shape check: start-up evictions drop by orders of magnitude under EDMM;",
            "steady-state cycles stay within a few percent (the paper's post-startup numbers are platform-robust).",
        ],
    )
}

/// HashJoin in `mode` at `setting`, its inputs and platform scaled by
/// `SGXGAUGE_SCALE`, with `ablate` applied to the platform.
fn hashjoin_on(
    ablate: impl Fn(&mut SgxConfig),
    mode: ExecMode,
    setting: InputSetting,
) -> RunReport {
    let mut env = EnvConfig::scaled(ExecMode::Vanilla, scale());
    ablate(&mut env.sgx);
    let wl = HashJoin::scaled(scale());
    runner(env).run_once(&wl, mode, setting).expect("run")
}

fn hugepages_run(reach: usize) -> (u64, u64, u64) {
    let ablate = |sgx: &mut SgxConfig| {
        sgx.mem.l1_tlb_entries *= reach;
        sgx.mem.stlb_entries *= reach;
    };
    let r = hashjoin_on(ablate, ExecMode::Native, InputSetting::High);
    let c = r.counters;
    (r.runtime_cycles, c.dtlb_misses, c.walk_cycles)
}

/// Ablation: TLB reach (the SGXL hypothesis).
///
/// The paper's counters put dTLB misses and page-walk cycles at the top
/// of every ranking (Table 5), and cites SGXL — large pages for enclaves
/// — as the natural fix. 2 MB pages multiply each TLB entry's reach by
/// 512; we approximate that by scaling the TLB entry counts while
/// keeping 4 KB EPC management, and measure how much of the Native-mode
/// overhead a bigger reach recovers for the worst TLB offender.
pub(super) fn hugepages() -> Output {
    let (base_rt, _, _) = hugepages_run(1);
    let mut table = ReportTable::new(
        "HashJoin (High, Native) under growing TLB reach",
        &[
            "tlb_reach",
            "runtime_cycles",
            "vs_1x",
            "dtlb_misses",
            "walk_cycles",
        ],
    );
    for (label, reach) in [
        ("4 KB pages (1x)", 1usize),
        ("8x reach", 8),
        ("64x reach", 64),
        ("512x (2 MB pages)", 512),
    ] {
        let (rt, dtlb, walk) = hugepages_run(reach);
        table.push_row(vec![
            label.to_string(),
            rt.to_string(),
            fx(rt as f64 / base_rt as f64),
            dtlb.to_string(),
            walk.to_string(),
        ]);
    }
    Output::new(
        "Ablation — TLB reach (huge-page approximation, SGXL)",
        "larger reach cuts walk cycles, recovering part of the SGX paging overhead",
        table,
        &[
            "Shape check: dTLB misses and walk cycles fall monotonically with reach;",
            "runtime improves but does not reach Vanilla — EPC faults remain (SGXL's point).",
        ],
    )
}

fn evict_batch_run(batch: usize) -> (u64, u64, u64) {
    // 16 MB EPC, 24 MB working set, random walk: persistent thrash.
    let cfg = SgxConfig {
        evict_batch: batch,
        epc_bytes: 16 << 20,
        epc_reserved_bytes: 0,
        ..Default::default()
    };
    let mut m = Host::builder().sgx(cfg).build_machine();
    let t = m.add_thread();
    let ws_pages = (24 << 20) / PAGE_SIZE;
    let e = m
        .create_enclave(ws_pages * PAGE_SIZE + (8 << 20), 1 << 20)
        .expect("enclave");
    m.ecall_enter(t, e).expect("enter");
    let heap = m.alloc_enclave_heap(e, ws_pages * PAGE_SIZE).expect("heap");
    for p in 0..ws_pages {
        m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
    }
    m.reset_measurement();
    let mut x = 0x0123_4567_89ab_cdefu64;
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.access(t, heap + (x % ws_pages) * PAGE_SIZE, 8, AccessKind::Read);
    }
    let c = m.sgx_counters();
    (m.mem().cycles_of(t), c.epc_evictions, c.epc_loadbacks)
}

/// Ablation: EWB eviction batch size.
///
/// Appendix A notes the driver evicts pages in batches "that is
/// typically 16 pages" while faults load back one page at a time. This
/// ablation sweeps the batch size on a thrashing workload: small batches
/// evict pages that are still hot less often but pay the sweep overhead
/// per fault; large batches amortize the sweep but evict deeper into the
/// working set.
pub(super) fn evict_batch() -> Output {
    let (base, _, _) = evict_batch_run(16);
    let mut table = ReportTable::new(
        "Random 1.5x-EPC walk under different eviction batches",
        &["batch", "cycles", "vs_batch16", "evictions", "loadbacks"],
    );
    for batch in [1usize, 4, 16, 64, 256] {
        let (cycles, ev, lb) = evict_batch_run(batch);
        table.push_row(vec![
            batch.to_string(),
            cycles.to_string(),
            fx(cycles as f64 / base as f64),
            fk(ev),
            fk(lb),
        ]);
    }
    Output::new(
        "Ablation — EWB eviction batch size",
        "the driver's batch of 16 balances sweep amortization vs hot-page eviction",
        table,
        &[
            "Shape check: very large batches evict hot pages (loadbacks rise);",
            "the driver's default of 16 sits near the flat bottom of the curve.",
        ],
    )
}

fn mee_run(mult_x100: u64, setting: InputSetting) -> (u64, u64) {
    let ablate = |sgx: &mut SgxConfig| sgx.mem.latency.mee_mult_x100 = mult_x100;
    let run = |mode| hashjoin_on(ablate, mode, setting).runtime_cycles;
    (run(ExecMode::Native), run(ExecMode::Vanilla))
}

/// Ablation: Memory Encryption Engine latency.
///
/// The MEE is the first of the paper's three overhead sources (§1): all
/// EPC-bound DRAM traffic is encrypted/integrity-checked in hardware.
/// This sweep varies the modeled MEE latency multiplier to show how much
/// of the *Low-setting* overhead (where no EPC faults occur) is memory
/// encryption — and how it is dwarfed by paging once the footprint
/// crosses the EPC.
pub(super) fn mee() -> Output {
    let mut table = ReportTable::new(
        "HashJoin Native/Vanilla overhead vs MEE cost",
        &["mee_multiplier", "low_overhead", "high_overhead"],
    );
    for mult in [100u64, 200, 300, 400, 500] {
        let (ln, lv) = mee_run(mult, InputSetting::Low);
        let (hn, hv) = mee_run(mult, InputSetting::High);
        table.push_row(vec![
            format!("{:.1}x", mult as f64 / 100.0),
            fx(ln as f64 / lv as f64),
            fx(hn as f64 / hv as f64),
        ]);
    }
    Output::new(
        "Ablation — MEE latency multiplier",
        "encryption dominates sub-EPC overhead; paging dominates past the boundary",
        table,
        &[
            "Shape check: both columns scale near-linearly with the MEE multiplier —",
            "every LLC miss to the PRM pays it — while the High-minus-Low gap (the EPC",
            "paging increment) stays roughly constant. Encryption is a tax on all EPC",
            "traffic; the paging cliff is an *additional* cost the paper is first to stress.",
        ],
    )
}

//! Ablation: SGX1 whole-enclave measurement vs SGX2 dynamic memory
//! (EDMM).
//!
//! Appendix D explains that SGX v1 had to load the complete enclave into
//! the EPC for measurement — the root cause of Graphene's ≈1 M start-up
//! evictions at 4 GB — while SGX v2 allows heaps beyond the EPC and
//! demand allocation. This ablation quantifies what the paper's start-up
//! observations would look like on an EDMM platform: measurement cost
//! collapses, while steady-state behaviour (which the paper measures
//! after excluding start-up) barely moves.

use libos_sim::{LibosProcess, Manifest};
use mem_sim::{AccessKind, ThreadId, PAGE_SIZE};
use sgx_sim::{Host, SgxConfig};
use sgxgauge_bench::{banner, emit, fk};
use sgxgauge_core::report::ReportTable;

fn launch(edmm: bool, enclave_size: u64) -> (libos_sim::StartupStats, u64) {
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

fn main() {
    banner(
        "Ablation — SGX1 measurement vs SGX2 EDMM",
        "EDMM eliminates the ~1M start-up evictions; steady state unchanged",
    );
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
        let (s, steady) = launch(edmm, 4 << 30);
        table.push_row(vec![
            name.to_string(),
            fk(s.epc_evictions),
            (s.cycles / 1_000_000).to_string(),
            (steady / 1_000_000).to_string(),
        ]);
    }
    emit("ablation_sgx2_edmm", &table);
    println!("Shape check: start-up evictions drop by orders of magnitude under EDMM;");
    println!("steady-state cycles stay within a few percent (the paper's post-startup numbers are platform-robust).");
}

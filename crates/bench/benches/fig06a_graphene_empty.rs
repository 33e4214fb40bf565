//! Figure 6a: GrapheneSGX's own cost, measured with an "empty" workload.
//!
//! Paper (§5.4.1): an empty (`return 0;`) program under GrapheneSGX
//! performs ≈300 ECALLs, ≈1000 OCALLs and ≈1000 AEX exits; because the
//! 4 GB enclave is fully loaded into the EPC for measurement, ≈1 M pages
//! are evicted at start-up, of which only ≈700 (2 MB) are loaded back.

use libos_sim::{LibosProcess, Manifest};
use sgx_sim::{Host, SgxConfig};
use sgxgauge_bench::{banner, emit, fk};
use sgxgauge_core::report::ReportTable;

fn run_empty(enclave_size: u64) -> (libos_sim::StartupStats, u64) {
    let mut machine = Host::builder().sgx(SgxConfig::default()).build_machine();
    let tid = machine.add_thread();
    let manifest = Manifest::builder("empty")
        .enclave_size(enclave_size)
        .build();
    let start = std::time::Instant::now();
    let p = LibosProcess::launch(&mut machine, tid, &manifest).expect("launch");
    let wall_us = start.elapsed().as_micros() as u64;
    (p.startup(), wall_us)
}

fn main() {
    banner(
        "Figure 6a — GrapheneSGX statistics for an empty workload",
        "~300 ECALLs, ~1000 OCALLs, ~1000 AEX, ~1M EPC evictions, ~700 loadbacks",
    );

    let mut table = ReportTable::new(
        "Fig 6a: LibOS start-up events by enclave size",
        &[
            "enclave_size",
            "ecalls",
            "ocalls",
            "aex_exits",
            "epc_evictions",
            "epc_loadbacks",
            "startup_mcycles",
        ],
    );
    for (label, size) in [
        ("1 GB", 1u64 << 30),
        ("2 GB", 2 << 30),
        ("4 GB (paper)", 4 << 30),
    ] {
        let (s, _) = run_empty(size);
        table.push_row(vec![
            label.to_string(),
            s.ecalls.to_string(),
            s.ocalls.to_string(),
            s.aex_exits.to_string(),
            fk(s.epc_evictions),
            s.epc_loadbacks.to_string(),
            (s.cycles / 1_000_000).to_string(),
        ]);
    }
    emit("fig06a_graphene_empty", &table);

    let (paper, _) = run_empty(4 << 30);
    println!(
        "Shape check: 4 GB enclave => {} evictions (paper ~1M since 1M * 4KB = 4GB), {} loaded back (paper ~700).",
        fk(paper.epc_evictions),
        paper.epc_loadbacks
    );
}

//! SGX2 preview: what the paper's start-up observations look like on a
//! platform with dynamic enclave memory (EDMM).
//!
//! ```sh
//! cargo run --release --example sgx2_preview
//! ```

use sgxgauge::libos::{LibosProcess, Manifest};
use sgxgauge::mem::{AccessKind, PAGE_SIZE};
use sgxgauge::sgx::{Host, SgxConfig};

fn main() {
    println!("Launching a Graphene-style LibOS process (1 GB enclave) on both platforms:\n");
    for (name, edmm) in [("SGX1 (paper's platform)", false), ("SGX2 with EDMM", true)] {
        let cfg = SgxConfig {
            sgx2_edmm: edmm,
            ..Default::default()
        };
        let mut m = Host::builder().sgx(cfg).build_machine();
        let t = m.add_thread();
        let manifest = Manifest::builder("app").enclave_size(1 << 30).build();
        let p = LibosProcess::launch(&mut m, t, &manifest).expect("launch");
        let s = p.startup();

        // Steady state: stream a 32 MB heap twice.
        p.enter(&mut m, t).expect("enter");
        let heap = p.alloc(&mut m, 32 << 20).expect("heap");
        m.reset_measurement();
        for _ in 0..2 {
            for pg in 0..(32 << 20) / PAGE_SIZE {
                m.access(t, heap + pg * PAGE_SIZE, 8, AccessKind::Read);
            }
        }
        println!("{name}:");
        println!("  start-up EPC evictions : {:>9}", s.epc_evictions);
        println!("  start-up cycles        : {:>9} M", s.cycles / 1_000_000);
        println!(
            "  steady-state cycles    : {:>9} M",
            m.mem().cycles_of(t) / 1_000_000
        );
        println!();
    }
    println!("EDMM removes the whole-enclave measurement pass (Appendix D's ~1M");
    println!("evictions for 4 GB enclaves) without changing post-start-up behaviour —");
    println!("the paper's measurements would survive the platform upgrade.");
}

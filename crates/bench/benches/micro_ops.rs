//! Micro-benchmarks of the simulator's hot paths.
//!
//! These measure the *reproduction's* own performance (host nanoseconds
//! per simulated event), not paper metrics: they exist so regressions in
//! the access path — which every workload hammers millions of times —
//! are caught.

use mem_sim::{AccessAttrs, AccessKind, Machine, MachineConfig, PAGE_SIZE};
use sgx_sim::{Host, SgxConfig};
use sgxgauge_bench::time_per_iter;
use std::hint::black_box;

fn bench_mem_access() {
    let mut m = Machine::new(MachineConfig::default());
    let t = m.add_thread();
    // Warm a 1 MB buffer.
    for p in 0..256u64 {
        m.access(t, p * PAGE_SIZE, 8, AccessKind::Write, &AccessAttrs::PLAIN);
    }
    let mut addr = 0u64;
    time_per_iter("mem_access_warm_8B", || {
        addr = (addr + 4096) % (256 * PAGE_SIZE);
        black_box(m.access(t, addr, 8, AccessKind::Read, &AccessAttrs::PLAIN));
    });
}

fn bench_epc_fault_path() {
    let mut m = Host::builder()
        .sgx(SgxConfig::with_tiny_epc(1024, 16))
        .build_machine();
    let t = m.add_thread();
    let e = m.create_enclave(64 << 20, 1 << 20).expect("enclave");
    m.ecall_enter(t, e).expect("enter");
    let heap = m.alloc_enclave_heap(e, 32 << 20).expect("heap");
    let pages = (32 << 20) / PAGE_SIZE;
    let mut p = 0u64;
    time_per_iter("epc_fault_thrash", || {
        // Sweeping 8x the EPC guarantees every access faults.
        p = (p + 1) % pages;
        black_box(m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read));
    });
}

fn bench_transitions() {
    let mut m = Host::builder().sgx(SgxConfig::default()).build_machine();
    let t = m.add_thread();
    let e = m.create_enclave(32 << 20, 1 << 20).expect("enclave");
    time_per_iter("ecall_roundtrip", || {
        m.ecall_enter(t, e).expect("enter");
        m.ecall_exit(t, e).expect("exit");
    });
    m.ecall_enter(t, e).expect("enter");
    time_per_iter("ocall", || m.ocall(t, 1_000).expect("ocall"));
}

fn bench_crypto() {
    let data = vec![0xa5u8; 4096];
    time_per_iter("sha256_4k", || {
        black_box(sgx_crypto::Sha256::digest(black_box(&data)))
    });
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut buf = vec![0u8; 4096];
    time_per_iter("chacha20_4k", || {
        sgx_crypto::ChaCha20::new(&key, &nonce).apply(black_box(&mut buf), 0)
    });
}

fn main() {
    bench_mem_access();
    bench_epc_fault_path();
    bench_transitions();
    bench_crypto();
}

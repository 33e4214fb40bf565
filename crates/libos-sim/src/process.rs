//! LibOS process lifecycle: launch (the expensive part) and enclave
//! entry for application threads.
//!
//! Launch reproduces the start-up behaviour the paper measures for an
//! "empty" Graphene workload (Fig 6a, Appendix D):
//!
//! * the enclave-size property (4 GB by default) streams through the EPC
//!   for measurement ⇒ ≈1 M EPC evictions,
//! * the runtime performs ≈300 ECALLs and ≈1000 OCALLs while loading the
//!   binary and its libraries,
//! * demand-touching the runtime image and the first slice of internal
//!   memory produces ≈1000 AEX page-fault exits,
//! * only the runtime-image pages (a couple of MB) are ELDU'd back of
//!   the million evicted.

use crate::manifest::Manifest;
use crate::shim::Shim;
use mem_sim::{AccessKind, ThreadId, PAGE_SIZE};
use sgx_sim::{EnclaveId, SgxError, SgxMachine};

/// Size of the modeled LibOS runtime image (loader + libc + runtime):
/// these pages are measured content and load back after launch.
pub const RUNTIME_IMAGE_BYTES: u64 = 28 << 20;

/// Slice of internal memory the allocator touches eagerly at start-up.
const INTERNAL_WARMUP_BYTES: u64 = 1 << 20;

/// ECALLs the runtime performs while bootstrapping.
const STARTUP_ECALLS: u64 = 300;

/// Host calls (file opens/reads of libraries, futexes) at bootstrap.
const STARTUP_OCALLS: u64 = 1_000;

/// What launch cost, mirroring the counters of Fig 6a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StartupStats {
    /// ECALLs during start-up (paper: ≈300).
    pub ecalls: u64,
    /// OCALLs during start-up (paper: ≈1000).
    pub ocalls: u64,
    /// AEX exits during start-up (paper: ≈1000).
    pub aex_exits: u64,
    /// EPC evictions during start-up (paper: ≈1 M for a 4 GB enclave).
    pub epc_evictions: u64,
    /// EPC pages loaded back during start-up (paper: ≈700).
    pub epc_loadbacks: u64,
    /// Total start-up cycles (excluded from workload run time, App. D).
    pub cycles: u64,
}

/// A launched LibOS process. Cloning it together with its machine forks
/// the launched platform.
#[derive(Debug, Clone)]
pub struct LibosProcess {
    enclave: EnclaveId,
    shim: Shim,
    startup: StartupStats,
}

impl LibosProcess {
    /// Launches `manifest` on `machine`, charging start-up to `tid`.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`] from enclave creation or the bootstrap
    /// transitions.
    pub fn launch(
        machine: &mut SgxMachine,
        tid: ThreadId,
        manifest: &Manifest,
    ) -> Result<LibosProcess, SgxError> {
        let cycles_before = machine.mem().cycles_of(tid);
        let sgx_before = *machine.sgx_counters();

        // ECREATE + whole-ELRANGE measurement + EINIT.
        let enclave = machine.create_enclave(manifest.enclave_size(), RUNTIME_IMAGE_BYTES)?;

        let mut shim = Shim::new(manifest.protected_files(), b"sgxgauge-platform");

        // Bootstrap: the runtime enters, loads its libraries via host
        // calls, and touches its image + early internal memory.
        machine.ecall_enter(tid, enclave)?;
        let base = machine.enclave(enclave).base();
        // Demand-touch the hot tenth of the runtime image: each page
        // AEXes and ELDUs back (paper: ~700 pages / ~2 MB load back).
        let image_pages = RUNTIME_IMAGE_BYTES / PAGE_SIZE / 10;
        for p in 0..image_pages {
            machine.access(tid, base + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        // Library/file loading host calls.
        for _ in 0..STARTUP_OCALLS {
            shim.syscall_host(machine, tid)?;
        }
        // Warm a slice of the internal allocator.
        let internal = machine.alloc_enclave_heap(
            enclave,
            manifest.internal_memory().min(INTERNAL_WARMUP_BYTES * 4),
        )?;
        for p in 0..(INTERNAL_WARMUP_BYTES / PAGE_SIZE) {
            machine.access(tid, internal + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        machine.ecall_exit(tid, enclave)?;
        // Runtime bootstrap RPCs (minus the one above).
        for _ in 0..STARTUP_ECALLS - 1 {
            machine.ecall_enter(tid, enclave)?;
            machine.ecall_exit(tid, enclave)?;
        }

        let sgx_after = *machine.sgx_counters();
        let startup = StartupStats {
            ecalls: sgx_after.ecalls - sgx_before.ecalls,
            ocalls: (sgx_after.ocalls + sgx_after.switchless_ocalls)
                - (sgx_before.ocalls + sgx_before.switchless_ocalls),
            aex_exits: sgx_after.aex_exits - sgx_before.aex_exits,
            epc_evictions: sgx_after.epc_evictions - sgx_before.epc_evictions,
            epc_loadbacks: sgx_after.epc_loadbacks - sgx_before.epc_loadbacks,
            cycles: machine.mem().cycles_of(tid) - cycles_before,
        };
        shim.reset_stats();
        Ok(LibosProcess {
            enclave,
            shim,
            startup,
        })
    }

    /// The enclave this process runs in.
    pub fn enclave(&self) -> EnclaveId {
        self.enclave
    }

    /// Start-up statistics (Fig 6a / Appendix D).
    pub fn startup(&self) -> StartupStats {
        self.startup
    }

    /// The shielded-syscall interface.
    pub fn shim(&self) -> &Shim {
        &self.shim
    }

    /// Mutable shim (to issue syscalls).
    pub fn shim_mut(&mut self) -> &mut Shim {
        &mut self.shim
    }

    /// Enters the process enclave on `tid` (application threads run
    /// entirely inside; this is done once per thread, not per call).
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn enter(&self, machine: &mut SgxMachine, tid: ThreadId) -> Result<(), SgxError> {
        machine.ecall_enter(tid, self.enclave)
    }

    /// Leaves the process enclave on `tid`.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`].
    pub fn exit(&self, machine: &mut SgxMachine, tid: ThreadId) -> Result<(), SgxError> {
        machine.ecall_exit(tid, self.enclave)
    }

    /// Allocates protected application memory inside the enclave.
    ///
    /// # Errors
    ///
    /// [`SgxError::OutOfEnclaveMemory`] when the ELRANGE is exhausted.
    pub fn alloc(&self, machine: &mut SgxMachine, bytes: u64) -> Result<u64, SgxError> {
        machine.alloc_enclave_heap(self.enclave, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::{Host, SgxConfig};

    /// A machine with a paper-scale EPC (92 MB) but nothing else running.
    fn machine() -> (SgxMachine, ThreadId) {
        let mut m = Host::builder().sgx(SgxConfig::default()).build_machine();
        let t = m.add_thread();
        (m, t)
    }

    #[test]
    fn empty_workload_startup_matches_fig6a_shape() {
        let (mut m, t) = machine();
        // 4 GB enclave, per Table 3.
        let manifest = Manifest::builder("empty").build();
        let p = LibosProcess::launch(&mut m, t, &manifest).unwrap();
        let s = p.startup();
        // Paper: ~300 ECALLs, ~1000 OCALLs, ~1000 AEX, ~1M evictions,
        // only ~hundreds of loadbacks.
        assert!((250..=400).contains(&s.ecalls), "ecalls {}", s.ecalls);
        assert!((800..=1400).contains(&s.ocalls), "ocalls {}", s.ocalls);
        assert!((800..=2000).contains(&s.aex_exits), "aex {}", s.aex_exits);
        assert!(s.epc_evictions > 900_000, "evictions {}", s.epc_evictions);
        assert!(s.epc_loadbacks < 2_000, "loadbacks {}", s.epc_loadbacks);
        assert!(s.epc_loadbacks > 100, "loadbacks {}", s.epc_loadbacks);
    }

    #[test]
    fn smaller_enclave_fewer_evictions() {
        let (mut m, t) = machine();
        let small = Manifest::builder("a").enclave_size(256 << 20).build();
        let p = LibosProcess::launch(&mut m, t, &small).unwrap();
        assert!(p.startup().epc_evictions < 100_000);
    }

    #[test]
    fn enter_exit_and_alloc() {
        let (mut m, t) = machine();
        let manifest = Manifest::builder("a").enclave_size(512 << 20).build();
        let p = LibosProcess::launch(&mut m, t, &manifest).unwrap();
        p.enter(&mut m, t).unwrap();
        let buf = p.alloc(&mut m, 1 << 20).unwrap();
        m.access(t, buf, 64, AccessKind::Write);
        p.exit(&mut m, t).unwrap();
        assert!(m.enclave(p.enclave()).contains(buf));
    }

    #[test]
    fn startup_excludable_via_reset() {
        let (mut m, t) = machine();
        let manifest = Manifest::builder("a").enclave_size(512 << 20).build();
        let p = LibosProcess::launch(&mut m, t, &manifest).unwrap();
        assert!(p.startup().epc_evictions > 0);
        m.reset_measurement();
        assert_eq!(m.sgx_counters().epc_evictions, 0);
        assert_eq!(m.mem().cycles_of(t), 0);
    }
}

//! The shielded-syscall layer.
//!
//! Under Graphene the application never talks to the OS directly: the
//! LibOS intercepts each syscall inside the enclave, services what it can
//! from in-enclave state, and forwards the rest through OCALLs — batching
//! bulk file I/O into large transfers through untrusted staging buffers.
//! With protected files (PF) enabled, every 4 KiB file block is
//! additionally encrypted + MACed before it leaves the enclave and
//! verified + decrypted on the way in (Appendix E).

use mem_sim::ThreadId;
use sgx_crypto::{SealError, SealedBlob, SealingKey};
use sgx_sim::{costs, SgxError, SgxMachine};

/// Bytes of file I/O coalesced into one OCALL. Graphene coalesces bulk
/// I/O more aggressively than a naive native port's per-64-KiB OCALLs —
/// one reason the paper sees LibOS *beat* Native at large inputs
/// (Table 4: 0.9x at High).
const BATCH_BYTES: u64 = 256 << 10;

/// Protected-file block size.
const PF_BLOCK_BYTES: u64 = 4096;

/// Running statistics of the shim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Intercepted syscalls.
    pub syscalls: u64,
    /// OCALLs forwarded to the host.
    pub forwarded_ocalls: u64,
    /// File bytes read through the shim.
    pub bytes_read: u64,
    /// File bytes written through the shim.
    pub bytes_written: u64,
    /// Protected-file blocks sealed or opened.
    pub pf_blocks: u64,
}

/// The shielded syscall interface one LibOS process exposes to its
/// application. All methods charge their cycle costs to the calling
/// thread on the shared [`SgxMachine`].
#[derive(Debug, Clone)]
pub struct Shim {
    pf: Option<SealingKey>,
    stats: ShimStats,
    pf_nonce: u64,
}

impl Shim {
    /// Creates a shim; `protected_files` arms transparent file crypto
    /// with a key derived from `platform_secret`.
    pub fn new(protected_files: bool, platform_secret: &[u8]) -> Self {
        let pf = protected_files.then(|| SealingKey::derive(platform_secret, b"graphene-pf"));
        Shim {
            pf,
            stats: ShimStats::default(),
            pf_nonce: 1,
        }
    }

    /// Whether protected-files mode is armed.
    pub fn protected_files(&self) -> bool {
        self.pf.is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ShimStats {
        self.stats
    }

    /// Resets statistics (not the PF key or nonce).
    pub fn reset_stats(&mut self) {
        self.stats = ShimStats::default();
    }

    /// A syscall that must reach the host (e.g. `open`, socket ops):
    /// dispatch plus one forwarded OCALL.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`] if the thread is not inside the enclave.
    pub fn syscall_host(&mut self, m: &mut SgxMachine, tid: ThreadId) -> Result<(), SgxError> {
        if m.current_enclave(tid).is_none() {
            return Err(SgxError::NotInEnclave);
        }
        self.stats.syscalls += 1;
        self.stats.forwarded_ocalls += 1;
        let _ = m.mem_mut().trace_emit(tid, trace::TraceEvent::ShimSyscall);
        m.compute(tid, costs::SHIM_DISPATCH_CYCLES);
        m.ocall(tid, costs::SHIM_OCALL_WORK_CYCLES)
    }

    /// Charges the transfer path of `bytes` of file I/O (read when
    /// `write` is false): dispatch, batched OCALLs, staging copies, and —
    /// in PF mode — per-block crypto. Returns the number of OCALLs used.
    ///
    /// The caller moves the actual bytes; this models the shim's cost.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError`] if the thread is not inside the enclave.
    pub fn file_transfer(
        &mut self,
        m: &mut SgxMachine,
        tid: ThreadId,
        bytes: u64,
        write: bool,
    ) -> Result<u64, SgxError> {
        if m.current_enclave(tid).is_none() {
            return Err(SgxError::NotInEnclave);
        }
        self.stats.syscalls += 1;
        let _ = m.mem_mut().trace_emit(tid, trace::TraceEvent::ShimSyscall);
        if write {
            self.stats.bytes_written += bytes;
        } else {
            self.stats.bytes_read += bytes;
        }
        m.compute(tid, costs::SHIM_DISPATCH_CYCLES);
        let ocalls = bytes.div_ceil(BATCH_BYTES).max(1);
        let copy = bytes.div_ceil(1024) * costs::SHIM_COPY_CYCLES_PER_KIB;
        // PF crypto happens in-enclave, per block, before/after staging.
        if self.pf.is_some() {
            let blocks = bytes.div_ceil(PF_BLOCK_BYTES).max(1);
            self.stats.pf_blocks += blocks;
            m.compute(tid, bytes.div_ceil(1024) * costs::PF_CRYPTO_CYCLES_PER_KIB);
            // One extra forwarded metadata OCALL per few blocks (Merkle
            // bookkeeping), part of why PF is so expensive (Fig 10).
            let meta_ocalls = blocks.div_ceil(32);
            for _ in 0..meta_ocalls {
                self.stats.forwarded_ocalls += 1;
                m.ocall(tid, costs::SHIM_OCALL_WORK_CYCLES / 2)?;
            }
        }
        let per_ocall_copy = copy / ocalls.max(1);
        for _ in 0..ocalls {
            self.stats.forwarded_ocalls += 1;
            m.ocall(tid, costs::SHIM_OCALL_WORK_CYCLES + per_ocall_copy)?;
        }
        Ok(ocalls)
    }

    /// Seals one protected-file block (real crypto over `data`).
    ///
    /// # Panics
    ///
    /// Panics if PF mode is off — callers must check
    /// [`Shim::protected_files`] first.
    #[expect(
        clippy::expect_used,
        reason = "manifest validation gates shim construction on the PF key; the shim has no error channel for a harness bug"
    )]
    pub fn pf_seal(&mut self, data: &[u8]) -> SealedBlob {
        let key = self.pf.as_ref().expect("pf_seal without protected files");
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.pf_nonce.to_le_bytes());
        self.pf_nonce += 1;
        key.seal(data, nonce)
    }

    /// Opens one protected-file block.
    ///
    /// # Errors
    ///
    /// [`SealError`] when the blob fails verification.
    ///
    /// # Panics
    ///
    /// Panics if PF mode is off.
    #[expect(
        clippy::expect_used,
        reason = "manifest validation gates shim construction on the PF key; reaching here without it is a harness bug"
    )]
    pub fn pf_open(&self, blob: &SealedBlob) -> Result<Vec<u8>, SealError> {
        let key = self.pf.as_ref().expect("pf_open without protected files");
        key.unseal(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_sim::PAGE_SIZE;
    use sgx_sim::Host;

    fn setup() -> (SgxMachine, ThreadId, sgx_sim::EnclaveId) {
        let mut m = Host::builder().build_machine();
        let t = m.add_thread();
        let e = m.create_enclave(256 * PAGE_SIZE, 16 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        (m, t, e)
    }

    #[test]
    fn host_syscall_forwards() {
        let (mut m, t, _) = setup();
        let mut shim = Shim::new(false, b"p");
        shim.syscall_host(&mut m, t).unwrap();
        assert_eq!(m.sgx_counters().ocalls, 1);
    }

    #[test]
    fn file_transfer_batches() {
        let (mut m, t, _) = setup();
        let mut shim = Shim::new(false, b"p");
        // 1 MiB over 256 KiB batches = 4 OCALLs.
        let ocalls = shim.file_transfer(&mut m, t, 1 << 20, false).unwrap();
        assert_eq!(ocalls, 4);
        assert_eq!(m.sgx_counters().ocalls, 4);
        assert_eq!(shim.stats().bytes_read, 1 << 20);
    }

    #[test]
    fn pf_mode_costs_more_and_adds_ocalls() {
        let (mut m, t, _) = setup();
        m.reset_measurement(); // exclude enclave-build cycles
        let mut plain = Shim::new(false, b"p");
        plain.file_transfer(&mut m, t, 1 << 20, true).unwrap();
        let plain_cycles = m.mem().cycles_of(t);
        let plain_ocalls = m.sgx_counters().ocalls;

        let (mut m2, t2, _) = setup();
        m2.reset_measurement();
        let mut pf = Shim::new(true, b"p");
        pf.file_transfer(&mut m2, t2, 1 << 20, true).unwrap();
        assert!(
            m2.mem().cycles_of(t2) > 2 * plain_cycles,
            "PF must be much slower"
        );
        assert!(m2.sgx_counters().ocalls > plain_ocalls);
        assert_eq!(pf.stats().pf_blocks, 256);
    }

    #[test]
    fn pf_seal_roundtrip_and_tamper() {
        let mut shim = Shim::new(true, b"platform");
        let blob = shim.pf_seal(b"block contents");
        assert_eq!(shim.pf_open(&blob).unwrap(), b"block contents");
        let mut bad = blob.clone();
        bad.ciphertext[0] ^= 1;
        assert!(shim.pf_open(&bad).is_err());
    }

    #[test]
    fn pf_nonces_unique() {
        let mut shim = Shim::new(true, b"platform");
        let a = shim.pf_seal(b"same");
        let b = shim.pf_seal(b"same");
        assert_ne!(a.nonce, b.nonce);
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn outside_enclave_rejected() {
        let mut m = Host::builder().build_machine();
        let t = m.add_thread();
        let mut shim = Shim::new(false, b"p");
        assert!(shim.syscall_host(&mut m, t).is_err());
        assert!(shim.file_transfer(&mut m, t, 10, false).is_err());
    }
}

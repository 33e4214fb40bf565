//! Blockchain workload (§4.2.1) — libcatena-style chain with the hash
//! computation protected inside the enclave.
//!
//! A blockchain is a linked list of blocks, each carrying a payload and
//! the hash of the previous block. Mining a block means finding a nonce
//! whose SHA-256 header hash clears a difficulty threshold. The hash
//! computation is the sensitive operation: in Native mode it is the one
//! function moved into the enclave and hammered by ECALLs from many
//! untrusted threads (the paper counts millions of ECALLs; §B.1). The
//! property column calls this workload CPU/ECALL-intensive.

use crate::util::{fold, scale_down, SplitMix64};
use sgx_crypto::Sha256;
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Cycles one mining attempt costs on the modeled core: SHA-256 over the
/// block header plus a few hundred bytes of payload (~15 cycles/byte)
/// and the serialization around it.
const HASH_COMPUTE_CYCLES: u64 = 9_000;

/// Mining threads (the paper uses 16, §B.1).
const MINER_THREADS: usize = 16;

/// The Blockchain workload. See the module docs.
#[derive(Debug, Clone)]
pub struct Blockchain {
    divisor: u64,
}

impl Blockchain {
    /// Paper-scale instance (3/5/8 blocks; difficulty tuned so mining a
    /// block takes tens of thousands of hash ECALLs).
    pub fn new() -> Self {
        Blockchain { divisor: 1 }
    }

    /// Instance with input sizes divided by `divisor` (for tests).
    pub fn scaled(divisor: u64) -> Self {
        Blockchain {
            divisor: divisor.max(1),
        }
    }

    /// Blocks to mine for `setting` (Table 2: 3 / 5 / 8).
    pub fn blocks(&self, setting: InputSetting) -> u64 {
        match setting {
            InputSetting::Low => 3,
            InputSetting::Medium => 5,
            InputSetting::High => 8,
        }
    }

    /// Number of leading zero bits a block hash must have.
    fn difficulty(&self) -> u32 {
        // Paper-scale mining performs ~10^6 ECALLs per run; we target
        // ~2^14 hashes per block (difficulty 14) scaled down for tests.
        let base: u32 = 14;
        let reduction = 63 - (self.divisor.max(1)).leading_zeros(); // log2
        base.saturating_sub(reduction).max(4)
    }

    /// Deterministically mines `payload`, returning `(nonce, hash,
    /// attempts)`. Pure function; used by both the workload and its
    /// tests.
    pub fn mine(prev_hash: &[u8; 32], payload: &[u8], difficulty: u32) -> (u64, [u8; 32], u64) {
        // The header prefix is the same for every nonce: absorb it once
        // and finish a copy per attempt.
        let prefix = header_prefix(prev_hash, payload);
        let mut attempts = 0u64;
        let mut nonce = 0u64;
        loop {
            attempts += 1;
            let digest = header_hash(&prefix, nonce);
            if leading_zero_bits(&digest) >= difficulty {
                return (nonce, digest, attempts);
            }
            nonce += 1;
        }
    }
}

/// The hash state after `prev_hash ‖ payload`, the part of a block
/// header that every nonce shares.
fn header_prefix(prev_hash: &[u8; 32], payload: &[u8]) -> Sha256 {
    let mut h = Sha256::new();
    h.update(prev_hash);
    h.update(payload);
    h
}

/// SHA-256 of `prev_hash ‖ payload ‖ nonce`, from the shared prefix.
fn header_hash(prefix: &Sha256, nonce: u64) -> [u8; 32] {
    let mut h = prefix.clone();
    h.update(&nonce.to_le_bytes());
    h.finalize()
}

impl Default for Blockchain {
    fn default() -> Self {
        Blockchain::new()
    }
}

/// Counts leading zero bits of a digest.
fn leading_zero_bits(digest: &[u8; 32]) -> u32 {
    let mut bits = 0;
    for &b in digest {
        if b == 0 {
            bits += 8;
        } else {
            bits += b.leading_zeros();
            break;
        }
    }
    bits
}

impl Workload for Blockchain {
    fn name(&self) -> &'static str {
        "Blockchain"
    }

    fn property(&self) -> &'static str {
        "CPU/ECALL-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        // The chain itself is small; the enclave holds headers + payload
        // buffers per thread.
        WorkloadSpec::new(8 << 20, format!("Blocks {}", self.blocks(setting)))
    }

    fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let blocks = self.blocks(setting);
        let difficulty = self.difficulty();
        let payload_len = 256usize;

        // Protected state: previous hash + candidate header buffer.
        let state = env.alloc(4096, Placement::Protected)?;
        // Untrusted: the chain (headers + payloads) lives outside; only
        // hashing is protected, as in the paper's port (§4.3).
        let chain = env.alloc(blocks * (payload_len as u64 + 64), Placement::Untrusted)?;

        let workers: Vec<_> = (0..MINER_THREADS)
            .map(|_| env.spawn_app_thread())
            .collect::<Result<_, _>>()?;

        let mut rng = SplitMix64::new(0x5eed_0001);
        let mut prev_hash = [0u8; 32];
        let mut checksum = 0u64;
        let mut total_attempts = 0u64;
        let mut nonces = Vec::with_capacity(blocks as usize);

        for b in 0..blocks {
            // Assemble the payload (untrusted side).
            let mut payload = vec![0u8; payload_len];
            for byte in payload.iter_mut() {
                *byte = rng.next_u64() as u8;
            }
            env.write_bytes(chain, b * (payload_len as u64 + 64), &payload);

            // Parallel mining: each worker scans a disjoint nonce range;
            // the real winner is the deterministic `mine` result, and
            // each worker is charged its share of the attempt stream.
            let (nonce, hash, attempts) = Blockchain::mine(&prev_hash, &payload, difficulty);
            total_attempts += attempts;
            let share = attempts / workers.len() as u64 + 1;
            let mut worker_err: Option<WorkloadError> = None;
            env.parallel(&workers, |env, _i| {
                if worker_err.is_some() {
                    return;
                }
                for _ in 0..share {
                    // Each attempt is one ECALL into the enclave hash
                    // function (Native); a plain call otherwise.
                    let res = env.secure_call(|env| {
                        // Read the candidate header state, hash, write
                        // the running digest back.
                        let n = env.read_u64(state, 0);
                        env.write_u64(state, 0, n.wrapping_add(1));
                        env.touch(state, 64, payload_len as u64 / 4, false);
                        env.compute(HASH_COMPUTE_CYCLES);
                    });
                    if let Err(e) = res {
                        worker_err = Some(e);
                        return;
                    }
                    // Fetch the next candidate from the shared work queue:
                    // with 16 miners the futex is contended, so every mode
                    // pays a host syscall — which Graphene must shuttle
                    // across the enclave boundary (this is why the paper
                    // sees LibOS ~ Native for this workload, Fig 4).
                    if let Err(e) = env.host_syscall() {
                        worker_err = Some(e);
                        return;
                    }
                }
            });
            if let Some(e) = worker_err {
                return Err(e);
            }

            // Commit the mined block (untrusted side bookkeeping).
            env.write_bytes(
                chain,
                b * (payload_len as u64 + 64) + payload_len as u64,
                &hash[..32],
            );
            nonces.push(nonce);
            checksum = fold(checksum, nonce);
            checksum = fold(
                checksum,
                u64::from_le_bytes(hash[..8].try_into().expect("8 bytes")),
            );
            prev_hash = hash;
        }

        // Verify the chain end-to-end (as libcatena does on load): each
        // stored hash must be the header hash under the mined nonce and
        // clear the difficulty.
        let mut verify_prev = [0u8; 32];
        let mut rng2 = SplitMix64::new(0x5eed_0001);
        for (b, &nonce) in (0..blocks).zip(&nonces) {
            let mut payload = vec![0u8; payload_len];
            for byte in payload.iter_mut() {
                *byte = rng2.next_u64() as u8;
            }
            let mut stored = vec![0u8; 32];
            env.read_bytes(
                chain,
                b * (payload_len as u64 + 64) + payload_len as u64,
                &mut stored,
            );
            let expect = header_hash(&header_prefix(&verify_prev, &payload), nonce);
            if stored != expect || leading_zero_bits(&expect) < difficulty {
                return Err(WorkloadError::Validation(format!(
                    "block {b} hash mismatch"
                )));
            }
            verify_prev = expect;
        }

        Ok(WorkloadOutput {
            ops: total_attempts,
            checksum,
            metrics: vec![("hash_attempts".into(), total_attempts as f64)],
        })
    }
}

// Silence the unused-import lint for scale_down which other workloads use
// through this module's pattern; Blockchain scales via difficulty.
const _: fn(u64, u64, u64) -> u64 = scale_down;

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn leading_zeros_counting() {
        let mut d = [0xffu8; 32];
        assert_eq!(leading_zero_bits(&d), 0);
        d[0] = 0x0f;
        assert_eq!(leading_zero_bits(&d), 4);
        d[0] = 0;
        d[1] = 0x80;
        assert_eq!(leading_zero_bits(&d), 8);
        let z = [0u8; 32];
        assert_eq!(leading_zero_bits(&z), 256);
    }

    #[test]
    fn mining_meets_difficulty_deterministically() {
        let prev = [1u8; 32];
        let (n1, h1, a1) = Blockchain::mine(&prev, b"payload", 8);
        let (n2, h2, a2) = Blockchain::mine(&prev, b"payload", 8);
        assert_eq!((n1, h1, a1), (n2, h2, a2));
        assert!(leading_zero_bits(&h1) >= 8);
        assert_eq!(a1, n1 + 1);
        // The prefix-cloning hash is the one-shot hash of the header, and
        // the nonce is the first that clears the difficulty.
        let header = |n: u64| [&prev[..], b"payload", &n.to_le_bytes()].concat();
        assert_eq!(h1, Sha256::digest(&header(n1)));
        assert!((0..n1).all(|n| leading_zero_bits(&Sha256::digest(&header(n))) < 8));
    }

    #[test]
    fn runs_and_validates_in_all_modes() {
        let wl = Blockchain::scaled(1024);
        let runner = Runner::new(RunnerConfig::scaled(1024));
        let mut checksums = Vec::new();
        for mode in ExecMode::ALL {
            let r = runner.run_once(&wl, mode, InputSetting::Low).unwrap();
            assert!(r.output.ops > 0);
            checksums.push(r.output.checksum);
        }
        // The computed chain must be identical across modes.
        assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn native_mode_is_ecall_heavy() {
        let wl = Blockchain::scaled(1024);
        let runner = Runner::new(RunnerConfig::scaled(1024));
        let r = runner
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .unwrap();
        // Every hash attempt is an ECALL (plus thread bookkeeping).
        assert!(
            r.sgx.ecalls >= r.output.ops,
            "ecalls {} < attempts {}",
            r.sgx.ecalls,
            r.output.ops
        );
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        assert!(r.counters.tlb_flushes > v.counters.tlb_flushes);
    }

    #[test]
    fn more_blocks_more_work() {
        let wl = Blockchain::scaled(1024);
        let runner = Runner::new(RunnerConfig::scaled(1024));
        let low = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let high = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::High)
            .unwrap();
        assert!(high.output.ops > low.output.ops);
    }
}

//! OpenSSL workload (§4.2.2) — decrypt-in, compute, encrypt-out.
//!
//! Mirrors the paper's Intel SGX-SSL workload: read an encrypted input
//! file, decrypt it inside the enclave, perform a small compute-intensive
//! pass over the plaintext, encrypt the result and write it back to the
//! untrusted filesystem. Data-intensive: the file sizes (76 / 88 /
//! 151 MB) put the Low/Medium/High settings on either side of the EPC
//! boundary, stressing the copy path into the EPC and the paging system.

use crate::util::{fold, scale_down};
use sgx_crypto::{hmac_sha256, ChaCha20};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Software ChaCha20 throughput on the modeled core, cycles per byte.
const CRYPTO_CYCLES_PER_BYTE: u64 = 4;

/// Chunk the crypto pipeline operates in.
const CHUNK: usize = 4096;

const KEY: [u8; 32] = [0x42; 32];
const NONCE: [u8; 12] = [0x24; 12];

/// `(k * 31) as u8` for each `k` of one 256-byte period.
const PERIOD: [u8; 256] = {
    let mut p = [0u8; 256];
    let mut k = 0;
    while k < 256 {
        p[k] = (k * 31) as u8;
        k += 1;
    }
    p
};

/// The input file's deterministic, compressible-ish plaintext: byte `i`
/// is `((i * 31) ^ (i >> 7)) as u8`.
fn plaintext(bytes: usize) -> Vec<u8> {
    // `(i * 31) as u8` is `PERIOD[i & 255]`, and `i >> 7` is constant on
    // each aligned 128-byte half, so a half is half of `PERIOD` XOR one
    // byte.
    let mut data = vec![0u8; bytes];
    for (h, half) in data.chunks_mut(128).enumerate() {
        let c = h as u8;
        for (b, p) in half.iter_mut().zip(&PERIOD[(h & 1) * 128..]) {
            *b = p ^ c;
        }
    }
    data
}

/// The OpenSSL workload. See the module docs.
#[derive(Debug, Clone)]
pub struct OpenSsl {
    divisor: u64,
}

impl OpenSsl {
    /// Paper-scale instance (76 / 88 / 151 MB files).
    pub fn new() -> Self {
        OpenSsl { divisor: 1 }
    }

    /// Instance with file sizes divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        OpenSsl {
            divisor: divisor.max(1),
        }
    }

    /// Input file size for `setting` (Table 2).
    pub fn file_bytes(&self, setting: InputSetting) -> u64 {
        let mb = match setting {
            InputSetting::Low => 76,
            InputSetting::Medium => 88,
            InputSetting::High => 151,
        };
        scale_down(mb << 20, self.divisor, 64 << 10)
    }
}

impl Default for OpenSsl {
    fn default() -> Self {
        OpenSsl::new()
    }
}

impl Workload for OpenSsl {
    fn name(&self) -> &'static str {
        "OpenSSL"
    }

    fn property(&self) -> &'static str {
        "Data-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        let bytes = self.file_bytes(setting);
        WorkloadSpec::new(bytes + (4 << 20), format!("File Size {} MB", bytes >> 20))
    }

    fn setup(&self, env: &mut Env, setting: InputSetting) -> Result<(), WorkloadError> {
        // Produce the encrypted input file (what the data owner ships).
        let mut data = plaintext(self.file_bytes(setting) as usize);
        ChaCha20::new(&KEY, &NONCE).apply(&mut data, 0);
        env.put_file("input.enc", data);
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let bytes = self.file_bytes(setting);
        let buf = env.alloc(bytes, Placement::Protected)?;

        let checksum = env.secure_call(|env| -> Result<u64, WorkloadError> {
            // 1. Pull the encrypted file into the enclave. The read fills
            //    `buf`, so it takes the file's bytes; dropping the file
            //    leaves the decrypt pass nothing to copy out first.
            let n = env.read_file_into("input.enc", buf, 0)?;
            env.remove_file("input.enc")?;

            // 2. Decrypt in place, chunk by chunk (real ChaCha20 +
            //    modeled crypto cycles), folding a histogram-style
            //    compute pass over the plaintext.
            let cipher = ChaCha20::new(&KEY, &NONCE);
            let mut chunk = vec![0u8; CHUNK];
            let mut histogram = [0u64; 16];
            let mut counter = 0u32;
            let mut off = 0u64;
            while off < n {
                let len = ((n - off) as usize).min(CHUNK);
                env.read_bytes(buf, off, &mut chunk[..len]);
                cipher.apply(&mut chunk[..len], counter);
                env.compute(len as u64 * CRYPTO_CYCLES_PER_BYTE);
                for &b in &chunk[..len] {
                    histogram[(b & 0xf) as usize] += 1;
                }
                env.compute(len as u64); // one cycle/byte compute pass
                env.write_bytes(buf, off, &chunk[..len]);
                counter += (CHUNK / 64) as u32;
                off += len as u64;
            }

            // 3. MAC + re-encrypt the result and ship it out.
            let mut mac_input = Vec::with_capacity(128);
            for h in histogram {
                mac_input.extend_from_slice(&h.to_le_bytes());
            }
            let tag = hmac_sha256(&KEY, &mac_input);
            env.compute(2_000);
            // Encrypt output in place (second pass) and write the file.
            let out_cipher = ChaCha20::new(&KEY, &[0x77; 12]);
            let mut off = 0u64;
            let mut counter = 0u32;
            while off < n {
                let len = ((n - off) as usize).min(CHUNK);
                env.read_bytes(buf, off, &mut chunk[..len]);
                out_cipher.apply(&mut chunk[..len], counter);
                env.compute(len as u64 * CRYPTO_CYCLES_PER_BYTE);
                env.write_bytes(buf, off, &chunk[..len]);
                counter += (CHUNK / 64) as u32;
                off += len as u64;
            }
            env.write_file_from("output.enc", buf, 0, n)?;
            env.write_file("output.tag", &tag)?;

            let mut checksum = 0u64;
            for h in histogram {
                checksum = fold(checksum, h);
            }
            Ok(checksum)
        })??;

        Ok(WorkloadOutput {
            ops: bytes / CHUNK as u64,
            checksum,
            metrics: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{EnvConfig, Runner, RunnerConfig};

    /// The divisor of every test's inputs and platform.
    const D: u64 = 512;

    fn runner() -> Runner {
        Runner::new(RunnerConfig::scaled(D))
    }

    #[test]
    fn checksums_agree_across_modes() {
        let wl = OpenSsl::scaled(D);
        let mut sums = Vec::new();
        for mode in ExecMode::ALL {
            let r = runner().run_once(&wl, mode, InputSetting::Low).unwrap();
            sums.push(r.output.checksum);
            assert!(r.output.ops > 0);
        }
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "decryption result differs across modes"
        );
    }

    #[test]
    fn decryption_recovers_plaintext_statistics() {
        // The checksum is over the plaintext histogram; a wrong key would
        // yield a near-uniform histogram. Compare against a direct
        // computation.
        let wl = OpenSsl::scaled(D);
        let bytes = wl.file_bytes(InputSetting::Low) as usize;
        let mut hist = [0u64; 16];
        for i in 0..bytes {
            hist[((((i * 31) ^ (i >> 7)) as u8) & 0xf) as usize] += 1;
        }
        let mut expect = 0u64;
        for h in hist {
            expect = fold(expect, h);
        }
        let r = runner()
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        assert_eq!(r.output.checksum, expect);
    }

    #[test]
    fn plaintext_matches_its_formula() {
        let settings = [InputSetting::Low, InputSetting::Medium, InputSetting::High];
        let lengths = [0, 1, 127, 128, 129, 255, 256, 257, 1000, 65_537]
            .into_iter()
            .chain(
                settings
                    .iter()
                    .map(|&s| OpenSsl::new().file_bytes(s) as usize),
            )
            .chain(
                settings
                    .iter()
                    .map(|&s| OpenSsl::scaled(1000).file_bytes(s) as usize),
            );
        for len in lengths {
            let data = plaintext(len);
            assert_eq!(data.len(), len);
            for (i, &b) in data.iter().enumerate() {
                assert_eq!(b, ((i * 31) ^ (i >> 7)) as u8, "byte {i} of {len}");
            }
        }
    }

    #[test]
    fn file_sizes_follow_table2() {
        let wl = OpenSsl::new();
        assert_eq!(wl.file_bytes(InputSetting::Low), 76 << 20);
        assert_eq!(wl.file_bytes(InputSetting::Medium), 88 << 20);
        assert_eq!(wl.file_bytes(InputSetting::High), 151 << 20);
    }

    #[test]
    fn writes_outputs() {
        let wl = OpenSsl::scaled(D);
        let mut env = Env::new(EnvConfig::scaled(ExecMode::Vanilla, D)).unwrap();
        wl.setup(&mut env, InputSetting::Low).unwrap();
        env.start_app().unwrap();
        wl.execute(&mut env, InputSetting::Low).unwrap();
        assert!(env.file_len("output.enc").unwrap() > 0);
        assert_eq!(env.file_len("output.tag").unwrap(), 32);
        // The input was consumed: the host no longer holds it.
        assert!(matches!(
            env.file_len("input.enc"),
            Err(WorkloadError::FileNotFound(_))
        ));
    }

    #[test]
    fn sgx_mode_pays_for_data_movement() {
        let wl = OpenSsl::scaled(D);
        let v = runner()
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let n = runner()
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .unwrap();
        assert!(n.runtime_cycles > v.runtime_cycles);
        assert!(n.sgx.epc_faults > 0);
    }
}

//! HashJoin workload (§4.2.4) — the equi-join kernel of modern databases.
//!
//! Two phases, as in the paper (and the mitosis-project workload it
//! takes the code from): *build* a hash table over the rows of the first
//! data table, then *probe* it with the rows of the second. The size of
//! the first table (61 / 91 / 122 MB) is what the paper varies across
//! the EPC boundary. Hash probing is cache-hostile — the paper's §B.4
//! notes the page-fault and dTLB blowups.

use crate::util::{fold, scale_down, SplitMix64};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Bytes per row: 8-byte key + 8-byte payload.
const ROW_BYTES: u64 = 16;

/// Hash-table slot: 8-byte key (0 = empty) + 8-byte payload.
const SLOT_BYTES: u64 = 16;

/// Probe rows per build row.
const PROBE_FACTOR: u64 = 2;

/// The HashJoin workload. See the module docs.
#[derive(Debug, Clone)]
pub struct HashJoin {
    divisor: u64,
}

impl HashJoin {
    /// Paper-scale instance (61 / 91 / 122 MB build tables).
    pub fn new() -> Self {
        HashJoin { divisor: 1 }
    }

    /// Instance with table sizes divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        HashJoin {
            divisor: divisor.max(1),
        }
    }

    /// Build-table bytes for `setting` (Table 2).
    pub fn table_bytes(&self, setting: InputSetting) -> u64 {
        let mb = match setting {
            InputSetting::Low => 61,
            InputSetting::Medium => 91,
            InputSetting::High => 122,
        };
        scale_down(mb << 20, self.divisor, 64 << 10)
    }

    /// Rows in the build table.
    pub fn build_rows(&self, setting: InputSetting) -> u64 {
        // The hash table (1.5x slots) plus the table itself form the
        // footprint; rows are sized so the *total* protected footprint
        // matches Table 2's table sizes.
        self.table_bytes(setting) / (ROW_BYTES + SLOT_BYTES + SLOT_BYTES / 2)
    }

    fn slots(&self, setting: InputSetting) -> u64 {
        // Exactly 1.5x rows (no power-of-two rounding) so the Table 2
        // footprints land on the paper's side of the EPC boundary.
        self.build_rows(setting) * 3 / 2
    }
}

impl Default for HashJoin {
    fn default() -> Self {
        HashJoin::new()
    }
}

#[inline]
fn hash_key(k: u64) -> u64 {
    let mut x = k;
    x = (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ceb9fe1a85ec53);
    x ^ (x >> 33)
}

impl Workload for HashJoin {
    fn name(&self) -> &'static str {
        "HashJoin"
    }

    fn property(&self) -> &'static str {
        "Data/CPU-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        let rows = self.build_rows(setting);
        let bytes = rows * ROW_BYTES + self.slots(setting) * SLOT_BYTES;
        WorkloadSpec::new(
            bytes,
            format!("Data Table Size {} MB", self.table_bytes(setting) >> 20),
        )
    }

    fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let rows = self.build_rows(setting);
        let slots = self.slots(setting);
        let table = env.alloc(rows * ROW_BYTES, Placement::Protected)?;
        let ht = env.alloc(slots * SLOT_BYTES, Placement::Protected)?;

        let (matches, checksum) =
            env.secure_call(move |env| -> Result<(u64, u64), WorkloadError> {
                // Materialize table R (sequential writes).
                let mut rng = SplitMix64::new(0x7_ab1e_5eed % 0xffff_ffff);
                for i in 0..rows {
                    let key = rng.next_u64() | 1; // non-zero keys
                    env.write_u64(table, i * ROW_BYTES, key);
                    env.write_u64(table, i * ROW_BYTES + 8, i);
                }

                // Build phase: open addressing, linear probing.
                for i in 0..rows {
                    let key = env.read_u64(table, i * ROW_BYTES);
                    let payload = env.read_u64(table, i * ROW_BYTES + 8);
                    let mut s = hash_key(key) % slots;
                    loop {
                        let existing = env.read_u64(ht, s * SLOT_BYTES);
                        if existing == 0 {
                            env.write_u64(ht, s * SLOT_BYTES, key);
                            env.write_u64(ht, s * SLOT_BYTES + 8, payload);
                            break;
                        }
                        s = (s + 1) % slots;
                    }
                    env.compute(12);
                }

                // Probe phase: table S rows, half of which hit.
                let mut probe_rng = SplitMix64::new(0x7_ab1e_5eed % 0xffff_ffff);
                let mut miss_rng = SplitMix64::new(0xdeed);
                let probes = rows * PROBE_FACTOR;
                let mut matches = 0u64;
                let mut checksum = 0u64;
                for i in 0..probes {
                    let key = if i % 2 == 0 {
                        probe_rng.next_u64() | 1 // replays a build key
                    } else {
                        miss_rng.next_u64() & !1 // even keys never inserted
                    };
                    let mut s = hash_key(key) % slots;
                    loop {
                        let existing = env.read_u64(ht, s * SLOT_BYTES);
                        if existing == 0 {
                            checksum = fold(checksum, 0);
                            break;
                        }
                        if existing == key {
                            let payload = env.read_u64(ht, s * SLOT_BYTES + 8);
                            matches += 1;
                            checksum = fold(checksum, payload);
                            break;
                        }
                        s = (s + 1) % slots;
                    }
                    env.compute(12);
                }
                Ok((matches, checksum))
            })??;

        if matches < self.build_rows(setting) / 2 {
            return Err(WorkloadError::Validation(format!(
                "join matched {matches} of expected >= {}",
                self.build_rows(setting) / 2
            )));
        }
        Ok(WorkloadOutput {
            ops: rows * (1 + PROBE_FACTOR),
            checksum,
            metrics: vec![("matches".into(), matches as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn join_matches_expected_count() {
        let wl = HashJoin::scaled(1024);
        let runner = Runner::new(RunnerConfig::scaled(1024));
        let r = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let rows = wl.build_rows(InputSetting::Low);
        // Every even-indexed probe replays a build key: exactly `rows`
        // hits (collisions between the two rngs are vanishingly rare).
        let matches = r.output.metric("matches").unwrap() as u64;
        assert_eq!(matches, rows);
    }

    #[test]
    fn checksums_agree_across_modes() {
        let wl = HashJoin::scaled(1024);
        let runner = Runner::new(RunnerConfig::scaled(1024));
        let mut sums = Vec::new();
        for mode in ExecMode::ALL {
            sums.push(
                runner
                    .run_once(&wl, mode, InputSetting::Low)
                    .unwrap()
                    .output
                    .checksum,
            );
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn table_sizes_follow_table2() {
        let wl = HashJoin::new();
        assert_eq!(wl.table_bytes(InputSetting::Low), 61 << 20);
        assert_eq!(wl.table_bytes(InputSetting::Medium), 91 << 20);
        assert_eq!(wl.table_bytes(InputSetting::High), 122 << 20);
        assert!(wl.spec(InputSetting::Low).protected_bytes < 92 << 20);
        assert!(wl.spec(InputSetting::High).protected_bytes > 92 << 20);
    }

    #[test]
    fn random_probes_blow_up_dtlb_in_native() {
        let wl = HashJoin::scaled(24);
        let runner = Runner::new(RunnerConfig::scaled(24));
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::High)
            .unwrap();
        let n = runner
            .run_once(&wl, ExecMode::Native, InputSetting::High)
            .unwrap();
        assert!(n.counters.dtlb_misses > v.counters.dtlb_misses);
        assert!(n.sgx.epc_evictions > 0);
    }

    #[test]
    fn hash_is_well_mixed() {
        let mut buckets = [0u32; 16];
        for k in 0..10_000u64 {
            buckets[(hash_key(k) & 15) as usize] += 1;
        }
        for b in buckets {
            assert!((400..850).contains(&b), "skewed bucket {b}");
        }
    }
}

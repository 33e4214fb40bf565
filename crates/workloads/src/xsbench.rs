//! XSBench workload (§4.2.8) — the macroscopic cross-section lookup
//! kernel of Monte Carlo neutron transport (Tramm et al.).
//!
//! The unionized energy grid holds, for every grid point, pointers into
//! each nuclide's cross-section table; a lookup picks a random energy,
//! binary-searches the grid, and accumulates the macroscopic cross
//! section over all nuclides in the material. The grid-point counts of
//! Table 2 (53 K / 88 K / 768 K) with XSBench's ~1 KB-per-point data
//! place Low below, Medium at, and High far beyond the EPC.

use crate::util::{fold, scale_down, SplitMix64};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Nuclides per material.
const NUCLIDES: u64 = 16;

/// Cross-section channels per (gridpoint, nuclide): total, elastic,
/// absorption, fission, nu-fission — as in XSBench.
const CHANNELS: u64 = 5;

/// Bytes per grid point: energy (8) + per-nuclide channel data.
// Raw point payload is 8 + NUCLIDES*CHANNELS*8 = 648 bytes; XSBench pads
// rows, so the stride below is 1 KiB.
const POINT_STRIDE: u64 = 1024; // pad to 1 KB like XSBench's real layout

/// The XSBench workload. See the module docs.
#[derive(Debug, Clone)]
pub struct XsBench {
    divisor: u64,
}

impl XsBench {
    /// Paper-scale instance (53 K / 88 K / 768 K grid points).
    pub fn new() -> Self {
        XsBench { divisor: 1 }
    }

    /// Instance with grid sizes divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        XsBench {
            divisor: divisor.max(1),
        }
    }

    /// Grid points for `setting` (Table 2).
    pub fn gridpoints(&self, setting: InputSetting) -> u64 {
        let n: u64 = match setting {
            InputSetting::Low => 53_000,
            InputSetting::Medium => 88_000,
            InputSetting::High => 768_000,
        };
        scale_down(n, self.divisor, 256)
    }

    /// Cross-section lookups performed (the paper lists "Lookups: 100"
    /// per grid-point batch; we issue a fixed large batch so the kernel,
    /// not initialization, dominates).
    pub fn lookups(&self) -> u64 {
        scale_down(100_000, self.divisor, 512)
    }
}

impl Default for XsBench {
    fn default() -> Self {
        XsBench::new()
    }
}

impl Workload for XsBench {
    fn name(&self) -> &'static str {
        "XSBench"
    }

    fn property(&self) -> &'static str {
        "CPU-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        WorkloadSpec::new(
            self.gridpoints(setting) * POINT_STRIDE,
            format!(
                "Points: {} Lookups: {}",
                self.gridpoints(setting),
                self.lookups()
            ),
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
        let points = self.gridpoints(setting);
        let lookups = self.lookups();
        let grid = env.alloc(points * POINT_STRIDE, Placement::Protected)?;

        let checksum = env.secure_call(move |env| -> Result<u64, WorkloadError> {
            // Grid generation: monotonically increasing energies with
            // per-nuclide channel data.
            let mut rng = SplitMix64::new(0x5bec_0001);
            for i in 0..points {
                let base = i * POINT_STRIDE;
                let energy = i as f64 / points as f64;
                env.write_f64(grid, base, energy);
                // Fill a representative subset of channel data (first
                // two channels per nuclide; the rest is padding that
                // still occupies EPC pages).
                for nuc in 0..NUCLIDES {
                    let off = base + 8 + nuc * CHANNELS * 8;
                    env.write_f64(grid, off, rng.unit_f64());
                    env.write_f64(grid, off + 8, rng.unit_f64());
                }
            }
            env.compute(points * 50);

            // Lookup kernel.
            let mut rng = SplitMix64::new(0x0100_c0b5);
            let mut macro_sum = 0.0f64;
            for _ in 0..lookups {
                let e = rng.unit_f64();
                // Binary search for the bracketing grid point.
                let mut lo = 0u64;
                let mut hi = points - 1;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let me = env.read_f64(grid, mid * POINT_STRIDE);
                    if me < e {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                // Accumulate the macroscopic XS over all nuclides.
                let base = lo * POINT_STRIDE;
                let mut xs = 0.0f64;
                for nuc in 0..NUCLIDES {
                    let off = base + 8 + nuc * CHANNELS * 8;
                    let sigma_t = env.read_f64(grid, off);
                    let sigma_a = env.read_f64(grid, off + 8);
                    xs += sigma_t * 0.7 + sigma_a * 0.3;
                }
                macro_sum += xs;
                env.compute(40 + NUCLIDES * 12 + 64 /* FLOPs + search ALU */);
            }
            let mut checksum = fold(0, (macro_sum * 1e9) as u64);
            checksum = fold(checksum, lookups);
            Ok(checksum)
        })??;

        Ok(WorkloadOutput {
            ops: lookups,
            checksum,
            metrics: vec![("gridpoints".into(), points as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn checksums_agree_across_modes() {
        let wl = XsBench::scaled(256);
        let runner = Runner::new(RunnerConfig::scaled(256));
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let l = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert_eq!(v.output.checksum, l.output.checksum);
    }

    #[test]
    fn grid_sizes_follow_table2() {
        let wl = XsBench::new();
        assert_eq!(wl.gridpoints(InputSetting::Low), 53_000);
        assert_eq!(wl.gridpoints(InputSetting::Medium), 88_000);
        assert_eq!(wl.gridpoints(InputSetting::High), 768_000);
        assert!(wl.spec(InputSetting::Low).protected_bytes < 92 << 20);
        assert!(wl.spec(InputSetting::Medium).protected_bytes < 96 << 20);
        assert!(wl.spec(InputSetting::High).protected_bytes > 92 << 20);
    }

    #[test]
    fn high_setting_thrashes_epc_under_libos() {
        let wl = XsBench::scaled(256);
        let runner = Runner::new(RunnerConfig::scaled(256));
        let low = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        let high = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::High)
            .unwrap();
        assert!(high.sgx.epc_evictions > low.sgx.epc_evictions);
    }

    #[test]
    fn lookup_count_is_ops() {
        let wl = XsBench::scaled(256);
        let runner = Runner::new(RunnerConfig::scaled(256));
        let r = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        assert_eq!(r.output.ops, wl.lookups());
    }
}

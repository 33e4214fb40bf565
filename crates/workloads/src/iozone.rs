//! IOzone-style filesystem benchmark (Appendix E / Fig 10).
//!
//! The paper uses IOzone to quantify GrapheneSGX's file-I/O overhead and
//! the cost of its protected-files (PF) mode: sequentially write and then
//! read 1 GB in 4 MB records, comparing Vanilla, LibOS, and LibOS+PF.
//! This driver reproduces that experiment; it is not one of the ten
//! SGXGauge workloads, but it ships with the suite because Fig 10 needs
//! it.

use crate::util::{fold, scale_down};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Record (block) size: 4 MB, as in the paper.
const RECORD_BYTES: u64 = 4 << 20;

/// The IOzone driver. See the module docs.
#[derive(Debug, Clone)]
pub struct Iozone {
    divisor: u64,
}

impl Iozone {
    /// Paper-scale instance (1 GB of data in 4 MB records).
    pub fn new() -> Self {
        Iozone { divisor: 1 }
    }

    /// Instance with the total size divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        Iozone {
            divisor: divisor.max(1),
        }
    }

    /// Total bytes transferred in each direction.
    pub fn total_bytes(&self) -> u64 {
        scale_down(1 << 30, self.divisor, 1 << 20)
    }

    fn record_bytes(&self) -> u64 {
        RECORD_BYTES.min(self.total_bytes())
    }
}

impl Default for Iozone {
    fn default() -> Self {
        Iozone::new()
    }
}

impl Workload for Iozone {
    fn name(&self) -> &'static str {
        "IOzone"
    }

    fn property(&self) -> &'static str {
        "IO-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::LibOs]
    }

    fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
        WorkloadSpec::new(
            self.record_bytes() + (1 << 20),
            format!(
                "Size {} MB Record {} MB",
                self.total_bytes() >> 20,
                self.record_bytes() >> 20
            ),
        )
    }

    fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        _setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let total = self.total_bytes();
        let record = self.record_bytes();
        let records = total / record;
        let buf = env.alloc(record, Placement::Protected)?;

        // Fill the record buffer once (IOzone reuses its buffer), then
        // write it out per record, stamping the record id.
        let pattern = vec![0x5au8; record as usize];
        env.write_bytes(buf, 0, &pattern);
        let write_start = env.now();
        for r in 0..records {
            env.write_u64(buf, 0, r);
            env.write_u64(buf, record - 8, r ^ 0xffff);
            env.write_file_from(&format!("iozone.{r}"), buf, 0, record)?;
        }
        let write_cycles = env.now() - write_start;

        // Read phase: read every record back and fold a checksum.
        let read_start = env.now();
        let mut checksum = 0u64;
        for r in 0..records {
            let n = env.read_file_into(&format!("iozone.{r}"), buf, 0)?;
            if n != record {
                return Err(WorkloadError::Validation(format!(
                    "record {r}: {n} != {record}"
                )));
            }
            checksum = fold(checksum, env.read_u64(buf, 0));
            checksum = fold(checksum, env.read_u64(buf, record - 8));
        }
        let read_cycles = env.now() - read_start;

        Ok(WorkloadOutput {
            ops: records * 2,
            checksum,
            metrics: vec![
                ("write_cycles".into(), write_cycles as f64),
                ("read_cycles".into(), read_cycles as f64),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn roundtrip_checksum_stable_across_modes() {
        let wl = Iozone::scaled(256);
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
    fn pf_mode_costs_most() {
        // Fig 10 ordering: Vanilla < LibOS < LibOS+PF.
        let wl = Iozone::scaled(256);
        let runner = Runner::new(RunnerConfig::scaled(256));
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let l = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();

        let mut pf_cfg = RunnerConfig::scaled(256);
        pf_cfg.env = pf_cfg.env.with_protected_files();
        let pf = Runner::new(pf_cfg)
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();

        assert!(l.runtime_cycles > v.runtime_cycles);
        assert!(pf.runtime_cycles > l.runtime_cycles);
        // PF still round-trips correctly.
        assert_eq!(pf.output.checksum, v.output.checksum);
    }

    #[test]
    fn read_and_write_metrics_present() {
        let wl = Iozone::scaled(512);
        let runner = Runner::new(RunnerConfig::scaled(512));
        let r = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        assert!(r.output.metric("write_cycles").unwrap() > 0.0);
        assert!(r.output.metric("read_cycles").unwrap() > 0.0);
    }
}

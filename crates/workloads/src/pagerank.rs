//! PageRank workload (§4.2.6) — link analysis by power iteration.
//!
//! The input is a dense directed graph in adjacency-list form (4500–5000
//! nodes but 10–12.5 M edges, per Table 2 — the edge list is the
//! footprint). The workload loads the graph into the EPC, gives every
//! page a default rank, and repeatedly redistributes rank along out-links
//! a fixed number of iterations, exactly as the paper describes.

use crate::util::{fold, scale_down, SplitMix64};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Damping factor.
const DAMPING: f64 = 0.85;

/// Power iterations ("repeated a fixed number of times").
const ITERATIONS: u64 = 4;

/// The PageRank workload. See the module docs.
#[derive(Debug, Clone)]
pub struct PageRank {
    divisor: u64,
}

impl PageRank {
    /// Paper-scale instance (4500/10.1 M … 5000/12.5 M nodes/edges).
    pub fn new() -> Self {
        PageRank { divisor: 1 }
    }

    /// Instance with edge counts divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        PageRank {
            divisor: divisor.max(1),
        }
    }

    /// `(nodes, edges)` for `setting` (Table 2).
    pub fn graph_size(&self, setting: InputSetting) -> (u64, u64) {
        let (n, e) = match setting {
            InputSetting::Low => (4_500, 10_100_000),
            InputSetting::Medium => (4_750, 11_200_000),
            InputSetting::High => (5_000, 12_500_000),
        };
        (
            scale_down(n, self.divisor, 32),
            scale_down(e, self.divisor, 512),
        )
    }
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank::new()
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn property(&self) -> &'static str {
        "Data-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        let (n, e) = self.graph_size(setting);
        // Edge list (8 B/edge) dominates; ranks and offsets are small.
        WorkloadSpec::new(e * 8 + n * 32, format!("Nodes {n} Edges {e}"))
    }

    fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let (n, e) = self.graph_size(setting);

        // CSR-ish layout in protected memory: per-node edge offsets and
        // degrees, the big edge array, two rank arrays.
        let meta = env.alloc(n * 16, Placement::Protected)?;
        let edges = env.alloc(e * 8, Placement::Protected)?;
        let ranks = env.alloc(n * 8, Placement::Protected)?;
        let next = env.alloc(n * 8, Placement::Protected)?;

        let checksum = env.secure_call(move |env| -> Result<u64, WorkloadError> {
            // Build the graph in the EPC (load phase): every node gets
            // e/n out-links to deterministic pseudo-random targets
            // (out-degree >= 1 as the paper requires).
            let per_node = (e / n).max(1);
            let mut rng = SplitMix64::new(0x9a9e_2a4c);
            let mut cursor = 0u64;
            for i in 0..n {
                env.write_u64(meta, i * 16, cursor);
                env.write_u64(meta, i * 16 + 8, per_node);
                for _ in 0..per_node {
                    env.write_u64(edges, cursor * 8, rng.below(n));
                    cursor += 1;
                }
            }
            let initial = 1.0 / n as f64;
            for i in 0..n {
                env.write_f64(ranks, i * 8, initial);
            }

            // Power iterations.
            for _ in 0..ITERATIONS {
                for i in 0..n {
                    env.write_f64(next, i * 8, (1.0 - DAMPING) / n as f64);
                }
                for i in 0..n {
                    let start = env.read_u64(meta, i * 16);
                    let deg = env.read_u64(meta, i * 16 + 8);
                    let share = DAMPING * env.read_f64(ranks, i * 8) / deg as f64;
                    for j in start..start + deg {
                        let dst = env.read_u64(edges, j * 8);
                        let cur = env.read_f64(next, dst * 8);
                        env.write_f64(next, dst * 8, cur + share);
                    }
                    env.compute(4 + deg * 3);
                }
                // Swap rank arrays (copy, as the Ligra-derived code does).
                for i in 0..n {
                    let v = env.read_f64(next, i * 8);
                    env.write_f64(ranks, i * 8, v);
                }
            }

            // Fold the final ranks into a checksum (quantized so float
            // association noise cannot flip bits across modes — the
            // computation order is identical anyway).
            let mut checksum = 0u64;
            let mut total = 0.0f64;
            for i in 0..n {
                let r = env.read_f64(ranks, i * 8);
                total += r;
                checksum = fold(checksum, (r * 1e12) as u64);
            }
            if (total - 1.0).abs() > 1e-6 {
                return Err(WorkloadError::Validation(format!("rank mass {total} != 1")));
            }
            Ok(checksum)
        })??;

        Ok(WorkloadOutput {
            ops: e * ITERATIONS,
            checksum,
            metrics: vec![("iterations".into(), ITERATIONS as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn rank_mass_conserved_and_deterministic() {
        let wl = PageRank::scaled(2048);
        let runner = Runner::new(RunnerConfig::scaled(2048));
        let a = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let b = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        assert_eq!(a.output.checksum, b.output.checksum);
    }

    #[test]
    fn checksums_agree_across_modes() {
        let wl = PageRank::scaled(2048);
        let runner = Runner::new(RunnerConfig::scaled(2048));
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
    fn graph_sizes_follow_table2() {
        let wl = PageRank::new();
        assert_eq!(wl.graph_size(InputSetting::Low), (4_500, 10_100_000));
        assert_eq!(wl.graph_size(InputSetting::High), (5_000, 12_500_000));
        assert!(wl.spec(InputSetting::Low).protected_bytes < 92 << 20);
        assert!(wl.spec(InputSetting::High).protected_bytes > 92 << 20);
    }

    #[test]
    fn sequential_edge_scan_has_low_dtlb_pressure() {
        // The paper (§B.6) observes PageRank's dTLB misses are dominated
        // by the workload's own streaming nature: the SGX-added misses
        // are comparatively small. Check Native/Vanilla dTLB ratio is far
        // below a pointer-chasing workload's.
        let wl = PageRank::scaled(512);
        let runner = Runner::new(RunnerConfig::scaled(512));
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let n = runner
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .unwrap();
        let ratio = n.counters.dtlb_misses as f64 / v.counters.dtlb_misses.max(1) as f64;
        assert!(ratio < 500.0, "dTLB ratio {ratio}");
    }
}

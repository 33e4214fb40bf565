//! BFS workload (§4.2.5) — breadth-first search, ported from the Rodinia
//! benchmark suite as in the paper.
//!
//! The input is an undirected graph; the workload loads it into the EPC
//! and traverses every connected component. Rodinia's BFS keeps per-node
//! and per-edge structs (not packed CSR indices), which is what gives the
//! workload its large, data-intensive footprint; we keep the same layout
//! (64-byte edge records, 64-byte node records) so the Table 2 node and
//! edge counts land on the paper's side of the EPC boundary.

use crate::util::{fold, scale_down, SplitMix64};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Per-node record bytes (Rodinia `Node` struct padded to a line).
const NODE_BYTES: u64 = 64;

/// Per-edge record bytes (dest + weight + padding to a line).
const EDGE_BYTES: u64 = 64;

/// The BFS workload. See the module docs.
#[derive(Debug, Clone)]
pub struct Bfs {
    divisor: u64,
}

impl Bfs {
    /// Paper-scale instance (70 K/909 K … 150 K/1.9 M nodes/edges).
    pub fn new() -> Self {
        Bfs { divisor: 1 }
    }

    /// Instance with graph sizes divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        Bfs {
            divisor: divisor.max(1),
        }
    }

    /// `(nodes, edges)` for `setting` (Table 2).
    pub fn graph_size(&self, setting: InputSetting) -> (u64, u64) {
        let (n, e) = match setting {
            InputSetting::Low => (70_000, 909_000),
            InputSetting::Medium => (100_000, 1_300_000),
            InputSetting::High => (150_000, 1_900_000),
        };
        (
            scale_down(n, self.divisor, 64),
            scale_down(e, self.divisor, 256),
        )
    }
}

/// Seed of the input graph's random edges.
const GRAPH_SEED: u64 = 0xbf5_0001;

/// Serializes the input graph the workload will parse, like Rodinia's
/// .graph text inputs (binary here): the node count and the directed
/// entry count, then per node its edge offset and degree, then the edge
/// lists. Rodinia graphs store per-node directed edge lists, so `e`
/// counts directed records: a ring guarantees connectivity (2n entries),
/// then random directed entries fill up to `e`.
///
/// Built as CSR: degrees are counted first, then each list is filled in
/// push order, both ring neighbours before the node's random draws.
fn graph_file(n: u64, e: u64) -> Vec<u8> {
    let random_edges = e.saturating_sub(2 * n);
    let draws = || {
        let mut rng = SplitMix64::new(GRAPH_SEED);
        (0..random_edges).map(move |_| {
            let a = rng.below(n);
            let b = rng.below(n);
            (a as usize, b as u32)
        })
    };
    // Degrees, then turned in place into each list's next free entry.
    let mut next = vec![2u32; n as usize];
    for (a, _) in draws() {
        next[a] += 1;
    }
    let total = 2 * n + random_edges;
    let hdr = 8 + 8 * n as usize;
    let mut file = vec![0u8; hdr + 4 * total as usize];
    file[0..4].copy_from_slice(&(n as u32).to_le_bytes());
    file[4..8].copy_from_slice(&(total as u32).to_le_bytes());
    let mut offset = 0u32;
    for (i, slot) in next.iter_mut().enumerate() {
        let deg = *slot;
        file[8 + 8 * i..12 + 8 * i].copy_from_slice(&offset.to_le_bytes());
        file[12 + 8 * i..16 + 8 * i].copy_from_slice(&deg.to_le_bytes());
        *slot = offset;
        offset += deg;
    }
    let mut push = |from: usize, to: u32| {
        let at = hdr + 4 * next[from] as usize;
        file[at..at + 4].copy_from_slice(&to.to_le_bytes());
        next[from] += 1;
    };
    for i in 0..n {
        let j = (i + 1) % n;
        push(i as usize, j as u32);
        push(j as usize, i as u32);
    }
    for (a, b) in draws() {
        push(a, b);
    }
    file
}

impl Default for Bfs {
    fn default() -> Self {
        Bfs::new()
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn property(&self) -> &'static str {
        "Data-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        let (n, e) = self.graph_size(setting);
        WorkloadSpec::new(
            n * NODE_BYTES + e * EDGE_BYTES + n * 8,
            format!("Nodes {n} Edges {e}"),
        )
    }

    fn setup(&self, env: &mut Env, setting: InputSetting) -> Result<(), WorkloadError> {
        let (n, e) = self.graph_size(setting);
        env.put_file("graph.bin", graph_file(n, e));
        Ok(())
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let (n, _) = self.graph_size(setting);

        let (visited_count, checksum) =
            env.secure_call(move |env| -> Result<(u64, u64), WorkloadError> {
                // Parse the header from the input file (unmodeled scratch),
                // then build the in-EPC structures with padded records.
                let raw = env.read_file("graph.bin")?;
                let nodes = u32::from_le_bytes(raw[0..4].try_into().expect("4 bytes")) as u64;
                let total_dirs = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes")) as u64;
                debug_assert_eq!(nodes, n);

                let node_region = env.alloc(nodes * NODE_BYTES, Placement::Protected)?;
                let edge_region = env.alloc(total_dirs * EDGE_BYTES, Placement::Protected)?;
                let level_region = env.alloc(nodes * 8, Placement::Protected)?;

                // Load phase ("first reads the input graph to the EPC").
                let hdr = 8usize;
                for i in 0..nodes as usize {
                    let off = hdr + i * 8;
                    let start = u32::from_le_bytes(raw[off..off + 4].try_into().expect("4 bytes"));
                    let deg =
                        u32::from_le_bytes(raw[off + 4..off + 8].try_into().expect("4 bytes"));
                    env.write_u64(node_region, i as u64 * NODE_BYTES, start as u64);
                    env.write_u64(node_region, i as u64 * NODE_BYTES + 8, deg as u64);
                    env.write_u64(level_region, i as u64 * 8, u64::MAX);
                }
                let edges_base = hdr + nodes as usize * 8;
                for j in 0..total_dirs as usize {
                    let off = edges_base + j * 4;
                    let dest = u32::from_le_bytes(raw[off..off + 4].try_into().expect("4 bytes"));
                    env.write_u64(edge_region, j as u64 * EDGE_BYTES, dest as u64);
                }
                env.compute(total_dirs * 4);

                // Traverse all connected components.
                let mut queue: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
                let mut visited_count = 0u64;
                let mut checksum = 0u64;
                let mut level_sum = 0u64;
                for root in 0..nodes {
                    if env.read_u64(level_region, root * 8) != u64::MAX {
                        continue;
                    }
                    env.write_u64(level_region, root * 8, 0);
                    queue.push_back(root);
                    while let Some(u) = queue.pop_front() {
                        visited_count += 1;
                        let lvl = env.read_u64(level_region, u * 8);
                        level_sum += lvl;
                        let start = env.read_u64(node_region, u * NODE_BYTES);
                        let deg = env.read_u64(node_region, u * NODE_BYTES + 8);
                        for j in start..start + deg {
                            let v = env.read_u64(edge_region, j * EDGE_BYTES);
                            if env.read_u64(level_region, v * 8) == u64::MAX {
                                env.write_u64(level_region, v * 8, lvl + 1);
                                queue.push_back(v);
                            }
                        }
                        env.compute(8 + deg * 4);
                    }
                }
                checksum = fold(checksum, visited_count);
                checksum = fold(checksum, level_sum);
                Ok((visited_count, checksum))
            })??;

        if visited_count != n {
            return Err(WorkloadError::Validation(format!(
                "visited {visited_count} of {n} nodes"
            )));
        }
        Ok(WorkloadOutput {
            ops: visited_count,
            checksum,
            metrics: vec![("visited".into(), visited_count as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    /// Reference builder for `graph_file`: one adjacency `Vec` per
    /// node, pushed in order, then serialized.
    fn adjacency_graph_file(n: u64, e: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(GRAPH_SEED);
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for i in 0..n {
            let next = (i + 1) % n;
            adjacency[i as usize].push(next as u32);
            adjacency[next as usize].push(i as u32);
        }
        let random_edges = e.saturating_sub(2 * n);
        for _ in 0..random_edges {
            let a = rng.below(n);
            let b = rng.below(n);
            adjacency[a as usize].push(b as u32);
        }
        let mut file = Vec::new();
        file.extend_from_slice(&(n as u32).to_le_bytes());
        let total_dirs: u64 = adjacency.iter().map(|a| a.len() as u64).sum();
        file.extend_from_slice(&(total_dirs as u32).to_le_bytes());
        let mut offset = 0u32;
        for adj in &adjacency {
            file.extend_from_slice(&offset.to_le_bytes());
            file.extend_from_slice(&(adj.len() as u32).to_le_bytes());
            offset += adj.len() as u32;
        }
        for adj in &adjacency {
            for &d in adj {
                file.extend_from_slice(&d.to_le_bytes());
            }
        }
        file
    }

    #[test]
    fn csr_graph_file_matches_the_adjacency_builder() {
        let mut sizes = vec![(64, 100), (64, 128), (1000, 1), (1000, 13_000)];
        for divisor in [64, 256] {
            let wl = Bfs::scaled(divisor);
            for setting in [InputSetting::Low, InputSetting::High] {
                sizes.push(wl.graph_size(setting));
            }
        }
        for (n, e) in sizes {
            assert!(
                graph_file(n, e) == adjacency_graph_file(n, e),
                "graph of {n} nodes, {e} edges"
            );
        }
    }

    #[test]
    fn visits_every_node() {
        let wl = Bfs::scaled(256);
        let runner = Runner::new(RunnerConfig::quick_test());
        let r = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let (n, _) = wl.graph_size(InputSetting::Low);
        assert_eq!(r.output.ops, n);
    }

    #[test]
    fn checksums_agree_across_modes() {
        let wl = Bfs::scaled(256);
        let runner = Runner::new(RunnerConfig::quick_test());
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
        let wl = Bfs::new();
        assert_eq!(wl.graph_size(InputSetting::Low), (70_000, 909_000));
        assert_eq!(wl.graph_size(InputSetting::High), (150_000, 1_900_000));
        assert!(wl.spec(InputSetting::Low).protected_bytes < 92 << 20);
        assert!(wl.spec(InputSetting::High).protected_bytes > 92 << 20);
    }

    #[test]
    fn locality_limits_fault_growth() {
        // The paper notes BFS shows little fault growth with input size
        // relative to pointer-chasing workloads (§B.5); sanity-check that
        // the High/Low fault ratio stays moderate.
        let wl = Bfs::scaled(64);
        let runner = Runner::new(RunnerConfig::quick_test());
        let low = runner
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .unwrap();
        let high = runner
            .run_once(&wl, ExecMode::Native, InputSetting::High)
            .unwrap();
        let ratio = high.sgx.epc_faults as f64 / low.sgx.epc_faults.max(1) as f64;
        assert!(ratio < 50.0, "fault ratio {ratio}");
    }
}

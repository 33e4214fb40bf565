//! B-Tree workload (§4.2.3) — database-style index build + lookups.
//!
//! Builds a B-Tree (the mitosis-project workload the paper uses) inside
//! protected memory and performs random `find` operations. Every node
//! access is a simulated memory access, so tree depth and node fan-out
//! translate directly into the paging behaviour the paper studies: at 1 M
//! elements the tree fits the EPC, at 2 M it spills (Table 2).
//!
//! The tree is implemented *inside a region* (manual node layout over
//! simulated memory), the way the original C workload lays out malloc'd
//! nodes.

use crate::util::{fold, scale_down, SplitMix64};
use sgxgauge_core::env::{Placement, Region};
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Keys per node (fan-out - 1). 64 keys keeps nodes at two cache lines
/// of keys plus children: realistic pointer-chasing behaviour.
const ORDER: usize = 64;

/// Payload bytes stored with each key in a leaf (sized so the Table 2
/// element counts land on the paper's side of the EPC boundary: with
/// ~69% node fill this gives ~60 bytes/element, i.e. 1 M -> ~60 MB,
/// 1.5 M -> ~90 MB, 2 M -> ~120 MB around the 92 MB EPC).
const VALUE_BYTES: u64 = 24;

/// Node layout:
/// `[is_leaf u64][count u64][keys: ORDER*8][children: (ORDER+1)*8 | values: ORDER*VALUE_BYTES]`
const NODE_HEADER: u64 = 16;
const KEYS_OFF: u64 = NODE_HEADER;
const PTRS_OFF: u64 = KEYS_OFF + (ORDER as u64) * 8;
const NODE_BYTES: u64 = PTRS_OFF + (ORDER as u64 + 1) * 8 + (ORDER as u64) * VALUE_BYTES;

/// The B-Tree workload. See the module docs.
#[derive(Debug, Clone)]
pub struct BTree {
    divisor: u64,
}

impl BTree {
    /// Paper-scale instance (1 M / 1.5 M / 2 M elements).
    pub fn new() -> Self {
        BTree { divisor: 1 }
    }

    /// Instance with element counts divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        BTree {
            divisor: divisor.max(1),
        }
    }

    /// Elements for `setting` (Table 2).
    pub fn elements(&self, setting: InputSetting) -> u64 {
        let n: u64 = match setting {
            InputSetting::Low => 1_000_000,
            InputSetting::Medium => 1_500_000,
            InputSetting::High => 2_000_000,
        };
        scale_down(n, self.divisor, 512)
    }

    /// Find operations performed after the build.
    pub fn finds(&self, setting: InputSetting) -> u64 {
        self.elements(setting) / 2
    }

    fn arena_bytes(&self, setting: InputSetting) -> u64 {
        // Nodes are ~2/3 full on average after random inserts.
        let n = self.elements(setting);
        let leaves = n * 3 / (2 * ORDER as u64) + 4;
        let internals = leaves / (ORDER as u64 / 2) + 4;
        (leaves + internals + 16) * NODE_BYTES
    }
}

impl Default for BTree {
    fn default() -> Self {
        BTree::new()
    }
}

/// A B-Tree living inside a simulated region; all node I/O goes through
/// the environment so the machine model sees every access.
struct RegionTree<'a> {
    env: &'a mut Env,
    arena: Region,
    next_node: u64,
    root: u64,
}

impl<'a> RegionTree<'a> {
    fn create(env: &'a mut Env, arena: Region) -> Result<Self, WorkloadError> {
        let mut t = RegionTree {
            env,
            arena,
            next_node: 0,
            root: 0,
        };
        let root = t.alloc_node(true)?;
        t.root = root;
        Ok(t)
    }

    fn alloc_node(&mut self, leaf: bool) -> Result<u64, WorkloadError> {
        let off = self.next_node;
        if off + NODE_BYTES > self.env.region_len(self.arena) {
            return Err(WorkloadError::Other("btree arena exhausted".into()));
        }
        self.next_node += NODE_BYTES;
        self.env.write_u64(self.arena, off, leaf as u64);
        self.env.write_u64(self.arena, off + 8, 0);
        Ok(off)
    }

    fn is_leaf(&mut self, node: u64) -> bool {
        self.env.read_u64(self.arena, node) == 1
    }

    fn count(&mut self, node: u64) -> usize {
        self.env.read_u64(self.arena, node + 8) as usize
    }

    fn set_count(&mut self, node: u64, c: usize) {
        self.env.write_u64(self.arena, node + 8, c as u64);
    }

    fn key(&mut self, node: u64, i: usize) -> u64 {
        self.env
            .read_u64(self.arena, node + KEYS_OFF + (i as u64) * 8)
    }

    fn set_key(&mut self, node: u64, i: usize, k: u64) {
        self.env
            .write_u64(self.arena, node + KEYS_OFF + (i as u64) * 8, k);
    }

    fn child(&mut self, node: u64, i: usize) -> u64 {
        self.env
            .read_u64(self.arena, node + PTRS_OFF + (i as u64) * 8)
    }

    fn set_child(&mut self, node: u64, i: usize, c: u64) {
        self.env
            .write_u64(self.arena, node + PTRS_OFF + (i as u64) * 8, c);
    }

    fn value_off(node: u64, i: usize) -> u64 {
        node + PTRS_OFF + (ORDER as u64 + 1) * 8 + (i as u64) * VALUE_BYTES
    }

    fn write_value(&mut self, node: u64, i: usize, key: u64) {
        let off = Self::value_off(node, i);
        self.env
            .write_u64(self.arena, off, key.wrapping_mul(0x9e37_79b9));
        // Touch the rest of the payload.
        self.env.touch(self.arena, off + 8, VALUE_BYTES - 8, true);
    }

    fn read_value(&mut self, node: u64, i: usize) -> u64 {
        let off = Self::value_off(node, i);
        self.env.touch(self.arena, off + 8, VALUE_BYTES - 8, false);
        self.env.read_u64(self.arena, off)
    }

    /// Position of the first key >= `k` via binary search over the node's
    /// key array (each probe is a real simulated access).
    fn lower_bound(&mut self, node: u64, k: u64) -> usize {
        let mut lo = 0usize;
        let mut hi = self.count(node);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(node, mid) < k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn find(&mut self, k: u64) -> Option<u64> {
        let mut node = self.root;
        loop {
            let pos = self.lower_bound(node, k);
            if self.is_leaf(node) {
                if pos < self.count(node) && self.key(node, pos) == k {
                    return Some(self.read_value(node, pos));
                }
                return None;
            }
            let idx = if pos < self.count(node) && self.key(node, pos) == k {
                pos + 1
            } else {
                pos
            };
            node = self.child(node, idx);
        }
    }

    fn insert(&mut self, k: u64) -> Result<(), WorkloadError> {
        let root = self.root;
        if self.count(root) == ORDER {
            let new_root = self.alloc_node(false)?;
            self.set_child(new_root, 0, root);
            self.split_child(new_root, 0)?;
            self.root = new_root;
        }
        self.insert_nonfull(self.root, k)
    }

    fn insert_nonfull(&mut self, node: u64, k: u64) -> Result<(), WorkloadError> {
        let mut node = node;
        loop {
            if self.is_leaf(node) {
                let pos = self.lower_bound(node, k);
                let cnt = self.count(node);
                // Shift keys + values right.
                for i in (pos..cnt).rev() {
                    let key = self.key(node, i);
                    self.set_key(node, i + 1, key);
                    let v = self.read_value(node, i);
                    let off = Self::value_off(node, i + 1);
                    self.env.write_u64(self.arena, off, v);
                }
                self.set_key(node, pos, k);
                self.write_value(node, pos, k);
                self.set_count(node, cnt + 1);
                return Ok(());
            }
            let pos = self.lower_bound(node, k);
            // Router semantics: equal keys live in the right subtree.
            let mut idx = if pos < self.count(node) && self.key(node, pos) == k {
                pos + 1
            } else {
                pos
            };
            let child = self.child(node, idx);
            if self.count(child) == ORDER {
                self.split_child(node, idx)?;
                if k >= self.key(node, idx) {
                    idx += 1;
                }
            }
            node = self.child(node, idx);
        }
    }

    /// Splits the full child at `idx` of `parent`.
    ///
    /// B+-style semantics: internal keys are routers with "left < router
    /// <= right". Leaf splits keep all keys in leaves and copy the first
    /// right key up as the router; internal splits promote the median.
    fn split_child(&mut self, parent: u64, idx: usize) -> Result<(), WorkloadError> {
        let child = self.child(parent, idx);
        let leaf = self.is_leaf(child);
        let right = self.alloc_node(leaf)?;
        let mid = ORDER / 2;
        let (move_from, move_n, median) = if leaf {
            // Keys mid..ORDER move right; router = first right key.
            (mid, ORDER - mid, self.key(child, mid))
        } else {
            // Keys mid+1..ORDER move right; key[mid] is promoted.
            (mid + 1, ORDER - mid - 1, self.key(child, mid))
        };
        for i in 0..move_n {
            let k = self.key(child, move_from + i);
            self.set_key(right, i, k);
            if leaf {
                let v = self.read_value(child, move_from + i);
                let off = Self::value_off(right, i);
                self.env.write_u64(self.arena, off, v);
            }
        }
        if !leaf {
            for i in 0..=move_n {
                let c = self.child(child, move_from + i);
                self.set_child(right, i, c);
            }
        }
        self.set_count(right, move_n);
        self.set_count(child, mid);
        // Shift the parent's keys/children right and hook in.
        let pcnt = self.count(parent);
        for i in (idx..pcnt).rev() {
            let k = self.key(parent, i);
            self.set_key(parent, i + 1, k);
        }
        for i in (idx + 1..=pcnt).rev() {
            let c = self.child(parent, i);
            self.set_child(parent, i + 1, c);
        }
        self.set_key(parent, idx, median);
        self.set_child(parent, idx + 1, right);
        self.set_count(parent, pcnt + 1);
        Ok(())
    }
}

impl Workload for BTree {
    fn name(&self) -> &'static str {
        "BTree"
    }

    fn property(&self) -> &'static str {
        "Data/CPU-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::Native, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        WorkloadSpec::new(
            self.arena_bytes(setting),
            format!("Elements {}", self.elements(setting)),
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
        let n = self.elements(setting);
        let finds = self.finds(setting);
        let arena = env.alloc(self.arena_bytes(setting), Placement::Protected)?;

        let (checksum, hits) =
            env.secure_call(move |env| -> Result<(u64, u64), WorkloadError> {
                let mut tree = RegionTree::create(env, arena)?;
                // Build: keys are a deterministic permutation-ish stream.
                let mut rng = SplitMix64::new(0xb7ee_5eed);
                for _ in 0..n {
                    let k = rng.next_u64() % (n * 4);
                    tree.insert(k | 1)?; // odd keys only
                }
                tree.env.compute(n * 20); // comparison ALU work

                // Probe: half the probes for existing-ish keys, half misses.
                let mut rng = SplitMix64::new(0xf1d5_eed0);
                let mut checksum = 0u64;
                let mut hits = 0u64;
                for i in 0..finds {
                    let k = if i % 2 == 0 {
                        (rng.next_u64() % (n * 4)) | 1
                    } else {
                        (rng.next_u64() % (n * 4)) & !1 // even: guaranteed miss
                    };
                    match tree.find(k) {
                        Some(v) => {
                            hits += 1;
                            checksum = fold(checksum, v);
                        }
                        None => checksum = fold(checksum, 0),
                    }
                }
                tree.env.compute(finds * 20);
                Ok((checksum, hits))
            })??;

        if hits == 0 {
            return Err(WorkloadError::Validation("no find ever hit".into()));
        }
        Ok(WorkloadOutput {
            ops: n + finds,
            checksum,
            metrics: vec![("find_hits".into(), hits as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{EnvConfig, Runner, RunnerConfig};
    use std::collections::BTreeSet;

    #[test]
    fn tree_matches_std_btreeset() {
        let mut env = Env::new(EnvConfig::scaled(ExecMode::Vanilla, 1024)).unwrap();
        let arena = env.alloc(2 << 20, Placement::Untrusted).unwrap();
        let mut tree = RegionTree::create(&mut env, arena).unwrap();
        let mut oracle = BTreeSet::new();
        let mut rng = SplitMix64::new(7);
        for _ in 0..3_000 {
            let k = rng.below(10_000) | 1;
            tree.insert(k).unwrap();
            oracle.insert(k);
        }
        for k in 0..10_000u64 {
            let expect = oracle.contains(&k);
            let got = tree.find(k).is_some();
            assert_eq!(got, expect, "key {k}");
            if expect {
                assert_eq!(tree.find(k).unwrap(), k.wrapping_mul(0x9e37_79b9));
            }
        }
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        let mut env = Env::new(EnvConfig::scaled(ExecMode::Vanilla, 1024)).unwrap();
        let arena = env.alloc(2 << 20, Placement::Untrusted).unwrap();
        let mut tree = RegionTree::create(&mut env, arena).unwrap();
        for k in (1..2_000u64).map(|k| k * 2 + 1) {
            tree.insert(k).unwrap();
        }
        for k in (1..2_000u64).map(|k| k * 2 + 1) {
            assert!(tree.find(k).is_some(), "missing {k}");
        }
        assert!(tree.find(4).is_none());
    }

    #[test]
    fn checksums_agree_across_modes() {
        let wl = BTree::scaled(512);
        let runner = Runner::new(RunnerConfig::scaled(512));
        let mut sums = Vec::new();
        for mode in ExecMode::ALL {
            let r = runner.run_once(&wl, mode, InputSetting::Low).unwrap();
            sums.push(r.output.checksum);
        }
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn element_counts_follow_table2() {
        let wl = BTree::new();
        assert_eq!(wl.elements(InputSetting::Low), 1_000_000);
        assert_eq!(wl.elements(InputSetting::Medium), 1_500_000);
        assert_eq!(wl.elements(InputSetting::High), 2_000_000);
        // Footprints straddle the 92 MB EPC.
        assert!(wl.spec(InputSetting::Low).protected_bytes < 92 << 20);
        assert!(wl.spec(InputSetting::High).protected_bytes > 92 << 20);
    }

    #[test]
    fn high_setting_faults_more() {
        let wl = BTree::scaled(2048);
        let runner = Runner::new(RunnerConfig::scaled(2048));
        let low = runner
            .run_once(&wl, ExecMode::Native, InputSetting::Low)
            .unwrap();
        let high = runner
            .run_once(&wl, ExecMode::Native, InputSetting::High)
            .unwrap();
        assert!(high.sgx.epc_faults >= low.sgx.epc_faults);
    }
}

//! SVM workload (§4.2.10) — support-vector-machine training in the
//! libSVM style.
//!
//! Classifies synthetic data by SMO-style coordinate updates over a
//! linear kernel. The training matrix is modest, but — as in libSVM —
//! the *kernel cache* of Q-matrix rows is the memory hog, and its size
//! is what moves the Table 2 row counts (4 K / 6 K / 10 K) across the
//! EPC boundary. The workload runs many passes over the same data, the
//! iterative pattern the paper calls typical of ML (§4).
//!
//! The numeric kernel runs natively (dense dot products) while the
//! memory traffic is charged to the simulated regions at row
//! granularity, matching how libSVM streams whole rows through the
//! cache.

use crate::util::{fold, scale_down, SplitMix64};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{
    Env, ExecMode, InputSetting, Workload, WorkloadError, WorkloadOutput, WorkloadSpec,
};

/// Features per row (Table 2: 128).
const FEATURES: u64 = 128;

/// Cached kernel rows (libSVM's ~100 MB default cache, in rows).
const CACHE_ROWS: u64 = 1_792;

/// Every Nth training row's memory traffic is charged during the dense
/// Q-row pass (the arithmetic itself runs on every row, natively); this
/// keeps simulation time linear without changing which pages are hot.
const DATA_TOUCH_STRIDE: u64 = 32;

/// The SVM workload. See the module docs.
#[derive(Debug, Clone)]
pub struct Svm {
    divisor: u64,
}

impl Svm {
    /// Paper-scale instance (4 K / 6 K / 10 K rows x 128 features).
    pub fn new() -> Self {
        Svm { divisor: 1 }
    }

    /// Instance with sizes divided by `divisor`.
    pub fn scaled(divisor: u64) -> Self {
        Svm {
            divisor: divisor.max(1),
        }
    }

    /// Training rows for `setting` (Table 2).
    pub fn rows(&self, setting: InputSetting) -> u64 {
        let n: u64 = match setting {
            InputSetting::Low => 4_000,
            InputSetting::Medium => 6_000,
            InputSetting::High => 10_000,
        };
        scale_down(n, self.divisor, 24)
    }

    /// SMO updates: one full epoch over the training rows.
    fn iterations(&self, setting: InputSetting) -> u64 {
        self.rows(setting)
    }

    fn cache_rows(&self, setting: InputSetting) -> u64 {
        scale_down(CACHE_ROWS, self.divisor, 16).min(self.rows(setting))
    }
}

impl Default for Svm {
    fn default() -> Self {
        Svm::new()
    }
}

impl Workload for Svm {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn property(&self) -> &'static str {
        "Data/CPU-intensive"
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        &[ExecMode::Vanilla, ExecMode::LibOs]
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        let rows = self.rows(setting);
        let data = rows * FEATURES * 8;
        let cache = self.cache_rows(setting) * rows * 8;
        WorkloadSpec::new(
            data + cache + rows * 24,
            format!("Rows {} Features {}", rows, FEATURES),
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
        let rows = self.rows(setting);
        let iters = self.iterations(setting);
        let cache_rows = self.cache_rows(setting);
        let row_bytes = FEATURES * 8;

        let data = env.alloc(rows * row_bytes, Placement::Protected)?;
        let vectors = env.alloc(rows * 24, Placement::Protected)?; // labels+alphas+errors
        let qcache = env.alloc(cache_rows * rows * 8, Placement::Protected)?;

        let (support_vectors, checksum) =
            env.secure_call(move |env| -> Result<(u64, u64), WorkloadError> {
                // Synthetic, noisily separable data: label = sign of a fixed
                // alternating hyperplane plus noise. The numeric state lives
                // natively; region traffic is charged per row.
                let mut rng = SplitMix64::new(0x5f4d_0001);
                let mut x = vec![0.0f64; (rows * FEATURES) as usize];
                let mut y = vec![0.0f64; rows as usize];
                let mut alpha = vec![0.0f64; rows as usize];
                let mut err = vec![0.0f64; rows as usize];
                for i in 0..rows as usize {
                    let mut dot = 0.0f64;
                    for f in 0..FEATURES as usize {
                        let v = rng.unit_f64() * 2.0 - 1.0;
                        x[i * FEATURES as usize + f] = v;
                        dot += if f % 2 == 0 { v } else { -v };
                    }
                    env.touch(data, i as u64 * row_bytes, row_bytes, true);
                    y[i] = if dot + (rng.unit_f64() - 0.5) * 0.2 > 0.0 {
                        1.0
                    } else {
                        -1.0
                    };
                    err[i] = -y[i];
                    env.touch(vectors, i as u64 * 24, 24, true);
                    env.compute(FEATURES * 3);
                }

                // One SMO epoch: sweep the training rows in order, pull each
                // row's kernel row through the cache (dense computation on a
                // miss — with ~5.6 rows per cache slot almost every pull
                // misses, exactly libSVM's regime on shuffled data), update
                // its alpha, propagate through the error vector.
                let mut q = vec![0.0f64; (cache_rows * rows) as usize];
                let mut qtag = vec![u64::MAX; cache_rows as usize];
                let c_param = 1.0f64;
                let lr = 0.05f64;
                let mut cache_misses = 0u64;
                for i in 0..iters {
                    let slot = (i % cache_rows) as usize;
                    if qtag[slot] != i {
                        cache_misses += 1;
                        // Dense Q-row computation: stream the training matrix.
                        env.touch(data, i * row_bytes, row_bytes, false);
                        let xi = &x[(i * FEATURES) as usize..((i + 1) * FEATURES) as usize];
                        for j in 0..rows as usize {
                            let xj = &x[j * FEATURES as usize..(j + 1) * FEATURES as usize];
                            let mut dot = 0.0f64;
                            for f in 0..FEATURES as usize {
                                dot += xi[f] * xj[f];
                            }
                            q[slot * rows as usize + j] = dot;
                            if (j as u64).is_multiple_of(DATA_TOUCH_STRIDE) {
                                env.touch(data, j as u64 * row_bytes, row_bytes, false);
                            }
                        }
                        env.compute(rows * FEATURES * 2);
                        env.touch(qcache, slot as u64 * rows * 8, rows * 8, true);
                        qtag[slot] = i;
                    }
                    // Alpha update + error propagation using the cached row.
                    env.touch(qcache, slot as u64 * rows * 8, rows * 8, false);
                    env.touch(vectors, i * 24, 24, false);
                    let old_alpha = alpha[i as usize];
                    let new_alpha =
                        (old_alpha - lr * y[i as usize] * err[i as usize]).clamp(0.0, c_param);
                    alpha[i as usize] = new_alpha;
                    let delta = (new_alpha - old_alpha) * y[i as usize];
                    if delta != 0.0 {
                        for j in 0..rows as usize {
                            err[j] += delta * q[slot * rows as usize + j];
                        }
                        env.touch(vectors, 0, rows * 8, false);
                        env.touch(vectors, rows * 16, rows * 8, true);
                        env.compute(rows * 3);
                    }
                }

                // Count support vectors and fold the model.
                let mut sv = 0u64;
                let mut checksum = 0u64;
                for (i, &a) in alpha.iter().enumerate() {
                    env.touch(vectors, i as u64 * 24, 8, false);
                    if a > 1e-9 {
                        sv += 1;
                        checksum = fold(checksum, (a * 1e9) as u64);
                    }
                }
                checksum = fold(checksum, cache_misses);
                Ok((sv, checksum))
            })??;

        if support_vectors == 0 {
            return Err(WorkloadError::Validation("no support vectors found".into()));
        }
        Ok(WorkloadOutput {
            ops: iters,
            checksum,
            metrics: vec![("support_vectors".into(), support_vectors as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::{Runner, RunnerConfig};

    #[test]
    fn trains_and_finds_support_vectors() {
        let wl = Svm::scaled(64);
        let runner = Runner::new(RunnerConfig::scaled(64));
        let r = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        assert!(r.output.metric("support_vectors").unwrap() > 0.0);
    }

    #[test]
    fn checksums_agree_across_modes() {
        let wl = Svm::scaled(64);
        let runner = Runner::new(RunnerConfig::scaled(64));
        let v = runner
            .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
            .unwrap();
        let l = runner
            .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
            .unwrap();
        assert_eq!(v.output.checksum, l.output.checksum);
    }

    #[test]
    fn row_counts_follow_table2() {
        let wl = Svm::new();
        assert_eq!(wl.rows(InputSetting::Low), 4_000);
        assert_eq!(wl.rows(InputSetting::Medium), 6_000);
        assert_eq!(wl.rows(InputSetting::High), 10_000);
        assert!(wl.spec(InputSetting::Low).protected_bytes < 92 << 20);
        assert!(wl.spec(InputSetting::High).protected_bytes > 92 << 20);
    }

    #[test]
    fn footprint_grows_with_rows() {
        let wl = Svm::new();
        assert!(
            wl.spec(InputSetting::High).protected_bytes
                > wl.spec(InputSetting::Low).protected_bytes
        );
    }
}

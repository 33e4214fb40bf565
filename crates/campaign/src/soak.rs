//! Crash-restart soak: kill a campaign repeatedly, then prove it
//! converged.
//!
//! The harness runs the campaign once on a clean artifact plane (the
//! *golden* tree — same fault plan, no host-I/O chaos), then runs the
//! same campaign under the full storm — stage io-fault plans active and
//! a campaign-wide [`ChaosFs`] whose seeded `crash_rename` kills the
//! process at the N-th artifact rename — `kills` times, resuming
//! from the checkpoint after each death. A final storm
//! pass with no kill runs the campaign to completion, and every
//! compared artifact (`report.csv`, `checkpoint.json`, `trace.jsonl`)
//! must be **byte-identical** to the golden tree. `health.json` is
//! deliberately excluded: it records how a particular run got there
//! (adoption counts, quarantined temps), not where it landed.
//!
//! Kill points are drawn from the campaign seed, early in the rename
//! stream (every resume re-publishes the artifacts of already-complete
//! stages, so even a fully-adopted resume performs enough renames for
//! the next kill to fire).

use crate::config::CampaignConfig;
use crate::runner::{run_campaign, run_into, CampaignError, CampaignReport};
use faults::prng::splitmix64;
use faults::{IoFaultPlan, XorShift64};
use sgxgauge_core::{ArtifactIo, ChaosFs, RealFs};
use std::path::Path;
use std::sync::Arc;

/// Domain separator for the kill-point stream (distinct from every
/// stage salt, which are derived by small additive offsets).
const SOAK_SALT: u64 = 0x50AC_50AC_50AC_50AC;

/// Earliest rename a kill may land on.
const KILL_MIN_RENAME: u64 = 2;

/// Width of the kill-point window.
const KILL_SPAN_RENAMES: u64 = 9;

/// What the soak proved.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Kill/resume cycles that actually fired (must equal the requested
    /// count — a kill that never lands would weaken the proof).
    pub kills_fired: usize,
    /// All compared artifacts are byte-identical to the golden tree.
    pub converged: bool,
    /// Human-readable descriptions of any divergent artifacts.
    pub mismatches: Vec<String>,
    /// Golden run's simulated cycle total (runtime + backoff).
    pub golden_cycles: u64,
    /// Final storm pass's simulated cycle total.
    pub storm_cycles: u64,
    /// The final storm pass's campaign report.
    pub report: CampaignReport,
    /// Temps the stage recoveries quarantined across every storm pass,
    /// killed ones included.
    pub recovered: usize,
}

/// Runs the crash-restart soak under `out` (`<out>/golden` and
/// `<out>/storm` trees) with `kills` seeded kill/resume cycles.
///
/// # Errors
///
/// [`CampaignError`] when the golden run fails, a storm iteration dies
/// of something *other* than its scheduled kill, or the final pass
/// cannot complete.
pub fn run_soak(
    cfg: &CampaignConfig,
    out: &Path,
    kills: usize,
) -> Result<SoakOutcome, CampaignError> {
    let golden_dir = out.join("golden");
    let storm_dir = out.join("storm");
    let golden = run_campaign(cfg, &golden_dir, false, None)?;

    let mut rng = XorShift64::new(splitmix64(cfg.seed ^ SOAK_SALT));
    let mut kills_fired = 0;
    let mut recovered = 0;
    for _ in 0..kills {
        let ordinal = KILL_MIN_RENAME + rng.below(KILL_SPAN_RENAMES);
        let kill = Arc::new(ChaosFs::over_real(IoFaultPlan {
            crash_rename: Some(ordinal),
            ..IoFaultPlan::default()
        }));
        let mut killed = CampaignReport::default();
        match run_into(cfg, &storm_dir, true, Some(Arc::clone(&kill)), &mut killed) {
            Err(e) if !kill.crashed() => return Err(e),
            // The scheduled death; the next iteration resumes.
            _ => {}
        }
        recovered += killed.recovered;
        if kill.crashed() {
            kills_fired += 1;
        }
    }
    let report = run_campaign(cfg, &storm_dir, true, None)?;
    recovered += report.recovered;

    let mut mismatches = Vec::new();
    for stage in &cfg.stages {
        for artifact in ["report.csv", "checkpoint.json", "trace.jsonl"] {
            let golden_path = golden_dir.join(&stage.name).join(artifact);
            let storm_path = storm_dir.join(&stage.name).join(artifact);
            let golden_text = RealFs.read(&golden_path).ok();
            let storm_text = RealFs.read(&storm_path).ok();
            if golden_text.is_none() || golden_text != storm_text {
                mismatches.push(format!(
                    "{}/{artifact}: golden {} bytes, storm {} bytes",
                    stage.name,
                    golden_text.map_or(0, |t| t.len()),
                    storm_text.map_or(0, |t| t.len()),
                ));
            }
        }
    }
    Ok(SoakOutcome {
        kills_fired,
        converged: mismatches.is_empty(),
        mismatches,
        golden_cycles: golden.total_cycles(),
        storm_cycles: report.total_cycles(),
        report,
        recovered,
    })
}

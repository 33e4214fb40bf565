//! Shared plumbing for the figure/table reproduction and the gated
//! benches.
//!
//! The [`paper`] module holds every table, figure and ablation of the
//! SGXGauge paper as one function; the `paper` bench target regenerates
//! them. Each runs the relevant workloads through the
//! [`sgxgauge_core::Runner`], prints the paper-style rows, and writes a
//! CSV under `target/gauge-results/`. Absolute cycle counts are from the
//! simulator, not the authors' Xeon — the claims under reproduction are
//! the *shapes* (who wins, where the EPC cliff falls, how LibOS compares
//! to Native).
//!
//! Scale: set `SGXGAUGE_SCALE=<divisor>` to shrink every input, and the
//! platform with it ([`sgxgauge_core::EnvConfig::scaled`]), by that
//! factor for a smoke run. The default (`1`) is paper scale: the 92 MB
//! EPC platform of Table 3.
//!
//! The gated benches (`hotpath`, `resilience`, `cotenancy`) write
//! their trajectory point and read back the committed one through
//! [`sgxgauge_bench`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod paper;

use sgxgauge_core::io;
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{EnvConfig, Runner, RunnerConfig};
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

/// The input-scale divisor, from `SGXGAUGE_SCALE` (default 1).
pub fn scale() -> u64 {
    std::env::var("SGXGAUGE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&d| d >= 1)
        .unwrap_or(1)
}

/// Directory the CSV artifacts land in: `<target>/gauge-results` of the
/// workspace (bench binaries run with their package as CWD, so the
/// workspace root is resolved relative to this crate's manifest).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("gauge-results");
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("gauge-results")
}

/// A one-repetition runner on `env`: the simulator is deterministic, so
/// repetitions only matter when a bench wants run-to-run structure.
pub(crate) fn runner(env: EnvConfig) -> Runner {
    Runner::new(RunnerConfig {
        env,
        repetitions: 1,
    })
}

/// Prints the bench banner.
pub fn banner(id: &str, paper_claim: &str) {
    println!();
    println!("================================================================");
    println!("SGXGauge reproduction :: {id}");
    println!("Paper claim: {paper_claim}");
    println!("Scale divisor: {} (SGXGAUGE_SCALE)", scale());
    println!("================================================================");
}

/// Prints a table and writes its CSV; the file name is `<id>.csv`.
pub fn emit(id: &str, table: &ReportTable) {
    println!("{table}");
    let path = results_dir().join(format!("{id}.csv"));
    match io::write_atomic_with(&io::RealFs, &path, &table.render()) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

/// Formats a ratio like the paper ("2.0x").
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a count like the paper ("21.5 K").
pub fn fk(v: u64) -> String {
    sgxgauge_core::report::humanize(v)
}

/// The keys each gated bench reads back from its committed
/// `BENCH_<bench>.json` point. [`Baseline::number`] refuses any other
/// key, so this list is the one place a gate's inputs are named.
pub const GATED_KEYS: [(&str, &[&str]); 3] = [
    (
        "hotpath",
        &[
            "speedup_stream_vs_legacy",
            "speedup_env_batched_vs_percall",
            "speedup_env_scan_vs_percall",
        ],
    ),
    ("resilience", &["overhead_fraction"]),
    (
        "cotenancy",
        &["interleave_skew_fraction", "victim_slowdown"],
    ),
];

/// A committed trajectory point, read back as a regression gate's
/// baseline.
#[derive(Debug, Clone)]
pub struct Baseline {
    bench: String,
    path: PathBuf,
    blob: String,
}

impl Baseline {
    /// Reads the baseline of `bench` from `path`, as given or relative to
    /// the workspace root (cargo runs bench binaries with the package as
    /// CWD; CI names the committed file relative to the repo root).
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be read: an armed gate without its
    /// baseline must fail, not pass.
    pub fn load(bench: &str, path: &str) -> Baseline {
        let mut file = PathBuf::from(path);
        if !file.is_absolute() && !file.exists() {
            file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path);
        }
        let blob = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Baseline {
            bench: bench.to_owned(),
            path: file,
            blob,
        }
    }

    /// The number stored under `key`, which must be one of the bench's
    /// [`GATED_KEYS`].
    ///
    /// # Panics
    ///
    /// Panics when `key` is not a gated key of the bench, or when the
    /// baseline has no number under it.
    pub fn number(&self, key: &str) -> f64 {
        assert!(
            GATED_KEYS
                .iter()
                .any(|(b, keys)| *b == self.bench && keys.contains(&key)),
            "`{key}` is not listed in GATED_KEYS for {}",
            self.bench
        );
        json_number(&self.blob, key)
            .unwrap_or_else(|| panic!("no {key} in {}", self.path.display()))
    }
}

/// Pulls `"key": <number>` out of a JSON blob without a parser (the
/// suite vendors no serde; the trajectory format is flat by design).
fn json_number(blob: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = blob.find(&needle)? + needle.len();
    let rest = blob[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Writes the trajectory point of `bench` and returns the committed
/// baseline when the gate is armed.
///
/// The point is the flat JSON object `{"bench": "<bench>", <fields>}`,
/// one key per line in the given order, written to
/// `SGXGAUGE_PERF_OUT` or else `<results>/BENCH_<bench>.json`. When
/// `SGXGAUGE_PERF_BASELINE` names a file, it is loaded as the
/// [`Baseline`] the bench gates against.
pub fn sgxgauge_bench(bench: &str, fields: &[(&str, &dyn Display)]) -> Option<Baseline> {
    let mut json = format!("{{\n  \"bench\": \"{bench}\"");
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    let out = std::env::var("SGXGAUGE_PERF_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| results_dir().join(format!("BENCH_{bench}.json")));
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, &json) {
        Ok(()) => println!("[json] {}", out.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", out.display()),
    }
    let path = std::env::var("SGXGAUGE_PERF_BASELINE").ok()?;
    Some(Baseline::load(bench, &path))
}

/// The fastest of `reps` host-timed calls of `f`, in nanoseconds, with
/// the last call's result.
///
/// # Panics
///
/// Panics when `reps` is zero.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut best = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        best = Some(match best {
            Some((b, _)) if b <= ns => (b, out),
            _ => (ns, out),
        });
    }
    best.expect("at least one repetition")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_point_has_its_gated_keys() {
        for (bench, keys) in GATED_KEYS {
            let base = Baseline::load(bench, &format!("BENCH_{bench}.json"));
            for key in keys {
                assert!(base.number(key).is_finite(), "{bench}: {key}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not listed in GATED_KEYS")]
    fn ungated_keys_are_refused() {
        Baseline::load("cotenancy", "BENCH_cotenancy.json").number("solo_cycles");
    }

    #[test]
    fn scale_defaults_to_one() {
        std::env::remove_var("SGXGAUGE_SCALE");
        assert_eq!(scale(), 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fx(2.0), "2.00x");
        assert_eq!(fk(21_500), "21.5 K");
    }
}

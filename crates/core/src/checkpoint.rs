//! Checkpoint/resume for sweep execution.
//!
//! Long sweeps die for boring reasons — a killed CI job, a full disk, a
//! rebooted host — and re-running every completed cell wastes exactly
//! the cycles the harness exists to measure. [`SuiteRunner::run_with_checkpoint`]
//! persists every completed cell to a JSON file (atomically: temp file +
//! rename) and, on resume, re-loads the completed cells and executes
//! only the remainder, producing a [`SweepReport`] whose
//! [`fingerprint`](SweepReport::fingerprint) is identical to an
//! uninterrupted run.
//!
//! The file embeds a *grid fingerprint* — a digest of the workload
//! names, the enumerated grid, the fault plan, the retry budget and the
//! cell budget — so a checkpoint can never be resumed against a sweep
//! it does not describe. The format is a dependency-free JSON dialect
//! (unsigned 64-bit decimals; `f64` metrics as IEEE-754 bits) that only
//! [`GridCheckpoint`] writes and reads, for the sweep and for campaign
//! stages alike. Its reader follows the document in the writer's order
//! and builds each verified [`SweepCell`] as it goes.
//!
//! Every write is a verified, sealed publish through [`crate::io`]
//! (temp sibling read back before the rename, CRC32 footer; a stray temp
//! is quarantined by [`io::recover`] on entry).
//! A checksum mismatch on load is [`ArtifactError::Corrupt`] (the bad
//! file is kept at `<path>.corrupt`); an unsealed file is
//! [`ArtifactError::Format`] and is not trusted.

use crate::io::{self, ArtifactError, ArtifactIo, RealFs};
use crate::runner::RunReport;
use crate::sweep::{
    AttemptFailure, CellError, CellErrorKind, CellKey, SuiteRunner, SweepCell, SweepError,
    SweepReport,
};
use crate::workload::{Workload, WorkloadOutput};
use faults::Fnv;
use mem_sim::Counters;
use sgx_sim::{CounterField, DriverStats, SgxCounters};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use trace::json::escape;

/// Checkpoint file format version; bumped on incompatible layout change.
///
/// Version 2: cells are keyed by the typed [`CellKey`] display form
/// (`"key":"workload/mode/setting/rep"`) instead of four numeric
/// discriminants, and the counter arrays include `mee_cycles`.
///
/// Version 3: keys could carry a co-tenancy dimension
/// (`"workload/mode/setting/rep/tNaM"`).
///
/// Version 4: keys could also carry a distributed-protocol dimension
/// (`…/pNqT`). Both dimensions are gone; the version stays 4 so that
/// checkpoint bytes are unchanged, and a key that still carries either
/// fails to parse.
///
/// [`GridCheckpoint::load`] accepts only this version: checkpoints are
/// resume state of this build, not an exchange format.
pub const CHECKPOINT_VERSION: u64 = 4;

/// Pinned input to the grid fingerprint. Deliberately *not*
/// [`CHECKPOINT_VERSION`]: the fingerprint guards the sweep's *shape*,
/// not the file layout, so a format bump alone does not change it.
/// Bump this only when old fingerprints must be invalidated.
const FINGERPRINT_EPOCH: u64 = 2;

impl SuiteRunner {
    /// Runs the grid like [`SuiteRunner::run`], persisting every
    /// completed cell to `path`. When `resume` is true and `path` holds
    /// a checkpoint of the *same* sweep (grid fingerprint match), its
    /// completed cells are adopted instead of re-run.
    ///
    /// # Errors
    ///
    /// A typed [`SweepError`] when the checkpoint cannot be read,
    /// verified, or written, or when the quarantine tolerance is
    /// exceeded.
    pub fn run_with_checkpoint(
        &self,
        workloads: &[&dyn Workload],
        path: &Path,
        resume: bool,
    ) -> Result<SweepReport, SweepError> {
        self.run_with_checkpoint_io(workloads, path, resume, &RealFs)
    }

    /// [`SuiteRunner::run_with_checkpoint`] through an injectable
    /// [`ArtifactIo`] backend — the entry point the chaos matrix drives
    /// with a fault-injecting filesystem.
    ///
    /// On entry a temp sibling that a crash left un-renamed is
    /// quarantined ([`io::recover`]). Resume then loads the
    /// (integrity-checked) file, rejects grid mismatches, and executes
    /// only the remaining cells; the sweep re-publishes the sealed
    /// checkpoint as cells complete (see [`SuiteRunner::sweep`]).
    ///
    /// # Errors
    ///
    /// A typed [`SweepError`].
    pub fn run_with_checkpoint_io(
        &self,
        workloads: &[&dyn Workload],
        path: &Path,
        resume: bool,
        io: &dyn ArtifactIo,
    ) -> Result<SweepReport, SweepError> {
        io::recover(io, path)?;
        let adopted = if resume && io.exists(path) {
            Some(self.checkpoint(workloads).load(io, path)?)
        } else {
            None
        };
        let file = CheckpointFile { io, path, adopted };
        let report = self.sweep(workloads, &mut self.tolerance(), Some(file))?;
        self.enforce_quarantine(&report)?;
        Ok(report)
    }

    /// The checkpoint format of this sweep over `workloads`. Campaign
    /// stages persist and resume their checkpoint files through it.
    pub fn checkpoint(&self, workloads: &[&dyn Workload]) -> GridCheckpoint {
        let grid = self.grid(workloads);
        let names: Vec<&'static str> = workloads.iter().map(|w| w.name()).collect();
        // Everything that determines the sweep's shape and policy:
        // adopting a cell is only sound when all of it matches.
        let mut h = Fnv::default();
        h.u64(FINGERPRINT_EPOCH);
        h.u64(names.len() as u64);
        for name in &names {
            h.str(name);
        }
        for c in &grid {
            h.str(&c.to_string());
        }
        let plan = self.runner().fault_plan();
        h.u64(plan.map_or(0, faults::FaultPlan::digest));
        h.u64(self.retry_budget() as u64);
        h.u64(self.runner().cell_budget_cycles().unwrap_or(0));
        GridCheckpoint {
            grid,
            names,
            grid_fp: h.finish(),
        }
    }
}

/// The checkpoint file of one [`SuiteRunner::sweep`]: where it is
/// published, and the cells the sweep adopts from it.
pub struct CheckpointFile<'a> {
    /// The backend every publish goes through.
    pub io: &'a dyn ArtifactIo,
    /// The checkpoint's path.
    pub path: &'a Path,
    /// The cells `path` holds, as (grid index, cell) pairs from
    /// [`GridCheckpoint::load`]; `None` when the file is not adopted, so
    /// the sweep publishes a fresh one before its first cell runs.
    pub adopted: Option<Vec<(usize, SweepCell)>>,
}

/// The checkpoint format of one sweep grid, from
/// [`SuiteRunner::checkpoint`]: the grid, its workload names and the
/// grid fingerprint every file of it carries.
#[derive(Debug, Clone)]
pub struct GridCheckpoint {
    grid: Vec<CellKey>,
    names: Vec<&'static str>,
    grid_fp: u64,
}

impl GridCheckpoint {
    /// Reads, integrity-checks and verifies the checkpoint at `path`,
    /// returning its cells as (grid index, cell) pairs in file order.
    ///
    /// The integrity footer is verified first: a mismatch is
    /// [`ArtifactError::Corrupt`] and the bad file is preserved at
    /// `<path>.corrupt`; a file without a footer is
    /// [`ArtifactError::Format`], and its body is not read. A file of a
    /// different sweep is [`ArtifactError::Mismatch`].
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`]: `Format` for a body that is not
    /// exactly what this module writes (version, syntax, key order,
    /// unknown counter) or whose cells do not agree with the grid.
    pub fn load(
        &self,
        io: &dyn ArtifactIo,
        path: &Path,
    ) -> Result<Vec<(usize, SweepCell)>, ArtifactError> {
        let text = io.read(path)?;
        let body = match io::unseal(path, &text) {
            Ok((_crc, body)) => body,
            Err(e @ ArtifactError::Corrupt { .. }) => {
                // Keep the evidence: a checksum mismatch moves the file
                // aside instead of letting a resume half-trust it.
                io.rename(path, &io::corrupt_sibling(path)).ok();
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let format = |message| ArtifactError::Format {
            path: path.to_path_buf(),
            message,
        };
        let mut r = Reader { text: body, pos: 0 };
        let grid_fp = r.header().map_err(format)?;
        if grid_fp != self.grid_fp {
            return Err(ArtifactError::Mismatch {
                path: path.to_path_buf(),
                message: format!(
                    "checkpoint describes a different sweep \
                     (grid fingerprint {grid_fp:#018x}, expected {:#018x})",
                    self.grid_fp
                ),
            });
        }
        let mut cells = Vec::new();
        r.items(|r| {
            cells.push(self.cell(r)?);
            Ok(())
        })
        .and_then(|()| r.end())
        .map_err(format)?;
        Ok(cells)
    }

    /// Renders the unsealed checkpoint document for `cells`, given as
    /// (grid index, cell) pairs. Cells are sorted by grid index, so the
    /// file is stable regardless of completion order.
    pub(crate) fn render<'c>(
        &self,
        cells: impl IntoIterator<Item = (usize, &'c SweepCell)>,
    ) -> String {
        let sorted: BTreeMap<usize, String> = cells
            .into_iter()
            .map(|(index, cell)| (index, cell_json(index, cell)))
            .collect();
        render_document(self.grid_fp, sorted.values().map(String::as_str))
    }

    /// Reads one cell, in the order [`cell_json`] writes it, checking
    /// it against the grid as it goes.
    fn cell(&self, r: &mut Reader<'_>) -> Result<(usize, SweepCell), String> {
        let index = usize::try_from(r.number("{\"index\":")?).unwrap_or(usize::MAX);
        let key = *self
            .grid
            .get(index)
            .ok_or_else(|| format!("checkpoint cell index {index} outside the grid"))?;
        let name = self.names[key.workload];
        let stored = r.string(",\"workload\":")?;
        if stored != name {
            return Err(format!(
                "checkpoint cell {index}: stored workload `{stored}` is `{name}` in this sweep"
            ));
        }
        let stored: CellKey = r
            .string(",\"key\":")?
            .parse()
            .map_err(|e| format!("checkpoint cell {index}: {e}"))?;
        if stored != key {
            return Err(format!(
                "checkpoint cell {index} ({stored}) does not match the enumerated grid ({key})"
            ));
        }
        let attempts = r.number(",\"attempts\":")? as usize;
        let backoff_cycles = r.number(",\"backoff\":")?;
        let kind = |r: &mut Reader<'_>, lit: &str| {
            r.string(lit)?
                .parse::<CellErrorKind>()
                .map_err(|e| format!("checkpoint cell {index}: {e}"))
        };
        let mut trail = Vec::new();
        if r.eat(",\"trail\":[") {
            r.items(|r| {
                trail.push(AttemptFailure {
                    attempt: r.number("{\"attempt\":")? as usize,
                    kind: kind(r, ",\"kind\":")?,
                    message: r.string(",\"message\":")?,
                });
                r.lit("}")
            })?;
        }
        let result = if r.eat(",\"ok\":") {
            Ok(self.report(r, key, index)?)
        } else {
            let error = CellError {
                kind: kind(r, ",\"err\":{\"kind\":")?,
                message: r.string(",\"message\":")?,
            };
            r.lit("}")?;
            Err(error)
        };
        r.lit("}")?;
        Ok((
            index,
            SweepCell {
                cell: key,
                workload: name,
                result,
                attempts,
                backoff_cycles,
                trail,
            },
        ))
    }

    /// Reads a cell's `ok` object back into the fingerprinted subset of
    /// its [`RunReport`].
    fn report(&self, r: &mut Reader<'_>, key: CellKey, index: usize) -> Result<RunReport, String> {
        let unknown = |name: &str| {
            format!(
                "checkpoint cell {index}: unknown counter `{name}` (file from a different build?)"
            )
        };
        let runtime_cycles = r.number("{\"runtime\":")?;
        let clock_hz = r.number(",\"clock\":")?;
        let mut counters = Counters::new();
        r.pairs(",\"counters\":[", |name, v| {
            counters
                .set_field(&name, v)
                .then_some(())
                .ok_or_else(|| unknown(&name))
        })?;
        // SGX counters restore through the typed field enum: unknown
        // names fail the load instead of silently writing nowhere.
        let mut sgx = SgxCounters::default();
        r.pairs(",\"sgx\":[", |name, v| {
            sgx.set(CounterField::parse(&name).ok_or_else(|| unknown(&name))?, v);
            Ok(())
        })?;
        let ops = r.number(",\"ops\":")?;
        let checksum = r.number(",\"checksum\":")?;
        let mut metrics = Vec::new();
        r.pairs(",\"metrics\":[", |name, bits| {
            metrics.push((name, f64::from_bits(bits)));
            Ok(())
        })?;
        r.lit("}")?;
        Ok(RunReport {
            workload: self.names[key.workload],
            mode: key.mode,
            setting: key.setting,
            runtime_cycles,
            counters,
            sgx,
            // None of these enter the fingerprint; a resumed report
            // only guarantees the fingerprinted subset. Traces in
            // particular are never persisted — re-trace to get one.
            driver: DriverStats::new(),
            libos_startup: None,
            trace: None,
            clock_hz,
            output: WorkloadOutput {
                ops,
                checksum,
                metrics,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn render_document<'a>(grid_fp: u64, cells: impl Iterator<Item = &'a str>) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":");
    out.push_str(&CHECKPOINT_VERSION.to_string());
    out.push_str(",\"grid_fp\":");
    out.push_str(&grid_fp.to_string());
    out.push_str(",\"cells\":[");
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(cell);
    }
    out.push_str("]}\n");
    out
}

fn cell_json(index: usize, cell: &SweepCell) -> String {
    let mut out = format!(
        "{{\"index\":{index},\"workload\":\"{}\",\"key\":\"{}\",\"attempts\":{},\"backoff\":{}",
        escape(cell.workload),
        escape(&cell.cell.to_string()),
        cell.attempts,
        cell.backoff_cycles
    );
    // The attempt trail is emitted only when non-empty, so cells that
    // succeeded first time keep their compact form.
    if !cell.trail.is_empty() {
        out.push_str(",\"trail\":[");
        for (i, a) in cell.trail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"attempt\":{},\"kind\":\"{}\",\"message\":\"{}\"}}",
                a.attempt,
                escape(&a.kind.to_string()),
                escape(&a.message)
            );
        }
        out.push(']');
    }
    match &cell.result {
        Ok(r) => {
            let _ = write!(
                out,
                ",\"ok\":{{\"runtime\":{},\"clock\":{},\"counters\":",
                r.runtime_cycles, r.clock_hz
            );
            named_u64s(&mut out, r.counters.fields());
            out.push_str(",\"sgx\":");
            named_u64s(&mut out, r.sgx.fields());
            let _ = write!(
                out,
                ",\"ops\":{},\"checksum\":{},\"metrics\":[",
                r.output.ops, r.output.checksum
            );
            for (i, (name, v)) in r.output.metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[\"{}\",{}]", escape(name), v.to_bits());
            }
            out.push_str("]}");
        }
        Err(e) => {
            let _ = write!(
                out,
                ",\"err\":{{\"kind\":\"{}\",\"message\":\"{}\"}}",
                escape(&e.kind.to_string()),
                escape(&e.message)
            );
        }
    }
    out.push('}');
    out
}

fn named_u64s(out: &mut String, pairs: impl IntoIterator<Item = (&'static str, u64)>) {
    out.push('[');
    for (i, (name, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[\"{}\",{v}]", escape(name));
    }
    out.push(']');
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A cursor over a checkpoint body that accepts exactly the writer's
/// output: every key in its place, no whitespace.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    /// Reads `{"version":V,"grid_fp":F,"cells":[`, rejecting any
    /// version but [`CHECKPOINT_VERSION`], and returns the fingerprint.
    fn header(&mut self) -> Result<u64, String> {
        let version = self.number("{\"version\":")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            ));
        }
        let grid_fp = self.number(",\"grid_fp\":")?;
        self.lit(",\"cells\":[")?;
        Ok(grid_fp)
    }

    /// Reads the `}` and final newline that close the document.
    fn end(&mut self) -> Result<(), String> {
        self.lit("}\n")?;
        (self.pos == self.text.len())
            .then_some(())
            .ok_or_else(|| format!("trailing data at byte {}", self.pos))
    }

    /// Consumes `lit` if the text continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self.text[self.pos..].starts_with(lit);
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn lit(&mut self, lit: &str) -> Result<(), String> {
        self.eat(lit)
            .then_some(())
            .ok_or_else(|| format!("expected `{lit}` at byte {}", self.pos))
    }

    /// `lit` followed by an unsigned decimal.
    fn number(&mut self, lit: &str) -> Result<u64, String> {
        self.lit(lit)?;
        let rest = &self.text[self.pos..];
        let len = rest.bytes().take_while(u8::is_ascii_digit).count();
        let v = rest[..len]
            .parse()
            .map_err(|e| format!("bad number at byte {}: {e}", self.pos))?;
        self.pos += len;
        Ok(v)
    }

    /// `lit` followed by a JSON string, unescaped.
    fn string(&mut self, lit: &str) -> Result<String, String> {
        self.lit(lit)?;
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next `"` or `\`. Both are
            // ASCII, so the run ends on a char boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_owned())?;
            out.push_str(&rest[..run]);
            self.pos += run;
            let rest = &rest[run..];
            if rest.starts_with('"') {
                self.pos += 1;
                return Ok(out);
            }
            let (c, len) = match rest.as_bytes().get(1) {
                Some(&b @ (b'"' | b'\\' | b'/')) => (char::from(b), 2),
                Some(b'n') => ('\n', 2),
                Some(b'r') => ('\r', 2),
                Some(b't') => ('\t', 2),
                Some(b'u') => {
                    let code = rest
                        .get(2..6)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    let c = char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point {code:#x}"))?;
                    (c, 6)
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            out.push(c);
            self.pos += len;
        }
    }

    /// `lit` (ending in `[`) followed by a list of `["name",value]`
    /// pairs, each handed to `each`.
    fn pairs(
        &mut self,
        lit: &str,
        mut each: impl FnMut(String, u64) -> Result<(), String>,
    ) -> Result<(), String> {
        self.lit(lit)?;
        self.items(|r| {
            let name = r.string("[")?;
            let v = r.number(",")?;
            r.lit("]")?;
            each(name, v)
        })
    }

    /// Reads the comma-separated elements of a list whose `[` is already
    /// consumed, through its closing `]`.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat("]") {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat("]") {
                return Ok(());
            }
            self.lit(",")?;
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::modes::{ExecMode, InputSetting};
    use crate::runner::RunnerConfig;
    use crate::workload::{WorkloadError, WorkloadSpec};
    use std::path::PathBuf;

    /// A test workload whose `execute` is `run`.
    struct Probe {
        name: &'static str,
        modes: &'static [ExecMode],
        run: fn(&mut Env, InputSetting) -> Result<WorkloadOutput, WorkloadError>,
    }

    impl Workload for Probe {
        fn name(&self) -> &'static str {
            self.name
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            self.modes
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(1 << 16, "probe")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            (self.run)(env, setting)
        }
    }

    const TICK: Probe = Probe {
        name: "Tick",
        modes: &[ExecMode::Vanilla, ExecMode::Native],
        run: |env, setting| {
            env.compute(match setting {
                InputSetting::Low => 1_000,
                InputSetting::Medium => 2_000,
                InputSetting::High => 3_000,
            });
            Ok(WorkloadOutput {
                ops: 3,
                checksum: 11,
                metrics: vec![("phase".into(), 0.25)],
            })
        },
    };

    /// Fails every cell with a 256 KiB message of multi-byte text.
    const LOUD: Probe = Probe {
        name: "Loud",
        modes: &[ExecMode::Vanilla],
        run: |_, _| Err(WorkloadError::Validation(loud_message())),
    };

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgxgauge-ckpt-{}-{name}.json", std::process::id()));
        p
    }

    fn suite() -> SuiteRunner {
        SuiteRunner::new(RunnerConfig::scaled(1024))
            .settings(&[InputSetting::Low, InputSetting::Medium])
            .threads(2)
    }

    #[test]
    fn checkpointed_sweep_matches_plain_run() {
        let path = scratch("plain");
        let plain = suite().run(&[&TICK]);
        let ck = suite()
            .run_with_checkpoint(&[&TICK], &path, false)
            .expect("checkpointed run succeeds");
        assert_eq!(plain.fingerprint(), ck.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    fn load(
        workload: &dyn Workload,
        path: &Path,
    ) -> Result<Vec<(usize, SweepCell)>, ArtifactError> {
        suite().checkpoint(&[workload]).load(&RealFs, path)
    }

    #[test]
    fn stored_cells_round_trip_through_the_parser() {
        let path = scratch("roundtrip");
        let report = suite()
            .run_with_checkpoint(&[&TICK], &path, false)
            .expect("run succeeds");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(text.starts_with(&format!("{{\"version\":{CHECKPOINT_VERSION},")));
        let stored = load(&TICK, &path).expect("loads");
        assert_eq!(stored.len(), report.cells.len());
        // The loaded cells are the sweep's cells, in grid order.
        assert!(stored.iter().enumerate().all(|(i, (index, _))| i == *index));
        let cells = stored.into_iter().map(|(_, cell)| cell).collect();
        assert_eq!(SweepReport { cells }.fingerprint(), report.fingerprint());
        // Adopt everything back and compare fingerprints.
        let resumed = suite()
            .run_with_checkpoint(&[&TICK], &path, true)
            .expect("resume succeeds");
        assert_eq!(report.fingerprint(), resumed.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_resumes_to_identical_report() {
        let path = scratch("truncated");
        let full = suite()
            .run_with_checkpoint(&[&TICK], &path, false)
            .expect("run succeeds");
        // Simulate a sweep killed halfway: keep only the first cell.
        let text = std::fs::read_to_string(&path).expect("readable");
        let start = text.find("[{").expect("has cells") + 1;
        let end = text[start..]
            .find("},{")
            .map_or(text.rfind("}]").expect("has end"), |e| start + e + 1);
        let partial = format!("{}]}}\n", &text[..end]);
        std::fs::write(&path, io::seal(&partial)).expect("writable");
        let resumed = suite()
            .run_with_checkpoint(&[&TICK], &path, true)
            .expect("resume succeeds");
        assert_eq!(full.fingerprint(), resumed.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let path = scratch("mismatch");
        suite()
            .run_with_checkpoint(&[&TICK], &path, false)
            .expect("run succeeds");
        // Same file, different sweep shape: one fewer setting.
        let other = SuiteRunner::new(RunnerConfig::scaled(1024))
            .settings(&[InputSetting::Low])
            .threads(2);
        let err = other
            .run_with_checkpoint(&[&TICK], &path, true)
            .expect_err("must refuse to resume");
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// Seals `body` into `path` and requires the load to be a format
    /// error.
    fn assert_format_error(path: &Path, body: &str) {
        std::fs::write(path, io::seal(body)).expect("writable");
        match load(&TICK, path) {
            Err(ArtifactError::Format { .. }) => {}
            other => panic!(
                "body {body:?} gave {:?}, not a format error",
                other.map(|cells| cells.len())
            ),
        }
    }

    /// A real checkpoint body, sealed at `path`.
    fn tick_body(path: &Path) -> String {
        suite()
            .run_with_checkpoint(&[&TICK], path, false)
            .expect("run succeeds");
        let text = std::fs::read_to_string(path).expect("readable");
        io::unseal(path, &text).expect("sealed").1.to_owned()
    }

    /// Every cut of a real checkpoint — the shape a torn write or a
    /// hand-truncated file takes — and the same body with two keys of
    /// one cell swapped, and every cut of that, is a format error, never
    /// a panic or a partial adoption. `seal` restores a missing final
    /// newline, so the cuts run over the body without it.
    #[test]
    fn cut_or_reordered_bodies_are_format_errors() {
        let path = scratch("prefixes");
        let body = tick_body(&path);
        assert!(load(&TICK, &path).is_ok());
        let swapped = body.replacen(
            "{\"index\":0,\"workload\":\"Tick\",",
            "{\"workload\":\"Tick\",\"index\":0,",
            1,
        );
        assert_ne!(
            swapped, body,
            "the first cell starts as the writer writes it"
        );
        assert_format_error(&path, &swapped);
        for doc in [&body, &swapped] {
            let doc = doc.trim_end_matches('\n');
            for end in 0..doc.len() {
                assert_format_error(&path, &doc[..end]);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_counter_names_are_rejected() {
        let path = scratch("unknown-counter");
        let body = tick_body(&path);
        for list in ["\"counters\":[[\"", "\"sgx\":[[\""] {
            let renamed = body.replacen(list, &format!("{list}bogus_"), 1);
            assert_ne!(renamed, body);
            assert_format_error(&path, &renamed);
            let err = load(&TICK, &path).expect_err("rejected");
            assert!(err.to_string().contains("unknown counter"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    fn loud_message() -> String {
        let unit = "ünïcødé 中文 🦀 \\ \"quoted\" \u{1}\t\n ";
        unit.repeat((256 * 1024usize).div_ceil(unit.len()))
    }

    /// A long multi-byte error message, with control characters written
    /// as `\uXXXX` escapes, survives the store/load round trip, and
    /// reading it is linear in its length.
    #[test]
    fn long_multibyte_error_messages_round_trip() {
        let path = scratch("loud");
        let big = loud_message();
        assert!(big.len() >= 256 * 1024);
        let full = suite()
            .run_with_checkpoint(&[&LOUD], &path, false)
            .expect("run succeeds");
        assert!(std::fs::read_to_string(&path)
            .expect("readable")
            .contains("\\u0001"));
        let stored = load(&LOUD, &path).expect("loads");
        assert_eq!(stored.len(), 2);
        for (_, cell) in &stored {
            match &cell.result {
                Err(e) => assert!(e.message.contains(&big)),
                Ok(_) => panic!("Loud cells fail"),
            }
        }
        let resumed = suite()
            .run_with_checkpoint(&[&LOUD], &path, true)
            .expect("resume succeeds");
        assert_eq!(full.fingerprint(), resumed.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    /// Every version but the current one is rejected with a
    /// descriptive message, not mis-parsed.
    #[test]
    fn out_of_window_versions_are_rejected() {
        let path = scratch("v1-reject");
        for bad in [1, 2, 3, CHECKPOINT_VERSION + 1] {
            std::fs::write(
                &path,
                io::seal(&format!(
                    "{{\"version\":{bad},\"grid_fp\":0,\"cells\":[]}}\n"
                )),
            )
            .expect("writable");
            let err = load(&TICK, &path).expect_err("must reject");
            assert!(err.to_string().contains("unsupported"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_files_are_reported_not_panicked() {
        let path = scratch("malformed");
        std::fs::write(&path, io::seal("{\"version\":1,")).expect("writable");
        let err = suite()
            .run_with_checkpoint(&[&TICK], &path, true)
            .expect_err("must reject");
        assert!(!err.to_string().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}

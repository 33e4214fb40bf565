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
//! (all numbers are unsigned 64-bit decimals; `f64` metrics are stored
//! as their IEEE-754 bit patterns) written and parsed entirely by this
//! module.
//!
//! Since the crash-safe artifact plane landed, every checkpoint write is
//! a *journaled, sealed publish* through [`crate::io`]: the file carries
//! a CRC32 integrity footer, each rewrite records intent → commit in the
//! sibling recovery journal, and resume first runs [`io::recover`] to
//! repair or quarantine state a crash left behind. A checksum mismatch
//! on load is a typed [`ArtifactError::Corrupt`] (the bad file is kept
//! at `<path>.corrupt`); files *without* a footer still load, so
//! pre-integrity checkpoints of the current version remain resumable.

use crate::io::{self, ArtifactError, ArtifactIo, Journal, RealFs};
use crate::runner::RunReport;
use crate::sweep::{
    AttemptFailure, CellError, CellErrorKind, CellKey, Fnv, SuiteRunner, SweepCell, SweepError,
    SweepReport,
};
use crate::workload::{Workload, WorkloadOutput};
use mem_sim::Counters;
use sgx_sim::{CounterField, DriverStats, SgxCounters};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::json::escape;

/// Bounded retry budget for checkpoint publishes: transient (EIO) and
/// torn write failures are redone this many times before the sweep
/// latches the error.
const PUBLISH_ATTEMPTS: usize = 4;

/// Checkpoint file format version; bumped on incompatible layout change.
///
/// Version 2: cells are keyed by the typed [`CellKey`] display form
/// (`"key":"workload/mode/setting/rep"`) instead of four numeric
/// discriminants, and the counter arrays include `mee_cycles`.
///
/// Version 3: keys may carry the optional co-tenancy dimension
/// (`"workload/mode/setting/rep/tNaM"`).
///
/// Version 4: keys could also carry a distributed-protocol dimension
/// (`…/pNqT`). That dimension is gone; the version stays 4 so that
/// checkpoint bytes are unchanged, and a key that still carries it
/// fails to parse.
///
/// [`load_checkpoint`] accepts only this version: checkpoints are
/// resume state of this build, not an exchange format.
pub const CHECKPOINT_VERSION: u64 = 4;

/// Pinned input to [`grid_fingerprint`]. Deliberately *not*
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
    /// On entry the checkpoint's recovery journal is replayed
    /// ([`io::recover`]): an interrupted publish whose temp sibling
    /// verifies is completed, torn state is quarantined. Resume then
    /// loads the (integrity-checked) file, rejects grid mismatches, and
    /// executes only the remaining cells; every completed cell is
    /// re-published as a sealed, journaled checkpoint.
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
        let grid = self.grid(workloads);
        let grid_fp = grid_fingerprint(self, workloads);
        let mut prefilled = Vec::new();
        let mut retained = BTreeMap::new();
        if resume && io.exists(path) {
            let stored = load_checkpoint_io(io, path)?;
            if stored.grid_fp != grid_fp {
                return Err(SweepError::Artifact(ArtifactError::Mismatch {
                    path: path.to_path_buf(),
                    message: format!(
                        "checkpoint describes a different sweep \
                         (grid fingerprint {:#018x}, expected {:#018x})",
                        stored.grid_fp, grid_fp
                    ),
                }));
            }
            for cell in stored.cells {
                let index = cell.index;
                let adopted = adopt_cell(cell, &grid, workloads).map_err(|message| {
                    SweepError::Artifact(ArtifactError::Format {
                        path: path.to_path_buf(),
                        message,
                    })
                })?;
                retained.insert(index, cell_json(index, &adopted));
                prefilled.push((index, adopted));
            }
        }
        let sink = CheckpointSink {
            path: path.to_path_buf(),
            io,
            state: SinkState {
                grid_fp,
                cells: retained,
                error: None,
            }
            .into(),
        };
        // Write the header (plus any adopted cells) up front so even a
        // sweep killed before its first completed cell leaves a valid,
        // resumable file behind.
        sink.flush()?;
        let report = self.execute_resumable(workloads, prefilled, Some(&sink));
        sink.take_error()?;
        // Clean end of run: the journal has no pending intent, retire it
        // so the next startup's recovery scan is a no-op.
        Journal::for_artifact(path).retire(io)?;
        self.enforce_quarantine(&report)?;
        Ok(report)
    }
}

/// Digest of everything that determines the sweep's shape and policy:
/// adopting a cell from a checkpoint is only sound when all of it
/// matches. Public so campaign-level orchestrators can stamp their own
/// per-stage checkpoint files with the same guard.
pub fn grid_fingerprint(suite: &SuiteRunner, workloads: &[&dyn Workload]) -> u64 {
    let mut h = Fnv::new();
    h.u64(FINGERPRINT_EPOCH);
    h.u64(workloads.len() as u64);
    for w in workloads {
        h.str(w.name());
    }
    for c in suite.grid(workloads) {
        h.str(&c.to_string());
    }
    h.u64(
        suite
            .runner()
            .fault_plan()
            .map_or(0, faults::FaultPlan::digest),
    );
    h.u64(suite.retry_budget() as u64);
    h.u64(suite.runner().cell_budget_cycles().unwrap_or(0));
    h.finish()
}

/// Accumulates completed cells and rewrites the checkpoint file after
/// each one — every rewrite a sealed, journaled, retry-bounded publish.
/// Shared across sweep workers behind its internal mutex.
pub(crate) struct CheckpointSink<'a> {
    path: PathBuf,
    io: &'a dyn ArtifactIo,
    #[expect(
        clippy::disallowed_types,
        reason = "every sweep worker records its finished cell into one file"
    )]
    state: std::sync::Mutex<SinkState>,
}

struct SinkState {
    grid_fp: u64,
    /// Grid index → serialized cell JSON, kept sorted for stable files.
    cells: BTreeMap<usize, String>,
    /// First unrecoverable write failure, surfaced when the sweep
    /// finishes (workers cannot propagate it mid-flight).
    error: Option<ArtifactError>,
}

impl CheckpointSink<'_> {
    /// Records a completed cell and rewrites the file. Skipped cells
    /// are never offered here, so a resume re-runs them.
    pub(crate) fn record(&self, index: usize, cell: &SweepCell) {
        let mut state = self.state.lock().expect("sink lock is never poisoned");
        state.cells.insert(index, cell_json(index, cell));
        if let Err(e) = self.publish(&state) {
            state.error.get_or_insert(e);
        }
    }

    /// One sealed, journaled publish with the bounded transient-retry
    /// budget: torn writes and transient EIO are redone, everything
    /// else (ENOSPC, crash, corruption) surfaces immediately.
    fn publish(&self, state: &SinkState) -> Result<(), ArtifactError> {
        io::publish_sealed(self.io, &self.path, &render(state), PUBLISH_ATTEMPTS)
    }

    fn flush(&self) -> Result<(), ArtifactError> {
        let state = self.state.lock().expect("sink lock is never poisoned");
        self.publish(&state)
    }

    fn take_error(&self) -> Result<(), ArtifactError> {
        match self
            .state
            .lock()
            .expect("sink lock is never poisoned")
            .error
            .take()
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

fn render(state: &SinkState) -> String {
    render_document(state.grid_fp, state.cells.values().map(String::as_str))
}

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

/// Renders a checkpoint document (the unsealed body, current format) for an
/// arbitrary set of completed cells — the building block campaign
/// orchestrators use to persist per-stage progress in the exact format
/// [`load_checkpoint_io`] reads back. Cells are sorted by grid index so
/// the rendered file is stable regardless of completion order.
pub fn render_checkpoint(grid_fp: u64, cells: &[(usize, &SweepCell)]) -> String {
    let sorted: BTreeMap<usize, String> = cells
        .iter()
        .map(|&(index, cell)| (index, cell_json(index, cell)))
        .collect();
    render_document(grid_fp, sorted.values().map(String::as_str))
}

/// Turns a parsed [`StoredCell`] back into a live [`SweepCell`],
/// verifying it against the enumerated grid and the live workload set —
/// the public face of the resume path's adoption step, for orchestrators
/// that manage their own checkpoint files.
///
/// # Errors
///
/// A human-readable message when the stored cell does not belong to
/// this grid (index out of range, workload renamed, key mismatch) or
/// cannot be re-hydrated.
pub fn adopt_stored_cell(
    stored: StoredCell,
    grid: &[crate::sweep::CellKey],
    workloads: &[&dyn Workload],
) -> Result<SweepCell, String> {
    adopt_cell(stored, grid, workloads)
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

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
// Parsing
// ---------------------------------------------------------------------

/// A parsed checkpoint file.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Format version (always [`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Digest of the sweep the file belongs to.
    pub grid_fp: u64,
    /// Completed cells, in stored (grid-index) order.
    pub cells: Vec<StoredCell>,
}

/// One completed cell as stored on disk.
#[derive(Debug, Clone)]
pub struct StoredCell {
    /// Position in the enumerated grid.
    pub index: usize,
    /// Workload name at store time (verified against the live suite).
    pub workload: String,
    /// The typed grid key, parsed from its stored display form.
    pub key: CellKey,
    /// Attempts the cell took.
    pub attempts: usize,
    /// Accounted retry backoff.
    pub backoff_cycles: u64,
    /// The non-final attempt failures (absent from the file when empty).
    pub trail: Vec<AttemptFailure>,
    /// The stored outcome.
    pub result: StoredResult,
}

/// Stored cell outcome.
#[derive(Debug, Clone)]
pub enum StoredResult {
    /// A successful run (the fingerprinted subset of [`RunReport`]).
    Ok {
        /// Measured runtime in cycles.
        runtime_cycles: u64,
        /// Machine clock in Hz.
        clock_hz: u64,
        /// Hardware counter (name, value) pairs.
        counters: Vec<(String, u64)>,
        /// SGX counter (name, value) pairs.
        sgx: Vec<(String, u64)>,
        /// Application-level operations.
        ops: u64,
        /// Validation checksum.
        checksum: u64,
        /// Metrics as (name, IEEE-754 bits).
        metrics: Vec<(String, u64)>,
    },
    /// A failed cell.
    Err {
        /// The structured failure kind, as displayed.
        kind: String,
        /// The failure message.
        message: String,
    },
}

/// Reads, integrity-checks and parses a checkpoint file on the real
/// filesystem. See [`load_checkpoint_io`].
///
/// # Errors
///
/// A typed [`ArtifactError`] describing the I/O, integrity, syntax, or
/// schema problem.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, ArtifactError> {
    load_checkpoint_io(&RealFs, path)
}

/// [`load_checkpoint`] through an injectable backend.
///
/// The integrity footer (when present) is verified first: a mismatch is
/// [`ArtifactError::Corrupt`] — *not* a JSON parse error — and the bad
/// file is preserved at `<path>.corrupt` for inspection. Files without
/// a footer (written before the integrity format) still load.
///
/// # Errors
///
/// A typed [`ArtifactError`].
pub fn load_checkpoint_io(io: &dyn ArtifactIo, path: &Path) -> Result<Checkpoint, ArtifactError> {
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
    parse_checkpoint_body(body).map_err(|message| ArtifactError::Format {
        path: path.to_path_buf(),
        message,
    })
}

fn parse_checkpoint_body(body: &str) -> Result<Checkpoint, String> {
    let root = parse_json(body)?;
    let obj = root.as_obj("checkpoint")?;
    let version = get(obj, "version")?.as_u64("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
        ));
    }
    let grid_fp = get(obj, "grid_fp")?.as_u64("grid_fp")?;
    let mut cells = Vec::new();
    for v in get(obj, "cells")?.as_arr("cells")? {
        cells.push(parse_cell(v)?);
    }
    Ok(Checkpoint {
        version,
        grid_fp,
        cells,
    })
}

fn parse_cell(v: &Json) -> Result<StoredCell, String> {
    let obj = v.as_obj("cell")?;
    let result = if let Ok(ok) = get(obj, "ok") {
        let ok = ok.as_obj("ok")?;
        StoredResult::Ok {
            runtime_cycles: get(ok, "runtime")?.as_u64("runtime")?,
            clock_hz: get(ok, "clock")?.as_u64("clock")?,
            counters: named_pairs(get(ok, "counters")?, "counters")?,
            sgx: named_pairs(get(ok, "sgx")?, "sgx")?,
            ops: get(ok, "ops")?.as_u64("ops")?,
            checksum: get(ok, "checksum")?.as_u64("checksum")?,
            metrics: named_pairs(get(ok, "metrics")?, "metrics")?,
        }
    } else {
        let err = get(obj, "err")?.as_obj("err")?;
        StoredResult::Err {
            kind: get(err, "kind")?.as_str("kind")?.to_owned(),
            message: get(err, "message")?.as_str("message")?.to_owned(),
        }
    };
    let index = get(obj, "index")?.as_u64("index")? as usize;
    let key = get(obj, "key")?
        .as_str("key")?
        .parse::<CellKey>()
        .map_err(|e| format!("checkpoint cell {index}: {e}"))?;
    let mut trail = Vec::new();
    if let Ok(stored) = get(obj, "trail") {
        for t in stored.as_arr("trail")? {
            let t = t.as_obj("trail")?;
            trail.push(AttemptFailure {
                attempt: get(t, "attempt")?.as_u64("attempt")? as usize,
                kind: get(t, "kind")?
                    .as_str("kind")?
                    .parse()
                    .map_err(|e| format!("checkpoint cell {index} trail: {e}"))?,
                message: get(t, "message")?.as_str("message")?.to_owned(),
            });
        }
    }
    Ok(StoredCell {
        index,
        workload: get(obj, "workload")?.as_str("workload")?.to_owned(),
        key,
        attempts: get(obj, "attempts")?.as_u64("attempts")? as usize,
        backoff_cycles: get(obj, "backoff")?.as_u64("backoff")?,
        trail,
        result,
    })
}

fn named_pairs(v: &Json, what: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for entry in v.as_arr(what)? {
        let pair = entry.as_arr(what)?;
        if pair.len() != 2 {
            return Err(format!("{what}: expected [name, value] pairs"));
        }
        out.push((pair[0].as_str(what)?.to_owned(), pair[1].as_u64(what)?));
    }
    Ok(out)
}

/// Turns a stored cell back into a live [`SweepCell`], verifying it
/// against the enumerated grid and the live workload set.
fn adopt_cell(
    stored: StoredCell,
    grid: &[crate::sweep::CellKey],
    workloads: &[&dyn Workload],
) -> Result<SweepCell, String> {
    let index = stored.index;
    let grid_cell = *grid
        .get(index)
        .ok_or_else(|| format!("checkpoint cell index {index} outside the grid"))?;
    let w = workloads
        .get(stored.key.workload)
        .ok_or_else(|| format!("checkpoint cell {index}: workload index out of range"))?;
    if w.name() != stored.workload {
        return Err(format!(
            "checkpoint cell {index}: stored workload `{}` is `{}` in this sweep",
            stored.workload,
            w.name()
        ));
    }
    if grid_cell != stored.key {
        return Err(format!(
            "checkpoint cell {index} ({}) does not match the enumerated grid ({grid_cell})",
            stored.key
        ));
    }
    let (mode, setting) = (grid_cell.mode, grid_cell.setting);
    let result = match stored.result {
        StoredResult::Ok {
            runtime_cycles,
            clock_hz,
            counters,
            sgx,
            ops,
            checksum,
            metrics,
        } => {
            let mut c = Counters::new();
            restore_fields(&mut c, Counters::set_field, &counters, index)?;
            let mut s = SgxCounters::default();
            // SGX counters restore through the typed field enum: unknown
            // names fail the parse instead of silently writing nowhere.
            restore_fields(
                &mut s,
                |s, name, v| {
                    CounterField::parse(name).is_some_and(|f| {
                        s.set(f, v);
                        true
                    })
                },
                &sgx,
                index,
            )?;
            Ok(RunReport {
                workload: w.name(),
                mode,
                setting,
                runtime_cycles,
                counters: c,
                sgx: s,
                // None of these enter the fingerprint; a resumed report
                // only guarantees the fingerprinted subset. Traces in
                // particular are never persisted — re-trace to get one.
                driver: DriverStats::new(),
                libos_startup: None,
                timeline: Vec::new(),
                phases: Vec::new(),
                trace: None,
                clock_hz,
                output: WorkloadOutput {
                    ops,
                    checksum,
                    metrics: metrics
                        .into_iter()
                        .map(|(name, bits)| (name, f64::from_bits(bits)))
                        .collect(),
                },
            })
        }
        StoredResult::Err { kind, message } => {
            let kind: CellErrorKind = kind
                .parse()
                .map_err(|e| format!("checkpoint cell {index}: {e}"))?;
            Err(CellError { kind, message })
        }
    };
    Ok(SweepCell {
        cell: grid_cell,
        workload: w.name(),
        result,
        attempts: stored.attempts,
        backoff_cycles: stored.backoff_cycles,
        trail: stored.trail,
    })
}

fn restore_fields<T>(
    target: &mut T,
    set: impl Fn(&mut T, &str, u64) -> bool,
    pairs: &[(String, u64)],
    index: usize,
) -> Result<(), String> {
    for (name, v) in pairs {
        if !set(target, name, *v) {
            return Err(format!(
                "checkpoint cell {index}: unknown counter `{name}` \
                 (file from a different build?)"
            ));
        }
    }
    Ok(())
}

// Minimal JSON value model — exactly what the writer above emits.

#[derive(Debug, Clone)]
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(v) => Ok(v),
            _ => Err(format!("{what}: expected an object")),
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key `{key}`"))
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of checkpoint".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}`, found `{}` at byte {}",
                        char::from(other),
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]`, found `{}` at byte {}",
                        char::from(other),
                        self.pos
                    ))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF8 number".to_owned())?;
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_owned());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", char::from(other))),
                    }
                }
                _ => {
                    // Copy the plain run up to the next `"` or `\\`. Both
                    // are ASCII, so the run ends on a char boundary.
                    let run = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| "non-UTF8 string".to_owned())?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
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

    struct Tick;

    impl Workload for Tick {
        fn name(&self) -> &'static str {
            "Tick"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla, ExecMode::Native]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(1 << 16, "tick")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            env: &mut Env,
            setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
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
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgxgauge-ckpt-{}-{name}.json", std::process::id()));
        p
    }

    fn suite() -> SuiteRunner {
        SuiteRunner::new(RunnerConfig::quick_test())
            .settings(&[InputSetting::Low, InputSetting::Medium])
            .threads(2)
    }

    #[test]
    fn checkpointed_sweep_matches_plain_run() {
        let path = scratch("plain");
        let plain = suite().run(&[&Tick]);
        let ck = suite()
            .run_with_checkpoint(&[&Tick], &path, false)
            .expect("checkpointed run succeeds");
        assert_eq!(plain.fingerprint(), ck.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stored_cells_round_trip_through_the_parser() {
        let path = scratch("roundtrip");
        let report = suite()
            .run_with_checkpoint(&[&Tick], &path, false)
            .expect("run succeeds");
        let stored = load_checkpoint(&path).expect("parses");
        assert_eq!(stored.version, CHECKPOINT_VERSION);
        assert_eq!(stored.cells.len(), report.cells.len());
        // Adopt everything back and compare fingerprints.
        let resumed = suite()
            .run_with_checkpoint(&[&Tick], &path, true)
            .expect("resume succeeds");
        assert_eq!(report.fingerprint(), resumed.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_resumes_to_identical_report() {
        let path = scratch("truncated");
        let full = suite()
            .run_with_checkpoint(&[&Tick], &path, false)
            .expect("run succeeds");
        // Simulate a sweep killed halfway: keep only the first cell.
        let stored = load_checkpoint(&path).expect("parses");
        let mut partial = format!(
            "{{\"version\":{},\"grid_fp\":{},\"cells\":[",
            stored.version, stored.grid_fp
        );
        let text = std::fs::read_to_string(&path).expect("readable");
        // Cheap re-serialization: slice the first cell out of the file.
        let start = text.find("[{").expect("has cells") + 1;
        let end = text[start..]
            .find("},{")
            .map_or(text.rfind("}]").expect("has end"), |e| start + e + 1);
        partial.push_str(&text[start..end]);
        partial.push_str("]}\n");
        std::fs::write(&path, partial).expect("writable");
        let resumed = suite()
            .run_with_checkpoint(&[&Tick], &path, true)
            .expect("resume succeeds");
        assert_eq!(full.fingerprint(), resumed.fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let path = scratch("mismatch");
        suite()
            .run_with_checkpoint(&[&Tick], &path, false)
            .expect("run succeeds");
        // Same file, different sweep shape: one fewer setting.
        let other = SuiteRunner::new(RunnerConfig::quick_test())
            .settings(&[InputSetting::Low])
            .threads(2);
        let err = other
            .run_with_checkpoint(&[&Tick], &path, true)
            .expect_err("must refuse to resume");
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// Fails every cell with a 256 KiB message of multi-byte text.
    struct Loud;

    fn loud_message() -> String {
        let unit = "ünïcødé 中文 🦀 \\ \"quoted\" ";
        unit.repeat((256 * 1024usize).div_ceil(unit.len()))
    }

    impl Workload for Loud {
        fn name(&self) -> &'static str {
            "Loud"
        }

        fn property(&self) -> &'static str {
            "test"
        }

        fn supported_modes(&self) -> &'static [ExecMode] {
            &[ExecMode::Vanilla]
        }

        fn spec(&self, _setting: InputSetting) -> WorkloadSpec {
            WorkloadSpec::new(1 << 16, "loud")
        }

        fn setup(&self, _env: &mut Env, _setting: InputSetting) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn execute(
            &self,
            _env: &mut Env,
            _setting: InputSetting,
        ) -> Result<WorkloadOutput, WorkloadError> {
            Err(WorkloadError::Validation(loud_message()))
        }
    }

    /// A long multi-byte error message survives the store/load round
    /// trip, and parsing it is linear in its length.
    #[test]
    fn long_multibyte_error_messages_round_trip() {
        let path = scratch("loud");
        let big = loud_message();
        assert!(big.len() >= 256 * 1024);
        let full = suite()
            .run_with_checkpoint(&[&Loud], &path, false)
            .expect("run succeeds");
        let stored = load_checkpoint(&path).expect("parses");
        assert_eq!(stored.cells.len(), 2);
        for cell in &stored.cells {
            match &cell.result {
                StoredResult::Err { message, .. } => assert!(message.contains(&big)),
                StoredResult::Ok { .. } => panic!("Loud cells fail"),
            }
        }
        let resumed = suite()
            .run_with_checkpoint(&[&Loud], &path, true)
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
                format!("{{\"version\":{bad},\"grid_fp\":0,\"cells\":[]}}\n"),
            )
            .expect("writable");
            let err = load_checkpoint(&path).expect_err("must reject");
            assert!(err.to_string().contains("unsupported"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_files_are_reported_not_panicked() {
        let path = scratch("malformed");
        std::fs::write(&path, "{\"version\":1,").expect("writable");
        let err = suite()
            .run_with_checkpoint(&[&Tick], &path, true)
            .expect_err("must reject");
        assert!(!err.to_string().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}

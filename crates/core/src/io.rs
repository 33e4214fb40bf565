//! The crash-safe artifact plane: injectable host I/O, verified atomic
//! publishes, and integrity footers.
//!
//! Everything the harness publishes — report CSVs, checkpoint JSON,
//! trace JSONL — now flows through the [`ArtifactIo`] trait instead of
//! calling `std::fs` directly. Two backends exist:
//!
//! * [`RealFs`] — the only `std::fs` user in this crate. Writes are
//!   durable (file fsync before the publishing rename, parent-directory
//!   fsync after), so a host crash cannot publish a truncated artifact.
//! * [`ChaosFs`] — a deterministic fault-injecting wrapper compiled from
//!   a seeded [`faults::IoFaultPlan`]. It injects ENOSPC, transient EIO,
//!   silent torn writes, and a crash-at-rename after which the "process"
//!   is dead and every operation fails. The same plan and seed produce
//!   the same fault stream on every run, which is what makes the chaos
//!   matrix in `tests/io_chaos.rs` reproducible.
//!
//! On top of the trait sit two integrity guards: [`write_atomic_with`]
//! publishes through a temp sibling it reads back and verifies before
//! the rename, and [`seal`]/[`unseal`] add and check a hand-rolled
//! [`crc32`] footer (`#sgxgauge-integrity v1 crc32=…`). A crash between
//! the temp write and the rename leaves the previous artifact in place;
//! [`recover`] moves the stray temp aside for inspection, and the
//! resumed run recomputes what the lost publish held.
//!
//! Failures are typed ([`ArtifactError`] / [`IoErrorKind`]) rather than
//! stringly `Result<_, String>`, so callers can distinguish a retryable
//! transient fault from corruption or a dead filesystem.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use faults::{IoFaultPlan, XorShift64};

/// The class of a host-I/O failure, used to decide retry vs. abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// The device is full (ENOSPC); retrying cannot help.
    NoSpace,
    /// A transient fault (EIO, interrupted syscall); retrying may help.
    Transient,
    /// Only a prefix of the data landed; the write must be redone.
    Torn,
    /// The harness crashed at a rename; the backend is permanently dead.
    CrashRename,
    /// The path does not exist.
    NotFound,
    /// Any other host error.
    Other,
}

impl std::fmt::Display for IoErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoErrorKind::NoSpace => "no-space",
            IoErrorKind::Transient => "transient",
            IoErrorKind::Torn => "torn",
            IoErrorKind::CrashRename => "crash-rename",
            IoErrorKind::NotFound => "not-found",
            IoErrorKind::Other => "other",
        })
    }
}

/// A typed artifact-plane failure, replacing the stringly
/// `Result<_, String>` the emit and checkpoint paths used to return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// A host-I/O operation failed.
    Io {
        /// The operation that failed (`read`, `write`, `rename`, …).
        op: &'static str,
        /// The path the operation targeted.
        path: PathBuf,
        /// The failure class (drives retry policy).
        kind: IoErrorKind,
        /// The backend's human-readable detail.
        message: String,
    },
    /// An integrity footer did not match the artifact body.
    Corrupt {
        /// The artifact whose checksum failed.
        path: PathBuf,
        /// The CRC32 recorded in the footer.
        expected: u32,
        /// The CRC32 computed over the body actually on disk.
        found: u32,
    },
    /// The artifact text is structurally malformed (bad footer, bad
    /// JSON, unknown version).
    Format {
        /// The artifact that failed to parse.
        path: PathBuf,
        /// What was wrong with it.
        message: String,
    },
    /// The artifact is well-formed but belongs to a different run
    /// (e.g. a checkpoint whose grid fingerprint does not match).
    Mismatch {
        /// The artifact that was rejected.
        path: PathBuf,
        /// Why it does not belong to this run.
        message: String,
    },
}

impl ArtifactError {
    /// Shorthand constructor for [`ArtifactError::Io`].
    pub fn io(
        op: &'static str,
        path: &Path,
        kind: IoErrorKind,
        message: impl Into<String>,
    ) -> Self {
        ArtifactError::Io {
            op,
            path: path.to_path_buf(),
            kind,
            message: message.into(),
        }
    }

    /// Whether retrying the failed operation could plausibly succeed
    /// (transient EIO and torn writes are retryable; ENOSPC, crashes,
    /// corruption and format errors are not).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ArtifactError::Io {
                kind: IoErrorKind::Transient | IoErrorKind::Torn,
                ..
            }
        )
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io {
                op,
                path,
                kind,
                message,
            } => write!(f, "{op} {} failed ({kind}): {message}", path.display()),
            ArtifactError::Corrupt {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} is corrupt: integrity footer records crc32={expected:08x} \
                 but the body hashes to {found:08x}",
                path.display()
            ),
            ArtifactError::Format { path, message } => {
                write!(f, "{} is malformed: {message}", path.display())
            }
            ArtifactError::Mismatch { path, message } => {
                write!(f, "{} rejected: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// The host-I/O surface every artifact write goes through.
///
/// Keeping this a trait is what makes the artifact plane injectable:
/// production code holds a `&dyn ArtifactIo`, tests and the chaos
/// matrix swap in [`ChaosFs`] without touching any call site.
pub trait ArtifactIo: Send + Sync {
    /// Reads the whole file as UTF-8 text.
    fn read(&self, path: &Path) -> Result<String, ArtifactError>;
    /// Writes the whole file durably (contents on stable storage before
    /// return).
    fn write(&self, path: &Path, contents: &str) -> Result<(), ArtifactError>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), ArtifactError>;
    /// Flushes directory metadata (the published name) to stable
    /// storage. Best-effort on platforms without directory fsync.
    fn sync_dir(&self, dir: &Path) -> Result<(), ArtifactError>;
    /// Removes the file if it exists (absence is not an error).
    fn remove(&self, path: &Path) -> Result<(), ArtifactError>;
    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Creates the directory and all missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), ArtifactError>;
}

fn kind_of(e: &std::io::Error) -> IoErrorKind {
    match e.kind() {
        std::io::ErrorKind::NotFound => IoErrorKind::NotFound,
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock => IoErrorKind::Transient,
        _ => {
            // `StorageFull` is still unstable in some toolchains; match
            // the raw errno where available.
            if e.raw_os_error() == Some(28) {
                IoErrorKind::NoSpace
            } else {
                IoErrorKind::Other
            }
        }
    }
}

/// The real filesystem backend — the single place in the workspace's
/// simulator and harness code allowed to call `std::fs` (enforced by the
/// `disallowed-methods`/`disallowed-types` bans in `clippy.toml`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
impl ArtifactIo for RealFs {
    fn read(&self, path: &Path) -> Result<String, ArtifactError> {
        std::fs::read_to_string(path)
            .map_err(|e| ArtifactError::io("read", path, kind_of(&e), e.to_string()))
    }

    fn write(&self, path: &Path, contents: &str) -> Result<(), ArtifactError> {
        let mut f = std::fs::File::create(path)
            .map_err(|e| ArtifactError::io("create", path, kind_of(&e), e.to_string()))?;
        f.write_all(contents.as_bytes())
            .map_err(|e| ArtifactError::io("write", path, kind_of(&e), e.to_string()))?;
        f.sync_all()
            .map_err(|e| ArtifactError::io("fsync", path, kind_of(&e), e.to_string()))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), ArtifactError> {
        std::fs::rename(from, to)
            .map_err(|e| ArtifactError::io("rename", to, kind_of(&e), e.to_string()))
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), ArtifactError> {
        #[cfg(unix)]
        {
            if let Ok(d) = std::fs::File::open(dir) {
                d.sync_all()
                    .map_err(|e| ArtifactError::io("fsync-dir", dir, kind_of(&e), e.to_string()))?;
            }
        }
        let _ = dir;
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(ArtifactError::io(
                "remove",
                path,
                kind_of(&e),
                e.to_string(),
            )),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), ArtifactError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArtifactError::io("mkdir", dir, kind_of(&e), e.to_string()))
    }
}

struct ChaosState {
    rng: XorShift64,
    renames_seen: u64,
    crashed: bool,
}

/// A deterministic fault-injecting [`ArtifactIo`] wrapper.
///
/// Faults are drawn per operation from the seeded xorshift stream of the
/// compiled [`IoFaultPlan`]:
///
/// * `enospc` — the write fails cleanly with [`IoErrorKind::NoSpace`];
///   nothing lands.
/// * `eio` — the write fails cleanly with [`IoErrorKind::Transient`];
///   nothing lands.
/// * `torn` — the write *silently succeeds* but only a prefix lands,
///   modeling power loss mid-write. The publish paths catch this with a
///   read-back verify before the rename, so a torn temp file is never
///   published.
/// * `crash_rename=n` — the n-th rename does not happen and the backend
///   is permanently dead afterwards (every operation fails with
///   [`IoErrorKind::CrashRename`]), modeling a harness crash at the
///   most dangerous instant. Recovery runs against a fresh backend.
pub struct ChaosFs {
    inner: Arc<dyn ArtifactIo>,
    plan: IoFaultPlan,
    #[expect(
        clippy::disallowed_types,
        reason = "ArtifactIo is shared across sweep workers; the fault draws are host-side"
    )]
    state: std::sync::Mutex<ChaosState>,
}

impl ChaosFs {
    /// Wraps `inner` with the faults described by `plan`. `inner` is
    /// shared, so one crash countdown can sit under several layers.
    pub fn new(inner: Arc<dyn ArtifactIo>, plan: IoFaultPlan) -> ChaosFs {
        let rng = XorShift64::new(plan.seed);
        ChaosFs {
            inner,
            plan,
            state: ChaosState {
                rng,
                renames_seen: 0,
                crashed: false,
            }
            .into(),
        }
    }

    /// Convenience: chaos over the real filesystem.
    pub fn over_real(plan: IoFaultPlan) -> ChaosFs {
        ChaosFs::new(Arc::new(RealFs), plan)
    }

    /// Whether the simulated crash-at-rename has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn dead(op: &'static str, path: &Path) -> ArtifactError {
        ArtifactError::io(
            op,
            path,
            IoErrorKind::CrashRename,
            "harness is down (simulated crash at rename)",
        )
    }

    /// Draws the fate of one write. Returns what lands: all of
    /// `contents` for a clean write, a prefix cut on a UTF-8 boundary
    /// (so the backend stays text) for a torn one, `Err` for an
    /// injected failure.
    fn draw_write<'c>(&self, path: &Path, contents: &'c str) -> Result<&'c str, ArtifactError> {
        let mut st = self.lock();
        if st.crashed {
            return Err(Self::dead("write", path));
        }
        if st.rng.chance(self.plan.enospc_permille) {
            return Err(ArtifactError::io(
                "write",
                path,
                IoErrorKind::NoSpace,
                "injected ENOSPC: no space left on device",
            ));
        }
        if st.rng.chance(self.plan.eio_permille) {
            return Err(ArtifactError::io(
                "write",
                path,
                IoErrorKind::Transient,
                "injected transient EIO",
            ));
        }
        let len = contents.len();
        if st.rng.chance(self.plan.torn_permille) && len > 1 {
            let mut cut = 1 + st.rng.below(len as u64 - 1) as usize;
            while !contents.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(&contents[..cut]);
        }
        Ok(contents)
    }

    fn guard(&self, op: &'static str, path: &Path) -> Result<(), ArtifactError> {
        if self.lock().crashed {
            return Err(Self::dead(op, path));
        }
        Ok(())
    }
}

impl ArtifactIo for ChaosFs {
    fn read(&self, path: &Path) -> Result<String, ArtifactError> {
        self.guard("read", path)?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, contents: &str) -> Result<(), ArtifactError> {
        let lands = self.draw_write(path, contents)?;
        self.inner.write(path, lands)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), ArtifactError> {
        let crash = {
            let mut st = self.lock();
            if st.crashed {
                return Err(Self::dead("rename", to));
            }
            st.renames_seen += 1;
            if Some(st.renames_seen) == self.plan.crash_rename {
                st.crashed = true;
                true
            } else {
                false
            }
        };
        if crash {
            // The rename is NOT performed: the temp sibling stays behind,
            // exactly as after a real crash between write and rename.
            return Err(ArtifactError::io(
                "rename",
                to,
                IoErrorKind::CrashRename,
                format!(
                    "injected crash at rename #{}",
                    self.plan.crash_rename.unwrap_or(0)
                ),
            ));
        }
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), ArtifactError> {
        self.guard("fsync-dir", dir)?;
        self.inner.sync_dir(dir)
    }

    fn remove(&self, path: &Path) -> Result<(), ArtifactError> {
        self.guard("remove", path)?;
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        if self.lock().crashed {
            return false;
        }
        self.inner.exists(path)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), ArtifactError> {
        self.guard("mkdir", dir)?;
        self.inner.create_dir_all(dir)
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) of `data`.
///
/// The check value for `b"123456789"` is `0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The integrity footer line prefix. The full footer is
/// `#sgxgauge-integrity v1 crc32=<8 hex digits>\n`, appended as the last
/// line of sealed artifacts.
pub const INTEGRITY_PREFIX: &str = "#sgxgauge-integrity v1 crc32=";

/// Appends the integrity footer to `body`. A trailing newline is added
/// first if missing (and included in the checksum), so sealing is
/// reversible by [`unseal`].
pub fn seal(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + INTEGRITY_PREFIX.len() + 10);
    out.push_str(body);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let crc = crc32(out.as_bytes());
    out.push_str(&format!("{INTEGRITY_PREFIX}{crc:08x}\n"));
    out
}

/// Splits a sealed artifact into its footer CRC and verified body.
///
/// # Errors
///
/// [`ArtifactError::Corrupt`] when the footer's CRC does not match the
/// body, [`ArtifactError::Format`] when the footer is missing, not on a
/// line of its own, or malformed.
pub fn unseal<'a>(path: &Path, text: &'a str) -> Result<(u32, &'a str), ArtifactError> {
    let pos = text
        .rfind(INTEGRITY_PREFIX)
        .filter(|&pos| pos == 0 || text[..pos].ends_with('\n'))
        .ok_or_else(|| ArtifactError::Format {
            path: path.to_path_buf(),
            message: "no integrity footer line".to_string(),
        })?;
    let footer = &text[pos + INTEGRITY_PREFIX.len()..];
    let hex = footer.trim_end_matches('\n');
    if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ArtifactError::Format {
            path: path.to_path_buf(),
            message: format!("malformed integrity footer `{}`", hex.escape_default()),
        });
    }
    let expected = u32::from_str_radix(hex, 16).map_err(|_| ArtifactError::Format {
        path: path.to_path_buf(),
        message: "malformed integrity footer".to_string(),
    })?;
    let body = &text[..pos];
    let found = crc32(body.as_bytes());
    if found != expected {
        return Err(ArtifactError::Corrupt {
            path: path.to_path_buf(),
            expected,
            found,
        });
    }
    Ok((expected, body))
}

/// Returns the temp sibling used by the atomic publish paths
/// (`<path>.tmp`).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    suffixed(path, ".tmp")
}

/// Returns the sibling a checksum-failed artifact is preserved at
/// (`<path>.corrupt`) for post-mortem inspection.
pub fn corrupt_sibling(path: &Path) -> PathBuf {
    suffixed(path, ".corrupt")
}

fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

fn nonempty_parent(path: &Path) -> Option<&Path> {
    path.parent().filter(|p| !p.as_os_str().is_empty())
}

/// Whole-file atomic durable write through an [`ArtifactIo`]: parents
/// created, contents written to a temp sibling, read back and verified
/// (so a silently torn write is caught *before* the rename can publish
/// it), then renamed into place and the directory synced.
///
/// # Errors
///
/// Typed [`ArtifactError`]; a [`IoErrorKind::Torn`] read-back failure is
/// transient and safe to retry.
pub fn write_atomic_with(
    io: &dyn ArtifactIo,
    path: &Path,
    contents: &str,
) -> Result<(), ArtifactError> {
    if let Some(parent) = nonempty_parent(path) {
        io.create_dir_all(parent)?;
    }
    let tmp = tmp_sibling(path);
    io.write(&tmp, contents)?;
    let back = io.read(&tmp)?;
    if back != contents {
        io.remove(&tmp).ok();
        return Err(ArtifactError::io(
            "verify",
            &tmp,
            IoErrorKind::Torn,
            format!(
                "read-back mismatch after write ({} of {} bytes landed)",
                back.len(),
                contents.len()
            ),
        ));
    }
    io.rename(&tmp, path)?;
    if let Some(parent) = nonempty_parent(path) {
        io.sync_dir(parent)?;
    }
    Ok(())
}

/// Publish attempts per artifact: torn writes and transient EIO are
/// redone up to this many times before the error surfaces.
pub const PUBLISH_ATTEMPTS: usize = 4;

/// Runs `op` up to `attempts` times (at least once), redoing it only
/// while it fails transiently (torn write, transient EIO). Returns the
/// first success, the first non-transient error, or the last transient
/// one once the budget is spent.
///
/// # Errors
///
/// The [`ArtifactError`] that ended the attempts.
pub fn retry_transient<T>(
    attempts: usize,
    mut op: impl FnMut() -> Result<T, ArtifactError>,
) -> Result<T, ArtifactError> {
    let mut left = attempts.max(1);
    loop {
        match op() {
            Err(e) if e.is_transient() && left > 1 => left -= 1,
            done => return done,
        }
    }
}

/// [`write_atomic_with`] of an integrity-sealed body, with torn writes
/// and transient EIO redone up to [`PUBLISH_ATTEMPTS`] times; everything
/// else (ENOSPC, crash) surfaces immediately. The publish the checkpoint
/// sink and campaign stages share.
///
/// # Errors
///
/// The last transient [`ArtifactError`] when the budget is exhausted,
/// or the first non-transient one.
pub fn publish_sealed(io: &dyn ArtifactIo, path: &Path, body: &str) -> Result<(), ArtifactError> {
    let sealed = seal(body);
    retry_transient(PUBLISH_ATTEMPTS, || write_atomic_with(io, path, &sealed))
}

/// Moves a temp sibling that a crash left between write and rename to
/// `<artifact>.tmp.quarantine` and returns that path. Call this before
/// resuming from the artifact.
///
/// A stray temp is never loaded: every reader opens the sealed target,
/// which still holds the previous publish, and the resumed run
/// recomputes what the lost one held. Quarantining it keeps the bytes
/// for inspection and makes a second call a no-op.
///
/// # Errors
///
/// Typed [`ArtifactError`] if the rename fails.
pub fn recover(io: &dyn ArtifactIo, artifact: &Path) -> Result<Option<PathBuf>, ArtifactError> {
    let tmp = tmp_sibling(artifact);
    if !io.exists(&tmp) {
        return Ok(None);
    }
    let quarantine = suffixed(&tmp, ".quarantine");
    io.rename(&tmp, &quarantine)?;
    Ok(Some(quarantine))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgxgauge-io-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_unseal_round_trips() {
        let body = "a,b\n1,2\n";
        let sealed = seal(body);
        assert!(sealed.ends_with('\n'));
        let (crc, back) = unseal(Path::new("x.csv"), &sealed).unwrap();
        assert_eq!(back, body);
        assert_eq!(crc, crc32(body.as_bytes()));
    }

    #[test]
    fn unseal_detects_corruption_and_rejects_a_missing_footer() {
        let sealed = seal("{\"v\":1}\n");
        let tampered = sealed.replace("\"v\":1", "\"v\":2");
        match unseal(Path::new("c.json"), &tampered) {
            Err(ArtifactError::Corrupt {
                expected, found, ..
            }) => assert_ne!(expected, found),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // No footer, or one that does not start a line: not an artifact.
        let unsealed = sealed.replace(&format!("\n{INTEGRITY_PREFIX}"), INTEGRITY_PREFIX);
        for text in ["{\"v\":1}\n", unsealed.as_str()] {
            match unseal(Path::new("old.json"), text) {
                Err(ArtifactError::Format { .. }) => {}
                other => panic!("expected Format, got {other:?}"),
            }
        }
    }

    #[test]
    fn real_fs_atomic_write_publishes_without_temp_residue() {
        let dir = scratch("real");
        let io = RealFs;
        let path = dir.join("out/report.csv");
        write_atomic_with(&io, &path, "a,b\n1,2\n").unwrap();
        assert_eq!(io.read(&path).unwrap(), "a,b\n1,2\n");
        assert!(!io.exists(&tmp_sibling(&path)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_quarantines_a_stray_temp() {
        let dir = scratch("quarantine");
        let io = RealFs;
        let path = dir.join("ck.json");
        write_atomic_with(&io, &path, "{\"v\":1}\n").unwrap();
        // A crash after the temp write, before the rename.
        io.write(&tmp_sibling(&path), "{\"v\":2}\n").unwrap();
        let quarantined = recover(&io, &path).unwrap().unwrap();
        assert_eq!(quarantined, dir.join("ck.json.tmp.quarantine"));
        assert_eq!(io.read(&quarantined).unwrap(), "{\"v\":2}\n");
        assert_eq!(io.read(&path).unwrap(), "{\"v\":1}\n", "target untouched");
        assert!(!io.exists(&tmp_sibling(&path)));
        assert_eq!(recover(&io, &path).unwrap(), None, "second call is a no-op");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_enospc_and_eio_fail_cleanly_and_are_typed() {
        let dir = scratch("chaos-write");
        let plan = IoFaultPlan::parse("seed=11,enospc=1000").unwrap();
        let io = ChaosFs::over_real(plan);
        let err = io.write(&dir.join("x"), "data").unwrap_err();
        match err {
            ArtifactError::Io { kind, .. } => assert_eq!(kind, IoErrorKind::NoSpace),
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(!err.is_transient());
        let eio = ChaosFs::over_real(IoFaultPlan::parse("seed=11,eio=1000").unwrap());
        let err = eio.write(&dir.join("y"), "data").unwrap_err();
        assert!(err.is_transient());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_torn_write_is_caught_by_read_back() {
        let dir = scratch("chaos-torn");
        let plan = IoFaultPlan::parse("seed=3,torn=1000").unwrap();
        let io = ChaosFs::over_real(plan);
        let path = dir.join("t.csv");
        let err = write_atomic_with(&io, &path, "a,b\n1,2\n").unwrap_err();
        match &err {
            ArtifactError::Io { kind, .. } => assert_eq!(*kind, IoErrorKind::Torn),
            other => panic!("expected torn Io, got {other:?}"),
        }
        assert!(err.is_transient());
        assert!(!io.exists(&path), "torn write never published");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_crash_at_rename_leaves_temp_and_kills_backend() {
        let dir = scratch("chaos-crash");
        let plan = IoFaultPlan::parse("seed=5,crash_rename=1").unwrap();
        let io = ChaosFs::over_real(plan);
        let path = dir.join("ck.json");
        let err = write_atomic_with(&io, &path, "{\"v\":1}\n").unwrap_err();
        match &err {
            ArtifactError::Io { kind, .. } => assert_eq!(*kind, IoErrorKind::CrashRename),
            other => panic!("expected crash Io, got {other:?}"),
        }
        assert!(io.crashed());
        // every later operation fails: the process is dead
        assert!(io.read(&path).is_err());
        assert!(io.write(&path, "x").is_err());
        // the temp sibling is still on the real fs, awaiting recovery
        let real = RealFs;
        assert!(real.exists(&tmp_sibling(&path)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = IoFaultPlan::parse(&format!("seed={seed},eio=300,torn=200")).unwrap();
            let io = ChaosFs::over_real(plan);
            let dir = scratch(&format!("det-{seed}"));
            let mut fates = Vec::new();
            for i in 0..32 {
                let r = io.write(&dir.join(format!("f{i}")), "payload-payload");
                fates.push(match r {
                    Ok(()) => 'o',
                    Err(ArtifactError::Io {
                        kind: IoErrorKind::Transient,
                        ..
                    }) => 'e',
                    Err(_) => '?',
                });
            }
            std::fs::remove_dir_all(&dir).ok();
            fates
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}

//! The single emission path for every artifact the suite writes.
//!
//! Reports (CSV), checkpoints (JSON) and traces (JSONL) used to each own
//! their file-writing code. They now share one [`Emitter`] trait: an
//! emitter knows its [`Format`] and how to [`render`](Emitter::render)
//! itself to text; [`Emitter::emit`] publishes that text atomically and
//! *durably* through the [`crate::io`] artifact plane — temp sibling,
//! fsync, read-back verification, rename, directory sync — so neither a
//! crash nor a silently torn write can publish a truncated artifact.
//!
//! Every emission is injectable: [`Emitter::emit_with`] (and the sealed
//! variant, which appends a CRC32 integrity footer) takes any
//! [`ArtifactIo`] backend, which is how the chaos matrix drives these
//! paths through deterministic fault injection. Errors are the typed
//! [`ArtifactError`], not strings.

use crate::io::{self, ArtifactError, ArtifactIo, RealFs};
use std::path::Path;

/// The on-disk formats the suite emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Comma-separated values (report tables, timelines).
    Csv,
    /// A single JSON document (checkpoints).
    Json,
    /// JSON Lines: one JSON object per line (trace streams).
    Jsonl,
}

impl Format {
    /// Infers the format from a path's extension (`.csv`, `.json`,
    /// `.jsonl`), case-insensitively.
    pub fn from_path(path: &Path) -> Option<Format> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "csv" => Some(Format::Csv),
            "json" => Some(Format::Json),
            "jsonl" => Some(Format::Jsonl),
            _ => None,
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Format::Csv => "csv",
            Format::Json => "json",
            Format::Jsonl => "jsonl",
        })
    }
}

/// Something that can be published to disk.
///
/// Implementors provide the text and its format; the trait provides the
/// one shared, atomic write path.
pub trait Emitter {
    /// The emitter's on-disk format.
    fn format(&self) -> Format;

    /// Renders the complete artifact as text.
    fn render(&self) -> String;

    /// Publishes the rendered artifact to `path` atomically and durably
    /// on the real filesystem, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`].
    fn emit(&self, path: &Path) -> Result<(), ArtifactError> {
        self.emit_with(&RealFs, path)
    }

    /// [`Emitter::emit`] through an injectable [`ArtifactIo`] backend.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`]; torn/transient failures are safe to
    /// retry.
    fn emit_with(&self, io: &dyn ArtifactIo, path: &Path) -> Result<(), ArtifactError> {
        io::write_atomic_with(io, path, &self.render())
    }

    /// Like [`Emitter::emit_with`], but seals the artifact with the
    /// `#sgxgauge-integrity` CRC32 footer so readers can verify it was
    /// published whole. Plain [`Emitter::emit`] stays footer-free, so
    /// default outputs remain byte-identical to earlier releases.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`]; torn/transient failures are safe to
    /// retry.
    fn emit_sealed_with(&self, io: &dyn ArtifactIo, path: &Path) -> Result<(), ArtifactError> {
        io::write_atomic_with(io, path, &io::seal(&self.render()))
    }
}

/// A trace sink viewed as a JSONL artifact.
#[derive(Debug, Clone, Copy)]
pub struct TraceJsonl<'a>(pub &'a trace::TraceSink);

impl Emitter for TraceJsonl<'_> {
    fn format(&self) -> Format {
        Format::Jsonl
    }

    fn render(&self) -> String {
        self.0.render_jsonl()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod tests {
    use super::*;

    #[test]
    fn format_from_extension() {
        assert_eq!(Format::from_path(Path::new("a/b.csv")), Some(Format::Csv));
        assert_eq!(Format::from_path(Path::new("b.JSON")), Some(Format::Json));
        assert_eq!(Format::from_path(Path::new("t.jsonl")), Some(Format::Jsonl));
        assert_eq!(Format::from_path(Path::new("t.txt")), None);
        assert_eq!(Format::from_path(Path::new("noext")), None);
    }

    #[test]
    fn trace_jsonl_emitter_round_trips() {
        let mut sink = trace::TraceSink::new(16);
        sink.emit(0, 10, trace::TraceEvent::EcallEnter);
        let e = TraceJsonl(&sink);
        assert_eq!(e.format(), Format::Jsonl);
        assert!(e.render().contains("ecall_enter"));
    }
}

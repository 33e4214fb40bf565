//! Graphene manifest files (§4.4).
//!
//! Graphene configures an application through a manifest: the binary,
//! required libraries and input files (hashed and verified at execution
//! time), the enclave size, and the thread count. We keep the same model
//! with a minimal `key = value` text format:
//!
//! ```text
//! binary = lighttpd
//! enclave_size = 4294967296
//! threads = 16
//! internal_memory = 67108864
//! protected_files = false
//! trusted_file = conf/lighttpd.conf
//! trusted_file = htdocs/index.html
//! ```

use sgx_crypto::Sha256;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors parsing or validating a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A line was not `key = value`.
    Syntax(usize),
    /// A numeric field failed to parse.
    BadNumber(&'static str),
    /// A boolean field failed to parse.
    BadBool(&'static str),
    /// The mandatory `binary` field is missing.
    MissingBinary,
    /// `enclave_size` below the minimum Graphene can boot with.
    EnclaveTooSmall,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Syntax(line) => write!(f, "manifest syntax error on line {line}"),
            ManifestError::BadNumber(k) => write!(f, "manifest field `{k}` is not a number"),
            ManifestError::BadBool(k) => write!(f, "manifest field `{k}` is not true/false"),
            ManifestError::MissingBinary => write!(f, "manifest is missing the `binary` field"),
            ManifestError::EnclaveTooSmall => write!(f, "enclave_size below the LibOS minimum"),
        }
    }
}

impl Error for ManifestError {}

/// Smallest enclave the modeled LibOS can boot in: runtime image plus
/// internal memory plus one spare megabyte.
pub const MIN_ENCLAVE_BYTES: u64 = 96 << 20;

/// A parsed, validated manifest.
///
/// Defaults mirror Table 3 of the paper: 4 GB enclave, 16 threads, 64 MB
/// internal memory, protected files off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    binary: String,
    enclave_size: u64,
    threads: usize,
    internal_memory: u64,
    protected_files: bool,
    trusted_files: Vec<String>,
}

impl Manifest {
    /// Starts building a manifest for `binary`.
    pub fn builder(binary: &str) -> ManifestBuilder {
        ManifestBuilder {
            binary: binary.to_owned(),
            enclave_size: 4 << 30,
            threads: 16,
            internal_memory: 64 << 20,
            protected_files: false,
            trusted_files: Vec::new(),
        }
    }

    /// Parses the text format shown in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`ManifestError`] describing the first problem found.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        let mut trusted = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line.split_once('=').ok_or(ManifestError::Syntax(i + 1))?;
            let (k, v) = (k.trim(), v.trim());
            if k.is_empty() || v.is_empty() {
                return Err(ManifestError::Syntax(i + 1));
            }
            if k == "trusted_file" {
                trusted.push(v.to_owned());
            } else {
                fields.insert(k, v);
            }
        }
        let mut b = Manifest::builder(fields.get("binary").ok_or(ManifestError::MissingBinary)?);
        if let Some(v) = fields.get("enclave_size") {
            b = b.enclave_size(
                v.parse()
                    .map_err(|_| ManifestError::BadNumber("enclave_size"))?,
            );
        }
        if let Some(v) = fields.get("threads") {
            b = b.threads(v.parse().map_err(|_| ManifestError::BadNumber("threads"))?);
        }
        if let Some(v) = fields.get("internal_memory") {
            b = b.internal_memory(
                v.parse()
                    .map_err(|_| ManifestError::BadNumber("internal_memory"))?,
            );
        }
        if let Some(v) = fields.get("protected_files") {
            b = b.protected_files(match *v {
                "true" => true,
                "false" => false,
                _ => return Err(ManifestError::BadBool("protected_files")),
            });
        }
        for f in trusted {
            b = b.trusted_file(&f);
        }
        b.try_build()
    }

    /// The application binary name.
    pub fn binary(&self) -> &str {
        &self.binary
    }

    /// Enclave size property (bytes).
    pub fn enclave_size(&self) -> u64 {
        self.enclave_size
    }

    /// TCS / thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// LibOS internal memory (bytes).
    pub fn internal_memory(&self) -> u64 {
        self.internal_memory
    }

    /// Whether protected-files mode is on.
    pub fn protected_files(&self) -> bool {
        self.protected_files
    }

    /// Input files whose hashes are verified at execution time.
    pub fn trusted_files(&self) -> &[String] {
        &self.trusted_files
    }

    /// The measurement Graphene computes over the manifest and trusted
    /// files, checked before launch.
    pub fn measurement(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(self.binary.as_bytes());
        h.update(&self.enclave_size.to_le_bytes());
        h.update(&(self.threads as u64).to_le_bytes());
        h.update(&self.internal_memory.to_le_bytes());
        h.update(&[self.protected_files as u8]);
        for f in &self.trusted_files {
            h.update(f.as_bytes());
        }
        h.finalize()
    }
}

/// Builder for [`Manifest`].
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    binary: String,
    enclave_size: u64,
    threads: usize,
    internal_memory: u64,
    protected_files: bool,
    trusted_files: Vec<String>,
}

impl ManifestBuilder {
    /// Sets the enclave size property.
    pub fn enclave_size(mut self, bytes: u64) -> Self {
        self.enclave_size = bytes;
        self
    }

    /// Sets the TCS / thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the LibOS internal memory.
    pub fn internal_memory(mut self, bytes: u64) -> Self {
        self.internal_memory = bytes;
        self
    }

    /// Toggles protected-files mode.
    pub fn protected_files(mut self, on: bool) -> Self {
        self.protected_files = on;
        self
    }

    /// Registers a trusted input file.
    pub fn trusted_file(mut self, path: &str) -> Self {
        self.trusted_files.push(path.to_owned());
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`ManifestError::EnclaveTooSmall`] when the enclave cannot hold
    /// the LibOS runtime and its internal memory.
    pub fn try_build(self) -> Result<Manifest, ManifestError> {
        if self.enclave_size < MIN_ENCLAVE_BYTES.max(self.internal_memory * 3 / 2) {
            return Err(ManifestError::EnclaveTooSmall);
        }
        Ok(Manifest {
            binary: self.binary,
            enclave_size: self.enclave_size,
            threads: self.threads,
            internal_memory: self.internal_memory,
            protected_files: self.protected_files,
            trusted_files: self.trusted_files,
        })
    }

    /// Builds, panicking on validation failure.
    ///
    /// # Panics
    ///
    /// Panics when [`ManifestBuilder::try_build`] would return an error.
    #[expect(
        clippy::expect_used,
        reason = "the documented-panic convenience wrapper around try_build; the panic is the API contract"
    )]
    pub fn build(self) -> Manifest {
        self.try_build().expect("invalid manifest")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let m = Manifest::builder("app").build();
        assert_eq!(m.enclave_size(), 4 << 30);
        assert_eq!(m.threads(), 16);
        assert_eq!(m.internal_memory(), 64 << 20);
        assert!(!m.protected_files());
    }

    #[test]
    fn parse_roundtrip() {
        let text = "\
# comment
binary = lighttpd
enclave_size = 1073741824
threads = 8
internal_memory = 33554432
protected_files = true
trusted_file = conf/a.conf
trusted_file = htdocs/index.html
";
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.binary(), "lighttpd");
        assert_eq!(m.enclave_size(), 1 << 30);
        assert_eq!(m.threads(), 8);
        assert!(m.protected_files());
        assert_eq!(m.trusted_files().len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            Manifest::parse("not a kv line"),
            Err(ManifestError::Syntax(1))
        );
        assert_eq!(
            Manifest::parse("binary = a\nenclave_size = big"),
            Err(ManifestError::BadNumber("enclave_size"))
        );
        assert_eq!(
            Manifest::parse("threads = 4"),
            Err(ManifestError::MissingBinary)
        );
        assert_eq!(
            Manifest::parse("binary = a\nprotected_files = maybe"),
            Err(ManifestError::BadBool("protected_files"))
        );
    }

    #[test]
    fn tiny_enclave_rejected() {
        assert_eq!(
            Manifest::builder("a").enclave_size(1 << 20).try_build(),
            Err(ManifestError::EnclaveTooSmall)
        );
    }

    #[test]
    fn measurement_depends_on_contents() {
        let a = Manifest::builder("a").build();
        let b = Manifest::builder("a").threads(8).build();
        let c = Manifest::builder("a").trusted_file("x").build();
        assert_ne!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
    }
}

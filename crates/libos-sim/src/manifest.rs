//! Graphene manifests (§4.4).
//!
//! Graphene configures an application through a manifest: the binary,
//! the enclave size, the thread count, the LibOS internal memory and
//! whether protected files are on. [`Manifest::builder`] sets those
//! fields; the defaults are Table 3's.

use std::error::Error;
use std::fmt;

/// Errors validating a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// `enclave_size` below the minimum Graphene can boot with.
    EnclaveTooSmall,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::EnclaveTooSmall => write!(f, "enclave_size below the LibOS minimum"),
        }
    }
}

impl Error for ManifestError {}

/// Smallest enclave the modeled LibOS can boot in: runtime image plus
/// internal memory plus one spare megabyte.
pub const MIN_ENCLAVE_BYTES: u64 = 96 << 20;

/// A validated manifest.
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
        }
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
}

/// Builder for [`Manifest`].
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    binary: String,
    enclave_size: u64,
    threads: usize,
    internal_memory: u64,
    protected_files: bool,
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
    fn tiny_enclave_rejected() {
        assert_eq!(
            Manifest::builder("a").enclave_size(1 << 20).try_build(),
            Err(ManifestError::EnclaveTooSmall)
        );
    }
}

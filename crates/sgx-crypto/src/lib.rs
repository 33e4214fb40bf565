//! From-scratch cryptographic primitives for the SGXGauge reproduction.
//!
//! Intel SGX leans on cryptography everywhere the paper measures it: the
//! MEE encrypts and MACs every EPC page that is evicted (EWB) and verifies
//! it on load-back (ELDU), the enclave loader hashes every page at build
//! time (EADD/EEXTEND), sealed storage encrypts data with a platform key,
//! and two of the workloads (Blockchain, OpenSSL) are crypto kernels.
//!
//! The simulator charges the hardware's own crypto (EWB, ELDU, EEXTEND)
//! as cycles without computing it. This crate implements, with no
//! dependencies, the primitives the workloads and the LibOS protected
//! files compute for real:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (tested against NIST vectors),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104, tested against RFC 4231),
//! * [`chacha20`] — the RFC 7539 ChaCha20 stream cipher,
//! * [`seal`] — an SGX-style sealing API (encrypt-then-MAC with a
//!   platform-bound key).
//!
//! # Example
//!
//! ```
//! use sgx_crypto::sha256::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chacha20;
pub mod hmac;
pub mod seal;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use hmac::hmac_sha256;
pub use seal::{SealError, SealedBlob, SealingKey};
pub use sha256::Sha256;

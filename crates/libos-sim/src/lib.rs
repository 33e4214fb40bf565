//! A Graphene-like library operating system on the SGX model.
//!
//! The paper executes 4 of its 10 workloads only under GrapheneSGX and
//! all 10 under it for the LibOS-mode studies (§4.4, §5.4). The LibOS is
//! responsible for the behaviors the paper measures:
//!
//! * **manifest** ([`manifest::Manifest`]): enclave size (4 GB default),
//!   thread count (16), internal memory (64 MB), protected-files toggle,
//! * **start-up** ([`process::LibosProcess::launch`]): the whole enclave
//!   size streams through the EPC for measurement (≈1 M evictions for
//!   4 GB), the runtime performs its ≈300 ECALLs / ≈1000 OCALLs / ≈1000
//!   AEX dance, and the internal allocator touches its 64 MB (Fig 6a,
//!   Fig 9, Appendix D),
//! * **shielded syscalls** ([`shim::Shim`]): every syscall is handled
//!   in-enclave; file I/O moves through untrusted staging buffers via
//!   (batched) OCALLs,
//! * **protected files** ([`shim`] with [`manifest::Manifest::protected_files`]):
//!   transparent per-4 KiB-block authenticated encryption, the feature
//!   whose cost Appendix E / Fig 10 quantifies.
//!
//! # Example
//!
//! ```
//! use libos_sim::{Manifest, LibosProcess};
//! use sgx_sim::Host;
//!
//! let mut m = Host::builder().build_machine();
//! let t = m.add_thread();
//! let manifest = Manifest::builder("app").enclave_size(256 << 20).build();
//! let proc_ = LibosProcess::launch(&mut m, t, &manifest).unwrap();
//! assert!(proc_.startup().ecalls > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)
)]

pub mod manifest;
pub mod process;
pub mod shim;

pub use manifest::{Manifest, ManifestBuilder, ManifestError};
pub use process::{LibosProcess, StartupStats};
pub use shim::Shim;

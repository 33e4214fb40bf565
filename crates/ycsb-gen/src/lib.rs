//! YCSB-style workload generation (Cooper et al., SoCC '10).
//!
//! The paper drives its Memcached workload with YCSB (§4.2.7): a *load*
//! phase populates the store with a record count, then a *run* phase
//! issues a read/write operation mix over keys drawn from a skewed
//! distribution. This crate reproduces the generator the paper's
//! Memcached runs: YCSB core workload A ([`Workload`]: 50 % read / 50 %
//! update) over [`Zipfian`] keys, with the mix drawn from [`Uniform`].
//!
//! # Example
//!
//! ```
//! use ycsb_gen::Workload;
//!
//! let wl = Workload::new(1_000, 42);
//! let ops: Vec<_> = wl.operations().take(100).collect();
//! assert_eq!(ops.len(), 100);
//! assert!(ops.iter().all(|op| op.key < 1_000));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dist;
pub mod workload;

pub use dist::{Uniform, Zipfian};
pub use workload::{OpKind, Operation, Workload};

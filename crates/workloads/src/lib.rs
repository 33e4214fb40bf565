//! The ten SGXGauge workloads (Table 2 of the paper).
//!
//! | # | Workload   | Property            | Modes                     |
//! |---|------------|---------------------|---------------------------|
//! | 1 | [`Blockchain`] | CPU/ECALL-intensive | Vanilla, Native, LibOS |
//! | 2 | [`OpenSsl`]    | Data-intensive      | Vanilla, Native, LibOS |
//! | 3 | [`BTree`]      | Data/CPU-intensive  | Vanilla, Native, LibOS |
//! | 4 | [`HashJoin`]   | Data/CPU-intensive  | Vanilla, Native, LibOS |
//! | 5 | [`Bfs`]        | Data-intensive      | Vanilla, Native, LibOS |
//! | 6 | [`PageRank`]   | Data-intensive      | Vanilla, Native, LibOS |
//! | 7 | [`Memcached`]  | Data/ECALL-intensive| Vanilla, LibOS         |
//! | 8 | [`XsBench`]    | CPU-intensive       | Vanilla, LibOS         |
//! | 9 | [`Lighttpd`]   | ECALL-intensive     | Vanilla, LibOS         |
//! | 10| [`Svm`]        | Data/CPU-intensive  | Vanilla, LibOS         |
//!
//! Six are ported to Native mode; the four real-world applications run
//! under the LibOS only, exactly as in the paper (§4.3).
//!
//! Every workload executes *real computation* (real hashing, real
//! encryption, real graph traversals…) over data held in simulated
//! memory regions, so the SGX performance counters emerge from organic
//! access patterns rather than synthetic event injection.
//!
//! All workloads support [`scaled`](Blockchain::scaled) construction:
//! `scaled(d)` divides the input sizes by `d` so unit tests (and the
//! quick-test environment with its scaled-down EPC) finish in
//! milliseconds while preserving each Low/Medium/High setting's position
//! relative to the EPC boundary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bfs;
pub mod blockchain;
pub mod btree;
pub mod hashjoin;
pub mod iozone;
pub mod lighttpd;
pub mod memcached;
pub mod openssl;
pub mod pagerank;
pub mod svm;
pub mod util;
pub mod xsbench;
mod ycsb;

pub use bfs::Bfs;
pub use blockchain::Blockchain;
pub use btree::BTree;
pub use hashjoin::HashJoin;
pub use iozone::Iozone;
pub use lighttpd::Lighttpd;
pub use memcached::Memcached;
pub use openssl::OpenSsl;
pub use pagerank::PageRank;
pub use svm::Svm;
pub use xsbench::XsBench;

use sgxgauge_core::Workload;

/// The full suite at paper scale, in Table 2 order.
pub fn suite() -> Vec<Box<dyn Workload>> {
    suite_scaled(1)
}

/// The suite scaled down by `divisor` (for tests and smoke runs).
pub fn suite_scaled(divisor: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Blockchain::scaled(divisor)),
        Box::new(OpenSsl::scaled(divisor)),
        Box::new(BTree::scaled(divisor)),
        Box::new(HashJoin::scaled(divisor)),
        Box::new(Bfs::scaled(divisor)),
        Box::new(PageRank::scaled(divisor)),
        Box::new(Memcached::scaled(divisor)),
        Box::new(XsBench::scaled(divisor)),
        Box::new(Lighttpd::scaled(divisor)),
        Box::new(Svm::scaled(divisor)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxgauge_core::ExecMode;

    #[test]
    fn suite_has_ten_workloads() {
        let s = suite();
        assert_eq!(s.len(), 10);
        let names: Vec<_> = s.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "Blockchain",
                "OpenSSL",
                "BTree",
                "HashJoin",
                "BFS",
                "PageRank",
                "Memcached",
                "XSBench",
                "Lighttpd",
                "SVM"
            ]
        );
    }

    #[test]
    fn six_support_native_four_do_not() {
        let native: Vec<_> = suite()
            .into_iter()
            .filter(|w| w.supports(ExecMode::Native))
            .collect();
        assert_eq!(native.len(), 6);
        for w in suite() {
            assert!(w.supports(ExecMode::Vanilla));
            assert!(w.supports(ExecMode::LibOs));
        }
    }
}

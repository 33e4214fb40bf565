//! Statistics for benchmark reporting.
//!
//! The paper aggregates runs with geometric means (§5.2), reports ratio
//! tables (Table 4), and ranks performance counters by fitting a linear
//! regression of execution time on standardized counter values and
//! comparing coefficient magnitudes (Appendix C, Table 5). This crate
//! implements exactly those tools.
//!
//! # Example
//!
//! ```
//! use gauge_stats::geomean;
//! assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chart;
pub mod regression;
pub mod summary;

pub use chart::BarChart;
pub use regression::{standardized_coefficients, LinearRegression, RegressionError};
pub use summary::{geomean, mean, percentile, ratio, Summary};

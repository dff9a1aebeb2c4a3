//! Shared utilities for the AOS reproduction workspace.
//!
//! This crate deliberately avoids external dependencies so every workload
//! trace, PAC distribution and simulation result in the repository is
//! **bit-reproducible** across platforms and library versions:
//!
//! - [`rng`] — a small, fast, seedable PRNG family ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256StarStar`]) plus the sampling helpers the workload
//!   generator needs (uniform ranges, Bernoulli, Zipf, discrete tables).
//! - [`stats`] — the summary statistics the paper reports (mean, standard
//!   deviation, geometric mean) and a fixed-bin [`stats::Histogram`].
//! - [`par`] — a `std::thread::scope` fork/join helper
//!   ([`par::ordered_parallel_map`]) that fans independent work items
//!   across a worker pool while preserving input order, the substrate
//!   for the campaign runner in `aos-core`; its panic-isolating twin
//!   [`par::ordered_parallel_catch`] turns worker panics into per-item
//!   errors instead of poisoning the whole join.
//! - [`error`] — the shared [`error::AosError`] taxonomy the pipeline
//!   crates converge to at subsystem boundaries.
//! - [`guard`] — guarded execution of untrusted work
//!   ([`guard::run_guarded`]: `catch_unwind` isolation, wall-clock
//!   watchdog, bounded retry with linear or exponential backoff), the
//!   protection stack shared by the campaign runner and `aos-serve`.
//! - [`telemetry`] — the zero-cost-when-disabled metrics registry
//!   ([`telemetry::Telemetry`] handle, fixed counter/gauge/histogram
//!   taxonomy, mergeable [`telemetry::TelemetrySnapshot`]) that every
//!   pipeline stage records into.
//! - [`scratch`] — per-test scratch directories ([`scratch::ScratchDir`]:
//!   unique per process, name and call, removed on drop).
//!
//! # Examples
//!
//! ```
//! use aos_util::rng::Xoshiro256StarStar;
//! use aos_util::stats::geomean;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let x = rng.next_range(16);
//! assert!(x < 16);
//! assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

pub mod error;
pub mod guard;
pub mod par;
pub mod rng;
pub mod scratch;
pub mod stats;
pub mod telemetry;

pub use error::AosError;
pub use telemetry::{Counter, Gauge, Hist, Telemetry, TelemetrySnapshot};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{geomean, mean, stdev, Histogram};

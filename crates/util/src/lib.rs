//! Shared utilities for the AOS reproduction workspace.
//!
//! This crate deliberately avoids external dependencies so every workload
//! trace, PAC distribution and simulation result in the repository is
//! **bit-reproducible** across platforms and library versions:
//!
//! - [`rng`] — a small, fast, seedable PRNG family ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256StarStar`]) plus the sampling helpers the workload
//!   generator needs (uniform ranges, Bernoulli trials against a
//!   precomputed [`rng::Chance`], a bounded Zipf, discrete tables).
//! - [`stats`] — the summary statistics the paper reports (mean, standard
//!   deviation, geometric mean) and a fixed-bin [`stats::Histogram`].
//! - [`par`] — a `std::thread::scope` fork/join helper
//!   ([`par::ordered_parallel_map`]) that fans independent work items
//!   across a worker pool while preserving input order, the substrate
//!   for the campaign runner in `aos-core`; a worker panic is caught
//!   at its item, so it never poisons the whole join.
//! - [`error`] — the shared [`error::AosError`] taxonomy the pipeline
//!   crates converge to at subsystem boundaries.
//! - [`telemetry`] — the zero-cost-when-disabled metrics registry
//!   ([`telemetry::Telemetry`] handle, fixed counter/gauge/histogram
//!   taxonomy, mergeable [`telemetry::TelemetrySnapshot`]) that every
//!   pipeline stage records into.
//! - [`hash`] — the FNV-1a 64 hash ([`hash::fnv1a64`]) behind workload
//!   seeds, result digests and coverage fingerprints, and the
//!   multiplicative-hash [`hash::PacMap`] behind every per-PAC table.
//! - [`json`] — the one JSON writer ([`json::Json`], an ordered-key
//!   value rendered in a pretty, inline or compact [`json::Layout`])
//!   behind every report and protocol line.
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
pub mod hash;
pub mod json;
pub mod par;
pub mod rng;
pub mod scratch;
pub mod stats;
pub mod telemetry;

pub use error::AosError;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{geomean, mean, stdev, Histogram};
pub use telemetry::{Counter, Gauge, Hist, Telemetry, TelemetrySnapshot};

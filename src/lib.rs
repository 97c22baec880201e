//! # distinct-values
//!
//! A production-quality Rust reproduction of *“Towards Estimation Error
//! Guarantees for Distinct Values”* (Charikar, Chaudhuri, Motwani,
//! Narasayya — PODS 2000): sampling-based estimation of the number of
//! distinct values in a column, with provable error guarantees.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the estimators: **GEE** (guaranteed-error, optimal up to a
//!   constant), **AE** (adaptive), **HYBGEE**, and the published baselines
//!   (Shlosser, smoothed jackknife, HYBSKEW, DUJ2A, HYBVAR, Chao, …).
//! * [`numeric`] — χ² distribution, incomplete gamma, root finding,
//!   robust statistics.
//! * [`storage`] — an in-memory column store with typed columns,
//!   dictionary/RLE encodings, and an `ANALYZE` command that fills
//!   optimizer statistics using the estimators.
//! * [`sample`] — uniform row sampling (with/without replacement,
//!   reservoir, Vitter sequential, Bernoulli, block) feeding frequency
//!   profiles.
//! * [`datagen`] — Zipfian/uniform workload generators and synthetic
//!   stand-ins for the paper's real-world datasets.
//! * [`lowerbound`] — the Theorem 1 adversarial construction and game
//!   simulator.
//! * [`sketch`] — the full-scan probabilistic-counting family the paper's
//!   related work contrasts with sampling (Flajolet–Martin PCSA, linear
//!   counting, HyperLogLog).
//! * [`experiments`] — the harness that regenerates every table and figure
//!   in the paper's evaluation section.
//! * [`obs`] — dependency-light observability: atomic metric families,
//!   log-bucketed latency histograms, RAII timers, and structured event
//!   sinks wired through every layer above.
//! * [`par`] — the deterministic scoped worker pool (std-only, no work
//!   stealing across result order) behind the parallel audit sweeps and
//!   `ANALYZE`, with the `--jobs` / `DVE_JOBS` resolution chain.
//! * [`serve`] — the `dve serve` estimation daemon: hand-rolled HTTP/1.1
//!   over `TcpListener` exposing `/v1/estimate`, `/v1/analyze`,
//!   `/metrics`, `/healthz`, and `/v1/estimators`, with a bounded accept
//!   queue, load shedding, request deadlines, and graceful shutdown.
//! * [`cluster`] — distributed estimation: segment workers answering
//!   partial-spectrum requests over a versioned length-prefixed binary
//!   protocol, and a coordinator that fans out, merges per-shard WOR
//!   spectra, and degrades gracefully (retry once, then report skipped
//!   segments).
//!
//! ## Quickstart
//!
//! ```
//! use distinct_values::core::{estimator::DistinctEstimator, gee::Gee, Spectrum};
//!
//! // A sample of r = 6 rows from a table of n = 1000 rows containing
//! // the values [a, a, a, b, b, c]: f1 = 1 ("c"), f2 = 1 ("b"), f3 = 1 ("a").
//! let profile = Spectrum::from_sample_counts(1000, [3, 2, 1]).unwrap();
//! let estimate = Gee::default().estimate(&profile);
//! assert!(estimate >= profile.distinct_in_sample() as f64);
//! assert!(estimate <= 1000.0);
//! ```

pub use dve_cluster as cluster;
pub use dve_core as core;
pub use dve_datagen as datagen;
pub use dve_experiments as experiments;
pub use dve_lowerbound as lowerbound;
pub use dve_numeric as numeric;
pub use dve_obs as obs;
pub use dve_par as par;
pub use dve_sample as sample;
pub use dve_serve as serve;
pub use dve_sketch as sketch;
pub use dve_storage as storage;

//! # dve-core — distinct-value estimators with error guarantees
//!
//! This crate implements the estimators from *“Towards Estimation Error
//! Guarantees for Distinct Values”* (Charikar, Chaudhuri, Motwani,
//! Narasayya — PODS 2000) and every baseline its evaluation compares
//! against.
//!
//! ## The problem
//!
//! A column of `n` rows holds `D` distinct values. From a uniform random
//! sample of `r` rows — summarized as a [`spectrum::Spectrum`]
//! (`f_i` = number of values occurring exactly `i` times in the sample;
//! sparse, incrementally buildable via [`spectrum::SpectrumBuilder`],
//! and shard-mergeable) — estimate `D`. Samples carry a
//! [`design::SampleDesign`] saying whether they were drawn with or
//! without replacement; design-aware estimators (AE) solve the matching
//! fixed-point form. The quality metric is the multiplicative
//! [`error::ratio_error`], and Theorem 1 of the paper (implemented in the
//! `dve-lowerbound` crate) shows **every** estimator must incur ratio
//! error `Ω(sqrt(n/r))` on some input.
//!
//! ## The estimators
//!
//! | Module | Estimators | Provenance |
//! |---|---|---|
//! | [`gee`] | GEE — `sqrt(n/r)·f₁ + Σ_{i≥2} f_i`, optimal worst case | this paper §4 |
//! | [`bounds`] | LOWER/UPPER confidence interval around GEE | this paper §4 |
//! | [`ae`] | AE — adaptive coefficient via a fixed-point equation | this paper §5.2–5.3 |
//! | [`hybrid`] | HYBGEE (this paper §5.1), HYBSKEW, HYBVAR | PODS'00 / VLDB'95 / JASA'98 |
//! | [`jackknife`] | first/second-order, smoothed, Duj1/Duj2/Duj2a | Burnham–Overton, HNSS'95, Haas–Stokes'98 |
//! | [`shlosser`] | Shlosser, modified Shlosser | Shlosser'81, Haas–Stokes'98 |
//! | [`chao`] | Chao, Chao–Lee | Chao'84, Chao–Lee'92 |
//! | [`bootstrap`] | bootstrap, Good–Turing coverage scale-up | Smith–van Belle'84, Good'53 |
//! | [`goodman`] | Goodman's unbiased estimator | Goodman'49 |
//! | [`mom`] | method-of-moments (finite & infinite) | folklore |
//! | [`naive`] | `d`, linear scale-up | — |
//!
//! All estimators implement [`estimator::DistinctEstimator`] and receive
//! the paper's universal sanity clamp `d ≤ D̂ ≤ n`. The [`registry`]
//! resolves paper names (`"GEE"`, `"HYBSKEW"`, …) to boxed estimators.
//!
//! ## Example
//!
//! ```
//! use dve_core::estimator::DistinctEstimator;
//! use dve_core::gee::Gee;
//! use dve_core::bounds::gee_confidence_interval;
//! use dve_core::Spectrum;
//!
//! // n = 1M rows; sample of r = 2000 rows saw 800 singletons, 350
//! // doubletons, and 100 values 5 times each.
//! let profile = Spectrum::from_spectrum(
//!     1_000_000,
//!     vec![800, 350, 0, 0, 100],
//! ).unwrap();
//!
//! let estimate = Gee::default().estimate(&profile);
//! let interval = gee_confidence_interval(&profile);
//! assert!(interval.lower <= estimate && estimate <= interval.upper);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ae;
pub mod bootstrap;
pub mod bounds;
pub mod chao;
pub mod counter;
pub mod design;
pub mod error;
pub mod estimator;
pub mod gee;
pub mod goodman;
pub mod hash;
pub mod hybrid;
pub mod jackknife;
pub mod mom;
pub mod naive;
pub mod registry;
pub mod shlosser;
pub mod skew;
pub mod spectrum;

pub use ae::AdaptiveEstimator;
pub use bounds::{gee_confidence_interval, ConfidenceInterval};
pub use counter::CountTable;
pub use design::SampleDesign;
pub use error::{ratio_error, relative_error};
pub use estimator::{sanity_clamp, DistinctEstimator, Estimation};
pub use gee::Gee;
pub use hash::{hash_bytes, mix64, FastBuildHasher, FastHasher, FastMap, FastSet};
pub use hybrid::{HybGee, HybSkew, HybVar};
pub use registry::UnknownEstimator;
pub use spectrum::{Spectrum, SpectrumBuilder, SpectrumError};

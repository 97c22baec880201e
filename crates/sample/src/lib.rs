//! # dve-sample — uniform row sampling for distinct-value estimation
//!
//! The paper's estimators consume a uniform random sample of `r` of the
//! `n` rows of a column (§2, citing Olken's and Vitter's sampling
//! machinery). This crate provides that substrate:
//!
//! * [`without_replacement`] — simple random sampling without replacement:
//!   partial Fisher–Yates over an index map (O(r) memory) and Floyd's
//!   combination-sampling algorithm.
//! * [`with_replacement`] — i.i.d. row draws.
//! * [`reservoir`] — single-pass reservoir sampling over streams of
//!   unknown length: Algorithm R and the skip-optimized Algorithm L.
//! * [`sequential`] — Vitter-style sequential sampling when `n` is known:
//!   one ordered pass emitting exactly `r` rows (Method A).
//! * [`bernoulli`] — include each row independently with probability `q`
//!   (the model Shlosser's estimator assumes).
//! * [`block`] — page-level sampling: sample whole blocks of consecutive
//!   rows. Cheaper I/O but *biased* for clustered layouts; included so the
//!   examples can demonstrate why the paper's experiments randomize tuple
//!   placement.
//! * [`profile`] — build a [`dve_core::spectrum::Spectrum`] from any
//!   sample, plus the one-call [`profile::sample_profile`] convenience
//!   that the experiment harness uses. Each [`SamplingScheme`] also
//!   declares the [`dve_core::design::SampleDesign`] it realizes, so
//!   design-aware estimators can be told how the sample was drawn.
//!
//! All samplers are deterministic given the caller-supplied RNG, which is
//! how every experiment in `dve-experiments` stays reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernoulli;
pub mod block;
pub mod profile;
pub mod reservoir;
pub mod sequential;
pub mod with_replacement;
pub mod without_replacement;

pub use profile::{profile_of_values, profile_of_values_chunked, sample_profile, SamplingScheme};

//! Chao's estimator and the Chao–Lee coverage estimator.
//!
//! Classical species-richness baselines from the statistics literature the
//! paper surveys (Bunge & Fitzpatrick 1993):
//!
//! * **Chao (1984)** — a lower-bound-style estimator from the singleton
//!   and doubleton counts: `D̂ = d + f₁²/(2·f₂)`.
//! * **Chao–Lee (1992)** — sample-coverage estimator with a skew
//!   correction through the squared CV of class sizes.

use crate::estimator::DistinctEstimator;
use crate::skew::{coverage_estimate, squared_cv_estimate_infinite};
use crate::spectrum::Spectrum;

/// Chao's 1984 estimator `D̂ = d + f₁²/(2·f₂)`.
///
/// When `f₂ = 0` the bias-corrected form `d + f₁(f₁−1)/2` is used
/// (the `f₂ + 1` correction of Chao 1987 evaluated at `f₂ = 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chao;

impl DistinctEstimator for Chao {
    fn name(&self) -> &'static str {
        "CHAO"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let f1 = profile.f(1) as f64;
        let f2 = profile.f(2) as f64;
        if f2 > 0.0 {
            d + f1 * f1 / (2.0 * f2)
        } else {
            d + f1 * (f1 - 1.0) / 2.0
        }
    }
}

/// Chao & Lee's 1992 coverage-based estimator:
///
/// ```text
/// Ĉ  = 1 − f₁/r                        (Good–Turing coverage)
/// γ̂² = max{0, (d/Ĉ)·Σ i(i−1)f_i /(r(r−1)) − 1}
/// D̂  = d/Ĉ + r·(1−Ĉ)/Ĉ · γ̂²
/// ```
///
/// Degenerates to `+∞` (clamped to `n`) when every sampled value is a
/// singleton (`Ĉ = 0`), which is the honest answer: the sample carries no
/// duplication signal at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaoLee;

impl DistinctEstimator for ChaoLee {
    fn name(&self) -> &'static str {
        "CHAOLEE"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        let coverage = coverage_estimate(profile);
        if coverage <= 0.0 {
            return f64::INFINITY;
        }
        let d_cov = d / coverage;
        let gamma2 = squared_cv_estimate_infinite(profile, d_cov);
        d_cov + r * (1.0 - coverage) / coverage * gamma2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(n: u64, spectrum: Vec<u64>) -> Spectrum {
        Spectrum::from_spectrum(n, spectrum).unwrap()
    }

    #[test]
    fn chao_formula() {
        // f1 = 6, f2 = 3, d = 9 → 9 + 36/6 = 15.
        let p = profile(1_000, vec![6, 3]);
        assert_eq!(Chao.estimate_raw(&p), 15.0);
    }

    #[test]
    fn chao_no_doubletons_bias_corrected() {
        // f1 = 5, f2 = 0 → 5 + 5·4/2 = 15.
        let p = profile(1_000, vec![5]);
        assert_eq!(Chao.estimate_raw(&p), 15.0);
    }

    #[test]
    fn chao_no_singletons_returns_d() {
        let p = profile(1_000, vec![0, 10]);
        assert_eq!(Chao.estimate(&p), 10.0);
    }

    #[test]
    fn chao_lee_exceeds_coverage_scale_up_under_skew() {
        // With pair mass present the γ̂² term only adds.
        let p = profile(100_000, vec![40, 10, 5, 0, 2]);
        let d = p.distinct_in_sample() as f64;
        let coverage = 1.0 - 40.0 / p.sample_size() as f64;
        let est = ChaoLee.estimate_raw(&p);
        assert!(est >= d / coverage - 1e-9);
    }

    #[test]
    fn chao_lee_all_singletons_clamps_to_n() {
        let p = profile(5_000, vec![100]);
        assert_eq!(ChaoLee.estimate(&p), 5_000.0);
    }

    #[test]
    fn chao_lee_uniform_case_matches_coverage() {
        // No singletons: Ĉ = 1 → D̂ = d + 0 (γ̂² term has factor 1−Ĉ = 0).
        let p = profile(100_000, vec![0, 50]);
        assert_eq!(ChaoLee.estimate(&p), 50.0);
    }

    #[test]
    fn both_respect_clamp() {
        let p = profile(100, vec![90, 5]);
        assert!(Chao.estimate(&p) <= 100.0);
        assert!(ChaoLee.estimate(&p) <= 100.0);
    }
}

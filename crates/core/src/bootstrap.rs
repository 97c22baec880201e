//! Bootstrap and coverage-based estimators from the species-richness
//! literature the paper surveys (Smith & van Belle 1984, ref \[29\];
//! Good–Turing coverage as used by Chao–Lee).

use crate::estimator::DistinctEstimator;
use crate::skew::coverage_estimate;
use crate::spectrum::Spectrum;
use dve_numeric::poly::pow1m;

/// The bootstrap estimator of Smith & van Belle (1984):
///
/// ```text
/// D̂ = d + Σᵢ f_i · (1 − i/r)^r
/// ```
///
/// Each observed class contributes its estimated probability of having
/// been *missed* by a bootstrap resample. Mildly corrects `d` upward;
/// known to underestimate at small sampling fractions (the correction is
/// bounded by `d`), which the experiments show clearly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bootstrap;

impl DistinctEstimator for Bootstrap {
    fn name(&self) -> &'static str {
        "BOOT"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        if profile.sampling_fraction() >= 1.0 {
            return d;
        }
        let mut correction = 0.0;
        for (i, f) in profile.spectrum() {
            correction += f as f64 * pow1m((i as f64 / r).min(1.0), r);
        }
        d + correction
    }
}

/// Good–Turing coverage scale-up: `D̂ = d / Ĉ` with `Ĉ = 1 − f₁/r`.
///
/// The zeroth-order term of Chao–Lee (their γ̂² correction removed).
/// Exact when all classes are equally likely; underestimates under skew.
/// Degenerates to `+∞` (clamped to `n`) on all-singleton samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageScaleUp;

impl DistinctEstimator for CoverageScaleUp {
    fn name(&self) -> &'static str {
        "COVERAGE"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let coverage = coverage_estimate(profile);
        if coverage <= 0.0 {
            return f64::INFINITY;
        }
        d / coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(n: u64, spectrum: Vec<u64>) -> Spectrum {
        Spectrum::from_spectrum(n, spectrum).unwrap()
    }

    #[test]
    fn bootstrap_formula() {
        // f1 = 4, f2 = 2 → r = 8.
        let p = profile(1_000, vec![4, 2]);
        let r = 8.0f64;
        let expected = 6.0 + 4.0 * (1.0 - 1.0 / r).powf(r) + 2.0 * (1.0 - 2.0 / r).powf(r);
        assert!((Bootstrap.estimate_raw(&p) - expected).abs() < 1e-9);
    }

    #[test]
    fn bootstrap_correction_bounded_by_d() {
        // (1 − i/r)^r < 1, so D̂ < 2d always — the known limitation.
        let p = profile(1_000_000, vec![100, 50, 10]);
        let d = p.distinct_in_sample() as f64;
        let est = Bootstrap.estimate_raw(&p);
        assert!(est > d && est < 2.0 * d);
    }

    #[test]
    fn bootstrap_full_scan_exact() {
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        assert_eq!(Bootstrap.estimate(&p), 3.0);
    }

    #[test]
    fn coverage_scale_up_formula() {
        // r = 10, f1 = 2 → Ĉ = 0.8, d = 6 → D̂ = 7.5.
        let p = profile(1_000, vec![2, 4]);
        assert!((CoverageScaleUp.estimate_raw(&p) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_degenerates_on_all_singletons() {
        let p = profile(500, vec![20]);
        assert_eq!(CoverageScaleUp.estimate(&p), 500.0);
    }

    #[test]
    fn coverage_exact_when_no_singletons() {
        let p = profile(1_000, vec![0, 30]);
        assert_eq!(CoverageScaleUp.estimate(&p), 30.0);
    }
}

//! GEE — the Guaranteed-Error Estimator (paper §4).
//!
//! ```text
//! D̂ = sqrt(n/r) · f₁ + Σ_{i≥2} f_i
//! ```
//!
//! Intuition: values seen more than once are "high frequency" and counted
//! once each. The `f₁` singletons represent the low-frequency mass; that
//! mass contains at least `f₁` distinct values and at most `(n/r)·f₁`
//! (if every unseen row hid a fresh value). GEE takes the **geometric
//! mean** of those two extremes, which minimizes the worst-case *ratio*
//! error — and Theorem 2 shows the resulting expected ratio error is
//! `O(sqrt(n/r))`, matching the Theorem 1 lower bound up to ≈ e.

use crate::design::SampleDesign;
use crate::estimator::{DistinctEstimator, Estimation};
use crate::spectrum::Spectrum;

/// The Guaranteed-Error Estimator.
///
/// [`Gee::default`] is the paper's estimator. The `singleton_exponent`
/// knob exists for the ablation study only: the coefficient of `f₁` is
/// `(n/r)^exponent`, so `0.5` is the geometric mean of the bounds
/// (the paper's choice), `1.0` is the UPPER bound and `0.0` the LOWER
/// bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gee {
    /// Exponent `e` in the singleton coefficient `(n/r)^e`. The paper's
    /// GEE uses `0.5`.
    singleton_exponent: f64,
}

impl Default for Gee {
    fn default() -> Self {
        Self {
            singleton_exponent: 0.5,
        }
    }
}

impl Gee {
    /// The paper's GEE (geometric-mean coefficient, exponent `0.5`).
    pub fn new() -> Self {
        Self::default()
    }

    /// GEE variant with singleton coefficient `(n/r)^exponent`; exists for
    /// the coefficient ablation bench. `exponent` must be in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is outside `[0, 1]`.
    pub fn with_singleton_exponent(exponent: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&exponent),
            "exponent must be in [0,1], got {exponent}"
        );
        Self {
            singleton_exponent: exponent,
        }
    }

    /// The coefficient applied to `f₁` for a given profile.
    pub fn singleton_coefficient(&self, profile: &Spectrum) -> f64 {
        let scale = profile.table_size() as f64 / profile.sample_size() as f64;
        scale.powf(self.singleton_exponent)
    }
}

impl DistinctEstimator for Gee {
    fn name(&self) -> &'static str {
        "GEE"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let f1 = profile.f(1) as f64;
        let d = profile.distinct_in_sample() as f64;
        // d - f1 = Σ_{i≥2} f_i.
        self.singleton_coefficient(profile) * f1 + (d - f1)
    }

    /// GEE's full result carries the paper's §4 confidence bounds:
    /// `LOWER = d` (unconditionally valid) and
    /// `UPPER = Σ_{i>1} f_i + (n/r)·f₁` clamped to `n` (exceeds `D` with
    /// high probability). The bounds depend only on the sample — not on
    /// the singleton exponent or the sampling design (both bound
    /// arguments hold under either design), so every `Gee` variant
    /// reports the same interval.
    fn estimate_full(&self, profile: &Spectrum, _design: SampleDesign) -> Estimation {
        let d = profile.distinct_in_sample() as f64;
        let f1 = profile.f(1) as f64;
        let n = profile.table_size() as f64;
        let scale = n / profile.sample_size() as f64;
        let upper = ((d - f1) + scale * f1).min(n);
        Estimation {
            estimate: self.estimate(profile),
            interval: Some((d, upper)),
            estimator: self.name().to_string(),
            d: profile.distinct_in_sample(),
            r: profile.sample_size(),
            n: profile.table_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_matches_paper() {
        // n = 10_000, r = 100 → sqrt(n/r) = 10.
        // Spectrum: f1 = 40, f2 = 30 → d = 70, r = 100.
        let p = Spectrum::from_spectrum(10_000, vec![40, 30]).unwrap();
        let est = Gee::default().estimate_raw(&p);
        assert!((est - (10.0 * 40.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn no_singletons_returns_d() {
        let p = Spectrum::from_spectrum(10_000, vec![0, 50]).unwrap();
        assert_eq!(Gee::default().estimate(&p), 50.0);
    }

    #[test]
    fn all_singletons_scales_by_sqrt() {
        // r = 100 singletons from n = 10_000: D̂ = 10 · 100 = 1000.
        let p = Spectrum::from_spectrum(10_000, vec![100]).unwrap();
        assert_eq!(Gee::default().estimate(&p), 1000.0);
    }

    #[test]
    fn full_sample_is_exact() {
        // r = n: coefficient is 1, estimate = d = D.
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        assert_eq!(Gee::default().estimate(&p), 3.0);
    }

    #[test]
    fn clamped_to_table_size() {
        // n = r²/f1-ish small table: raw sqrt(n/r)·f1 could exceed n.
        // n = 8, r = 2, f1 = 2 → raw = 2·2 = 4 ≤ 8 fine; craft overflow:
        // n = 4, r = 2, f1 = 2 → raw = sqrt(2)·2 ≈ 2.83 ≤ 4. The clamp is
        // easiest to exercise via the exponent-1 variant: coeff = 2 → 4 = n.
        let p = Spectrum::from_spectrum(4, vec![2]).unwrap();
        let upper = Gee::with_singleton_exponent(1.0);
        assert_eq!(upper.estimate(&p), 4.0);
    }

    #[test]
    fn exponent_bounds_ordering() {
        // LOWER-ish (e=0) ≤ GEE (e=0.5) ≤ UPPER-ish (e=1) whenever f1 > 0.
        let p = Spectrum::from_spectrum(100_000, vec![50, 20, 5]).unwrap();
        let lo = Gee::with_singleton_exponent(0.0).estimate_raw(&p);
        let mid = Gee::default().estimate_raw(&p);
        let hi = Gee::with_singleton_exponent(1.0).estimate_raw(&p);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        // e = 0 degenerates to d.
        assert_eq!(lo, p.distinct_in_sample() as f64);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_out_of_range_exponent() {
        Gee::with_singleton_exponent(1.5);
    }

    #[test]
    fn estimate_full_carries_paper_bounds() {
        // n = 10_000, r = 100, f1 = 40, f2 = 30 → d = 70, scale = 100.
        let p = Spectrum::from_spectrum(10_000, vec![40, 30]).unwrap();
        let full = Gee::default().estimate_full(&p, SampleDesign::WithReplacement);
        assert_eq!(full.estimator, "GEE");
        assert_eq!((full.d, full.r, full.n), (70, 100, 10_000));
        let (lower, upper) = full.interval.expect("GEE carries bounds");
        assert_eq!(lower, 70.0);
        assert_eq!(upper, 30.0 + 100.0 * 40.0);
        assert!(lower <= full.estimate && full.estimate <= upper);
        // The bounds are design-independent.
        assert_eq!(
            Gee::default().estimate_full(&p, SampleDesign::wor(10_000)),
            full
        );
        // The upper bound is clamped to n.
        let all_singletons = Spectrum::from_spectrum(50, vec![10]).unwrap();
        let (_, upper) = Gee::default()
            .estimate_full(&all_singletons, SampleDesign::WithReplacement)
            .interval
            .unwrap();
        assert_eq!(upper, 50.0);
    }

    #[test]
    fn expected_error_bound_on_scenario_b_style_input() {
        // Scenario-B-like data: 1 heavy value + k singletons. GEE's ratio
        // error must stay within ~sqrt(n/r) of the truth by Theorem 2.
        let n = 100_000u64;
        let r = 1_000u64;
        // Sample: heavy value ~990 times, 10 singletons.
        let mut spectrum = vec![0u64; 990];
        spectrum[0] = 10; // f1 = 10
        spectrum[989] = 1; // f990 = 1
        let p = Spectrum::from_spectrum(n, spectrum).unwrap();
        assert_eq!(p.sample_size(), r);
        let est = Gee::default().estimate(&p);
        // True D might be anywhere in [11, ~1000]; the estimate
        // sqrt(100)·10 + 1 = 101 has ratio error ≤ 10 for the whole range.
        let bound = (n as f64 / r as f64).sqrt();
        for truth in [11.0, 101.0, 1000.0] {
            let err = crate::error::ratio_error(est, truth);
            assert!(err <= bound + 1e-9, "err {err} vs bound {bound}");
        }
    }
}

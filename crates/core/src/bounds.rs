//! Confidence bounds around the GEE estimate (paper §4).
//!
//! Alongside the point estimate, GEE yields an interval that contains the
//! true distinct count with high probability:
//!
//! * `LOWER = d` — the distinct values already seen; unconditionally valid.
//! * `UPPER = Σ_{i>1} f_i + (n/r)·f₁` — every singleton scaled up as if it
//!   represented `n/r` hidden values.
//!
//! The paper's Tables 1 and 2 track how `[LOWER, UPPER]` collapses onto `D`
//! as the sampling fraction grows; the same quantities are reproduced by
//! the `tab1`/`tab2` experiments.

use crate::gee::Gee;
use crate::spectrum::Spectrum;

/// The `[LOWER, UPPER]` confidence interval the GEE analysis provides,
/// together with the point estimate it surrounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// `LOWER = d`: a certain lower bound on `D`.
    pub lower: f64,
    /// The (clamped) GEE point estimate.
    pub estimate: f64,
    /// `UPPER = Σ_{i>1} f_i + (n/r)·f₁`, clamped to `n`; exceeds `D` with
    /// high probability.
    pub upper: f64,
}

impl ConfidenceInterval {
    /// Whether a claimed true count falls inside the interval.
    pub fn contains(&self, truth: f64) -> bool {
        self.lower <= truth && truth <= self.upper
    }

    /// Interval width, `UPPER - LOWER`. Shrinks rapidly as `r → n`; the
    /// paper reads the width as the estimator's self-reported confidence.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Width relative to the point estimate — a scale-free confidence
    /// indicator an optimizer can threshold on.
    pub fn relative_width(&self) -> f64 {
        self.width() / self.estimate
    }
}

/// Computes the GEE estimate with its `[LOWER, UPPER]` interval.
///
/// ```
/// use dve_core::{bounds::gee_confidence_interval, Spectrum};
/// let p = Spectrum::from_spectrum(10_000, vec![40, 30]).unwrap();
/// let ci = gee_confidence_interval(&p);
/// assert_eq!(ci.lower, 70.0);                 // d
/// assert_eq!(ci.upper, 30.0 + 100.0 * 40.0);  // Σ_{i>1} f_i + (n/r) f1
/// assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
/// ```
pub fn gee_confidence_interval(profile: &Spectrum) -> ConfidenceInterval {
    use crate::estimator::DistinctEstimator;
    // GEE's `estimate_full` is the single source of the §4 bounds; this
    // view re-shapes it for callers that want the interval type. The
    // bounds are design-independent, so the paper's default design is
    // passed unconditionally.
    let full = Gee::default().estimate_full(profile, crate::design::SampleDesign::WithReplacement);
    let (lower, upper) = full
        .interval
        .expect("GEE always reports its confidence bounds");
    ConfidenceInterval {
        lower,
        estimate: full.estimate,
        upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_estimate() {
        let p = Spectrum::from_spectrum(1_000_000, vec![500, 200, 100]).unwrap();
        let ci = gee_confidence_interval(&p);
        assert!(ci.lower <= ci.estimate);
        assert!(ci.estimate <= ci.upper);
    }

    #[test]
    fn lower_is_d_upper_is_scaled() {
        // n = 1000, r = 10 (f1 = 4, f3 = 2): d = 6, scale = 100.
        let p = Spectrum::from_spectrum(1_000, vec![4, 0, 2]).unwrap();
        let ci = gee_confidence_interval(&p);
        assert_eq!(ci.lower, 6.0);
        assert_eq!(ci.upper, 2.0 + 100.0 * 4.0);
    }

    #[test]
    fn upper_clamped_to_table_size() {
        // All singletons with a huge scale: UPPER must not exceed n.
        let p = Spectrum::from_spectrum(50, vec![10]).unwrap();
        let ci = gee_confidence_interval(&p);
        assert_eq!(ci.upper, 50.0);
    }

    #[test]
    fn no_singletons_collapses_interval_to_d() {
        let p = Spectrum::from_spectrum(1_000, vec![0, 30]).unwrap();
        let ci = gee_confidence_interval(&p);
        assert_eq!(ci.lower, 30.0);
        assert_eq!(ci.upper, 30.0);
        assert_eq!(ci.width(), 0.0);
        assert!(ci.contains(30.0));
        assert!(!ci.contains(31.0));
    }

    #[test]
    fn width_shrinks_with_sampling_fraction() {
        // Fix the per-class truth and grow the sample: the spectrum shifts
        // mass away from f1, so the interval tightens.
        let wide = Spectrum::from_spectrum(10_000, vec![90, 5]).unwrap();
        let tight = Spectrum::from_spectrum(10_000, vec![10, 45, 300]).unwrap();
        let ci_wide = gee_confidence_interval(&wide);
        let ci_tight = gee_confidence_interval(&tight);
        assert!(ci_tight.relative_width() < ci_wide.relative_width());
    }

    #[test]
    fn full_sample_interval_is_exact() {
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        let ci = gee_confidence_interval(&p);
        // q = 1: LOWER = d = 3, UPPER = Σ_{i>1} f_i + 1·f1 = 3.
        assert_eq!(ci.lower, 3.0);
        assert_eq!(ci.upper, 3.0);
    }
}

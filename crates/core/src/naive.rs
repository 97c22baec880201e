//! Trivial baseline estimators.
//!
//! Neither is usable in practice, but both anchor the experiment plots:
//! [`SampleDistinct`] is the certain lower bound (it *is* the paper's
//! LOWER), and [`LinearScaleUp`] is the certain-overestimate end of the
//! spectrum whose geometric midpoint GEE takes.

use crate::estimator::DistinctEstimator;
use crate::spectrum::Spectrum;

/// Returns `d`, the number of distinct values in the sample, unchanged.
/// Always an underestimate (or exact); equals the paper's LOWER bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleDistinct;

impl DistinctEstimator for SampleDistinct {
    fn name(&self) -> &'static str {
        "SAMPLE-D"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        profile.distinct_in_sample() as f64
    }
}

/// Scales every singleton up by the full inverse sampling fraction:
/// `D̂ = Σ_{i>1} f_i + (n/r)·f₁` — the paper's UPPER bound read as a point
/// estimate. Wildly overestimates whenever singletons come from merely
/// rare (not unique) values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearScaleUp;

impl DistinctEstimator for LinearScaleUp {
    fn name(&self) -> &'static str {
        "SCALEUP"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let f1 = profile.f(1) as f64;
        let scale = profile.table_size() as f64 / profile.sample_size() as f64;
        (d - f1) + scale * f1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::gee_confidence_interval;
    use crate::gee::Gee;

    #[test]
    fn sample_distinct_is_d() {
        let p = Spectrum::from_spectrum(1_000, vec![3, 2]).unwrap();
        assert_eq!(SampleDistinct.estimate(&p), 5.0);
    }

    #[test]
    fn scale_up_matches_upper_bound() {
        let p = Spectrum::from_spectrum(1_000, vec![4, 0, 2]).unwrap();
        let ci = gee_confidence_interval(&p);
        assert_eq!(LinearScaleUp.estimate(&p), ci.upper);
    }

    #[test]
    fn gee_is_between_the_two_naive_baselines() {
        let p = Spectrum::from_spectrum(100_000, vec![40, 10, 2]).unwrap();
        let lo = SampleDistinct.estimate(&p);
        let hi = LinearScaleUp.estimate(&p);
        let gee = Gee::default().estimate(&p);
        assert!(lo <= gee && gee <= hi, "{lo} {gee} {hi}");
    }
}

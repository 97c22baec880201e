//! Hybrid estimators: HYBSKEW, HYBGEE, and HYBVAR.
//!
//! * [`HybSkew`] — Haas et al. (1995): a χ² uniformity test routes the
//!   sample to the smoothed jackknife (low skew) or Shlosser (high skew).
//! * [`HybGee`] — this paper's §5.1: identical routing, but GEE replaces
//!   Shlosser on the high-skew branch. The paper shows this dominates
//!   HYBSKEW across distributions.
//! * [`HybVar`] — Haas & Stokes (1998) `D̂_hybrid`: selects among the
//!   smoothed first-order jackknife, `Duj2a`, and the modified Shlosser by
//!   thresholding the estimated squared CV `γ̂²` of class sizes.
//!
//! The paper criticizes hybrids for *instability*: near the decision
//! boundary, re-sampling the same table flips the branch and the two
//! branch estimators usually disagree wildly. [`HybridDecision`] exposes
//! which branch fired so the `ablation_hybrid_flip` bench can measure
//! exactly that.

use crate::estimator::DistinctEstimator;
use crate::gee::Gee;
use crate::jackknife::{Duj2a, SmoothedJackknife, UnsmoothedJackknife1};
use crate::shlosser::{ModifiedShlosser, Shlosser};
use crate::skew::{skew_test, squared_cv_estimate};
use crate::spectrum::Spectrum;

/// Which branch a hybrid estimator selected for a given sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridDecision {
    /// The low-skew branch (smoothed jackknife).
    LowSkew,
    /// The moderate-skew branch (only used by HYBVAR: `Duj2a`).
    ModerateSkew,
    /// The high-skew branch (Shlosser / GEE / modified Shlosser).
    HighSkew,
}

/// Significance level for the χ² skew test used by HYBSKEW/HYBGEE.
///
/// Haas et al. describe "the standard χ² test"; we default to rejecting
/// uniformity at the 99th percentile (α = 0.01), which reproduces the
/// routing the paper reports (Z = 0 → jackknife, Z ≥ 1 → skewed branch)
/// across the experiment grid.
pub const DEFAULT_SKEW_ALPHA: f64 = 0.01;

/// HYBSKEW (Haas, Naughton, Seshadri, Stokes 1995).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybSkew {
    alpha: f64,
}

impl Default for HybSkew {
    fn default() -> Self {
        Self {
            alpha: DEFAULT_SKEW_ALPHA,
        }
    }
}

impl HybSkew {
    /// HYBSKEW with the default significance level.
    pub fn new() -> Self {
        Self::default()
    }

    /// HYBSKEW with a custom χ² significance level in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        Self { alpha }
    }

    /// Which branch fires for this profile.
    pub fn decision(&self, profile: &Spectrum) -> HybridDecision {
        if skew_test(profile, self.alpha).high_skew {
            HybridDecision::HighSkew
        } else {
            HybridDecision::LowSkew
        }
    }
}

impl DistinctEstimator for HybSkew {
    fn name(&self) -> &'static str {
        "HYBSKEW"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        match self.decision(profile) {
            HybridDecision::HighSkew => Shlosser.estimate_raw(profile),
            _ => SmoothedJackknife.estimate_raw(profile),
        }
    }
}

/// HYBGEE (paper §5.1): HYBSKEW with GEE substituted for Shlosser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybGee {
    alpha: f64,
}

impl Default for HybGee {
    fn default() -> Self {
        Self {
            alpha: DEFAULT_SKEW_ALPHA,
        }
    }
}

impl HybGee {
    /// HYBGEE with the default significance level.
    pub fn new() -> Self {
        Self::default()
    }

    /// HYBGEE with a custom χ² significance level in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        Self { alpha }
    }

    /// Which branch fires for this profile.
    pub fn decision(&self, profile: &Spectrum) -> HybridDecision {
        if skew_test(profile, self.alpha).high_skew {
            HybridDecision::HighSkew
        } else {
            HybridDecision::LowSkew
        }
    }
}

impl DistinctEstimator for HybGee {
    fn name(&self) -> &'static str {
        "HYBGEE"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        match self.decision(profile) {
            HybridDecision::HighSkew => Gee::default().estimate_raw(profile),
            _ => SmoothedJackknife.estimate_raw(profile),
        }
    }
}

/// HYBVAR (Haas & Stokes 1998 `D̂_hybrid`).
///
/// Routing by the estimated squared coefficient of variation `γ̂²`
/// (seeded with `Duj1`):
///
/// * `γ̂² ≤ low` — near-uniform class sizes: use `Duj1`;
/// * `low < γ̂² ≤ high` — moderate skew: use `Duj2a`;
/// * `γ̂² > high` — heavy skew: use the modified Shlosser.
///
/// The thresholds are calibration constants; the JASA paper's exact cut
/// points are not reproduced in the PODS paper, so we use `(0.05, 3.0)`
/// and record the choice in DESIGN.md. The qualitative behavior the
/// paper's Figures 9–10 exercise (switching into modified Shlosser as
/// `γ̂²` grows with scale) is preserved for any sensible cut points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybVar {
    low: f64,
    high: f64,
}

impl Default for HybVar {
    fn default() -> Self {
        Self {
            low: 0.05,
            high: 3.0,
        }
    }
}

impl HybVar {
    /// HYBVAR with the default `(0.05, 3.0)` thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// HYBVAR with custom `γ̂²` thresholds, `0 ≤ low < high`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ low < high`.
    pub fn with_thresholds(low: f64, high: f64) -> Self {
        assert!(
            (0.0..).contains(&low) && low < high,
            "need 0 <= low < high, got ({low}, {high})"
        );
        Self { low, high }
    }

    /// Which branch fires for this profile.
    pub fn decision(&self, profile: &Spectrum) -> HybridDecision {
        let seed = UnsmoothedJackknife1.estimate(profile);
        let gamma2 = squared_cv_estimate(profile, seed);
        if gamma2 <= self.low {
            HybridDecision::LowSkew
        } else if gamma2 <= self.high {
            HybridDecision::ModerateSkew
        } else {
            HybridDecision::HighSkew
        }
    }
}

impl DistinctEstimator for HybVar {
    fn name(&self) -> &'static str {
        "HYBVAR"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        match self.decision(profile) {
            HybridDecision::LowSkew => UnsmoothedJackknife1.estimate_raw(profile),
            HybridDecision::ModerateSkew => Duj2a::default().estimate_raw(profile),
            HybridDecision::HighSkew => ModifiedShlosser.estimate_raw(profile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_numeric::special::ln_choose;

    fn uniform_expected_spectrum(d_true: u64, class: u64, q: f64) -> Vec<u64> {
        let mut spectrum = Vec::new();
        for i in 1..=class.min(30) {
            let ln_c = ln_choose(class, i);
            let v = d_true as f64
                * (ln_c + i as f64 * q.ln() + (class - i) as f64 * (1.0 - q).ln()).exp();
            spectrum.push(v.round() as u64);
        }
        spectrum
    }

    fn skewed_profile() -> Spectrum {
        // One huge class + singletons: unmistakably high skew.
        let mut s = vec![0u64; 900];
        s[0] = 100;
        s[899] = 1;
        Spectrum::from_spectrum(1_000_000, s).unwrap()
    }

    fn uniform_profile() -> Spectrum {
        let s = uniform_expected_spectrum(10_000, 100, 0.008);
        Spectrum::from_spectrum(1_000_000, s).unwrap()
    }

    #[test]
    fn hybskew_routes_by_skew() {
        assert_eq!(
            HybSkew::new().decision(&uniform_profile()),
            HybridDecision::LowSkew
        );
        assert_eq!(
            HybSkew::new().decision(&skewed_profile()),
            HybridDecision::HighSkew
        );
    }

    #[test]
    fn hybskew_matches_branch_estimators() {
        let u = uniform_profile();
        let s = skewed_profile();
        assert_eq!(HybSkew::new().estimate(&u), SmoothedJackknife.estimate(&u));
        assert_eq!(HybSkew::new().estimate(&s), Shlosser.estimate(&s));
    }

    #[test]
    fn hybgee_uses_gee_on_high_skew() {
        let s = skewed_profile();
        assert_eq!(HybGee::new().estimate(&s), Gee::default().estimate(&s));
        let u = uniform_profile();
        assert_eq!(HybGee::new().estimate(&u), SmoothedJackknife.estimate(&u));
    }

    #[test]
    fn hybgee_and_hybskew_agree_on_low_skew() {
        // The paper's Figure 1 observation: both use the jackknife there.
        let u = uniform_profile();
        assert_eq!(HybGee::new().estimate(&u), HybSkew::new().estimate(&u));
    }

    #[test]
    fn hybvar_low_cv_uses_duj1() {
        let u = uniform_profile();
        assert_eq!(HybVar::new().decision(&u), HybridDecision::LowSkew);
        assert_eq!(
            HybVar::new().estimate(&u),
            UnsmoothedJackknife1.estimate(&u)
        );
    }

    #[test]
    fn hybvar_high_cv_uses_modified_shlosser() {
        let s = skewed_profile();
        assert_eq!(HybVar::new().decision(&s), HybridDecision::HighSkew);
        assert_eq!(HybVar::new().estimate(&s), ModifiedShlosser.estimate(&s));
    }

    #[test]
    fn custom_thresholds_shift_decisions() {
        let s = skewed_profile();
        // With an absurdly high cutoff, even the skewed profile routes low.
        let lax = HybVar::with_thresholds(1e9, 2e9);
        assert_eq!(lax.decision(&s), HybridDecision::LowSkew);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn hybvar_rejects_inverted_thresholds() {
        HybVar::with_thresholds(5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn hybskew_rejects_bad_alpha() {
        HybSkew::with_alpha(1.5);
    }

    #[test]
    fn estimates_respect_sanity_bounds() {
        for p in [uniform_profile(), skewed_profile()] {
            for e in [
                &HybSkew::new() as &dyn DistinctEstimator,
                &HybGee::new(),
                &HybVar::new(),
            ] {
                let v = e.estimate(&p);
                assert!(
                    v >= p.distinct_in_sample() as f64 && v <= p.table_size() as f64,
                    "{} out of bounds: {v}",
                    e.name()
                );
            }
        }
    }
}

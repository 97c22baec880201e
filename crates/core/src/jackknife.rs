//! The jackknife family of distinct-value estimators.
//!
//! These are the classical baselines the paper compares against, drawn
//! from Burnham & Overton (1978/79), Haas, Naughton, Seshadri & Stokes
//! (VLDB 1995), and Haas & Stokes (JASA 1998):
//!
//! * [`FirstOrderJackknife`], [`SecondOrderJackknife`] — the
//!   infinite-population species-richness jackknives.
//! * [`UnsmoothedJackknife1`] (`Duj1`) — finite-population first-order
//!   jackknife, `d / (1 − (1−q)·f₁/r)`.
//! * [`SmoothedJackknife`] — HNSS95's smoothed jackknife: the generalized
//!   jackknife `D̂ = d + K·f₁` with `K` derived under the equal-class-size
//!   ("smoothed") model, the class size itself estimated by method of
//!   moments. This is the low-skew branch of HYBSKEW and HYBGEE.
//! * [`UnsmoothedJackknife2`] (`Duj2`) — `Duj1` with a first-order skew
//!   correction through the estimated squared CV.
//! * [`Duj2a`] — the stabilized `Duj2` recommended by Haas–Stokes:
//!   classes with sample frequency above a cutoff are set aside and
//!   counted exactly, `Duj2` is applied to the rest.

use crate::estimator::DistinctEstimator;
use crate::skew::squared_cv_estimate;
use crate::spectrum::Spectrum;
use dve_numeric::poly::pow1m;
use dve_numeric::roots::brent;

/// First-order (infinite-population) jackknife:
/// `D̂ = d + f₁·(r−1)/r`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstOrderJackknife;

impl DistinctEstimator for FirstOrderJackknife {
    fn name(&self) -> &'static str {
        "JACK1"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        let f1 = profile.f(1) as f64;
        d + f1 * (r - 1.0) / r
    }
}

/// Second-order (infinite-population) jackknife:
/// `D̂ = d + f₁·(2r−3)/r − f₂·(r−2)²/(r(r−1))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecondOrderJackknife;

impl DistinctEstimator for SecondOrderJackknife {
    fn name(&self) -> &'static str {
        "JACK2"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        let f1 = profile.f(1) as f64;
        let f2 = profile.f(2) as f64;
        if r < 2.0 {
            return d + f1;
        }
        d + f1 * (2.0 * r - 3.0) / r - f2 * (r - 2.0) * (r - 2.0) / (r * (r - 1.0))
    }
}

/// Unsmoothed first-order jackknife for finite populations
/// (Haas–Stokes `Duj1`): `D̂ = d / (1 − (1−q)·f₁/r)` with `q = r/n`.
///
/// When the denominator vanishes (all-singleton sample at a tiny sampling
/// fraction) the raw value diverges; the sanity clamp then returns `n`,
/// which is also the formula's limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnsmoothedJackknife1;

impl DistinctEstimator for UnsmoothedJackknife1 {
    fn name(&self) -> &'static str {
        "DUJ1"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        let q = profile.sampling_fraction();
        let f1 = profile.f(1) as f64;
        let denom = 1.0 - (1.0 - q) * f1 / r;
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        d / denom
    }
}

/// HNSS95-style smoothed jackknife.
///
/// The generalized jackknife `D̂ = d + K·f₁` requires
/// `K = (D − E[d]) / E[f₁]`. "Smoothing" evaluates both expectations under
/// the equal-class-size model `Nᵢ = n/D` with Bernoulli(q) row sampling:
///
/// ```text
/// E[d]  = D · (1 − (1−q)^ñ)        E[f₁] = D · ñ·q·(1−q)^(ñ−1)
/// ⇒ K   = (1−q) / (ñ·q)            with ñ = n/D the common class size.
/// ```
///
/// The unknown `ñ` is estimated by method of moments from the observed
/// `d`: solve `d = (n/ñ)·(1 − (1−q)^ñ)` for `ñ ∈ [1, n/d]` (the right side
/// decreases monotonically in `ñ`, so the root is unique and bracketed).
/// Then `D̂_sj = d + f₁·(1−q)/(ñ̂·q)`.
///
/// On genuinely uniform data the model is exact and the estimator is
/// nearly unbiased — which is exactly why HYBSKEW routes low-skew data
/// here. On skewed data the equal-size assumption fails badly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmoothedJackknife;

impl SmoothedJackknife {
    /// Solves the method-of-moments equation for the common class size
    /// `ñ`. Exposed for the method-of-moments estimator, which reports
    /// `n/ñ̂` directly.
    pub fn solve_class_size(profile: &Spectrum) -> f64 {
        let n = profile.table_size() as f64;
        let d = profile.distinct_in_sample() as f64;
        let q = profile.sampling_fraction();
        if q >= 1.0 {
            // Full scan: every class fully observed.
            return n / d;
        }
        let g = |nu: f64| (n / nu) * (1.0 - pow1m(q, nu)) - d;
        // g(1) = n·q - d = r - d ≥ 0; g decreases in ñ. Upper end: at
        // ñ = n/d the value is d·(1 − (1−q)^{n/d}) − d < 0 unless d
        // singles out... g(n/d) ≤ 0 always, with equality impossible for
        // q < 1, so the bracket [1, n/d] is valid. Guard the degenerate
        // d = r case (every sampled row distinct): g(1) = 0 exactly.
        let hi = (n / d).max(1.0);
        if g(1.0) <= 0.0 {
            return 1.0;
        }
        brent(g, 1.0, hi, 1e-9, 200).unwrap_or(hi)
    }
}

impl DistinctEstimator for SmoothedJackknife {
    fn name(&self) -> &'static str {
        "SJACK"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let q = profile.sampling_fraction();
        let f1 = profile.f(1) as f64;
        if q >= 1.0 {
            return d;
        }
        let nu = Self::solve_class_size(profile);
        d + f1 * (1.0 - q) / (nu * q)
    }
}

/// Unsmoothed second-order jackknife (Haas–Stokes `Duj2`):
///
/// ```text
/// D̂ = (1 − (1−q)·f₁/r)⁻¹ · ( d − f₁·(1−q)·ln(1−q)·γ̂²/q )
/// ```
///
/// where `γ̂²` is the squared-CV estimate seeded with `Duj1`. Reduces to
/// `Duj1` when `γ̂² = 0` (uniform class sizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnsmoothedJackknife2;

impl DistinctEstimator for UnsmoothedJackknife2 {
    fn name(&self) -> &'static str {
        "DUJ2"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        let q = profile.sampling_fraction();
        let f1 = profile.f(1) as f64;
        if q >= 1.0 {
            return d;
        }
        let denom = 1.0 - (1.0 - q) * f1 / r;
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        let duj1 = (d / denom).min(profile.table_size() as f64);
        let gamma2 = squared_cv_estimate(profile, duj1);
        // ln(1−q) < 0, so the correction adds mass for skewed data.
        (d - f1 * (1.0 - q) * (1.0 - q).ln() * gamma2 / q) / denom
    }
}

/// Haas–Stokes `Duj2a`: the stabilized `Duj2`.
///
/// Classes with sample frequency above `cutoff` (Haas–Stokes use 50) are
/// "abundant": they are certainly in any reasonable sample, so they are
/// counted exactly and removed before applying `Duj2`. Their population
/// rows are estimated by linear scale-up `i/q` and subtracted from `n`
/// for the reduced problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Duj2a {
    /// Sample-frequency cutoff above which a class is treated as abundant.
    cutoff: u64,
}

impl Default for Duj2a {
    fn default() -> Self {
        Self { cutoff: 50 }
    }
}

impl Duj2a {
    /// `Duj2a` with the Haas–Stokes cutoff of 50.
    pub fn new() -> Self {
        Self::default()
    }

    /// `Duj2a` with a custom abundance cutoff (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cutoff == 0`.
    pub fn with_cutoff(cutoff: u64) -> Self {
        assert!(cutoff >= 1, "cutoff must be at least 1");
        Self { cutoff }
    }
}

impl DistinctEstimator for Duj2a {
    fn name(&self) -> &'static str {
        "DUJ2A"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let q = profile.sampling_fraction();
        let d = profile.distinct_in_sample() as f64;
        if q >= 1.0 {
            return d;
        }
        let abundant_classes = d - profile.distinct_with_freq_at_most(self.cutoff) as f64;
        let abundant_rows_in_sample =
            (profile.sample_size() - profile.rows_with_freq_at_most(self.cutoff)) as f64;
        let Some(rare) = profile.restrict_to_freq_at_most(self.cutoff) else {
            // Everything abundant: the sample almost surely saw every
            // class, so d itself is the estimate.
            return d;
        };
        // Estimated population rows behind the abundant classes.
        let abundant_rows_in_pop = abundant_rows_in_sample / q;
        let n_rare =
            ((profile.table_size() as f64) - abundant_rows_in_pop).max(rare.sample_size() as f64);
        let rare = match Spectrum::from_spectrum(n_rare.round() as u64, rare.to_dense()) {
            Ok(p) => p,
            Err(_) => return d,
        };
        let duj2 = UnsmoothedJackknife2.estimate(&rare);
        abundant_classes + duj2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::DistinctEstimator;

    fn profile(n: u64, spectrum: Vec<u64>) -> Spectrum {
        Spectrum::from_spectrum(n, spectrum).unwrap()
    }

    #[test]
    fn jack1_formula() {
        // d = 10, f1 = 4, r = 16.
        let p = profile(1_000, vec![4, 6]);
        let est = FirstOrderJackknife.estimate_raw(&p);
        assert!((est - (10.0 + 4.0 * 15.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn jack2_formula() {
        let p = profile(1_000, vec![4, 6]);
        let r = 16.0;
        let expected =
            10.0 + 4.0 * (2.0 * r - 3.0) / r - 6.0 * (r - 2.0) * (r - 2.0) / (r * (r - 1.0));
        assert!((SecondOrderJackknife.estimate_raw(&p) - expected).abs() < 1e-12);
    }

    #[test]
    fn duj1_formula_and_divergence() {
        let p = profile(1_000, vec![4, 6]);
        let q = 16.0 / 1000.0;
        let expected = 10.0 / (1.0 - (1.0 - q) * 4.0 / 16.0);
        assert!((UnsmoothedJackknife1.estimate_raw(&p) - expected).abs() < 1e-10);
        // All singletons at a tiny fraction: denominator ≈ 0 ⇒ clamp to n.
        let singles = profile(1_000_000, vec![10]);
        assert_eq!(UnsmoothedJackknife1.estimate(&singles), 1_000_000.0);
    }

    #[test]
    fn smoothed_jackknife_exact_on_uniform_expectations() {
        // Uniform data, D = 1000 classes of size 100, n = 100_000, q = 0.05.
        // Build the *expected* spectrum and check the estimator inverts it.
        let n = 100_000u64;
        let d_true = 1000.0;
        let class = 100.0;
        let q: f64 = 0.05;
        let e_d = d_true * (1.0 - (1.0 - q).powf(class));
        let e_f1 = d_true * class * q * (1.0 - q).powf(class - 1.0);
        // Approximate expected spectrum: put e_d - e_f1 mass at the mean
        // multiplicity so r comes out right.
        let f1 = e_f1.round() as u64;
        let r_target = (n as f64 * q).round() as u64;
        let rest_classes = (e_d.round() as u64) - f1;
        let rest_rows = r_target - f1;
        let mean_mult = (rest_rows as f64 / rest_classes as f64).round() as u64;
        let mut spectrum = vec![0u64; mean_mult as usize];
        spectrum[0] = f1;
        spectrum[mean_mult as usize - 1] = rest_classes;
        // Fix up r by adding leftover rows as one extra class.
        let r_now: u64 = f1 + mean_mult * rest_classes;
        assert!(r_now <= r_target + mean_mult);
        let p = Spectrum::from_spectrum(n, spectrum).unwrap();
        let est = SmoothedJackknife.estimate(&p);
        let err = crate::error::ratio_error(est, d_true);
        assert!(
            err < 1.15,
            "smoothed jackknife err {err} on uniform data, est {est}"
        );
    }

    #[test]
    fn smoothed_jackknife_all_distinct_sample() {
        // Every sampled row distinct (d = r): MoM gives ñ = 1, so
        // D̂ = d + f1(1-q)/q = d/q-ish → close to n on fully distinct data.
        let p = profile(10_000, vec![100]);
        let est = SmoothedJackknife.estimate(&p);
        let expected = 100.0 + 100.0 * (1.0 - 0.01) / 0.01;
        assert!((est - expected).abs() < 1e-6, "est {est}");
    }

    #[test]
    fn smoothed_jackknife_full_scan() {
        let p = Spectrum::from_sample_counts(4, [2, 2]).unwrap();
        assert_eq!(SmoothedJackknife.estimate(&p), 2.0);
    }

    #[test]
    fn class_size_solver_brackets() {
        // d close to r: tiny classes. d far below r: large classes.
        let small_classes = profile(100_000, vec![990, 5]); // r = 1000, d = 995
        let nu_small = SmoothedJackknife::solve_class_size(&small_classes);
        let big_classes = profile(100_000, {
            let mut s = vec![0u64; 100];
            s[99] = 10; // 10 classes seen 100 times each
            s
        });
        let nu_big = SmoothedJackknife::solve_class_size(&big_classes);
        assert!(nu_small < nu_big, "nu_small {nu_small} nu_big {nu_big}");
        assert!(nu_small >= 1.0);
    }

    #[test]
    fn duj2_reduces_to_duj1_without_pairs_signal() {
        // Uniform doubles: γ̂² = 0 when d_hat·pair-term stays below 1.
        let p = profile(100_000, vec![0, 50]);
        let duj1 = UnsmoothedJackknife1.estimate_raw(&p);
        let duj2 = UnsmoothedJackknife2.estimate_raw(&p);
        // f1 = 0 makes both exactly d.
        assert_eq!(duj1, 50.0);
        assert_eq!(duj2, 50.0);
    }

    #[test]
    fn duj2_adds_mass_under_skew() {
        // Skewed spectrum with singletons: Duj2 ≥ Duj1.
        let mut s = vec![0u64; 200];
        s[0] = 100;
        s[1] = 20;
        s[199] = 2;
        let p = profile(1_000_000, s);
        let duj1 = UnsmoothedJackknife1.estimate(&p);
        let duj2 = UnsmoothedJackknife2.estimate(&p);
        assert!(duj2 >= duj1, "duj2 {duj2} < duj1 {duj1}");
    }

    #[test]
    fn duj2a_counts_abundant_exactly() {
        // Two abundant classes (freq 600, 700) + rare tail.
        let mut s = vec![0u64; 700];
        s[0] = 50;
        s[1] = 10;
        s[599] = 1;
        s[699] = 1;
        let p = profile(1_000_000, s);
        let est = Duj2a::default().estimate(&p);
        // Must count the 2 abundant classes and estimate ≥ d for the rest.
        assert!(est >= p.distinct_in_sample() as f64);
        assert!(est <= 1_000_000.0);
    }

    #[test]
    fn duj2a_all_abundant_returns_d() {
        let mut s = vec![0u64; 100];
        s[99] = 5;
        let p = profile(10_000, s);
        assert_eq!(Duj2a::default().estimate(&p), 5.0);
    }

    #[test]
    fn duj2a_cutoff_is_configurable() {
        let p = profile(100_000, vec![30, 10, 0, 0, 0, 0, 0, 0, 0, 2]);
        let strict = Duj2a::with_cutoff(5).estimate(&p);
        let lax = Duj2a::with_cutoff(50).estimate(&p);
        // Both are sane; they may differ because the cutoff moves classes
        // between the exact and estimated parts.
        assert!(strict >= p.distinct_in_sample() as f64);
        assert!(lax >= p.distinct_in_sample() as f64);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn duj2a_rejects_zero_cutoff() {
        Duj2a::with_cutoff(0);
    }

    #[test]
    fn full_scan_everything_returns_d() {
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        for est in [
            &SmoothedJackknife as &dyn DistinctEstimator,
            &UnsmoothedJackknife2,
            &Duj2a::default(),
        ] {
            assert_eq!(est.estimate(&p), 3.0, "{}", est.name());
        }
    }
}

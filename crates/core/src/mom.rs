//! Method-of-moments estimators under the equal-class-size model.
//!
//! Assume every distinct value occurs equally often. Then the expected
//! number of distinct values in the sample has a closed form in `D`, and
//! inverting it at the observed `d` yields an estimate. Two variants:
//!
//! * [`MethodOfMoments`] (finite population, Bernoulli-`q` approximation):
//!   solve `d = D·(1 − (1−q)^{n/D})` — this shares its solver with the
//!   smoothed jackknife.
//! * [`MethodOfMomentsInfinite`] (with-replacement/Poisson approximation):
//!   solve `d = D·(1 − e^{−r/D})` — the textbook "birthday" inversion.
//!
//! Exact on uniform data, badly biased under skew; useful baselines and a
//! good sanity check for the solvers.

use crate::estimator::DistinctEstimator;
use crate::jackknife::SmoothedJackknife;
use crate::spectrum::Spectrum;
use dve_numeric::roots::brent;

/// Finite-population method-of-moments estimator: `D̂ = n / ñ̂` where `ñ̂`
/// solves the smoothed-model moment equation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodOfMoments;

impl DistinctEstimator for MethodOfMoments {
    fn name(&self) -> &'static str {
        "MOM"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let n = profile.table_size() as f64;
        if profile.sampling_fraction() >= 1.0 {
            return profile.distinct_in_sample() as f64;
        }
        let nu = SmoothedJackknife::solve_class_size(profile);
        n / nu
    }
}

/// Infinite-population ("birthday problem") method of moments:
/// solve `d = D·(1 − e^{−r/D})` for `D ∈ [d, ∞)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodOfMomentsInfinite;

impl DistinctEstimator for MethodOfMomentsInfinite {
    fn name(&self) -> &'static str {
        "MOM-INF"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let r = profile.sample_size() as f64;
        let n = profile.table_size() as f64;
        if d >= r {
            // Every sampled row distinct: the moment equation's solution
            // diverges; the sample is consistent with any huge D.
            return f64::INFINITY;
        }
        let g = |big_d: f64| big_d * (1.0 - (-r / big_d).exp()) - d;
        // g(d) = d(1 − e^{−r/d}) − d < 0; g(D→∞) → r − d > 0.
        let mut hi = (2.0 * d).max(4.0);
        for _ in 0..200 {
            if g(hi) > 0.0 {
                break;
            }
            hi *= 2.0;
        }
        brent(g, d.max(1.0), hi, 1e-9, 200).unwrap_or(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_mom_exact_on_model_data() {
        // D = 100 classes of size 1000, n = 100_000, q = 0.01 (r = 1000).
        // E[d] = 100(1 − 0.99^1000) ≈ 99.996 ≈ 100 → estimate ≈ 100.
        let mut s = vec![0u64; 20];
        s[9] = 60; // 60 classes seen 10 times
        s[10] = 30; // 30 classes seen 11 times  (r = 600 + 330 + ...)
        s[19] = 5; // 5 seen 20 times
        let p = Spectrum::from_spectrum(100_000, s).unwrap();
        // d = 95, r = 1030. The equal-size model gives ñ ≈ n·q·.../d...
        let est = MethodOfMoments.estimate(&p);
        // All classes seen ⇒ estimate should be close to d.
        let d = p.distinct_in_sample() as f64;
        assert!(est >= d && est < 2.0 * d, "est {est}, d {d}");
    }

    #[test]
    fn infinite_mom_birthday_inversion() {
        // r = 100 draws, d = 95 distinct: solve 95 = D(1−e^{−100/D}).
        let mut s = vec![0u64; 2];
        s[0] = 90;
        s[1] = 5; // 5 doubletons: d = 95, r = 100
        let p = Spectrum::from_spectrum(1_000_000, s).unwrap();
        let est = MethodOfMomentsInfinite.estimate_raw(&p);
        // Verify it satisfies the moment equation.
        let resid = est * (1.0 - (-100.0 / est).exp()) - 95.0;
        assert!(resid.abs() < 1e-6, "resid {resid}");
        assert!(est > 95.0 && est < 1_000_000.0);
    }

    #[test]
    fn infinite_mom_all_distinct_clamps_to_n() {
        let p = Spectrum::from_spectrum(5_000, vec![50]).unwrap();
        assert_eq!(MethodOfMomentsInfinite.estimate(&p), 5_000.0);
    }

    #[test]
    fn full_scan_exact() {
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        assert_eq!(MethodOfMoments.estimate(&p), 3.0);
    }

    #[test]
    fn estimators_within_sanity_bounds() {
        let p = Spectrum::from_spectrum(10_000, vec![20, 10, 3]).unwrap();
        for e in [
            &MethodOfMoments as &dyn DistinctEstimator,
            &MethodOfMomentsInfinite,
        ] {
            let v = e.estimate(&p);
            assert!((33.0..=10_000.0).contains(&v), "{} gave {v}", e.name());
        }
    }
}

//! Goodman's 1949 unbiased estimator — the cautionary baseline.
//!
//! Goodman derived the *unique* unbiased estimator of the number of
//! classes under simple random sampling without replacement (valid when
//! the sample size is at least the largest class size):
//!
//! ```text
//! D̂ = d + Σ_{i=1}^{r} (−1)^{i+1} · C(n−r+i−1, i)/C(r, i) · f_i
//! ```
//!
//! The alternating weights grow factorially, so despite being exactly
//! unbiased the estimator has astronomically large variance for any
//! realistic sampling fraction — which is why the literature (and this
//! paper) treats it as unusable in practice. It is implemented here to
//! demonstrate that failure mode empirically; the `ablation` benches show
//! its variance exploding while its mean stays centered.

use crate::estimator::DistinctEstimator;
use crate::spectrum::Spectrum;
use dve_numeric::special::ln_choose;

/// Goodman's unbiased estimator (sampling without replacement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Goodman;

impl DistinctEstimator for Goodman {
    fn name(&self) -> &'static str {
        "GOODMAN"
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let n = profile.table_size();
        let r = profile.sample_size();
        let d = profile.distinct_in_sample() as f64;
        if r == n {
            return d;
        }
        let mut correction = 0.0f64;
        for (i, f) in profile.spectrum() {
            // w_i = (−1)^{i+1} · C(n−r+i−1, i)/C(r, i), in log space.
            let ln_w = ln_choose(n - r + i - 1, i) - ln_choose(r, i);
            let w = ln_w.exp();
            let signed = if i % 2 == 1 { w } else { -w };
            correction += signed * f as f64;
        }
        d + correction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::DistinctEstimator;

    /// Exhaustively verify unbiasedness on a tiny population where we can
    /// enumerate all samples: n = 5 rows with values [a, a, b, b, c]
    /// (D = 3), r = 3 without replacement. Goodman requires r ≥ max class
    /// size (2 here), so the estimator must be exactly unbiased.
    #[test]
    fn unbiased_on_enumerable_population() {
        let rows = ['a', 'a', 'b', 'b', 'c'];
        let n = rows.len();
        let r = 3;
        let mut total = 0.0;
        let mut count = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let sample = [rows[i], rows[j], rows[k]];
                    let p = Spectrum::from_values(n as u64, sample).unwrap();
                    assert_eq!(p.sample_size(), r as u64);
                    total += Goodman.estimate_raw(&p);
                    count += 1.0;
                }
            }
        }
        let mean = total / count;
        assert!(
            (mean - 3.0).abs() < 1e-10,
            "Goodman must be unbiased; mean = {mean}"
        );
    }

    #[test]
    fn full_scan_returns_d() {
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        assert_eq!(Goodman.estimate(&p), 3.0);
    }

    #[test]
    fn weights_explode_for_small_fractions() {
        // n = 10_000, r = 10, one doubleton and 8 singletons: the i = 2
        // weight is ≈ C(9991, 2)/C(10, 2) ≈ 1.1e6 — raw estimate is wildly
        // negative, demonstrating the variance pathology.
        let p = Spectrum::from_spectrum(10_000, vec![8, 1]).unwrap();
        let raw = Goodman.estimate_raw(&p);
        assert!(raw < -100_000.0, "raw = {raw}");
        // The clamp saves the caller.
        assert_eq!(Goodman.estimate(&p), 9.0);
    }

    #[test]
    fn all_singletons_gives_huge_positive() {
        let p = Spectrum::from_spectrum(10_000, vec![10]).unwrap();
        let raw = Goodman.estimate_raw(&p);
        assert!(raw > 5_000.0, "raw = {raw}");
        assert_eq!(
            Goodman.estimate(&p),
            10_000.0f64.min(raw.max(10.0)).min(10_000.0)
        );
    }
}

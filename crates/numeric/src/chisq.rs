//! The chi-squared distribution and Pearson's goodness-of-fit statistic.
//!
//! The hybrid estimators (HYBSKEW from Haas et al. 1995, and this paper's
//! HYBGEE) decide between a low-skew and a high-skew branch with a standard
//! chi-squared uniformity test on the sample's class counts. This module
//! provides the distribution functions (built on the regularized incomplete
//! gamma function from [`crate::special`]) and the test statistic itself.

use crate::roots::bisect;
use crate::special::{reg_gamma_lower, reg_gamma_upper};

/// CDF of the chi-squared distribution with `k` degrees of freedom,
/// `F(x; k) = P(k/2, x/2)`.
///
/// # Panics
///
/// Panics if `k <= 0` or `x < 0`.
pub fn chi2_cdf(k: f64, x: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive, got {k}");
    assert!(x >= 0.0, "chi-squared variate must be nonnegative, got {x}");
    reg_gamma_lower(k / 2.0, x / 2.0)
}

/// Survival function `1 - F(x; k)`, computed without cancellation.
pub fn chi2_sf(k: f64, x: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive, got {k}");
    assert!(x >= 0.0, "chi-squared variate must be nonnegative, got {x}");
    reg_gamma_upper(k / 2.0, x / 2.0)
}

/// Inverse CDF (quantile function) of the chi-squared distribution.
///
/// Solves `F(x; k) = p` by bisection on a bracket grown from the
/// Wilson–Hilferty normal approximation. Accuracy ~1e-10 in `x`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)` or `k <= 0`. (`p = 1` has no finite
/// quantile.)
pub fn chi2_inv_cdf(k: f64, p: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive, got {k}");
    assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
    if p == 0.0 {
        return 0.0;
    }
    // Wilson–Hilferty starting point: X ≈ k (1 - 2/(9k) + z sqrt(2/(9k)))^3,
    // where z is the standard normal quantile. We do not need an accurate z:
    // a crude logistic approximation is enough to seed the bracket.
    let z = approx_std_normal_quantile(p);
    let wh = k * (1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt()).powi(3);
    let mut lo = 0.0f64;
    let mut hi = wh.max(k).max(1.0);
    // Grow the upper bracket until the CDF exceeds p.
    for _ in 0..200 {
        if chi2_cdf(k, hi) >= p {
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    bisect(|x| chi2_cdf(k, x) - p, lo, hi, 1e-12, 200)
        .expect("chi2_inv_cdf: bracket must contain the quantile")
}

/// Crude standard normal quantile used only to seed the chi-squared
/// quantile bracket (Bowling et al. logistic approximation; max abs error
/// ≈ 0.02 in `z`, irrelevant after bisection).
fn approx_std_normal_quantile(p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    -(1.0 / p - 1.0).ln() / 1.702
}

/// A chi-squared distribution with fixed degrees of freedom.
///
/// Thin convenience wrapper over the free functions, useful when many
/// evaluations share the same `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates the distribution with `k` degrees of freedom.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn new(k: f64) -> Self {
        assert!(k > 0.0, "degrees of freedom must be positive, got {k}");
        Self { k }
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> f64 {
        self.k
    }

    /// CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        chi2_cdf(self.k, x)
    }

    /// Survival function at `x`.
    pub fn sf(&self, x: f64) -> f64 {
        chi2_sf(self.k, x)
    }

    /// Quantile at probability `p`.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        chi2_inv_cdf(self.k, p)
    }

    /// Mean of the distribution (`k`).
    pub fn mean(&self) -> f64 {
        self.k
    }

    /// Variance of the distribution (`2k`).
    pub fn variance(&self) -> f64 {
        2.0 * self.k
    }
}

/// Result of a Pearson chi-squared goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Test {
    /// The test statistic `Σ (observed - expected)² / expected`.
    pub statistic: f64,
    /// Degrees of freedom used (`cells - 1`).
    pub dof: f64,
    /// Right-tail p-value under the chi-squared null.
    pub p_value: f64,
}

/// Pearson's chi-squared test of observed counts against expected counts.
///
/// `observed` and `expected` must be the same nonzero length, and every
/// expected count must be positive. Returns the statistic, `len - 1`
/// degrees of freedom, and the right-tail p-value.
///
/// # Panics
///
/// Panics on length mismatch, empty input, fewer than two cells, or a
/// non-positive expected count.
pub fn pearson_chi2_test(observed: &[f64], expected: &[f64]) -> Chi2Test {
    assert_eq!(
        observed.len(),
        expected.len(),
        "observed/expected length mismatch"
    );
    assert!(
        observed.len() >= 2,
        "chi-squared test needs at least two cells"
    );
    let mut stat = 0.0;
    for (i, (&o, &e)) in observed.iter().zip(expected).enumerate() {
        assert!(e > 0.0, "expected count at cell {i} must be positive");
        let diff = o - e;
        stat += diff * diff / e;
    }
    let dof = (observed.len() - 1) as f64;
    Chi2Test {
        statistic: stat,
        dof,
        p_value: chi2_sf(dof, stat),
    }
}

/// The uniformity test used by the hybrid estimators.
///
/// Given the per-class counts observed in a sample of size `r` over `d`
/// observed classes, tests the null hypothesis that all `d` classes are
/// equally likely (expected count `r / d` each). This is exactly the test
/// Haas et al. (1995) use to route between the smoothed jackknife
/// (low skew, null not rejected) and Shlosser (high skew, null rejected).
///
/// Returns `true` when the data looks **high-skew** — i.e. the uniformity
/// null is rejected at significance level `alpha`: the right-tail p-value
/// of the Pearson statistic is below `alpha`. That is the same verdict as
/// the statistic exceeding `chi2_inv_cdf(d − 1, 1 − alpha)`, from one
/// survival-function evaluation instead of a quantile search.
///
/// # Panics
///
/// Panics if `counts` is empty or `alpha` is not in `(0, 1)`.
pub fn uniformity_test_rejects(counts: &[u64], alpha: f64) -> bool {
    assert!(!counts.is_empty(), "need at least one observed class");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "significance level must be in (0,1), got {alpha}"
    );
    let d = counts.len();
    if d == 1 {
        // A single class carries no evidence against uniformity over the
        // observed classes (the statistic is identically zero).
        return false;
    }
    let r: u64 = counts.iter().sum();
    let expected = r as f64 / d as f64;
    let mut stat = 0.0;
    for &c in counts {
        let diff = c as f64 - expected;
        stat += diff * diff / expected;
    }
    chi2_sf((d - 1) as f64, stat) < alpha
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn cdf_reference_values() {
        // k=1: F(x) = erf(sqrt(x/2)).
        assert!(close(chi2_cdf(1.0, 1.0), 0.682_689_492_137_086, 1e-10));
        // k=2: F(x) = 1 - e^{-x/2}.
        assert!(close(chi2_cdf(2.0, 2.0), 1.0 - (-1.0f64).exp(), 1e-12));
        // k=10 median ≈ 9.34182.
        assert!(close(chi2_cdf(10.0, 9.341_818_2), 0.5, 1e-6));
    }

    #[test]
    fn sf_complements_cdf() {
        for &k in &[1.0, 2.0, 5.0, 30.0, 100.0] {
            for &x in &[0.0, 0.5, 3.0, 10.0, 80.0] {
                assert!((chi2_cdf(k, x) + chi2_sf(k, x) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn quantiles_match_published_critical_values() {
        // Standard chi-squared table critical values.
        let cases = [
            (1.0, 0.95, 3.841),
            (2.0, 0.95, 5.991),
            (5.0, 0.95, 11.070),
            (10.0, 0.95, 18.307),
            (10.0, 0.99, 23.209),
            (30.0, 0.95, 43.773),
            (1.0, 0.975, 5.024),
        ];
        for (k, p, expected) in cases {
            let q = chi2_inv_cdf(k, p);
            assert!(
                (q - expected).abs() < 2e-3,
                "quantile({k}, {p}) = {q}, table {expected}"
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &k in &[1.0, 3.0, 7.5, 40.0] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.999] {
                let x = chi2_inv_cdf(k, p);
                assert!(close(chi2_cdf(k, x), p, 1e-9), "k={k}, p={p}");
            }
        }
    }

    #[test]
    fn quantile_at_zero() {
        assert_eq!(chi2_inv_cdf(4.0, 0.0), 0.0);
    }

    #[test]
    fn distribution_wrapper_moments() {
        let c = ChiSquared::new(6.0);
        assert_eq!(c.mean(), 6.0);
        assert_eq!(c.variance(), 12.0);
        assert_eq!(c.dof(), 6.0);
        assert!(close(c.cdf(6.0) + c.sf(6.0), 1.0, 1e-12));
    }

    #[test]
    fn pearson_test_uniform_data_high_pvalue() {
        // Perfectly uniform observed counts: statistic 0, p-value 1.
        let t = pearson_chi2_test(&[25.0, 25.0, 25.0, 25.0], &[25.0; 4]);
        assert_eq!(t.statistic, 0.0);
        assert!(close(t.p_value, 1.0, 1e-12));
        assert_eq!(t.dof, 3.0);
    }

    #[test]
    fn pearson_test_textbook_example() {
        // Classic die example: observed [22,21,22,27,22,36] over 150 rolls.
        let obs = [22.0, 21.0, 22.0, 27.0, 22.0, 36.0];
        let exp = [25.0; 6];
        let t = pearson_chi2_test(&obs, &exp);
        assert!(close(t.statistic, 6.72, 1e-9));
        assert!(t.p_value > 0.2 && t.p_value < 0.3, "p = {}", t.p_value);
    }

    #[test]
    fn uniformity_detects_skew() {
        // Heavily skewed counts must reject; flat counts must not.
        assert!(uniformity_test_rejects(&[96, 1, 1, 1, 1], 0.05));
        assert!(!uniformity_test_rejects(&[20, 21, 19, 20, 20], 0.05));
        assert!(!uniformity_test_rejects(&[100], 0.05));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pearson_rejects_mismatched_lengths() {
        pearson_chi2_test(&[1.0, 2.0], &[1.0]);
    }
}

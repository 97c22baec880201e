//! Skew statistics computed from a sample's frequency profile.
//!
//! Two quantities drive the hybrid estimators:
//!
//! * the **χ² uniformity test** on the observed per-class counts (Haas et
//!   al. 1995) — HYBSKEW and HYBGEE branch on whether the test rejects
//!   uniformity. The verdict comes from one survival-function evaluation,
//!   `p = SF(stat; d−1) < α`, which is the same test as `stat` exceeding
//!   the `1−α` quantile but needs no inversion of the CDF;
//! * the **estimated squared coefficient of variation** `γ̂²` of the class
//!   sizes (Chao–Lee / Haas–Stokes) — DUJ2A corrects with it and HYBVAR
//!   selects its constituent estimator by thresholding it.

use crate::spectrum::Spectrum;
use dve_numeric::chisq::chi2_sf;

/// Result of the sample-skew χ² test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewTest {
    /// Pearson statistic of observed class counts against the uniform
    /// expectation `r / d`.
    pub statistic: f64,
    /// Right-tail p-value of `statistic` under χ²(d − 1); 1 when the
    /// sample has a single class.
    pub p_value: f64,
    /// `true` when uniformity is rejected — the data looks high-skew.
    pub high_skew: bool,
}

/// The χ² uniformity test of Haas et al. (1995), computed directly from
/// the frequency spectrum.
///
/// Under the null (all `d` observed classes equally likely) each class's
/// expected count is `r / d`; the Pearson statistic is
/// `Σ_i f_i · (i - r/d)² / (r/d)` with `d - 1` degrees of freedom.
/// Uniformity is rejected — high skew — when the p-value falls below
/// `alpha`, i.e. when the statistic exceeds the `1 - alpha` quantile.
/// [`dve_numeric::chisq::chi2_inv_cdf`] gives that quantile to a caller
/// who wants it.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1)`.
pub fn skew_test(profile: &Spectrum, alpha: f64) -> SkewTest {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "significance level must be in (0,1), got {alpha}"
    );
    let d = profile.distinct_in_sample();
    let r = profile.sample_size() as f64;
    if d <= 1 {
        // One observed class: the statistic is identically zero and the
        // test has no degrees of freedom; treat as not-rejecting (the
        // hybrid then uses its low-skew branch, whose clamp returns d).
        return SkewTest {
            statistic: 0.0,
            p_value: 1.0,
            high_skew: false,
        };
    }
    let expected = r / d as f64;
    let mut stat = 0.0;
    for (i, f) in profile.spectrum() {
        let diff = i as f64 - expected;
        stat += f as f64 * diff * diff / expected;
    }
    let p_value = chi2_sf((d - 1) as f64, stat);
    SkewTest {
        statistic: stat,
        p_value,
        high_skew: p_value < alpha,
    }
}

/// Finite-population estimate of the squared coefficient of variation of
/// the class sizes, `γ² = (D/N²)·Σᵢ Nᵢ² − 1`, given a preliminary
/// distinct-count estimate `d_hat` (Chao & Lee 1992; Haas & Stokes 1998).
///
/// Uses the unbiased estimate of `Σᵢ Nᵢ(Nᵢ−1)` from the sample:
/// `N(N−1)/(r(r−1)) · Σᵢ i(i−1) f_i`, yielding
///
/// ```text
/// γ̂² = max{ 0,  d_hat · (N−1)/(N·r·(r−1)) · Σ i(i−1) f_i  +  d_hat/N  −  1 }
/// ```
///
/// Returns 0 for `r < 2` (no pair information in the sample).
pub fn squared_cv_estimate(profile: &Spectrum, d_hat: f64) -> f64 {
    let r = profile.sample_size();
    if r < 2 {
        return 0.0;
    }
    let n = profile.table_size() as f64;
    let r = r as f64;
    let mut pair_sum = 0.0; // Σ i(i-1) f_i
    for (i, f) in profile.spectrum() {
        pair_sum += (i * (i - 1)) as f64 * f as f64;
    }
    let gamma2 = d_hat * (n - 1.0) / (n * r * (r - 1.0)) * pair_sum + d_hat / n - 1.0;
    gamma2.max(0.0)
}

/// Infinite-population variant of [`squared_cv_estimate`], as used by the
/// classical Chao–Lee estimator: `γ̂² = max{0, d_hat · Σ i(i−1)f_i /
/// (r(r−1)) − 1}`.
pub fn squared_cv_estimate_infinite(profile: &Spectrum, d_hat: f64) -> f64 {
    let r = profile.sample_size();
    if r < 2 {
        return 0.0;
    }
    let r = r as f64;
    let mut pair_sum = 0.0;
    for (i, f) in profile.spectrum() {
        pair_sum += (i * (i - 1)) as f64 * f as f64;
    }
    (d_hat * pair_sum / (r * (r - 1.0)) - 1.0).max(0.0)
}

/// Sample coverage estimate `Ĉ = 1 − f₁/r` (Good–Turing): the estimated
/// fraction of the population mass belonging to classes seen in the
/// sample. Feeds Chao–Lee and gives examples a human-readable
/// "how much of the data have we effectively seen" number.
pub fn coverage_estimate(profile: &Spectrum) -> f64 {
    1.0 - profile.f(1) as f64 / profile.sample_size() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts_are_low_skew() {
        // 50 classes each seen 4 times: perfectly uniform.
        let p = Spectrum::from_spectrum(100_000, {
            let mut s = vec![0u64; 4];
            s[3] = 50;
            s
        })
        .unwrap();
        let t = skew_test(&p, 0.05);
        assert_eq!(t.statistic, 0.0);
        assert!(!t.high_skew);
    }

    #[test]
    fn heavy_head_is_high_skew() {
        // One class seen 500 times, 50 singletons.
        let mut s = vec![0u64; 500];
        s[0] = 50;
        s[499] = 1;
        let p = Spectrum::from_spectrum(100_000, s).unwrap();
        let t = skew_test(&p, 0.05);
        assert!(t.high_skew, "stat {} p-value {}", t.statistic, t.p_value);
    }

    #[test]
    fn single_class_does_not_reject() {
        let p = Spectrum::from_spectrum(100_000, {
            let mut s = vec![0u64; 100];
            s[99] = 1;
            s
        })
        .unwrap();
        assert!(!skew_test(&p, 0.05).high_skew);
    }

    #[test]
    fn statistic_matches_hand_computation() {
        // Counts [1, 3] → r = 4, d = 2, expected = 2.
        // stat = (1-2)²/2 + (3-2)²/2 = 1.
        let p = Spectrum::from_spectrum(100, vec![1, 0, 1]).unwrap();
        let t = skew_test(&p, 0.05);
        assert!((t.statistic - 1.0).abs() < 1e-12);
        // P(χ²(1) > 1) = erfc(1/√2); far above 0.05 — not rejected.
        assert!(
            (t.p_value - 0.317_310_507_862_914_1).abs() < 1e-12,
            "p-value {}",
            t.p_value
        );
        assert!(!t.high_skew);
    }

    #[test]
    fn p_value_verdict_matches_critical_value_verdict() {
        use dve_numeric::check::{check, f64_in};
        use dve_numeric::chisq::chi2_inv_cdf;

        // Class counts from uniform (s = 0) to Zipf-3, each jittered by up
        // to `w·√c` so the statistic lands on both sides of the critical
        // value; d is log-uniform in [2, 20 000].
        let (mut rejected, mut kept) = (0u32, 0u32);
        check(
            "p_value_verdict_matches_critical_value_verdict",
            150,
            |rng| {
                let d = f64_in(rng, 2f64.ln()..20_000f64.ln()).exp().round() as u64;
                let s = f64_in(rng, 0.0..3.0);
                let head = f64_in(rng, 1.0..2_000.0);
                let w = f64_in(rng, 0.0..5.0);
                let counts: Vec<u64> = (1..=d)
                    .map(|j| {
                        let c = (head / (j as f64).powf(s)).max(1.0);
                        c as u64 + rng.below((w * c.sqrt()) as u64 + 1)
                    })
                    .collect();
                let r: u64 = counts.iter().sum();
                let p = Spectrum::from_sample_counts(r.saturating_mul(10), counts).unwrap();
                for alpha in [0.01, 0.025, 0.05] {
                    let t = skew_test(&p, alpha);
                    let crit = chi2_inv_cdf((d - 1) as f64, 1.0 - alpha);
                    assert_eq!(
                        t.high_skew,
                        t.statistic > crit,
                        "d={d} s={s} alpha={alpha}: stat {} crit {crit} p-value {}",
                        t.statistic,
                        t.p_value
                    );
                    if t.high_skew {
                        rejected += 1;
                    } else {
                        kept += 1;
                    }
                }
            },
        );
        assert!(rejected > 0 && kept > 0, "rejected {rejected}, kept {kept}");
    }

    #[test]
    fn cv_zero_for_all_singletons() {
        // No pair information: Σ i(i-1) f_i = 0, and d_hat/N - 1 < 0 ⇒ 0.
        let p = Spectrum::from_spectrum(10_000, vec![100]).unwrap();
        assert_eq!(squared_cv_estimate(&p, 5000.0), 0.0);
        assert_eq!(squared_cv_estimate_infinite(&p, 5000.0), 0.0);
    }

    #[test]
    fn cv_grows_with_concentration() {
        let flat = Spectrum::from_spectrum(100_000, {
            let mut s = vec![0u64; 2];
            s[1] = 100; // 100 classes seen twice
            s
        })
        .unwrap();
        let spiky = {
            let mut s = vec![0u64; 150];
            s[0] = 50; // 50 singletons
            s[149] = 1; // one class seen 150 times
            Spectrum::from_spectrum(100_000, s).unwrap()
        };
        let d_hat = 1000.0;
        assert!(
            squared_cv_estimate(&spiky, d_hat) > squared_cv_estimate(&flat, d_hat),
            "concentrated sample must show larger CV"
        );
    }

    #[test]
    fn cv_exact_on_small_case() {
        // Spectrum f1=2, f2=1: r = 4, Σ i(i-1) f_i = 2.
        // γ̂² = max{0, d_hat (N-1)/(N·12)·2 + d_hat/N - 1}.
        let p = Spectrum::from_spectrum(100, vec![2, 1]).unwrap();
        let d_hat = 30.0;
        let expected = 30.0 * 99.0 / (100.0 * 12.0) * 2.0 + 0.3 - 1.0;
        assert!((squared_cv_estimate(&p, d_hat) - expected).abs() < 1e-12);
    }

    #[test]
    fn coverage_estimate_range() {
        let p = Spectrum::from_spectrum(1000, vec![5, 0, 5]).unwrap();
        // r = 20, f1 = 5 → Ĉ = 0.75.
        assert!((coverage_estimate(&p) - 0.75).abs() < 1e-12);
        let all_single = Spectrum::from_spectrum(1000, vec![10]).unwrap();
        assert_eq!(coverage_estimate(&all_single), 0.0);
    }
}

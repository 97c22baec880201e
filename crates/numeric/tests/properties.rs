//! Property-based tests for the numerical substrate.

use dve_numeric::check::{check, f64_in, i64_in, u64_in, vec_of};
use dve_numeric::chisq::{chi2_cdf, chi2_inv_cdf, chi2_sf};
use dve_numeric::poly::{horner, pow1m, powi_u};
use dve_numeric::roots::{bisect, brent, fixed_point, newton};
use dve_numeric::special::{erf, erfc, ln_choose, ln_factorial, ln_gamma, reg_gamma_lower};
use dve_numeric::stats::{geometric_mean, mean, quantile, NeumaierSum, RunningMoments};

/// Γ(x+1) = x·Γ(x), i.e. lnΓ(x+1) − lnΓ(x) = ln x.
#[test]
fn ln_gamma_recurrence() {
    check("ln_gamma_recurrence", 200, |rng| {
        let x = f64_in(rng, 0.05..200.0);
        let lhs = ln_gamma(x + 1.0) - ln_gamma(x);
        assert!(
            (lhs - x.ln()).abs() < 1e-9 * (1.0 + x.ln().abs()),
            "recurrence at {x}: {lhs} vs {}",
            x.ln()
        );
    });
}

/// The incomplete gamma P(a,·) is a CDF: in [0,1], nondecreasing.
#[test]
fn incomplete_gamma_is_cdf() {
    check("incomplete_gamma_is_cdf", 200, |rng| {
        let a = f64_in(rng, 0.1..100.0);
        let x1 = f64_in(rng, 0.0..200.0);
        let x2 = f64_in(rng, 0.0..200.0);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let p_lo = reg_gamma_lower(a, lo);
        let p_hi = reg_gamma_lower(a, hi);
        assert!((0.0..=1.0).contains(&p_lo));
        assert!((0.0..=1.0).contains(&p_hi));
        assert!(p_hi >= p_lo - 1e-12);
    });
}

/// erf is odd, bounded, and erfc complements it.
#[test]
fn erf_properties() {
    check("erf_properties", 200, |rng| {
        let x = f64_in(rng, -5.0..5.0);
        assert!((erf(x) + erf(-x)).abs() < 1e-12);
        assert!(erf(x).abs() <= 1.0);
        assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-10);
    });
}

/// Pascal's rule in log space: C(n,k) = C(n−1,k−1) + C(n−1,k).
#[test]
fn pascal_rule() {
    check("pascal_rule", 200, |rng| {
        let n = u64_in(rng, 2..500);
        let k_frac = f64_in(rng, 0.0..1.0);
        let k = 1 + ((n - 2) as f64 * k_frac) as u64;
        let lhs = ln_choose(n, k).exp();
        let rhs = ln_choose(n - 1, k - 1).exp() + ln_choose(n - 1, k).exp();
        assert!((lhs - rhs).abs() < 1e-6 * rhs.max(1.0), "n={n}, k={k}");
    });
}

/// ln n! is superadditive-consistent: ln (n!·m!) ≤ ln (n+m)!.
#[test]
fn factorial_monotonicity() {
    check("factorial_monotonicity", 200, |rng| {
        let n = u64_in(rng, 0..500);
        let m = u64_in(rng, 0..500);
        assert!(ln_factorial(n) + ln_factorial(m) <= ln_factorial(n + m) + 1e-9);
    });
}

/// χ² CDF/SF/quantile are mutually consistent.
#[test]
fn chi2_consistency() {
    check("chi2_consistency", 200, |rng| {
        let k = f64_in(rng, 0.5..150.0);
        let p = f64_in(rng, 0.001..0.999);
        let x = chi2_inv_cdf(k, p);
        assert!(x >= 0.0);
        assert!((chi2_cdf(k, x) - p).abs() < 1e-7, "k={k}, p={p}, x={x}");
        assert!((chi2_cdf(k, x) + chi2_sf(k, x) - 1.0).abs() < 1e-10);
    });
}

/// `SF(stat) < α` and `stat > F⁻¹(1 − α)` are the same test: placed at a
/// relative distance `u ∈ [1e-9, 1e-1]` on either side of the critical
/// value, the two verdicts agree for `k` up to 2·10⁶ degrees of freedom.
#[test]
fn chi2_p_value_verdict_matches_quantile_verdict() {
    check(
        "chi2_p_value_verdict_matches_quantile_verdict",
        200,
        |rng| {
            let k = f64_in(rng, 0.0..(2e6f64).ln()).exp().round().max(1.0);
            let alpha = [0.01, 0.025, 0.05][u64_in(rng, 0..3) as usize];
            let crit = chi2_inv_cdf(k, 1.0 - alpha);
            let u = f64_in(rng, (1e-9f64).ln()..(1e-1f64).ln()).exp();
            let stat = if rng.below(2) == 0 {
                crit * (1.0 + u)
            } else {
                crit * (1.0 - u)
            };
            if (stat - crit).abs() > 1e-9 * crit {
                assert_eq!(
                    chi2_sf(k, stat) < alpha,
                    stat > crit,
                    "k={k} alpha={alpha} stat={stat} crit={crit} sf={}",
                    chi2_sf(k, stat)
                );
            }
        },
    );
}

/// pow1m agrees with powf and respects monotonicity in y.
#[test]
fn pow1m_consistency() {
    check("pow1m_consistency", 200, |rng| {
        let x = f64_in(rng, 0.0..0.999);
        let y1 = f64_in(rng, 0.0..10_000.0);
        let y2 = f64_in(rng, 0.0..10_000.0);
        let direct = (1.0 - x).powf(y1);
        assert!((pow1m(x, y1) - direct).abs() <= 1e-9 * (1.0 + direct));
        let (lo, hi) = if y1 <= y2 { (y1, y2) } else { (y2, y1) };
        assert!(pow1m(x, hi) <= pow1m(x, lo) + 1e-12);
    });
}

/// powi_u is exact for small integer powers of integers.
#[test]
fn powi_u_matches_checked_mul() {
    check("powi_u_matches_checked_mul", 200, |rng| {
        let base = i64_in(rng, 0..20);
        let exp = u64_in(rng, 0..12);
        let expected = (base as f64).powi(exp as i32);
        assert!((powi_u(base as f64, exp) - expected).abs() < 1e-6 * (1.0 + expected));
    });
}

/// Horner evaluation is linear in the coefficients.
#[test]
fn horner_linearity() {
    check("horner_linearity", 200, |rng| {
        let coeffs = vec_of(rng, 0..6, |rng| f64_in(rng, -10.0..10.0));
        let x = f64_in(rng, -3.0..3.0);
        let scale = f64_in(rng, -5.0..5.0);
        let scaled: Vec<f64> = coeffs.iter().map(|c| c * scale).collect();
        let lhs = horner(&scaled, x);
        let rhs = scale * horner(&coeffs, x);
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
    });
}

/// Neumaier summation matches exact rational arithmetic on integers.
#[test]
fn neumaier_exact_on_integers() {
    check("neumaier_exact_on_integers", 200, |rng| {
        let values = vec_of(rng, 1..200, |rng| i64_in(rng, -1_000_000..1_000_000));
        let mut s = NeumaierSum::new();
        for &v in &values {
            s.add(v as f64);
        }
        let exact: i64 = values.iter().sum();
        assert_eq!(s.total(), exact as f64);
    });
}

/// Welford mean equals the compensated mean; variance is nonnegative
/// and zero iff all values equal.
#[test]
fn welford_consistency() {
    check("welford_consistency", 200, |rng| {
        let values = vec_of(rng, 1..200, |rng| f64_in(rng, -1e6..1e6));
        let m: RunningMoments = values.iter().copied().collect();
        let mu = mean(&values);
        assert!((m.mean() - mu).abs() <= 1e-9 * (1.0 + mu.abs()));
        assert!(m.variance() >= -1e-9);
        let all_equal = values.windows(2).all(|w| w[0] == w[1]);
        if all_equal {
            assert!(m.variance().abs() < 1e-9);
        }
    });
}

/// Quantiles are monotone in q and bounded by min/max.
#[test]
fn quantile_monotone() {
    check("quantile_monotone", 200, |rng| {
        let values = vec_of(rng, 1..100, |rng| f64_in(rng, -1e6..1e6));
        let q1 = f64_in(rng, 0.0..1.0);
        let q2 = f64_in(rng, 0.0..1.0);
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = quantile(&values, lo_q);
        let hi = quantile(&values, hi_q);
        assert!(lo <= hi + 1e-9);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo >= min - 1e-9 && hi <= max + 1e-9);
    });
}

/// AM–GM: geometric mean ≤ arithmetic mean for positive data.
#[test]
fn am_gm_inequality() {
    check("am_gm_inequality", 200, |rng| {
        let values = vec_of(rng, 1..100, |rng| f64_in(rng, 0.001..1e6));
        assert!(geometric_mean(&values) <= mean(&values) * (1.0 + 1e-12));
    });
}

/// Root finders agree on random monotone cubics with a bracketed root.
#[test]
fn root_finders_agree() {
    check("root_finders_agree", 200, |rng| {
        let a = f64_in(rng, 0.1..5.0);
        let b = f64_in(rng, -10.0..10.0);
        let shift = f64_in(rng, -100.0..100.0);
        // f(x) = a·x³ + b·x − shift is strictly increasing for b ≥ 0;
        // force monotonicity with |b|.
        let b = b.abs();
        let f = |x: f64| a * x * x * x + b * x - shift;
        // Bracket generously.
        let (lo, hi) = (-100.0, 100.0);
        if !(f(lo) < 0.0 && f(hi) > 0.0) {
            return;
        }
        let r1 = bisect(f, lo, hi, 1e-10, 500).unwrap();
        let r2 = brent(f, lo, hi, 1e-12, 500).unwrap();
        assert!((r1 - r2).abs() < 1e-6, "bisect {r1} vs brent {r2}");
        let df = |x: f64| 3.0 * a * x * x + b;
        if df(r1) > 1e-6 {
            let r3 = newton(f, df, r1 + 0.5, 1e-10, 200).unwrap();
            assert!((r3 - r1).abs() < 1e-5, "newton {r3} vs {r1}");
        }
    });
}

/// Fixed-point iteration on a contraction converges to the unique
/// fixed point.
#[test]
fn fixed_point_contraction() {
    check("fixed_point_contraction", 200, |rng| {
        let c = f64_in(rng, -0.9..0.9);
        let offset = f64_in(rng, -10.0..10.0);
        // g(x) = c·x + offset has fixed point offset/(1−c); |c| < 1 makes
        // it a contraction.
        let expected = offset / (1.0 - c);
        let r = fixed_point(|x| c * x + offset, 0.0, -1e6, 1e6, 1e-12, 10_000).unwrap();
        assert!(
            (r - expected).abs() < 1e-6 * (1.0 + expected.abs()),
            "{r} vs {expected}"
        );
    });
}

//! Special functions: log-gamma, regularized incomplete gamma, error function.
//!
//! These are the classical implementations (Lanczos approximation for
//! `ln Γ`, the series / continued-fraction pair for the incomplete gamma
//! function) with accuracy around 1e-13 relative over the ranges the rest of
//! the workspace uses. They back the chi-squared distribution in
//! [`crate::chisq`].

/// Coefficients for the Lanczos approximation with `g = 7`, `n = 9`.
///
/// This choice gives ~15 significant digits for real arguments `x > 0`.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    #[allow(clippy::excessive_precision)] // keep the published Lanczos digits
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation. For `x < 0.5` the reflection formula
/// `Γ(x) Γ(1-x) = π / sin(πx)` is applied, so small positive arguments stay
/// accurate.
///
/// # Panics
///
/// Panics if `x <= 0` (the real log-gamma has poles at non-positive
/// integers and is complex elsewhere on the negative axis).
///
/// # Examples
///
/// ```
/// use dve_numeric::ln_gamma;
/// assert!((ln_gamma(1.0) - 0.0).abs() < 1e-12);
/// assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection: ln Γ(x) = ln(π / sin(πx)) - ln Γ(1 - x).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Smallest iteration cap for the incomplete-gamma series and continued
/// fraction; [`gamma_max_iter`] raises it for large shapes.
const GAMMA_MAX_ITER: usize = 500;
/// Convergence tolerance for incomplete-gamma iterations.
const GAMMA_EPS: f64 = 1e-15;

/// Iteration cap for shape `a`. Near `x ≈ a` the series terms fall like
/// `exp(−n²/2a)`, so reaching [`GAMMA_EPS`] takes about `8.3·√a` terms; a
/// fixed cap silently truncates once `a` passes a few thousand (at
/// `a = 5·10⁵` a 500-term series reads `P(a, a) ≈ 0.26` instead of 0.5).
fn gamma_max_iter(a: f64) -> usize {
    GAMMA_MAX_ITER.max((10.0 * a.sqrt()).ceil() as usize)
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, x)` rises from 0 at `x = 0` to 1 as `x → ∞`; it is the CDF of the
/// Gamma(a, 1) distribution and hence of chi-squared after rescaling.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_gamma_lower(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_gamma_lower requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_gamma_lower requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_frac(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// Computed directly from the continued fraction when `x` is large so the
/// tail does not lose precision to cancellation.
pub fn reg_gamma_upper(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_gamma_upper requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_gamma_upper requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cont_frac(a, x)
    }
}

/// Series expansion for `P(a, x)`, accurate for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..gamma_max_iter(a) {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * GAMMA_EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Modified Lentz continued fraction for `Q(a, x)`, accurate for
/// `x >= a + 1`.
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=gamma_max_iter(a) {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < GAMMA_EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{-t²} dt`.
///
/// Expressed through the regularized incomplete gamma function:
/// `erf(x) = sign(x) · P(1/2, x²)`. Accuracy tracks the incomplete gamma
/// implementation (≈1e-13 relative).
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let v = reg_gamma_lower(0.5, x * x);
    if x > 0.0 {
        v
    } else {
        -v
    }
}

/// Complement of the error function, `erfc(x) = 1 - erf(x)`.
///
/// For positive `x` uses the upper incomplete gamma directly so large
/// arguments keep full relative precision in the tail.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        if x == 0.0 {
            1.0
        } else {
            reg_gamma_upper(0.5, x * x)
        }
    } else {
        1.0 + reg_gamma_lower(0.5, x * x)
    }
}

/// Natural logarithm of `n!` computed as `ln Γ(n + 1)`.
///
/// Used by estimators that need binomial/hypergeometric weights without
/// overflowing `f64` factorials.
pub fn ln_factorial(n: u64) -> f64 {
    // Small cases from a table avoids the (tiny) Lanczos error where exact
    // values are cheap to provide.
    const TABLE: [f64; 10] = [
        0.0,
        0.0,                    // 0!, 1!
        std::f64::consts::LN_2, // ln 2!
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
    ];
    if (n as usize) < TABLE.len() {
        TABLE[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `-inf` when `k > n`, matching the convention `C(n, k) = 0`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(
                close(ln_gamma(n as f64), fact.ln(), 1e-12),
                "ln_gamma({n}) = {} expected {}",
                ln_gamma(n as f64),
                fact.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12));
        // Γ(3/2) = √π / 2.
        assert!(close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12));
        // Γ(5/2) = 3√π / 4.
        assert!(close(ln_gamma(2.5), (3.0 * sqrt_pi / 4.0).ln(), 1e-12));
    }

    #[test]
    fn ln_gamma_reflection_small_args() {
        // Γ(0.25) ≈ 3.625609908221908.
        assert!(close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln(), 1e-11));
        // Γ(0.1) ≈ 9.513507698668732.
        assert!(close(ln_gamma(0.1), 9.513_507_698_668_732f64.ln(), 1e-11));
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^{-x} (Gamma(1,1) is Exp(1)).
        for &x in &[0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0] {
            let expected = 1.0 - f64::exp(-x);
            assert!(close(reg_gamma_lower(1.0, x), expected, 1e-13), "P(1,{x})");
        }
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &a in &[0.5, 1.0, 2.5, 10.0, 100.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 120.0] {
                let p = reg_gamma_lower(a, x);
                let q = reg_gamma_upper(a, x);
                assert!((p + q - 1.0).abs() < 1e-12, "P+Q at a={a}, x={x}");
                assert!((0.0..=1.0).contains(&p));
                assert!((0.0..=1.0).contains(&q));
            }
        }
    }

    #[test]
    fn incomplete_gamma_converges_at_large_shape() {
        // P(a, a) = 1/2 + 1/(3·√(2πa)) + O(a^{-3/2}) (Ramanujan's θ ≈ 1/3);
        // the neglected term is below 1e-8 from a = 1e4 on. A series cut
        // off at a fixed iteration count falls far short of 1/2 here.
        for &a in &[1e4, 5e4, 5e5, 1.2e6] {
            let p = reg_gamma_lower(a, a);
            let expected = 0.5 + 1.0 / (3.0 * (2.0 * std::f64::consts::PI * a).sqrt());
            assert!(
                (p - expected).abs() < 1e-7,
                "P({a}, {a}) = {p}, want {expected}"
            );
            assert!(
                (p + reg_gamma_upper(a, a) - 1.0).abs() < 1e-12,
                "P+Q at a={a}"
            );
            // The series (below a+1) and the continued fraction (above)
            // must meet where the evaluation switches between them.
            let below = reg_gamma_lower(a, a + 1.0 - 1e-6);
            let above = reg_gamma_lower(a, a + 1.0 + 1e-6);
            assert!(
                (above - below).abs() < 1e-7,
                "P jumps at x = a+1, a={a}: {below} → {above}"
            );
        }
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let a = 3.0;
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = reg_gamma_lower(a, x);
            assert!(p >= prev, "P({a},·) must be nondecreasing");
            prev = p;
        }
    }

    #[test]
    fn erf_reference_values() {
        // Abramowitz & Stegun table values.
        assert!(close(erf(0.5), 0.520_499_877_813_046_5, 1e-12));
        assert!(close(erf(1.0), 0.842_700_792_949_714_9, 1e-12));
        assert!(close(erf(2.0), 0.995_322_265_018_952_7, 1e-12));
        assert!(close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12));
        assert_eq!(erf(0.0), 0.0);
    }

    #[test]
    fn erfc_tail_is_positive_and_small() {
        let v = erfc(5.0);
        assert!(v > 0.0 && v < 2e-11, "erfc(5) = {v}");
        assert!(close(erfc(1.0), 1.0 - erf(1.0), 1e-12));
        assert!(close(erfc(-1.0), 1.0 + erf(1.0), 1e-12));
    }

    #[test]
    fn ln_factorial_exact_small() {
        let mut fact = 1u64;
        for n in 0..15u64 {
            if n > 0 {
                fact *= n;
            }
            assert!(close(ln_factorial(n), (fact as f64).ln(), 1e-12));
        }
    }

    #[test]
    fn ln_choose_matches_pascal() {
        // C(10, 3) = 120.
        assert!(close(ln_choose(10, 3), 120f64.ln(), 1e-12));
        // C(52, 5) = 2598960.
        assert!(close(ln_choose(52, 5), 2_598_960f64.ln(), 1e-12));
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }
}

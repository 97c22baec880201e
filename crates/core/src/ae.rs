//! AE — the Adaptive Estimator (paper §5.2–5.3).
//!
//! GEE fixes the coefficient of `f₁` at `sqrt(n/r)`, which is too small
//! for low-skew data with many distinct values. AE keeps the generalized
//! jackknife form `D̂ = d + K·f₁` but *adapts* `K` to the sample:
//! unbiasedness demands
//!
//! ```text
//! K = Σᵢ (1−pᵢ)^r  /  Σᵢ r·pᵢ·(1−pᵢ)^(r−1)
//! ```
//!
//! The unknown `pᵢ` are approximated from the spectrum. Values with sample
//! frequency `i ≥ 3` are high-frequency: take `pᵢ = i/r`. The `f₁ + f₂`
//! low-frequency representatives stand for an unknown number `m` of
//! classes sharing total mass `(f₁ + 2f₂)/r` equally. Substituting and
//! using `D = d − f₁ − f₂ + m` produces a fixed-point equation in `m`
//! (paper §5.3):
//!
//! ```text
//! m − f₁ − f₂ = f₁ · [ Σ_{i≥3} (1−i/r)^r f_i + m·(1 − (f₁+2f₂)/(r·m))^r ]
//!                    ─────────────────────────────────────────────────────────────
//!                    [ Σ_{i≥3} i(1−i/r)^{r−1} f_i + (f₁+2f₂)·(1 − (f₁+2f₂)/(r·m))^{r−1} ]
//! ```
//!
//! solved here with a bracketing root finder; the paper's
//! exponential-approximation variant (`(1−i/r)^r → e^{−i}`,
//! `(1−L/(rm))^r → e^{−L/m}`) is also provided ([`AeForm::ExpApprox`])
//! and compared in the ablation bench. The estimate is
//! `D̂ = d + m̂ − f₁ − f₂`, clamped to `[d, n]` as always.
//!
//! Both displayed equations model `r` *independent* draws (sampling with
//! replacement). When the [`SampleDesign`] declares the sample was drawn
//! **without replacement**, the miss/singleton probabilities become
//! hypergeometric: a class occupying `c` of the table's `n` rows is missed
//! with probability `C(n−c, r)/C(n, r)` and seen exactly once with
//! probability `c·C(n−c, r−1)/C(n, r)`. Substituting those for the
//! binomial `(1−p)^r` / `r·p·(1−p)^{r−1}` terms (with the same class-size
//! guesses `c = i·n/r` for `i ≥ 3` and `c_m = L·n/(r·m)` for the low
//! block) yields the WOR fixed point solved by [`AdaptiveEstimator::solve_m_for`].
//! This closes the WOR bias documented in ROADMAP.md: on the noise-free
//! 900-distinct / 20%-WOR fixture the WR form returns ≈ 1009 (+12%) while
//! the hypergeometric form lands within 5% of the truth.
//!
//! Each solve splits the fixed point into a per-solve part and a per-`m`
//! part. Everything that does not depend on `m` is computed once per
//! solve: `L = f₁ + 2f₂`, the `i ≥ 3` sums of numerator and denominator,
//! and under WOR `ln C(n, r)` plus the constant `ln Γ(r+1)`, `ln Γ(r)`,
//! `ln Γ(r−1)` of every `ln C(·, r−k)`. Each root-finder step then
//! evaluates only the low block: a closed form under WR, and under WOR a
//! 64-step bisection for the low classes' size. Every hoisted value keeps
//! its expression and summation order, so `m̂`, the root finder's path and
//! `core.ae.solve_iters` are bit-identical to evaluating the whole equation
//! at every step. Under WOR, AE-EXP solves the identical hypergeometric
//! equation (its `e^{−i}` shortcut approximates the binomial only), so
//! there it costs the same as AE.

use crate::design::SampleDesign;
use crate::estimator::DistinctEstimator;
use crate::spectrum::Spectrum;
use dve_numeric::poly::pow1m;
use dve_numeric::roots::brent;
use dve_numeric::special::ln_gamma;
use std::sync::{Arc, OnceLock};

/// `ln C(x, y)` for real (non-integer) arguments via `ln Γ`, given the
/// caller's precomputed `ln_gamma_y1 = ln Γ(y + 1)`. Requires `x ≥ y ≥ 0`;
/// callers guard the degenerate regions before calling.
fn ln_choose_real(x: f64, y: f64, ln_gamma_y1: f64) -> f64 {
    ln_gamma(x + 1.0) - ln_gamma_y1 - ln_gamma(x - y + 1.0)
}

/// Residual evaluations per `solve_m` call (`core.ae.solve_iters`).
fn solve_iters_hist() -> &'static Arc<dve_obs::Histogram> {
    static H: OnceLock<Arc<dve_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| dve_obs::global().histogram("core.ae.solve_iters"))
}

/// Times the root finder failed to converge and AE fell back to the
/// bracket's upper end (`core.ae.solve_failures`).
fn solve_failures() -> &'static Arc<dve_obs::Counter> {
    static C: OnceLock<Arc<dve_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| dve_obs::global().counter("core.ae.solve_failures"))
}

/// Which algebraic form of the AE fixed-point equation to solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AeForm {
    /// The exact binomial terms `(1 − i/r)^r` (paper's first displayed
    /// equation). Default.
    #[default]
    ExactBinomial,
    /// The paper's "standard approximations": `e^{−i}` and `e^{−L/m}`.
    ExpApprox,
}

/// The Adaptive Estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveEstimator {
    form: AeForm,
}

impl AdaptiveEstimator {
    /// AE with the exact binomial equation form.
    pub fn new() -> Self {
        Self::default()
    }

    /// AE solving the chosen equation form.
    pub fn with_form(form: AeForm) -> Self {
        Self { form }
    }

    /// The residual `g(m) = m − f₁ − f₂ − f₁·K(m)` whose root is `m̂`,
    /// under the paper's with-replacement model. Exposed for the
    /// solver-convergence bench and tests.
    pub fn residual(&self, profile: &Spectrum, m: f64) -> f64 {
        self.residual_for(profile, SampleDesign::WithReplacement, m)
    }

    /// The residual under an explicit sampling design: the with-replacement
    /// form reproduces [`AdaptiveEstimator::residual`] bit-for-bit, while
    /// the without-replacement form swaps the binomial terms for their
    /// hypergeometric analogs (see the module docs).
    pub fn residual_for(&self, profile: &Spectrum, design: SampleDesign, m: f64) -> f64 {
        FixedPoint::new(self.form, profile, design).residual(m)
    }

    /// Solves for `m̂` on `[f₁ + f₂, n]`.
    ///
    /// Boundary behavior:
    /// * `f₁ = 0` — the equation forces `m = f₁ + f₂`; `D̂ = d`.
    /// * residual never crosses zero and stays negative (all-singleton
    ///   samples) — the data is consistent with everything being distinct;
    ///   return the upper boundary `n` (the clamp caps `D̂` at `n`).
    pub fn solve_m(&self, profile: &Spectrum) -> f64 {
        self.solve_m_for(profile, SampleDesign::WithReplacement)
    }

    /// Solves the fixed point for an explicit sampling design; the
    /// with-replacement design reproduces [`AdaptiveEstimator::solve_m`]
    /// bit-for-bit. Bracket and boundary behavior are shared across
    /// designs (see [`AdaptiveEstimator::solve_m`]).
    pub fn solve_m_for(&self, profile: &Spectrum, design: SampleDesign) -> f64 {
        let f1 = profile.f(1) as f64;
        let f2 = profile.f(2) as f64;
        if f1 == 0.0 {
            return f1 + f2;
        }
        let fixed_point = FixedPoint::new(self.form, profile, design);
        let (m_hat, iters) = fixed_point.solve(profile.table_size() as f64);
        solve_iters_hist().record(iters);
        m_hat
    }
}

/// The AE fixed point for one (profile, design, form), split into the
/// part that does not depend on `m` — computed once here — and the
/// low-frequency block, which [`FixedPoint::k`] evaluates per `m`.
///
/// Every hoisted value keeps the expression and summation order of the
/// per-`m` formula it replaces, so a root-finder step returns the same
/// bits as evaluating `K(m)` from the profile from scratch.
struct FixedPoint {
    f1: f64,
    f2: f64,
    r: f64,
    /// `L = f₁ + 2f₂`, the rows contributed by the f₁/f₂ classes.
    low_mass: f64,
    /// The `i ≥ 3` (high-frequency) sums of `K`'s numerator and
    /// denominator.
    high_num: f64,
    high_den: f64,
    low: LowBlock,
}

/// How the `m` low-frequency classes enter `K(m)`.
enum LowBlock {
    /// With replacement, exact binomial terms `(1 − L/(rm))^r`.
    Binomial,
    /// With replacement, the approximation `e^{−L/m}`.
    Exp,
    /// Without replacement (both forms): hypergeometric terms.
    Hypergeometric(Hypergeometric),
    /// A WOR sample of the whole declared table hides nothing: `K = 0`.
    Exhausted,
}

impl FixedPoint {
    fn new(form: AeForm, profile: &Spectrum, design: SampleDesign) -> Self {
        let r = profile.sample_size() as f64;
        let f1 = profile.f(1) as f64;
        let f2 = profile.f(2) as f64;
        let (mut high_num, mut high_den) = (0.0, 0.0);
        let high = profile
            .spectrum()
            .filter(|&(i, _)| i >= 3)
            .map(|(i, f)| (i as f64, f as f64));
        let low = match design {
            SampleDesign::WithReplacement => {
                for (i_f, f) in high {
                    match form {
                        AeForm::ExactBinomial => {
                            high_num += pow1m((i_f / r).min(1.0), r) * f;
                            high_den += i_f * pow1m((i_f / r).min(1.0), r - 1.0) * f;
                        }
                        AeForm::ExpApprox => {
                            high_num += (-i_f).exp() * f;
                            high_den += i_f * (-i_f).exp() * f;
                        }
                    }
                }
                match form {
                    AeForm::ExactBinomial => LowBlock::Binomial,
                    AeForm::ExpApprox => LowBlock::Exp,
                }
            }
            SampleDesign::WithoutReplacement { n } => {
                // Guard n ≥ r so every C(·,·) is well defined even if the
                // caller hands a design smaller than the observed sample.
                let n = (n as f64).max(r);
                if n <= r {
                    LowBlock::Exhausted
                } else {
                    let hg = Hypergeometric::new(n, r);
                    // The i ≥ 3 classes keep the WR size guess c = i·n/r.
                    for (i_f, f) in high {
                        let c = i_f * n / r;
                        high_num += hg.p0(c) * f;
                        high_den += hg.p1(c) * f;
                    }
                    LowBlock::Hypergeometric(hg)
                }
            }
        };
        Self {
            f1,
            f2,
            r,
            low_mass: f1 + 2.0 * f2,
            high_num,
            high_den,
            low,
        }
    }

    /// The residual `g(m) = m − f₁ − f₂ − f₁·K(m)`.
    fn residual(&self, m: f64) -> f64 {
        m - self.f1 - self.f2 - self.f1 * self.k(m)
    }

    /// The adaptive coefficient `K(m)` for a hypothesized low-frequency
    /// class count `m`.
    fn k(&self, m: f64) -> f64 {
        let (r, low_mass) = (self.r, self.low_mass);
        let (lo_num, lo_den) = match &self.low {
            // m classes each with p = low_mass/(r·m).
            LowBlock::Binomial => {
                let p = (low_mass / (r * m)).min(1.0);
                (m * pow1m(p, r), low_mass * pow1m(p, r - 1.0))
            }
            LowBlock::Exp => {
                let e = (-low_mass / m).exp();
                (m * e, low_mass * e)
            }
            LowBlock::Hypergeometric(hg) => hg.low_block(low_mass / m, m),
            LowBlock::Exhausted => return 0.0,
        };
        let den = self.high_den + lo_den;
        if den == 0.0 {
            return 0.0;
        }
        (self.high_num + lo_num) / den
    }

    /// Solves `g(m) = 0` on `[f₁ + f₂, n]` (see
    /// [`AdaptiveEstimator::solve_m`]) and returns `m̂` with the number of
    /// residual evaluations. Requires `f₁ > 0`.
    fn solve(&self, n: f64) -> (f64, u64) {
        let mut iters = 0u64;
        let mut residual = |m: f64| {
            iters += 1;
            self.residual(m)
        };
        // Start strictly above f1 + f2 so p = L/(rm) is well defined and
        // below 1 (m ≥ (f1 + 2f2)/r holds because m ≥ f1 + f2 ≥ L/r for
        // any sample with r ≥ 2).
        let lo = (self.f1 + self.f2).max(1e-9);
        let hi = n;
        let m_hat = 'solve: {
            let g_lo = residual(lo);
            if g_lo >= 0.0 {
                break 'solve lo;
            }
            let g_hi = residual(hi);
            if g_hi <= 0.0 {
                // Monotone-negative residual: sample looks all-distinct.
                break 'solve hi;
            }
            brent(&mut residual, lo, hi, 1e-7, 200).unwrap_or_else(|_| {
                solve_failures().inc();
                hi
            })
        };
        (m_hat, iters)
    }
}

/// The without-replacement occurrence probabilities for a table of `n`
/// rows and a sample of `r`, with the `m`-independent `ln Γ` terms
/// precomputed.
///
/// A class occupying `c` of the table's `n` rows is missed by a WOR
/// sample of `r` rows with probability `P₀(c) = C(n−c, r)/C(n, r)`,
/// seen exactly once with `P₁(c) = c·C(n−c, r−1)/C(n, r)` and exactly
/// twice with `P₂(c) = C(c,2)·C(n−c, r−2)/C(n, r)`.
struct Hypergeometric {
    n: f64,
    r: f64,
    /// `ln C(n, r)`.
    ln_total: f64,
    /// `ln Γ(r+1)` and `ln Γ(r)`: the constant middle terms of
    /// `ln C(·, r)` and `ln C(·, r−1)`.
    ln_gamma_r1: f64,
    ln_gamma_r: f64,
    /// `ln Γ(r−1)` for `ln C(·, r−2)`; `None` for `r < 2`, where a one-row
    /// sample cannot see anything twice.
    ln_gamma_rm1: Option<f64>,
}

impl Hypergeometric {
    /// Requires `n > r ≥ 1`.
    fn new(n: f64, r: f64) -> Self {
        let ln_gamma_r1 = ln_gamma(r + 1.0);
        Self {
            n,
            r,
            ln_total: ln_choose_real(n, r, ln_gamma_r1),
            ln_gamma_r1,
            ln_gamma_r: ln_gamma((r - 1.0) + 1.0),
            ln_gamma_rm1: (r >= 2.0).then(|| ln_gamma((r - 2.0) + 1.0)),
        }
    }

    /// `P₀(c)`: zero once c > n − r (a class too big to hide from a WOR
    /// sample of r rows is certainly seen).
    fn p0(&self, c: f64) -> f64 {
        let (n, r) = (self.n, self.r);
        if c <= n - r {
            (ln_choose_real(n - c, r, self.ln_gamma_r1) - self.ln_total).exp()
        } else {
            0.0
        }
    }

    /// `P₁(c)`: zero once c > n − r + 1 (the class must be seen twice).
    fn p1(&self, c: f64) -> f64 {
        let (n, r) = (self.n, self.r);
        if c <= n - r + 1.0 {
            c * (ln_choose_real(n - c, r - 1.0, self.ln_gamma_r) - self.ln_total).exp()
        } else {
            0.0
        }
    }

    /// `P₂(c)`: zero once c > n − r + 2 (seen at least three times), and
    /// zero outright for r < 2.
    fn p2(&self, c: f64) -> f64 {
        let (n, r) = (self.n, self.r);
        match self.ln_gamma_rm1 {
            Some(ln_gamma_rm1) if c <= n - r + 2.0 => {
                0.5 * c
                    * (c - 1.0)
                    * (ln_choose_real(n - c, r - 2.0, ln_gamma_rm1) - self.ln_total).exp()
            }
            _ => 0.0,
        }
    }

    /// The low block's `(misses, singletons)` contribution to `K`'s
    /// numerator and denominator, for `m` classes with observed mass
    /// `target = L/m` each.
    ///
    /// The low block differs from the WR form in one more way than the
    /// binomial→hypergeometric swap. The paper sizes the `m` low classes
    /// by raw mass conservation, `c_m = L·n/(r·m)` — but membership in
    /// the low block is *conditioned on being observed at most twice*, so
    /// the observed mass `L = f₁ + 2f₂` systematically understates the
    /// classes' true size (unseen members contribute nothing, and seen
    /// members were seen ≤ 2 times by construction). The hypergeometric
    /// model makes the conditioning exact: a size-`c` class that landed
    /// in the low block has expected observed mass
    /// `(P₁ + 2P₂)/(P₀ + P₁ + P₂)`, so `c_m` is the root of
    ///
    /// ```text
    /// (P₁(c_m) + 2·P₂(c_m)) / (P₀(c_m) + P₁(c_m) + P₂(c_m)) = L/m
    /// ```
    ///
    /// and the block contributes `m·P₀/S` misses and `m·P₁/S` singletons
    /// (`S = P₀+P₁+P₂`). On the ROADMAP fixture this lands within 1% of
    /// the truth, where the raw-mass variant still overshoots ≈ 6%. Both
    /// [`AeForm`] variants use these exact hypergeometric terms: the
    /// `e^{−i}` shortcut is an approximation *to the binomial*, so it has
    /// no separate WOR analog worth distinguishing.
    fn low_block(&self, target: f64, m: f64) -> (f64, f64) {
        // Bisection: the conditional mean is ~0 as c → 0 and exactly 2 as
        // c → n − r + 2 (only P₂ survives), while the target
        // L/m = (f₁ + 2f₂)/m < 2 because m ≥ f₁ + f₂ — so the root is
        // always bracketed.
        let (mut c_lo, mut c_hi) = (1e-9, self.n - self.r + 1.9);
        for _ in 0..64 {
            let mid = 0.5 * (c_lo + c_hi);
            let s = self.p0(mid) + self.p1(mid) + self.p2(mid);
            let ratio = if s > 0.0 {
                (self.p1(mid) + 2.0 * self.p2(mid)) / s
            } else {
                2.0
            };
            if ratio < target {
                c_lo = mid;
            } else {
                c_hi = mid;
            }
        }
        let c_m = 0.5 * (c_lo + c_hi);
        let s = self.p0(c_m) + self.p1(c_m) + self.p2(c_m);
        if s > 0.0 {
            (m * self.p0(c_m) / s, m * self.p1(c_m) / s)
        } else {
            (0.0, 0.0)
        }
    }
}

/// Ratio-error spread between the two AE forms above which the audit
/// counts a *disagreement*: 1.05 (5%) is well past the forms' expected
/// drift on healthy spectra (see `exact_and_approx_forms_agree_roughly`)
/// while still far below an estimation failure.
pub const AE_FORM_DISAGREEMENT_RATIO: f64 = 1.05;

/// Solver-health audit hook: evaluates **both** AE forms on `profile`,
/// records their spread into `audit.ae.form_spread_permille` (bumping
/// `audit.ae.form_disagreements` past
/// [`AE_FORM_DISAGREEMENT_RATIO`]), and returns the spread.
///
/// A growing disagreement rate means the `e^{-x}` approximation — and
/// with it the paper's published AE equation — is drifting away from the
/// exact binomial solve on the workload being audited, which is exactly
/// the regime where solver changes need scrutiny.
pub fn audit_form_agreement(profile: &Spectrum) -> f64 {
    let exact = AdaptiveEstimator::with_form(AeForm::ExactBinomial).estimate(profile);
    let approx = AdaptiveEstimator::with_form(AeForm::ExpApprox).estimate(profile);
    let spread = crate::error::ratio_error(exact.max(1.0), approx.max(1.0));
    dve_obs::audit::record_ae_form_spread(spread, spread > AE_FORM_DISAGREEMENT_RATIO);
    spread
}

impl DistinctEstimator for AdaptiveEstimator {
    fn name(&self) -> &'static str {
        match self.form {
            AeForm::ExactBinomial => "AE",
            AeForm::ExpApprox => "AE-EXP",
        }
    }

    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        let d = profile.distinct_in_sample() as f64;
        let f1 = profile.f(1) as f64;
        let f2 = profile.f(2) as f64;
        if profile.sampling_fraction() >= 1.0 {
            return d;
        }
        let m = self.solve_m(profile);
        d + m - f1 - f2
    }

    /// AE is design-aware: under [`SampleDesign::WithoutReplacement`] the
    /// fixed point is solved in its hypergeometric form, correcting the
    /// overestimation the with-replacement model shows on WOR samples.
    fn estimate_raw_for(&self, profile: &Spectrum, design: SampleDesign) -> f64 {
        match design {
            SampleDesign::WithReplacement => self.estimate_raw(profile),
            SampleDesign::WithoutReplacement { .. } => {
                let d = profile.distinct_in_sample() as f64;
                let f1 = profile.f(1) as f64;
                let f2 = profile.f(2) as f64;
                if profile.sampling_fraction() >= 1.0 {
                    return d;
                }
                let m = self.solve_m_for(profile, design);
                d + m - f1 - f2
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ratio_error;
    use crate::gee::Gee;
    use dve_numeric::check::{check, f64_in, u64_in, usize_in};
    use dve_numeric::rng::Rng;

    /// Expected spectrum of uniform data: D classes of size c, n = D·c,
    /// sampled at fraction q (binomial approximation).
    fn uniform_expected_spectrum(d_true: u64, class: u64, q: f64) -> Vec<u64> {
        let mut spectrum = Vec::new();
        for i in 1..=class.min(30) {
            // E[f_i] = D · C(c, i) q^i (1-q)^{c-i}
            let ln_c = dve_numeric::special::ln_choose(class, i);
            let v = d_true as f64
                * (ln_c + i as f64 * q.ln() + (class - i) as f64 * (1.0 - q).ln()).exp();
            spectrum.push(v.round() as u64);
        }
        spectrum
    }

    #[test]
    fn ae_beats_gee_on_low_skew_many_distinct() {
        // The paper's headline scenario: Z=0, dup=100, n=1M, D=10_000,
        // sampled at 0.8%. GEE overshoots ~4x; AE must land near 1.
        let d_true = 10_000u64;
        let spectrum = uniform_expected_spectrum(d_true, 100, 0.008);
        let p = Spectrum::from_spectrum(1_000_000, spectrum).unwrap();
        let ae = AdaptiveEstimator::new().estimate(&p);
        let gee = Gee::default().estimate(&p);
        let ae_err = ratio_error(ae, d_true as f64);
        let gee_err = ratio_error(gee, d_true as f64);
        assert!(
            ae_err < 1.3,
            "AE error {ae_err} (est {ae}) should be near 1 on uniform data"
        );
        assert!(
            gee_err > 2.0,
            "GEE error {gee_err} should be large here (the scenario AE fixes)"
        );
    }

    #[test]
    fn ae_no_singletons_returns_d() {
        let p = Spectrum::from_spectrum(100_000, vec![0, 40, 7]).unwrap();
        assert_eq!(AdaptiveEstimator::new().estimate(&p), 47.0);
    }

    #[test]
    fn ae_all_singletons_returns_n() {
        // All-singleton sample: consistent with everything distinct.
        let p = Spectrum::from_spectrum(10_000, vec![100]).unwrap();
        assert_eq!(AdaptiveEstimator::new().estimate(&p), 10_000.0);
    }

    #[test]
    fn ae_full_scan_is_exact() {
        let p = Spectrum::from_sample_counts(6, [3, 2, 1]).unwrap();
        assert_eq!(AdaptiveEstimator::new().estimate(&p), 3.0);
    }

    #[test]
    fn solved_m_satisfies_equation() {
        let spectrum = uniform_expected_spectrum(10_000, 100, 0.008);
        let p = Spectrum::from_spectrum(1_000_000, spectrum).unwrap();
        let ae = AdaptiveEstimator::new();
        let m = ae.solve_m(&p);
        let resid = ae.residual(&p, m);
        assert!(
            resid.abs() < 1e-3 * m,
            "residual {resid} too large at m = {m}"
        );
    }

    #[test]
    fn exact_and_approx_forms_agree_roughly() {
        let spectrum = uniform_expected_spectrum(10_000, 100, 0.016);
        let p = Spectrum::from_spectrum(1_000_000, spectrum).unwrap();
        let exact = AdaptiveEstimator::with_form(AeForm::ExactBinomial).estimate(&p);
        let approx = AdaptiveEstimator::with_form(AeForm::ExpApprox).estimate(&p);
        let spread = ratio_error(exact, approx);
        assert!(
            spread < 1.25,
            "forms disagree: exact {exact}, approx {approx}"
        );
    }

    #[test]
    fn ae_reasonable_on_high_skew_shape() {
        // One huge class + rare tail: d = 61, f1 = 50, f2 = 10.
        let mut s = vec![0u64; 930];
        s[0] = 50;
        s[1] = 10;
        s[929] = 1;
        let p = Spectrum::from_spectrum(100_000, s).unwrap();
        let est = AdaptiveEstimator::new().estimate(&p);
        // The truth for such data is plausibly a few thousand at most;
        // AE must stay within the sanity interval and above d.
        assert!((61.0..=100_000.0).contains(&est));
    }

    #[test]
    fn solver_records_iteration_telemetry() {
        let spectrum = uniform_expected_spectrum(10_000, 100, 0.008);
        let p = Spectrum::from_spectrum(1_000_000, spectrum).unwrap();
        let before = solve_iters_hist().count();
        let _ = AdaptiveEstimator::new().solve_m(&p);
        assert!(solve_iters_hist().count() > before);
        // A genuine bracketing solve needs at least the two endpoint
        // residual evaluations.
        assert!(solve_iters_hist().max().unwrap() >= 2);
    }

    /// Noise-free expected spectrum of sampling `r` of `n` rows *without
    /// replacement* from `d_true` classes of size `class` each:
    /// `E[f_i] = D · C(c,i)·C(n−c, r−i) / C(n,r)` (hypergeometric).
    fn wor_expected_spectrum(d_true: u64, class: u64, r: u64) -> Vec<u64> {
        let n = d_true * class;
        let ln_total = dve_numeric::special::ln_choose(n, r);
        (1..=class)
            .map(|i| {
                let v = d_true as f64
                    * (dve_numeric::special::ln_choose(class, i)
                        + dve_numeric::special::ln_choose(n - class, r - i)
                        - ln_total)
                        .exp();
                v.round() as u64
            })
            .collect()
    }

    /// The WOR bias formerly pinned here (and documented in ROADMAP.md)
    /// is now *corrected* when the caller declares the design: on the
    /// noise-free (rounded hypergeometric-expectation) 900-distinct
    /// spectrum at 20% WOR sampling the with-replacement model still
    /// returns ≈ 1009 (+12%) — frozen below so the paper-faithful path
    /// never drifts silently — while the hypergeometric form lands within
    /// ratio error 1.05 of the true 900.
    #[test]
    fn ae_wor_design_corrects_the_pinned_bias() {
        // 900 classes × 10 rows, r = 1800 (20%), expected WOR spectrum.
        let spectrum = wor_expected_spectrum(900, 10, 1_800);
        let p = Spectrum::from_spectrum(9_000, spectrum).unwrap();
        let ae = AdaptiveEstimator::new();
        let wr = ae.estimate(&p);
        assert!(
            (wr - 1008.7).abs() < 3.0,
            "the paper-faithful WR estimate moved: expected ≈ 1009 (the \
             documented ~+12% bias over the true 900), got {wr}"
        );
        let wor = ae.estimate_for(&p, SampleDesign::wor(9_000));
        let err = ratio_error(wor.max(1.0), 900.0);
        assert!(
            err <= 1.05,
            "hypergeometric AE should land within 5% of 900, got {wor} \
             (ratio error {err})"
        );
        assert!(
            wor < wr,
            "the WOR correction must pull the estimate down: {wor} vs {wr}"
        );
    }

    #[test]
    fn wor_solved_m_satisfies_the_hypergeometric_equation() {
        let spectrum = wor_expected_spectrum(900, 10, 1_800);
        let p = Spectrum::from_spectrum(9_000, spectrum).unwrap();
        let ae = AdaptiveEstimator::new();
        let design = SampleDesign::wor(9_000);
        let m = ae.solve_m_for(&p, design);
        let resid = ae.residual_for(&p, design, m);
        assert!(
            resid.abs() < 1e-3 * m,
            "WOR residual {resid} too large at m = {m}"
        );
        // The WR wrappers stay bit-identical to the design-blind calls.
        assert_eq!(
            ae.solve_m(&p),
            ae.solve_m_for(&p, SampleDesign::WithReplacement)
        );
        assert_eq!(
            ae.residual(&p, m),
            ae.residual_for(&p, SampleDesign::WithReplacement, m)
        );
    }

    #[test]
    fn wor_design_as_large_as_the_sample_degrades_to_d() {
        // design n == r: a WOR sample of the whole (declared) table can
        // hide nothing, so K = 0, m = f1 + f2 and the estimate is d.
        let p = Spectrum::from_spectrum(10_000, vec![40, 30]).unwrap();
        let est = AdaptiveEstimator::new().estimate_for(&p, SampleDesign::wor(100));
        assert_eq!(est, 70.0);
    }

    #[test]
    fn both_forms_share_the_wor_correction() {
        // ExpApprox approximates the *binomial*; under a WOR design both
        // forms solve the same exact hypergeometric equation.
        let spectrum = wor_expected_spectrum(900, 10, 1_800);
        let p = Spectrum::from_spectrum(9_000, spectrum).unwrap();
        let design = SampleDesign::wor(9_000);
        let exact = AdaptiveEstimator::with_form(AeForm::ExactBinomial).estimate_for(&p, design);
        let approx = AdaptiveEstimator::with_form(AeForm::ExpApprox).estimate_for(&p, design);
        assert_eq!(exact, approx);
    }

    #[test]
    fn form_agreement_hook_records_spread() {
        let spectrum = uniform_expected_spectrum(10_000, 100, 0.016);
        let p = Spectrum::from_spectrum(1_000_000, spectrum).unwrap();
        let hist = dve_obs::global().histogram("audit.ae.form_spread_permille");
        let before = hist.count();
        let spread = crate::ae::audit_form_agreement(&p);
        assert!(spread >= 1.0, "spread is a ratio error: {spread}");
        assert_eq!(hist.count(), before + 1);
        // The healthy-spectrum spread matches the two direct estimates.
        let exact = AdaptiveEstimator::with_form(AeForm::ExactBinomial).estimate(&p);
        let approx = AdaptiveEstimator::with_form(AeForm::ExpApprox).estimate(&p);
        assert_eq!(spread, ratio_error(exact.max(1.0), approx.max(1.0)));
    }

    #[test]
    fn names_distinguish_forms() {
        assert_eq!(AdaptiveEstimator::new().name(), "AE");
        assert_eq!(
            AdaptiveEstimator::with_form(AeForm::ExpApprox).name(),
            "AE-EXP"
        );
    }

    /// The fixed point as evaluated before its per-solve/per-`m` split:
    /// every residual recomputes `K(m)` from the profile. Kept verbatim as
    /// the reference the split must match bit-for-bit.
    mod reference {
        use crate::ae::{AdaptiveEstimator, AeForm};
        use crate::design::SampleDesign;
        use crate::spectrum::Spectrum;
        use dve_numeric::poly::pow1m;
        use dve_numeric::roots::brent;
        use dve_numeric::special::ln_gamma;

        fn ln_choose_real(x: f64, y: f64) -> f64 {
            ln_gamma(x + 1.0) - ln_gamma(y + 1.0) - ln_gamma(x - y + 1.0)
        }

        impl AdaptiveEstimator {
            pub(super) fn reference_residual_for(
                &self,
                profile: &Spectrum,
                design: SampleDesign,
                m: f64,
            ) -> f64 {
                let f1 = profile.f(1) as f64;
                let f2 = profile.f(2) as f64;
                m - f1 - f2 - f1 * self.k_of_m(profile, design, m)
            }

            fn k_of_m(&self, profile: &Spectrum, design: SampleDesign, m: f64) -> f64 {
                match design {
                    SampleDesign::WithReplacement => self.k_of_m_wr(profile, m),
                    SampleDesign::WithoutReplacement { n } => self.k_of_m_wor(profile, n, m),
                }
            }

            fn k_of_m_wr(&self, profile: &Spectrum, m: f64) -> f64 {
                let r = profile.sample_size() as f64;
                let f1 = profile.f(1) as f64;
                let f2 = profile.f(2) as f64;
                let low_mass = f1 + 2.0 * f2;
                let (mut num, mut den) = (0.0, 0.0);
                for (i, f) in profile.spectrum() {
                    if i < 3 {
                        continue;
                    }
                    let f = f as f64;
                    let i_f = i as f64;
                    match self.form {
                        AeForm::ExactBinomial => {
                            num += pow1m((i_f / r).min(1.0), r) * f;
                            den += i_f * pow1m((i_f / r).min(1.0), r - 1.0) * f;
                        }
                        AeForm::ExpApprox => {
                            num += (-i_f).exp() * f;
                            den += i_f * (-i_f).exp() * f;
                        }
                    }
                }
                let (lo_num, lo_den) = match self.form {
                    AeForm::ExactBinomial => {
                        let p = (low_mass / (r * m)).min(1.0);
                        (m * pow1m(p, r), low_mass * pow1m(p, r - 1.0))
                    }
                    AeForm::ExpApprox => {
                        let e = (-low_mass / m).exp();
                        (m * e, low_mass * e)
                    }
                };
                let den = den + lo_den;
                if den == 0.0 {
                    return 0.0;
                }
                (num + lo_num) / den
            }

            fn k_of_m_wor(&self, profile: &Spectrum, design_n: u64, m: f64) -> f64 {
                let r = profile.sample_size() as f64;
                let f1 = profile.f(1) as f64;
                let f2 = profile.f(2) as f64;
                let low_mass = f1 + 2.0 * f2;
                let n = (design_n as f64).max(r);
                if n <= r {
                    return 0.0;
                }
                let ln_total = ln_choose_real(n, r);
                let p0 = |c: f64| {
                    if c <= n - r {
                        (ln_choose_real(n - c, r) - ln_total).exp()
                    } else {
                        0.0
                    }
                };
                let p1 = |c: f64| {
                    if c <= n - r + 1.0 {
                        c * (ln_choose_real(n - c, r - 1.0) - ln_total).exp()
                    } else {
                        0.0
                    }
                };
                let p2 = |c: f64| {
                    if r >= 2.0 && c <= n - r + 2.0 {
                        0.5 * c * (c - 1.0) * (ln_choose_real(n - c, r - 2.0) - ln_total).exp()
                    } else {
                        0.0
                    }
                };
                let (mut num, mut den) = (0.0, 0.0);
                for (i, f) in profile.spectrum() {
                    if i < 3 {
                        continue;
                    }
                    let f = f as f64;
                    let c = i as f64 * n / r;
                    num += p0(c) * f;
                    den += p1(c) * f;
                }
                let target = low_mass / m;
                let (mut c_lo, mut c_hi) = (1e-9, n - r + 1.9);
                for _ in 0..64 {
                    let mid = 0.5 * (c_lo + c_hi);
                    let s = p0(mid) + p1(mid) + p2(mid);
                    let ratio = if s > 0.0 {
                        (p1(mid) + 2.0 * p2(mid)) / s
                    } else {
                        2.0
                    };
                    if ratio < target {
                        c_lo = mid;
                    } else {
                        c_hi = mid;
                    }
                }
                let c_m = 0.5 * (c_lo + c_hi);
                let s = p0(c_m) + p1(c_m) + p2(c_m);
                let (lo_num, lo_den) = if s > 0.0 {
                    (m * p0(c_m) / s, m * p1(c_m) / s)
                } else {
                    (0.0, 0.0)
                };
                let den = den + lo_den;
                if den == 0.0 {
                    return 0.0;
                }
                (num + lo_num) / den
            }

            /// The pre-split `solve_m_for`, returning `m̂` with the
            /// residual-evaluation count it recorded in
            /// `core.ae.solve_iters` (none for `f₁ = 0`).
            pub(super) fn reference_solve_m_for(
                &self,
                profile: &Spectrum,
                design: SampleDesign,
            ) -> (f64, Option<u64>) {
                let f1 = profile.f(1) as f64;
                let f2 = profile.f(2) as f64;
                let n = profile.table_size() as f64;
                if f1 == 0.0 {
                    return (f1 + f2, None);
                }
                let iters = std::cell::Cell::new(0u64);
                let mut residual = |m: f64| {
                    iters.set(iters.get() + 1);
                    self.reference_residual_for(profile, design, m)
                };
                let lo = (f1 + f2).max(1e-9);
                let hi = n;
                let m_hat = 'solve: {
                    let g_lo = residual(lo);
                    if g_lo >= 0.0 {
                        break 'solve lo;
                    }
                    let g_hi = residual(hi);
                    if g_hi <= 0.0 {
                        break 'solve hi;
                    }
                    brent(&mut residual, lo, hi, 1e-7, 200).unwrap_or(hi)
                };
                (m_hat, Some(iters.get()))
            }
        }
    }

    /// A random sparse spectrum over a table of 1e2..1e9 rows, drawing the
    /// edge cases `f₁ = 0`, all singletons, `r = 1` and `r = 2` on purpose.
    /// A table smaller than the sample grows to the sample (a full scan).
    fn random_sparse_profile(rng: &mut Rng) -> Spectrum {
        let mut entries = std::collections::BTreeMap::new();
        match usize_in(rng, 0..8) {
            0 => {
                // f₁ = 0.
                entries.insert(2, u64_in(rng, 0..50));
                entries.insert(u64_in(rng, 3..40), u64_in(rng, 1..20));
            }
            1 => {
                entries.insert(1, u64_in(rng, 1..5_000));
            }
            2 => {
                entries.insert(1, 1);
            }
            3 => {
                // r = 2: two singletons, or one value seen twice.
                if rng.below(2) == 0 {
                    entries.insert(1, 2);
                } else {
                    entries.insert(2, 1);
                }
            }
            _ => {
                // Log-uniform f₁, f₂, so that the i ≥ 3 sums sometimes
                // dominate K and a last-bit change in them shows.
                entries.insert(1, 10f64.powf(f64_in(rng, 0.0..3.5)) as u64);
                entries.insert(2, 10f64.powf(f64_in(rng, 0.0..3.0)) as u64 - 1);
                // Frequencies 3..12 carry non-negligible K terms
                // (≈ e^{−i}); larger ones test the underflowing tail.
                for _ in 0..usize_in(rng, 0..8) {
                    let i = if rng.below(2) == 0 {
                        u64_in(rng, 3..13)
                    } else {
                        10f64.powf(f64_in(rng, 1.0..3.5)) as u64
                    };
                    *entries.entry(i).or_insert(0) += u64_in(rng, 1..50);
                }
            }
        }
        entries.retain(|_, f| *f > 0);
        let entries: Vec<(u64, u64)> = entries.into_iter().collect();
        let r: u64 = entries.iter().map(|&(i, f)| i * f).sum();
        let n = (10f64.powf(f64_in(rng, 2.0..9.0)) as u64).max(r);
        Spectrum::from_parts(n, entries).unwrap()
    }

    #[test]
    fn per_solve_split_is_bit_identical_to_the_per_step_fixed_point() {
        check("ae_per_solve_split_bit_identity", 64, |rng| {
            let p = random_sparse_profile(rng);
            let n = p.table_size();
            let r = p.sample_size();
            let (d, f1, f2) = (p.distinct_in_sample() as f64, p.f(1), p.f(2));
            let designs = [
                SampleDesign::WithReplacement,
                SampleDesign::wor(n),
                SampleDesign::wor(r),
            ];
            for form in [AeForm::ExactBinomial, AeForm::ExpApprox] {
                let ae = AdaptiveEstimator::with_form(form);
                for design in designs {
                    let ctx = format!("{form:?} {design:?} n={n} spectrum={:?}", p.to_dense());
                    let (m_ref, iters_ref) = ae.reference_solve_m_for(&p, design);
                    let m = ae.solve_m_for(&p, design);
                    assert_eq!(m.to_bits(), m_ref.to_bits(), "m̂ {m} vs {m_ref}: {ctx}");
                    // The count solve_m_for records in core.ae.solve_iters.
                    let iters =
                        (f1 > 0).then(|| FixedPoint::new(form, &p, design).solve(n as f64).1);
                    assert_eq!(iters, iters_ref, "solve_iters: {ctx}");

                    let raw_ref = if p.sampling_fraction() >= 1.0 {
                        d
                    } else {
                        d + m_ref - f1 as f64 - f2 as f64
                    };
                    let est_ref =
                        crate::estimator::sanity_clamp(raw_ref, p.distinct_in_sample(), n);
                    let est = ae.estimate_for(&p, design);
                    assert_eq!(est.to_bits(), est_ref.to_bits(), "estimate: {ctx}");

                    let lo = (f1 + f2) as f64;
                    let ms = [lo.max(1e-9), n as f64, 10f64.powf(f64_in(rng, -3.0..9.5))];
                    for m in ms {
                        let g = ae.residual_for(&p, design, m);
                        let g_ref = ae.reference_residual_for(&p, design, m);
                        assert_eq!(g.to_bits(), g_ref.to_bits(), "residual({m}): {ctx}");
                    }
                }
            }
        });
    }
}

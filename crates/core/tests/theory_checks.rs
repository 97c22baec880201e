//! Statistical tests tying the estimator implementations back to the
//! paper's analysis: the closed-form expectations used in the Theorem 2
//! proof must match Monte-Carlo averages of the real sampling pipeline.

use dve_core::error::ratio_error;
use dve_core::estimator::DistinctEstimator;
use dve_core::gee::Gee;
use dve_core::Spectrum;
use dve_numeric::rng::Rng;
use std::collections::HashMap;

/// With-replacement sample profile of a column described by per-class
/// probabilities (the Theorem 2 setting).
fn sample_with_replacement(class_counts: &[u64], n: u64, r: u64, rng: &mut Rng) -> Spectrum {
    // Build a cumulative table for inverse sampling.
    let mut cum = Vec::with_capacity(class_counts.len());
    let mut acc = 0u64;
    for &c in class_counts {
        acc += c;
        cum.push(acc);
    }
    assert_eq!(acc, n);
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for _ in 0..r {
        let t = rng.below(n);
        let class = cum.partition_point(|&c| c <= t);
        *counts.entry(class).or_insert(0) += 1;
    }
    Spectrum::from_sample_counts(n, counts.into_values()).unwrap()
}

/// E[d] = Σ 1 − (1−pᵢ)^r and E[f₁] = Σ r·pᵢ·(1−pᵢ)^{r−1} (paper §4).
fn expectations(class_counts: &[u64], n: u64, r: u64) -> (f64, f64) {
    let mut e_d = 0.0;
    let mut e_f1 = 0.0;
    let rf = r as f64;
    for &c in class_counts {
        let p = c as f64 / n as f64;
        let miss = (rf * (-p).ln_1p()).exp(); // (1-p)^r
        e_d += 1.0 - miss;
        e_f1 += rf * p * ((rf - 1.0) * (-p).ln_1p()).exp();
    }
    (e_d, e_f1)
}

#[test]
fn monte_carlo_matches_closed_form_expectations() {
    // Zipf-ish class sizes.
    let class_counts: Vec<u64> = (1..=200u64).map(|i| 1 + 2000 / i).collect();
    let n: u64 = class_counts.iter().sum();
    let r = 500u64;
    let (e_d, e_f1) = expectations(&class_counts, n, r);

    let trials = 300;
    let mut mean_d = 0.0;
    let mut mean_f1 = 0.0;
    let mut rng = Rng::seed_from_u64(404);
    for _ in 0..trials {
        let p = sample_with_replacement(&class_counts, n, r, &mut rng);
        mean_d += p.distinct_in_sample() as f64 / trials as f64;
        mean_f1 += p.f(1) as f64 / trials as f64;
    }
    // Sub-2% agreement expected at 300 trials.
    assert!(
        (mean_d - e_d).abs() / e_d < 0.02,
        "E[d]: closed form {e_d:.2}, Monte-Carlo {mean_d:.2}"
    );
    assert!(
        (mean_f1 - e_f1).abs() / e_f1 < 0.05,
        "E[f1]: closed form {e_f1:.2}, Monte-Carlo {mean_f1:.2}"
    );
}

#[test]
fn gee_expected_value_matches_theorem2_decomposition() {
    // E[GEE] = Σ [xᵢ + (√(n/r) − 1)·yᵢ] with xᵢ = 1−(1−pᵢ)^r,
    // yᵢ = r·pᵢ(1−pᵢ)^{r−1} — check the estimator's Monte-Carlo mean
    // (raw, before clamping) against this closed form.
    let class_counts: Vec<u64> = vec![500; 40].into_iter().chain(vec![5; 200]).collect();
    let n: u64 = class_counts.iter().sum();
    let r = 400u64;
    let (e_d, e_f1) = expectations(&class_counts, n, r);
    let scale = (n as f64 / r as f64).sqrt();
    let expected = e_d + (scale - 1.0) * e_f1;

    let trials = 400;
    let mut mean = 0.0;
    let mut rng = Rng::seed_from_u64(405);
    for _ in 0..trials {
        let p = sample_with_replacement(&class_counts, n, r, &mut rng);
        mean += Gee::default().estimate_raw(&p) / trials as f64;
    }
    assert!(
        (mean - expected).abs() / expected < 0.03,
        "E[GEE]: closed form {expected:.1}, Monte-Carlo {mean:.1}"
    );
}

#[test]
fn theorem2_case_bounds_hold_per_class() {
    // The proof splits classes at pᵢ = 1/r and shows each term
    // xᵢ + (√(n/r) − 1)·yᵢ ∈ [√(r/n)/e·(1−o(1)), √(n/r)].
    let n = 1_000_000f64;
    let r = 10_000f64;
    let scale = (n / r).sqrt();
    for &p in &[
        1.0 / n,  // rarest possible
        0.5 / r,  // low-frequency
        1.0 / r,  // boundary
        10.0 / r, // high-frequency
        0.01,
        0.5,
        1.0,
    ] {
        let x = 1.0 - (r * (-p).ln_1p()).exp();
        let y = r * p * ((r - 1.0) * (-p).ln_1p()).exp();
        let term = x + (scale - 1.0) * y;
        let lower = (r / n).sqrt() / std::f64::consts::E * 0.9; // (1−o(1)) slack
        assert!(
            term >= lower && term <= scale + 1e-9,
            "p = {p}: term {term} outside [{lower}, {scale}]"
        );
    }
}

#[test]
fn gee_error_bound_across_random_distributions() {
    // Randomized stress: arbitrary class-size mixtures must keep GEE's
    // mean ratio error within e·sqrt(n/r)·(1+slack).
    let mut rng = Rng::seed_from_u64(406);
    for trial in 0..10 {
        // Random mixture of class sizes.
        let mut class_counts = Vec::new();
        for _ in 0..1 + rng.below(99) {
            class_counts.push(1 + rng.below(499));
        }
        let n: u64 = class_counts.iter().sum();
        let d = class_counts.len() as f64;
        let r = (n / 10).max(10);
        let bound = std::f64::consts::E * (n as f64 / r as f64).sqrt() * 1.3;
        let mut err_sum = 0.0;
        let trials = 30;
        for _ in 0..trials {
            let p = sample_with_replacement(&class_counts, n, r, &mut rng);
            err_sum += ratio_error(Gee::default().estimate(&p).max(1.0), d);
        }
        let mean_err = err_sum / trials as f64;
        assert!(
            mean_err <= bound,
            "trial {trial}: mean err {mean_err} vs bound {bound} (n={n}, D={d})"
        );
    }
}

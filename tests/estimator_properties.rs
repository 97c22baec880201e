//! Property-based tests on the estimator library: invariants that must
//! hold for *every* estimator on *arbitrary* frequency spectra.

use distinct_values::core::bounds::gee_confidence_interval;
use distinct_values::core::error::ratio_error;
use distinct_values::core::estimator::DistinctEstimator;
use distinct_values::core::registry;
use distinct_values::core::Spectrum;
use distinct_values::numeric::check::{check, f64_in, u64_in, vec_of};
use distinct_values::numeric::rng::Rng;

/// Arbitrary valid (n, spectrum) pairs: a sparse spectrum of up to 8
/// nonzero (frequency, count) entries, with n scaled comfortably above r.
fn arb_profile(rng: &mut Rng) -> Spectrum {
    let entries = vec_of(rng, 1..8, |rng| {
        (u64_in(rng, 1..2_000), u64_in(rng, 1..500))
    });
    let headroom = u64_in(rng, 1..1_000);
    let max_freq = entries.iter().map(|&(i, _)| i).max().unwrap();
    let mut spectrum = vec![0u64; max_freq as usize];
    for (i, f) in entries {
        spectrum[(i - 1) as usize] += f;
    }
    let r: u64 = spectrum
        .iter()
        .enumerate()
        .map(|(idx, &f)| (idx as u64 + 1) * f)
        .sum();
    let d: u64 = spectrum.iter().sum();
    // n must be at least max(r, d); add random headroom.
    let n = r.max(d) + headroom;
    Spectrum::from_spectrum(n, spectrum).expect("constructed valid")
}

/// The paper's §2 sanity bounds hold for every estimator on every
/// profile: d ≤ D̂ ≤ n, and the estimate is finite.
#[test]
fn every_estimator_respects_sanity_bounds() {
    check("every_estimator_respects_sanity_bounds", 128, |rng| {
        let profile = arb_profile(rng);
        let d = profile.distinct_in_sample() as f64;
        let n = profile.table_size() as f64;
        for name in registry::ALL_ESTIMATORS {
            let est = registry::by_name(name).unwrap();
            let v = est.estimate(&profile);
            assert!(v.is_finite(), "{name} returned non-finite");
            assert!(v >= d - 1e-9, "{name}: {v} < d = {d}");
            assert!(v <= n + 1e-9, "{name}: {v} > n = {n}");
        }
    });
}

/// GEE always sits inside its own confidence interval, LOWER equals
/// d, and UPPER never exceeds n.
#[test]
fn gee_interval_invariants() {
    check("gee_interval_invariants", 128, |rng| {
        let profile = arb_profile(rng);
        let ci = gee_confidence_interval(&profile);
        assert_eq!(ci.lower, profile.distinct_in_sample() as f64);
        assert!(ci.lower <= ci.estimate + 1e-9);
        assert!(ci.estimate <= ci.upper + 1e-9);
        assert!(ci.upper <= profile.table_size() as f64 + 1e-9);
        assert!(ci.width() >= -1e-9);
    });
}

/// The profile bookkeeping identity: Σ i·f_i = r and Σ f_i = d.
#[test]
fn profile_identities() {
    check("profile_identities", 128, |rng| {
        let profile = arb_profile(rng);
        let r: u64 = profile.spectrum().map(|(i, f)| i * f).sum();
        let d: u64 = profile.spectrum().map(|(_, f)| f).sum();
        assert_eq!(r, profile.sample_size());
        assert_eq!(d, profile.distinct_in_sample());
        // f(i) agrees with the spectrum iterator.
        for (i, f) in profile.spectrum() {
            assert_eq!(profile.f(i), f);
        }
        assert_eq!(profile.f(profile.max_frequency() + 1), 0);
    });
}

/// Ratio error is symmetric under swapping estimate/truth, is 1 only
/// at equality, and composes monotonically.
#[test]
fn ratio_error_properties() {
    check("ratio_error_properties", 128, |rng| {
        let a = f64_in(rng, 1.0..1e9);
        let b = f64_in(rng, 1.0..1e9);
        let e = ratio_error(a, b);
        assert!(e >= 1.0);
        assert!((ratio_error(b, a) - e).abs() < 1e-9 * e);
        if (a - b).abs() < f64::EPSILON {
            assert_eq!(e, 1.0);
        }
        // Characterization: error ≤ α ⟺ b/α ≤ a ≤ αb.
        let alpha = e + 1e-9;
        assert!(a >= b / alpha && a <= alpha * b);
    });
}

/// A full scan (r = n, every class fully observed) makes the
/// sampling-consistent estimators exact.
#[test]
fn full_scan_exactness() {
    check("full_scan_exactness", 128, |rng| {
        let counts = vec_of(rng, 1..40, |rng| u64_in(rng, 1..30));
        let n: u64 = counts.iter().sum();
        let profile = Spectrum::from_sample_counts(n, counts.iter().copied()).unwrap();
        let d = profile.distinct_in_sample() as f64;
        for name in [
            "GEE",
            "AE",
            "HYBGEE",
            "HYBSKEW",
            "DUJ2A",
            "HYBVAR",
            "SJACK",
            "SHLOSSER",
            "SHLOSSER3",
            "MOM",
            "GOODMAN",
            "SAMPLE-D",
            "SCALEUP",
        ] {
            let est = registry::by_name(name).unwrap();
            let v = est.estimate(&profile);
            assert!(
                (v - d).abs() < 1e-6 * d.max(1.0),
                "{name} not exact at full scan: {v} vs {d}"
            );
        }
    });
}

/// GEE is monotone in f₁: more singletons can only raise the raw
/// estimate (all else equal).
#[test]
fn gee_monotone_in_singletons() {
    check("gee_monotone_in_singletons", 128, |rng| {
        let base_f1 = u64_in(rng, 1..100);
        let extra = u64_in(rng, 1..100);
        let f2 = u64_in(rng, 0..100);
        use distinct_values::core::Gee;
        let n = 1_000_000u64;
        let p1 = Spectrum::from_spectrum(n, vec![base_f1, f2]).unwrap();
        let p2 = Spectrum::from_spectrum(n, vec![base_f1 + extra, f2]).unwrap();
        assert!(Gee::default().estimate_raw(&p2) > Gee::default().estimate_raw(&p1));
    });
}

/// The AE solution m̂ is a genuine root or boundary point, and the
/// estimate it implies stays within the sanity interval.
#[test]
fn ae_solution_is_valid() {
    check("ae_solution_is_valid", 128, |rng| {
        let profile = arb_profile(rng);
        use distinct_values::core::AdaptiveEstimator;
        let ae = AdaptiveEstimator::new();
        let m = ae.solve_m(&profile);
        let f1 = profile.f(1) as f64;
        let f2 = profile.f(2) as f64;
        let n = profile.table_size() as f64;
        assert!(m >= f1 + f2 - 1e-9, "m = {m} below f1+f2");
        assert!(m <= n + 1e-9, "m = {m} above n");
        if f1 > 0.0 && m > f1 + f2 && m < n {
            // Interior solution ⇒ residual ≈ 0 (scaled tolerance).
            let resid = ae.residual(&profile, m);
            assert!(
                resid.abs() <= 1e-3 * m.max(1.0),
                "residual {resid} at m = {m}"
            );
        }
    });
}

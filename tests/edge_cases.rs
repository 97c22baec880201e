//! Systematic edge-case battery: every estimator is driven through the
//! degenerate profiles that break naive implementations — one-row
//! samples, one-class samples, spectra with a single enormous frequency,
//! samples equal to the table, and tables of one row.

use distinct_values::core::estimator::DistinctEstimator;
use distinct_values::core::registry::{by_name, ALL_ESTIMATORS};
use distinct_values::core::Spectrum;

/// Asserts `d ≤ D̂ ≤ n` and finiteness for every estimator on a profile.
fn assert_sane(profile: &Spectrum, label: &str) {
    let d = profile.distinct_in_sample() as f64;
    let n = profile.table_size() as f64;
    for name in ALL_ESTIMATORS {
        let est = by_name(name).unwrap();
        let v = est.estimate(profile);
        assert!(
            v.is_finite() && v >= d - 1e-9 && v <= n + 1e-9,
            "{name} on {label}: {v} outside [{d}, {n}]"
        );
    }
}

#[test]
fn single_row_sample() {
    // r = 1: the least informative legal sample.
    let p = Spectrum::from_spectrum(1_000_000, vec![1]).unwrap();
    assert_eq!(p.sample_size(), 1);
    assert_sane(&p, "single-row sample");
}

#[test]
fn single_row_table() {
    let p = Spectrum::from_spectrum(1, vec![1]).unwrap();
    assert_sane(&p, "one-row table");
    // Everything must return exactly 1 here (d = n = 1).
    for name in ALL_ESTIMATORS {
        assert_eq!(by_name(name).unwrap().estimate(&p), 1.0, "{name}");
    }
}

#[test]
fn one_class_dominating_sample() {
    // The entire sample is one value observed 50_000 times.
    let mut spectrum = vec![0u64; 50_000];
    spectrum[49_999] = 1;
    let p = Spectrum::from_spectrum(10_000_000, spectrum).unwrap();
    assert_eq!(p.distinct_in_sample(), 1);
    assert_sane(&p, "single dominating class");
}

#[test]
fn two_singletons_only() {
    let p = Spectrum::from_spectrum(1_000_000, vec![2]).unwrap();
    assert_sane(&p, "two singletons");
}

#[test]
fn sample_equals_table() {
    let p = Spectrum::from_sample_counts(100, vec![50u64, 30, 20]).unwrap();
    assert_eq!(p.sampling_fraction(), 1.0);
    assert_sane(&p, "full scan");
    // The sampling-consistent estimators must be exact.
    for name in [
        "GEE", "AE", "HYBGEE", "HYBSKEW", "DUJ2A", "HYBVAR", "SJACK", "SHLOSSER", "MOM", "BOOT",
    ] {
        assert_eq!(by_name(name).unwrap().estimate(&p), 3.0, "{name}");
    }
}

#[test]
fn near_full_scan() {
    // r = n - 1: the denominator terms (1 - q) approach zero.
    let mut counts = vec![1u64; 98];
    counts.push(2); // one doubleton fills r = 100 of n = 101... adjust:
    let p = Spectrum::from_sample_counts(101, counts).unwrap();
    assert_eq!(p.sample_size(), 100);
    assert_sane(&p, "near-full scan");
}

#[test]
fn spectrum_with_gap() {
    // Only f1 and f1000 populated: exercises sparse iteration paths.
    let mut spectrum = vec![0u64; 1_000];
    spectrum[0] = 5;
    spectrum[999] = 3;
    let p = Spectrum::from_spectrum(1_000_000, spectrum).unwrap();
    assert_sane(&p, "gapped spectrum");
}

#[test]
fn huge_f1_only() {
    // 60k singletons from a 100M-row table: coefficient paths at extreme
    // scale factors.
    let p = Spectrum::from_spectrum(100_000_000, vec![60_000]).unwrap();
    assert_sane(&p, "huge all-singleton sample");
}

#[test]
fn f2_only_no_singletons() {
    // All doubletons: f1 = 0 paths (AE short-circuit, Shlosser early
    // return, Chao bias-corrected branch).
    let p = Spectrum::from_spectrum(1_000_000, vec![0, 30_000]).unwrap();
    assert_sane(&p, "all doubletons");
    // Without singleton evidence, GEE/AE/Shlosser answer exactly d.
    for name in ["GEE", "AE", "SHLOSSER", "SHLOSSER3"] {
        assert_eq!(
            by_name(name).unwrap().estimate(&p),
            30_000.0,
            "{name} must return d when f1 = 0"
        );
    }
}

#[test]
fn alternating_extreme_spectrum() {
    // Mix of 10k singletons and one class covering half the sample.
    let mut spectrum = vec![0u64; 10_000];
    spectrum[0] = 10_000;
    spectrum[9_999] = 1;
    let p = Spectrum::from_spectrum(50_000_000, spectrum).unwrap();
    assert_sane(&p, "singletons + huge class");
}

#[test]
fn d_equals_n_forced_clamp() {
    // Table of 10 rows, sample of 5 distinct rows: estimates must never
    // exceed 10 even though naive scale-ups want 10+.
    let p = Spectrum::from_spectrum(10, vec![5]).unwrap();
    assert_sane(&p, "tiny table clamp");
}

#[test]
fn estimators_are_deterministic() {
    // Same profile in, same estimate out — no hidden RNG state anywhere.
    let p = Spectrum::from_spectrum(500_000, vec![123, 45, 6, 0, 2]).unwrap();
    for name in ALL_ESTIMATORS {
        let e1 = by_name(name).unwrap().estimate(&p);
        let e2 = by_name(name).unwrap().estimate(&p);
        assert_eq!(e1, e2, "{name} must be deterministic");
    }
}

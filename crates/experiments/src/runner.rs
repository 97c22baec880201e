//! The measurement core: sample a column repeatedly, run every estimator
//! on each sample, aggregate ratio errors and variances.
//!
//! All estimators see the *same* samples at each trial (as in the paper,
//! where one SQL Server sample fed every estimator), so cross-estimator
//! comparisons are paired and fair.

use dve_core::error::ratio_error;
use dve_core::registry;
use dve_numeric::rng::{splitmix64, Rng, GOLDEN};
use dve_numeric::stats::RunningMoments;
use dve_sample::{sample_profile, SamplingScheme};

/// Derives the per-trial RNG seed from an experiment's base seed: the
/// `trial + 1`-th output of a SplitMix64 sequence started at `base`, so
/// consecutive trials seed statistically unrelated generator streams.
/// (The previous `seed ^ (c · (trial + 1))` folding left most high bits
/// of neighboring trial seeds identical.)
pub fn trial_seed(base: u64, trial: u32) -> u64 {
    let mut state = base.wrapping_add(u64::from(trial).wrapping_mul(GOLDEN));
    splitmix64(&mut state)
}

/// Aggregated measurements for one estimator at one experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorPoint {
    /// Estimator name.
    pub estimator: String,
    /// Mean ratio error over the trials (≥ 1).
    pub mean_ratio_error: f64,
    /// Standard deviation of the estimates, as a fraction of the true
    /// distinct count (the paper's variance metric).
    pub std_dev_fraction: f64,
    /// Mean of the (clamped) estimates.
    pub mean_estimate: f64,
}

/// Aggregated GEE interval measurements at one point (Tables 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalPoint {
    /// Mean LOWER over trials.
    pub lower: f64,
    /// The true distinct count.
    pub actual: f64,
    /// Mean UPPER over trials.
    pub upper: f64,
    /// Fraction of trials whose interval contained the truth.
    pub coverage: f64,
}

/// Runs `trials` independent samples of `r` rows from `column` and
/// evaluates every named estimator on each sample, fanning the trials
/// across [`dve_par::default_jobs`] workers.
///
/// # Panics
///
/// Panics on empty inputs, unknown estimator names, `r` of zero, or
/// `r > column.len()`.
pub fn run_point(
    column: &[u64],
    true_distinct: u64,
    r: u64,
    estimator_names: &[&str],
    trials: u32,
    scheme: SamplingScheme,
    seed: u64,
) -> Vec<EstimatorPoint> {
    run_point_jobs(
        column,
        true_distinct,
        r,
        estimator_names,
        trials,
        scheme,
        seed,
        0,
    )
}

/// [`run_point`] with an explicit worker count (`0` = auto).
///
/// Deterministic for every `jobs` value: each trial's RNG stream derives
/// from [`trial_seed`] alone (position-independent), the estimator set
/// is resolved **once per experiment point** and shared across workers,
/// and the per-trial `(error, estimate)` pairs are folded into the
/// [`RunningMoments`] in trial order — so the aggregates are
/// bit-identical to the serial loop's.
#[allow(clippy::too_many_arguments)]
pub fn run_point_jobs(
    column: &[u64],
    true_distinct: u64,
    r: u64,
    estimator_names: &[&str],
    trials: u32,
    scheme: SamplingScheme,
    seed: u64,
    jobs: usize,
) -> Vec<EstimatorPoint> {
    assert!(trials > 0, "need at least one trial");
    assert!(true_distinct > 0, "column must have at least one value");
    let estimators = registry::by_names_strict_instrumented(estimator_names);
    let truth = true_distinct as f64;
    let jobs = dve_par::resolve_jobs((jobs > 0).then_some(jobs));

    // One task per trial; each returns the per-estimator (error,
    // estimate) pairs for deterministic aggregation below.
    let per_trial: Vec<Vec<(f64, f64)>> = dve_par::run_indexed(jobs, trials as usize, |t| {
        let _span = dve_obs::trace::span("experiments.trial");
        let mut rng = Rng::seed_from_u64(trial_seed(seed, t as u32));
        let profile = sample_profile(column, r, scheme, &mut rng)
            .expect("sampling a non-empty column cannot fail");
        estimators
            .iter()
            .map(|est| {
                let v = est.estimate(&profile);
                let err = ratio_error(v.max(1.0), truth);
                dve_obs::audit::record_ratio_error(est.name(), err);
                (err, v)
            })
            .collect()
    });

    let mut errors: Vec<RunningMoments> = vec![RunningMoments::new(); estimators.len()];
    let mut estimates: Vec<RunningMoments> = vec![RunningMoments::new(); estimators.len()];
    for trial in per_trial {
        for (i, (err, v)) in trial.into_iter().enumerate() {
            errors[i].add(err);
            estimates[i].add(v);
        }
    }
    dve_obs::Event::debug("experiments.point.done")
        .field_u64("rows", column.len() as u64)
        .field_u64("r", r)
        .field_u64("trials", u64::from(trials))
        .field_u64("estimators", estimators.len() as u64)
        .emit();

    estimators
        .iter()
        .zip(errors.iter().zip(&estimates))
        .map(|(est, (err, e))| EstimatorPoint {
            estimator: est.name().to_string(),
            mean_ratio_error: err.mean(),
            std_dev_fraction: e.std_dev() / truth,
            mean_estimate: e.mean(),
        })
        .collect()
}

/// Runs `trials` samples and aggregates GEE's `[LOWER, UPPER]` interval
/// (for Tables 1–2), fanning trials across [`dve_par::default_jobs`]
/// workers with the same determinism guarantee as [`run_point`].
pub fn run_interval_point(
    column: &[u64],
    true_distinct: u64,
    r: u64,
    trials: u32,
    scheme: SamplingScheme,
    seed: u64,
) -> IntervalPoint {
    run_interval_point_jobs(column, true_distinct, r, trials, scheme, seed, 0)
}

/// [`run_interval_point`] with an explicit worker count (`0` = auto).
pub fn run_interval_point_jobs(
    column: &[u64],
    true_distinct: u64,
    r: u64,
    trials: u32,
    scheme: SamplingScheme,
    seed: u64,
    jobs: usize,
) -> IntervalPoint {
    assert!(trials > 0, "need at least one trial");
    let truth = true_distinct as f64;
    let jobs = dve_par::resolve_jobs((jobs > 0).then_some(jobs));

    let per_trial: Vec<(f64, f64, bool)> = dve_par::run_indexed(jobs, trials as usize, |t| {
        let _span = dve_obs::trace::span("experiments.trial");
        let mut rng = Rng::seed_from_u64(trial_seed(seed, t as u32));
        let profile = sample_profile(column, r, scheme, &mut rng)
            .expect("sampling a non-empty column cannot fail");
        let ci = dve_core::bounds::gee_confidence_interval(&profile);
        let is_covered = ci.contains(truth);
        dve_obs::audit::record_interval_outcome(ci.relative_width(), is_covered);
        (ci.lower, ci.upper, is_covered)
    });

    let mut lower = RunningMoments::new();
    let mut upper = RunningMoments::new();
    let mut covered = 0u32;
    for (lo, up, is_covered) in per_trial {
        lower.add(lo);
        upper.add(up);
        covered += u32::from(is_covered);
    }
    IntervalPoint {
        lower: lower.mean(),
        actual: truth,
        upper: upper.mean(),
        coverage: covered as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_column() -> (Vec<u64>, u64) {
        // 200 distinct values, 50 copies each, deterministic layout (the
        // sampler randomizes anyway).
        let col: Vec<u64> = (0..10_000u64).map(|i| i % 200).collect();
        (col, 200)
    }

    #[test]
    fn paired_samples_are_reproducible() {
        let (col, d) = uniform_column();
        let a = run_point(
            &col,
            d,
            500,
            &["GEE", "AE"],
            5,
            SamplingScheme::WithoutReplacement,
            42,
        );
        let b = run_point(
            &col,
            d,
            500,
            &["GEE", "AE"],
            5,
            SamplingScheme::WithoutReplacement,
            42,
        );
        assert_eq!(a, b, "same seed must reproduce identical results");
    }

    #[test]
    fn errors_are_at_least_one() {
        let (col, d) = uniform_column();
        for p in run_point(
            &col,
            d,
            500,
            &super::super::config::ESTIMATORS,
            5,
            SamplingScheme::WithoutReplacement,
            7,
        ) {
            assert!(
                p.mean_ratio_error >= 1.0,
                "{}: {}",
                p.estimator,
                p.mean_ratio_error
            );
            assert!(p.std_dev_fraction >= 0.0);
        }
    }

    #[test]
    fn large_sample_drives_error_to_one() {
        let (col, d) = uniform_column();
        let points = run_point(
            &col,
            d,
            8_000,
            &["GEE", "AE", "HYBSKEW"],
            3,
            SamplingScheme::WithoutReplacement,
            11,
        );
        for p in points {
            assert!(
                p.mean_ratio_error < 1.05,
                "{} error {} at 80% sampling",
                p.estimator,
                p.mean_ratio_error
            );
        }
    }

    #[test]
    fn interval_point_brackets_truth() {
        let (col, d) = uniform_column();
        let ip = run_interval_point(&col, d, 1_000, 5, SamplingScheme::WithoutReplacement, 3);
        assert!(
            ip.lower <= ip.actual,
            "lower {} vs actual {}",
            ip.lower,
            ip.actual
        );
        assert!(
            ip.upper >= ip.actual,
            "upper {} vs actual {}",
            ip.upper,
            ip.actual
        );
        assert!(ip.coverage > 0.99, "coverage {}", ip.coverage);
    }

    #[test]
    fn trial_seeds_are_distinct_and_mixed() {
        use std::collections::HashSet;
        let seeds: HashSet<u64> = (0..1_000).map(|t| trial_seed(42, t)).collect();
        assert_eq!(seeds.len(), 1_000, "trial seeds must not collide");
        // Full mixing: neighboring trials must differ in high bits too
        // (the old xor-fold left the top 32 bits constant).
        let a = trial_seed(42, 0);
        let b = trial_seed(42, 1);
        assert_ne!(a >> 32, b >> 32, "high halves identical: {a:x} vs {b:x}");
        // Different bases decorrelate.
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
    }

    #[test]
    fn trials_record_timing_metrics() {
        let (col, d) = uniform_column();
        let trial_span =
            dve_obs::global().histogram_labeled(dve_obs::trace::SPAN_DURATION, "experiments.trial");
        let before = trial_span.count();
        run_point(
            &col,
            d,
            200,
            &["GEE"],
            3,
            SamplingScheme::WithoutReplacement,
            13,
        );
        // Other tests in this binary may run trials concurrently, so
        // assert a lower bound rather than an exact delta.
        assert!(trial_span.count() >= before + 3);
    }

    #[test]
    fn trials_feed_audit_telemetry() {
        let (col, d) = uniform_column();
        let hist = dve_obs::audit::ratio_error_histogram("HYBVAR");
        let errs_before = hist.count();
        run_point(
            &col,
            d,
            500,
            &["HYBVAR"],
            3,
            SamplingScheme::WithoutReplacement,
            17,
        );
        assert!(hist.count() >= errs_before + 3);

        let iv_before = dve_obs::audit::interval_total().get();
        run_interval_point(&col, d, 500, 3, SamplingScheme::WithoutReplacement, 17);
        assert!(dve_obs::audit::interval_total().get() >= iv_before + 3);
    }

    #[test]
    fn parallel_point_is_bit_identical_to_serial() {
        let (col, d) = uniform_column();
        let serial = run_point_jobs(
            &col,
            d,
            500,
            &["GEE", "AE", "HYBSKEW"],
            8,
            SamplingScheme::WithoutReplacement,
            42,
            1,
        );
        for jobs in [2, 4, 11] {
            let par = run_point_jobs(
                &col,
                d,
                500,
                &["GEE", "AE", "HYBSKEW"],
                8,
                SamplingScheme::WithoutReplacement,
                42,
                jobs,
            );
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_interval_point_is_bit_identical_to_serial() {
        let (col, d) = uniform_column();
        let serial =
            run_interval_point_jobs(&col, d, 1_000, 8, SamplingScheme::WithoutReplacement, 3, 1);
        for jobs in [2, 4] {
            let par = run_interval_point_jobs(
                &col,
                d,
                1_000,
                8,
                SamplingScheme::WithoutReplacement,
                3,
                jobs,
            );
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }
}

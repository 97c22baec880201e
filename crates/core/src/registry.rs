//! Name-based estimator registry.
//!
//! The experiment harness, `ANALYZE` command, CLI, and the `dve serve`
//! daemon all refer to estimators by the names the paper uses (`"GEE"`,
//! `"AE"`, `"HYBGEE"`, `"HYBSKEW"`, `"DUJ2A"`, `"HYBVAR"`, …). This
//! module maps those names to boxed trait objects.
//!
//! Lookup is **fallible**: [`by_name`] / [`by_names`] return a typed
//! [`UnknownEstimator`] error that carries the offending name, the full
//! list of valid names, and a did-you-mean suggestion — callers decide
//! whether that is an HTTP 400, a CLI exit code, or a panic. The static
//! experiment grids use [`by_names_strict`], which keeps the old
//! panic-on-typo contract so a harness typo still fails loudly.

use crate::ae::{AdaptiveEstimator, AeForm};
use crate::bootstrap::{Bootstrap, CoverageScaleUp};
use crate::chao::{Chao, ChaoLee};
use crate::estimator::{DistinctEstimator, Estimation};
use crate::gee::Gee;
use crate::goodman::Goodman;
use crate::hybrid::{HybGee, HybSkew, HybVar};
use crate::jackknife::{
    Duj2a, FirstOrderJackknife, SecondOrderJackknife, SmoothedJackknife, UnsmoothedJackknife1,
    UnsmoothedJackknife2,
};
use crate::mom::{MethodOfMoments, MethodOfMomentsInfinite};
use crate::naive::{LinearScaleUp, SampleDistinct};
use crate::shlosser::{ModifiedShlosser, Shlosser};
use std::time::Instant;

/// All estimator names the registry understands, in the paper's order
/// (new estimators first, then the published baselines, then classical
/// statistics-literature estimators).
pub const ALL_ESTIMATORS: &[&str] = &[
    "GEE",
    "AE",
    "AE-EXP",
    "HYBGEE",
    "HYBSKEW",
    "DUJ2A",
    "HYBVAR",
    "SHLOSSER",
    "SHLOSSER3",
    "SJACK",
    "JACK1",
    "JACK2",
    "DUJ1",
    "DUJ2",
    "CHAO",
    "CHAOLEE",
    "BOOT",
    "COVERAGE",
    "GOODMAN",
    "MOM",
    "MOM-INF",
    "SAMPLE-D",
    "SCALEUP",
];

/// The six estimators the paper's §6 experiments plot.
pub const PAPER_ESTIMATORS: &[&str] = &["GEE", "AE", "HYBGEE", "HYBSKEW", "DUJ2A", "HYBVAR"];

/// A lookup against a name the registry does not know.
///
/// Carries everything a caller needs to produce a good diagnostic: the
/// offending name, the valid names, and a closest-match suggestion.
/// `Display` renders all three, so `format!("{err}")` is already a
/// complete user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEstimator {
    name: String,
}

impl UnknownEstimator {
    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every name the registry accepts (same slice as [`ALL_ESTIMATORS`]).
    pub fn valid_names(&self) -> &'static [&'static str] {
        ALL_ESTIMATORS
    }

    /// The registered name closest to the failed one (case-insensitive
    /// Levenshtein distance ≤ 2), if any — the "did you mean" hint.
    pub fn suggestion(&self) -> Option<&'static str> {
        ALL_ESTIMATORS
            .iter()
            .map(|&candidate| (edit_distance(&self.name, candidate), candidate))
            // min_by_key keeps the first of equally-close names, so ties
            // resolve in the paper's registry order (GEE before AE).
            .min_by_key(|&(dist, _)| dist)
            .filter(|&(dist, _)| dist <= 2)
            .map(|(_, candidate)| candidate)
    }
}

impl std::fmt::Display for UnknownEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown estimator: {}", self.name)?;
        if let Some(hint) = self.suggestion() {
            write!(f, " (did you mean {hint}?)")?;
        }
        write!(f, "; valid names: {}", ALL_ESTIMATORS.join(", "))
    }
}

impl std::error::Error for UnknownEstimator {}

/// Case-insensitive Levenshtein distance, for the did-you-mean hint.
/// Inputs are short estimator names, so the O(|a|·|b|) DP is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<u8> = a.bytes().map(|c| c.to_ascii_uppercase()).collect();
    let b: Vec<u8> = b.bytes().map(|c| c.to_ascii_uppercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Resolves a name (case-insensitively) to its canonical registered
/// spelling, without allocating: the hot path of every lookup.
///
/// ```
/// use dve_core::registry::canonical_name;
/// assert_eq!(canonical_name("gee"), Some("GEE"));
/// assert_eq!(canonical_name("HyBgEe"), Some("HYBGEE"));
/// assert_eq!(canonical_name("nope"), None);
/// ```
pub fn canonical_name(name: &str) -> Option<&'static str> {
    ALL_ESTIMATORS
        .iter()
        .copied()
        .find(|candidate| candidate.eq_ignore_ascii_case(name))
}

/// Creates an estimator by name (case-insensitive).
///
/// ```
/// use dve_core::registry::by_name;
/// assert!(by_name("gee").is_ok());
/// assert!(by_name("HYBGEE").is_ok());
/// let err = by_name("GE").err().unwrap();
/// assert_eq!(err.name(), "GE");
/// assert_eq!(err.suggestion(), Some("GEE"));
/// ```
pub fn by_name(name: &str) -> Result<Box<dyn DistinctEstimator>, UnknownEstimator> {
    let canonical = canonical_name(name).ok_or_else(|| UnknownEstimator {
        name: name.to_string(),
    })?;
    Ok(match canonical {
        "GEE" => Box::new(Gee::default()),
        "AE" => Box::new(AdaptiveEstimator::new()),
        "AE-EXP" => Box::new(AdaptiveEstimator::with_form(AeForm::ExpApprox)),
        "HYBGEE" => Box::new(HybGee::new()),
        "HYBSKEW" => Box::new(HybSkew::new()),
        "DUJ2A" => Box::new(Duj2a::default()),
        "HYBVAR" => Box::new(HybVar::new()),
        "SHLOSSER" => Box::new(Shlosser),
        "SHLOSSER3" => Box::new(ModifiedShlosser),
        "SJACK" => Box::new(SmoothedJackknife),
        "JACK1" => Box::new(FirstOrderJackknife),
        "JACK2" => Box::new(SecondOrderJackknife),
        "DUJ1" => Box::new(UnsmoothedJackknife1),
        "DUJ2" => Box::new(UnsmoothedJackknife2),
        "CHAO" => Box::new(Chao),
        "CHAOLEE" => Box::new(ChaoLee),
        "BOOT" => Box::new(Bootstrap),
        "COVERAGE" => Box::new(CoverageScaleUp),
        "GOODMAN" => Box::new(Goodman),
        "MOM" => Box::new(MethodOfMoments),
        "MOM-INF" => Box::new(MethodOfMomentsInfinite),
        "SAMPLE-D" => Box::new(SampleDistinct),
        "SCALEUP" => Box::new(LinearScaleUp),
        other => unreachable!("canonical_name returned unregistered {other}"),
    })
}

/// Instantiates every estimator named in `names`, failing on the first
/// unknown name.
pub fn by_names(names: &[&str]) -> Result<Vec<Box<dyn DistinctEstimator>>, UnknownEstimator> {
    names.iter().map(|n| by_name(n)).collect()
}

/// [`by_names`] for static configuration (experiment grids, committed
/// baselines) where a bad name is a bug in this repository, not user
/// input.
///
/// # Panics
///
/// Panics on an unknown name — harness configuration is static and a typo
/// should fail loudly.
pub fn by_names_strict(names: &[&str]) -> Vec<Box<dyn DistinctEstimator>> {
    by_names(names).unwrap_or_else(|e| panic!("unknown estimator name: {}", e.name()))
}

/// An estimator wrapper that records per-estimator telemetry into the
/// global [`dve_obs`] registry on every call:
///
/// * `core.estimate.calls{estimator=NAME}` — counter
/// * `core.estimate_ns{estimator=NAME}` — latency histogram
///
/// Built with [`instrument`] / [`by_name_instrumented`] /
/// [`by_names_instrumented`]; estimates are bit-identical to the wrapped
/// estimator's.
pub struct Instrumented {
    inner: Box<dyn DistinctEstimator>,
    calls: std::sync::Arc<dve_obs::Counter>,
    latency: std::sync::Arc<dve_obs::Histogram>,
}

impl DistinctEstimator for Instrumented {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate_raw(&self, profile: &crate::spectrum::Spectrum) -> f64 {
        self.calls.inc();
        let start = Instant::now();
        let raw = self.inner.estimate_raw(profile);
        self.latency.record_duration(start.elapsed());
        raw
    }

    fn estimate_raw_for(
        &self,
        profile: &crate::spectrum::Spectrum,
        design: crate::design::SampleDesign,
    ) -> f64 {
        // Delegate so design-aware overrides (AE's hypergeometric form)
        // survive the wrapper; record the same call telemetry.
        self.calls.inc();
        let start = Instant::now();
        let raw = self.inner.estimate_raw_for(profile, design);
        self.latency.record_duration(start.elapsed());
        raw
    }

    fn estimate_full(
        &self,
        profile: &crate::spectrum::Spectrum,
        design: crate::design::SampleDesign,
    ) -> Estimation {
        // Delegate so estimator-specific intervals (GEE's bounds)
        // survive the wrapper; record the same call telemetry.
        self.calls.inc();
        let start = Instant::now();
        let estimation = self.inner.estimate_full(profile, design);
        self.latency.record_duration(start.elapsed());
        estimation
    }
}

/// Wraps an estimator with the [`Instrumented`] telemetry recorder.
pub fn instrument(inner: Box<dyn DistinctEstimator>) -> Box<dyn DistinctEstimator> {
    let obs = dve_obs::global();
    let calls = obs.counter_labeled("core.estimate.calls", inner.name());
    let latency = obs.histogram_labeled("core.estimate_ns", inner.name());
    Box::new(Instrumented {
        inner,
        calls,
        latency,
    })
}

/// [`by_name`] plus telemetry: the returned estimator reports call
/// counts and `estimate()` latency under its registry name.
pub fn by_name_instrumented(name: &str) -> Result<Box<dyn DistinctEstimator>, UnknownEstimator> {
    by_name(name).map(instrument)
}

/// An estimator wrapper that audits every estimate against a known
/// shadow ground truth, recording the ratio error
/// `max(D/D̂, D̂/D)` into `audit.ratio_error_permille{estimator}` on each
/// call (see [`dve_obs::audit`]). Estimates pass through unchanged.
///
/// The truth is fixed at construction — it comes from whoever can see
/// the whole column (an exact scan, a [`dve_obs`]-instrumented shadow
/// sketch, or the data generator), not from the profile.
pub struct Audited {
    inner: Box<dyn DistinctEstimator>,
    truth: f64,
}

impl DistinctEstimator for Audited {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate_raw(&self, profile: &crate::spectrum::Spectrum) -> f64 {
        // Audit the clamped estimate — the value callers act on. The
        // outer clamp in `estimate()` is then a no-op.
        let v = self.inner.estimate(profile);
        dve_obs::audit::record_ratio_error(
            self.inner.name(),
            crate::error::ratio_error(v.max(1.0), self.truth),
        );
        v
    }

    fn estimate_raw_for(
        &self,
        profile: &crate::spectrum::Spectrum,
        design: crate::design::SampleDesign,
    ) -> f64 {
        let v = self.inner.estimate_for(profile, design);
        dve_obs::audit::record_ratio_error(
            self.inner.name(),
            crate::error::ratio_error(v.max(1.0), self.truth),
        );
        v
    }

    fn estimate_full(
        &self,
        profile: &crate::spectrum::Spectrum,
        design: crate::design::SampleDesign,
    ) -> Estimation {
        let full = self.inner.estimate_full(profile, design);
        dve_obs::audit::record_ratio_error(
            self.inner.name(),
            crate::error::ratio_error(full.estimate.max(1.0), self.truth),
        );
        full
    }
}

/// Wraps an estimator so every estimate is scored against `truth`.
///
/// # Panics
///
/// Panics unless `truth` is finite and strictly positive (an empty
/// column has nothing to audit).
pub fn audit_against(inner: Box<dyn DistinctEstimator>, truth: f64) -> Box<dyn DistinctEstimator> {
    assert!(
        truth.is_finite() && truth > 0.0,
        "audit truth must be finite and positive, got {truth}"
    );
    Box::new(Audited { inner, truth })
}

/// [`by_names`] plus telemetry, failing on the first unknown name.
pub fn by_names_instrumented(
    names: &[&str],
) -> Result<Vec<Box<dyn DistinctEstimator>>, UnknownEstimator> {
    Ok(by_names(names)?.into_iter().map(instrument).collect())
}

/// [`by_names_strict`] plus telemetry, with the same panic-on-typo
/// contract — the variant the static experiment grids use.
pub fn by_names_strict_instrumented(names: &[&str]) -> Vec<Box<dyn DistinctEstimator>> {
    by_names_strict(names).into_iter().map(instrument).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::Spectrum;

    #[test]
    fn every_registered_name_resolves() {
        for name in ALL_ESTIMATORS {
            let est = by_name(name).unwrap_or_else(|_| panic!("{name} missing"));
            assert_eq!(&est.name(), name, "registry name mismatch for {name}");
            assert_eq!(canonical_name(name), Some(*name));
        }
    }

    #[test]
    fn paper_set_is_subset_of_all() {
        for name in PAPER_ESTIMATORS {
            assert!(ALL_ESTIMATORS.contains(name));
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(by_name("gee").unwrap().name(), "GEE");
        assert_eq!(by_name("HyBgEe").unwrap().name(), "HYBGEE");
    }

    #[test]
    fn unknown_name_is_typed_error() {
        let err = by_name("HLL").err().unwrap();
        assert_eq!(err.name(), "HLL");
        assert_eq!(err.valid_names(), ALL_ESTIMATORS);
        assert!(by_name("").is_err());
        assert!(by_names_instrumented(&["GEE", "nope"]).is_err());
    }

    #[test]
    fn error_display_carries_hint_and_valid_names() {
        let err = by_name("GE").err().unwrap();
        assert_eq!(err.suggestion(), Some("GEE"));
        let msg = err.to_string();
        assert!(msg.contains("unknown estimator: GE"), "{msg}");
        assert!(msg.contains("did you mean GEE?"), "{msg}");
        assert!(msg.contains("HYBSKEW"), "{msg}");
        // Far-away names get no suggestion but still list valid names.
        let err = by_name("zzzzzzzz").err().unwrap();
        assert_eq!(err.suggestion(), None);
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn suggestion_tolerates_case_and_small_typos() {
        assert_eq!(by_name("hybge").err().unwrap().suggestion(), Some("HYBGEE"));
        assert_eq!(
            by_name("shloser").err().unwrap().suggestion(),
            Some("SHLOSSER")
        );
        assert_eq!(
            by_name("mom-inf ").err().unwrap().suggestion(),
            Some("MOM-INF")
        );
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("GEE", "gee"), 0);
        assert_eq!(edit_distance("GEE", "GE"), 1);
        assert_eq!(edit_distance("AE", "GEE"), 2);
    }

    #[test]
    fn every_estimator_is_sane_on_a_generic_profile() {
        let p = Spectrum::from_spectrum(100_000, vec![30, 12, 4, 1]).unwrap();
        let d = p.distinct_in_sample() as f64;
        let n = p.table_size() as f64;
        for name in ALL_ESTIMATORS {
            let est = by_name(name).unwrap();
            let v = est.estimate(&p);
            assert!(
                v.is_finite() && v >= d && v <= n,
                "{name} returned {v} outside [{d}, {n}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown estimator")]
    fn by_names_strict_panics_on_typo() {
        by_names_strict(&["GEE", "GE"]);
    }

    #[test]
    fn instrumented_estimates_match_and_record() {
        let p = Spectrum::from_spectrum(100_000, vec![30, 12, 4, 1]).unwrap();
        let plain = by_name("GEE").unwrap();
        let wrapped = by_name_instrumented("GEE").unwrap();
        assert_eq!(wrapped.name(), "GEE");
        let calls_before = dve_obs::global()
            .counter_labeled("core.estimate.calls", "GEE")
            .get();
        assert_eq!(plain.estimate(&p), wrapped.estimate(&p));
        let calls_after = dve_obs::global()
            .counter_labeled("core.estimate.calls", "GEE")
            .get();
        assert_eq!(calls_after - calls_before, 1);
        assert!(
            dve_obs::global()
                .histogram_labeled("core.estimate_ns", "GEE")
                .count()
                >= 1
        );
    }

    #[test]
    fn instrumented_estimate_full_preserves_interval_and_records() {
        let wr = crate::design::SampleDesign::WithReplacement;
        let p = Spectrum::from_spectrum(100_000, vec![30, 12, 4, 1]).unwrap();
        let plain = by_name("GEE").unwrap().estimate_full(&p, wr);
        let calls_before = dve_obs::global()
            .counter_labeled("core.estimate.calls", "GEE")
            .get();
        let wrapped = by_name_instrumented("GEE").unwrap().estimate_full(&p, wr);
        assert_eq!(plain, wrapped);
        assert!(wrapped.interval.is_some(), "GEE interval lost in wrapper");
        let calls_after = dve_obs::global()
            .counter_labeled("core.estimate.calls", "GEE")
            .get();
        assert_eq!(calls_after - calls_before, 1);
    }

    #[test]
    fn by_names_strict_instrumented_resolves_paper_set() {
        let ests = by_names_strict_instrumented(PAPER_ESTIMATORS);
        let names: Vec<&str> = ests.iter().map(|e| e.name()).collect();
        assert_eq!(names, PAPER_ESTIMATORS.to_vec());
    }

    #[test]
    fn audited_passes_estimates_through_and_records_ratio() {
        let p = Spectrum::from_spectrum(100_000, vec![30, 12, 4, 1]).unwrap();
        let plain = by_name("GEE").unwrap();
        let expected = plain.estimate(&p);
        // Truth chosen so the estimate is off by a known factor.
        let truth = expected / 2.0;
        let audited = audit_against(by_name("GEE").unwrap(), truth);
        assert_eq!(audited.name(), "GEE");
        let hist = dve_obs::audit::ratio_error_histogram("GEE");
        let before = hist.count();
        assert_eq!(audited.estimate(&p), expected);
        assert_eq!(hist.count(), before + 1);
        // The recorded ratio is 2× in permille, within bucket resolution.
        let recorded = hist.max().unwrap();
        assert!(
            (1700..=2300).contains(&recorded),
            "recorded ratio {recorded} ‰ should be ≈ 2000 ‰"
        );
    }

    #[test]
    fn audited_estimate_full_passes_through_and_records() {
        let wr = crate::design::SampleDesign::WithReplacement;
        let p = Spectrum::from_spectrum(100_000, vec![30, 12, 4, 1]).unwrap();
        let expected = by_name("AE").unwrap().estimate_full(&p, wr);
        let audited = audit_against(by_name("AE").unwrap(), expected.estimate.max(1.0));
        let hist = dve_obs::audit::ratio_error_histogram("AE");
        let before = hist.count();
        assert_eq!(audited.estimate_full(&p, wr), expected);
        assert_eq!(hist.count(), before + 1);
    }

    #[test]
    fn wrappers_forward_the_design_to_ae() {
        // A 20% WOR sample: AE's hypergeometric form must survive both
        // the instrumentation and the audit wrapper.
        let p = Spectrum::from_spectrum(1_000, vec![80, 40, 15, 5]).unwrap();
        let design = crate::design::SampleDesign::wor(1_000);
        let plain = by_name("AE").unwrap().estimate_for(&p, design);
        let instrumented = by_name_instrumented("AE").unwrap();
        assert_eq!(instrumented.estimate_for(&p, design), plain);
        let audited = audit_against(by_name("AE").unwrap(), 200.0);
        assert_eq!(audited.estimate_for(&p, design), plain);
        // And the design genuinely changes AE's answer on this profile.
        let wr_estimate = by_name("AE").unwrap().estimate(&p);
        assert_ne!(plain, wr_estimate, "WOR correction had no effect");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn audited_rejects_bad_truth() {
        audit_against(by_name("GEE").unwrap(), 0.0);
    }
}

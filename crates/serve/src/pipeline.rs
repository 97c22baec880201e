//! The estimation pipeline shared by `dve estimate` and `/v1/estimate`.
//!
//! Both entry points MUST produce byte-identical results for the same
//! input, so the whole hash → sample → profile → estimate chain lives
//! here once and the CLI and the daemon both call it. The serve
//! integration test pins that contract by comparing the daemon's JSON
//! against an in-process call of these functions.

use dve_core::bounds::{gee_confidence_interval, ConfidenceInterval};
use dve_core::design::SampleDesign;
use dve_core::estimator::{DistinctEstimator, Estimation};
use dve_core::registry::{self, UnknownEstimator};
use dve_core::Spectrum;
use dve_numeric::rng::Rng;
use dve_obs::minijson::Writer;
use dve_obs::trace;
use dve_sample::SamplingScheme;

/// Everything one estimate request produces: the requested estimator's
/// full result plus GEE's `[LOWER, UPPER]` interval, which is valid for
/// the sample regardless of which estimator produced the point estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateOutcome {
    /// The requested estimator's typed result.
    pub estimation: Estimation,
    /// GEE's confidence interval for the same sample.
    pub gee: ConfidenceInterval,
}

impl EstimateOutcome {
    /// The stable response encoding: the [`Estimation`] JSON contract
    /// under `"estimation"`, GEE's bounds under `"gee_interval"`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        let mut w = Writer::new(&mut out);
        w.begin_object();
        self.members_into(&mut w);
        w.end_object();
        out
    }

    /// Writes the `"estimation"` and `"gee_interval"` members into the
    /// object `w` has open, so a response can append members of its
    /// own.
    pub fn members_into(&self, w: &mut Writer) {
        w.key("estimation");
        self.estimation.json_into(w);
        w.key("gee_interval")
            .begin_object()
            .field("lower", self.gee.lower)
            .field("upper", self.gee.upper)
            .end_object();
    }
}

/// Why the pipeline rejected a request. Maps to exit code 2 in the CLI
/// and HTTP 400 in the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The estimator name is not in the registry.
    UnknownEstimator(UnknownEstimator),
    /// The sampling fraction is outside `(0, 1]`.
    BadFraction(f64),
    /// No input values / empty spectrum.
    EmptyInput,
    /// The provided spectrum is internally inconsistent (e.g. implies a
    /// sample larger than the table).
    BadSpectrum(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownEstimator(err) => write!(f, "{err}"),
            PipelineError::BadFraction(v) => {
                write!(f, "sampling fraction must be in (0, 1], got {v}")
            }
            PipelineError::EmptyInput => write!(f, "input is empty"),
            PipelineError::BadSpectrum(msg) => write!(f, "bad frequency spectrum: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<UnknownEstimator> for PipelineError {
    fn from(err: UnknownEstimator) -> Self {
        PipelineError::UnknownEstimator(err)
    }
}

fn outcome(
    estimator: &dyn DistinctEstimator,
    profile: &Spectrum,
    design: SampleDesign,
) -> EstimateOutcome {
    let mut estimate_span = trace::span("pipeline.estimate");
    let estimation = estimator.estimate_full(profile, design);
    estimate_span.set_detail(|| estimation.estimator.to_string());
    drop(estimate_span);
    let _gee_span = trace::span("pipeline.gee_interval");
    let gee = gee_confidence_interval(profile);
    EstimateOutcome { estimation, gee }
}

/// Estimates distinct values among `values`: hash every value, draw a
/// without-replacement sample of `round(fraction · n)` rows from an
/// [`Rng`] seeded by `seed`, profile it, and run the named
/// estimator — the exact chain `dve estimate` runs, instrumented the
/// same way.
///
/// The sample is drawn without replacement and the estimate is computed
/// under the matching [`SampleDesign::WithoutReplacement`]; use
/// [`estimate_values_with_design`] to force the paper's
/// with-replacement model instead.
pub fn estimate_values<S: AsRef<str>>(
    values: &[S],
    estimator_name: &str,
    fraction: f64,
    seed: u64,
) -> Result<EstimateOutcome, PipelineError> {
    estimate_values_with_design(values, estimator_name, fraction, seed, None)
}

/// [`estimate_values`] with an explicit estimation design. `None` uses
/// the design the sampler actually realizes (without replacement over
/// the `n` input values); `Some(design)` overrides the model the
/// estimator assumes — e.g. [`SampleDesign::WithReplacement`] to
/// reproduce the paper's published equations on the same sample.
pub fn estimate_values_with_design<S: AsRef<str>>(
    values: &[S],
    estimator_name: &str,
    fraction: f64,
    seed: u64,
    design: Option<SampleDesign>,
) -> Result<EstimateOutcome, PipelineError> {
    values_outcome(values, estimator_name, fraction, seed, design).map(|(out, _)| out)
}

/// The shared values-mode chain, also handing back the hashed inputs so
/// the shadow-truth sampler can count exactly without re-hashing.
fn values_outcome<S: AsRef<str>>(
    values: &[S],
    estimator_name: &str,
    fraction: f64,
    seed: u64,
    design: Option<SampleDesign>,
) -> Result<(EstimateOutcome, Vec<u64>), PipelineError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(PipelineError::BadFraction(fraction));
    }
    let estimator = registry::by_name_instrumented(estimator_name)?;
    if values.is_empty() {
        return Err(PipelineError::EmptyInput);
    }
    let n = values.len() as u64;
    let r = ((n as f64 * fraction).round() as u64).clamp(1, n);
    let build_span = trace::span("pipeline.spectrum_build").detail(|| format!("n={n} r={r}"));
    // 64-bit hashes: a collision among request-sized inputs is
    // negligible, and hashing first lets every input type share the
    // u64 sampler → profile → estimator pipeline.
    let hashes: Vec<u64> = values
        .iter()
        .map(|v| dve_sketch::hash_bytes(v.as_ref().as_bytes()))
        .collect();
    let scheme = SamplingScheme::WithoutReplacement;
    let design = design.unwrap_or_else(|| scheme.design(n));
    let mut rng = Rng::seed_from_u64(seed);
    let profile = dve_sample::sample_profile(&hashes, r, scheme, &mut rng)
        .map_err(|e| PipelineError::BadSpectrum(e.to_string()))?;
    drop(build_span);
    Ok((outcome(estimator.as_ref(), &profile, design), hashes))
}

/// What the shadow-truth sampler observed for one sampled values-mode
/// request: the (near-)exact distinct count and how the served answer
/// compared against it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowObservation {
    /// The shadow count over *all* input values — exact while the
    /// request fits [`SHADOW_MEMORY_BUDGET`], HLL (≈ 0.4% RSE) past it.
    pub truth: f64,
    /// Whether `truth` came from the exact backend.
    pub exact: bool,
    /// Multiplicative ratio error of the served estimate:
    /// `max(truth/est, est/truth)` (≥ 1; the paper's error metric).
    pub ratio_error: f64,
    /// Whether `truth` landed inside the served GEE `[lower, upper]`.
    pub covered: bool,
}

/// Memory budget for one shadow-truth count (64 MiB). Request bodies
/// are capped far below what it takes to overflow this, so live shadow
/// samples are effectively always exact.
pub const SHADOW_MEMORY_BUDGET: usize = 64 * 1024 * 1024;

/// [`estimate_values_with_design`] plus a shadow-truth pass: the exact
/// distinct count over the full input ([`dve_sketch::shadow`]) is
/// computed alongside the estimate and compared against it. This is the
/// expensive arm of the guarantee monitor — sampled requests pay one
/// extra `O(n)` counting pass — so callers gate it behind the
/// `--shadow-sample-rate` coin.
pub fn estimate_values_shadowed<S: AsRef<str>>(
    values: &[S],
    estimator_name: &str,
    fraction: f64,
    seed: u64,
    design: Option<SampleDesign>,
) -> Result<(EstimateOutcome, ShadowObservation), PipelineError> {
    use dve_sketch::DistinctSketch;
    let (out, hashes) = values_outcome(values, estimator_name, fraction, seed, design)?;
    let mut shadow_span = trace::span("pipeline.shadow_truth");
    let mut shadow = dve_sketch::shadow::ShadowTruth::with_memory_budget(SHADOW_MEMORY_BUDGET);
    for &h in &hashes {
        shadow.insert(h);
    }
    let truth = shadow.estimate();
    let est = out.estimation.estimate;
    let ratio_error = if truth > 0.0 && est > 0.0 {
        (truth / est).max(est / truth)
    } else {
        f64::INFINITY
    };
    let covered = truth >= out.gee.lower && truth <= out.gee.upper;
    shadow_span.set_detail(|| format!("truth={truth} ratio={ratio_error:.3}"));
    drop(shadow_span);
    let obs = ShadowObservation {
        truth,
        exact: shadow.is_exact(),
        ratio_error,
        covered,
    };
    Ok((out, obs))
}

/// Estimates distinct values from an already-summarized frequency
/// spectrum (`spectrum[i - 1] = f_i`, table size `n`) — the mode for
/// clients that sampled elsewhere (e.g. per-partition scans) and ship
/// only the sufficient statistic.
///
/// The spectrum carries no record of how its sample was drawn, so this
/// mode defaults to the paper's with-replacement model; clients that
/// sampled without replacement can say so via
/// [`estimate_spectrum_designed`].
pub fn estimate_spectrum(
    n: u64,
    spectrum: Vec<u64>,
    estimator_name: &str,
) -> Result<EstimateOutcome, PipelineError> {
    estimate_spectrum_designed(n, spectrum, estimator_name, SampleDesign::WithReplacement)
}

/// [`estimate_spectrum`] under an explicit [`SampleDesign`].
pub fn estimate_spectrum_designed(
    n: u64,
    spectrum: Vec<u64>,
    estimator_name: &str,
    design: SampleDesign,
) -> Result<EstimateOutcome, PipelineError> {
    let estimator = registry::by_name_instrumented(estimator_name)?;
    if n == 0 || spectrum.iter().all(|&f| f == 0) {
        return Err(PipelineError::EmptyInput);
    }
    let build_span = trace::span("pipeline.spectrum_build").detail(|| format!("n={n}"));
    let profile = Spectrum::from_spectrum(n, spectrum)
        .map_err(|e| PipelineError::BadSpectrum(e.to_string()))?;
    drop(build_span);
    Ok(outcome(estimator.as_ref(), &profile, design))
}

/// Estimates once over an already-merged sufficient statistic — the
/// entry point the cluster coordinator uses after
/// [`Spectrum::merge_designed`] folds worker partials into one
/// spectrum + design, and the single implementation every other mode
/// bottoms out in.
pub fn estimate_profile(
    profile: &Spectrum,
    estimator_name: &str,
    design: SampleDesign,
) -> Result<EstimateOutcome, PipelineError> {
    let estimator = registry::by_name_instrumented(estimator_name)?;
    if profile.table_size() == 0 || profile.sample_size() == 0 {
        return Err(PipelineError::EmptyInput);
    }
    Ok(outcome(estimator.as_ref(), profile, design))
}

/// Estimates distinct values from **per-shard** spectra: each shard
/// ships `(n, spectrum)` for its own partition and the daemon merges the
/// sufficient statistics with [`Spectrum::merge_designed`] —
/// the same code path the cluster coordinator uses — before estimating
/// once over the union.
///
/// Merging sums `n`, `r`, and the f-vectors, which is exact when shards
/// partition the table *horizontally with disjoint sampled rows*; only
/// the spectra travel. A single shard is exactly [`estimate_spectrum`]:
/// shipping `[(n, s)]` and `(n, s)` produce byte-identical responses.
pub fn estimate_shards(
    shards: Vec<(u64, Vec<u64>)>,
    estimator_name: &str,
) -> Result<EstimateOutcome, PipelineError> {
    estimate_shards_designed(shards, estimator_name, SampleDesign::WithReplacement)
}

/// [`estimate_shards`] under an explicit sampling model. A
/// with-replacement `design` applies to every shard; a
/// without-replacement `design` is re-derived honestly per shard as
/// `wor(nᵢ)`, so the merged design is `wor(Σ nᵢ)` regardless of the
/// population the caller wrote in.
pub fn estimate_shards_designed(
    shards: Vec<(u64, Vec<u64>)>,
    estimator_name: &str,
    design: SampleDesign,
) -> Result<EstimateOutcome, PipelineError> {
    if shards.is_empty() {
        // Probe the estimator name first so `NOPE` + `[]` still reports
        // the name error the caller can actually fix.
        registry::by_name_instrumented(estimator_name)?;
        return Err(PipelineError::EmptyInput);
    }
    let mut designed = Vec::with_capacity(shards.len());
    for (i, (n, spectrum)) in shards.into_iter().enumerate() {
        if n == 0 || spectrum.iter().all(|&f| f == 0) {
            return Err(PipelineError::BadSpectrum(format!(
                "shard {i} is empty (every shard needs rows and a non-zero spectrum)"
            )));
        }
        let shard = Spectrum::from_spectrum(n, spectrum)
            .map_err(|e| PipelineError::BadSpectrum(format!("shard {i}: {e}")))?;
        let shard_design = match design {
            SampleDesign::WithReplacement => SampleDesign::WithReplacement,
            SampleDesign::WithoutReplacement { .. } => SampleDesign::wor(n),
        };
        designed.push((shard, shard_design));
    }
    let (profile, merged_design) = Spectrum::merge_designed(designed).ok_or_else(|| {
        PipelineError::BadSpectrum("the shards hold more than 2^64 - 1 rows together".into())
    })?;
    estimate_profile(&profile, estimator_name, merged_design)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_mode_matches_gee_by_hand() {
        // n = 10_000, f1 = 40, f2 = 30 → GEE = 10·40 + 30 = 430.
        let out = estimate_spectrum(10_000, vec![40, 30], "GEE").unwrap();
        assert_eq!(out.estimation.estimate, 430.0);
        assert_eq!(out.estimation.interval, Some((70.0, 4030.0)));
        assert_eq!(out.gee.lower, 70.0);
        assert_eq!(out.gee.upper, 4030.0);
        let json = out.to_json();
        assert!(
            json.contains("\"estimation\":{\"estimator\":\"GEE\""),
            "{json}"
        );
        assert!(
            json.contains("\"gee_interval\":{\"lower\":70,\"upper\":4030}"),
            "{json}"
        );
    }

    #[test]
    fn values_mode_is_deterministic_in_the_seed() {
        let values: Vec<String> = (0..500).map(|i| format!("v{}", i % 97)).collect();
        let a = estimate_values(&values, "AE", 0.2, 7).unwrap();
        let b = estimate_values(&values, "AE", 0.2, 7).unwrap();
        let c = estimate_values(&values, "AE", 0.2, 8).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        // A different seed draws a different sample (with overwhelming
        // probability for this input), but stays a valid estimate.
        assert!(c.estimation.estimate >= c.estimation.d as f64);
    }

    #[test]
    fn non_gee_estimators_still_report_the_gee_interval() {
        let out = estimate_spectrum(10_000, vec![40, 30], "SHLOSSER").unwrap();
        assert_eq!(out.estimation.estimator, "SHLOSSER");
        assert_eq!(out.estimation.interval, None);
        assert_eq!((out.gee.lower, out.gee.upper), (70.0, 4030.0));
    }

    #[test]
    fn sharded_estimate_is_byte_identical_to_the_merged_spectrum() {
        // Two value-disjoint shards whose spectra sum to the single-shot
        // request: the responses must match byte for byte.
        let single = estimate_spectrum(10_000, vec![40, 30], "GEE").unwrap();
        let sharded =
            estimate_shards(vec![(5_000, vec![20, 15]), (5_000, vec![20, 15])], "GEE").unwrap();
        assert_eq!(single.to_json(), sharded.to_json());
        // One shard degenerates to the plain spectrum mode.
        let one = estimate_shards(vec![(10_000, vec![40, 30])], "GEE").unwrap();
        assert_eq!(single.to_json(), one.to_json());
    }

    #[test]
    fn design_knob_reaches_the_estimator() {
        // AE is design-aware: the WOR design must change its estimate on
        // a low-skew spectrum, while design-blind GEE never moves.
        let spectrum = vec![80u64, 40, 15, 5];
        let wr = estimate_spectrum(1_000, spectrum.clone(), "AE").unwrap();
        let wor =
            estimate_spectrum_designed(1_000, spectrum.clone(), "AE", SampleDesign::wor(1_000))
                .unwrap();
        assert_ne!(wr.estimation.estimate, wor.estimation.estimate);
        let gee_wr = estimate_spectrum(1_000, spectrum.clone(), "GEE").unwrap();
        let gee_wor =
            estimate_spectrum_designed(1_000, spectrum, "GEE", SampleDesign::wor(1_000)).unwrap();
        assert_eq!(gee_wr.to_json(), gee_wor.to_json());
    }

    #[test]
    fn values_mode_defaults_to_the_sampler_design() {
        // The values pipeline samples without replacement, so its default
        // must equal the explicit WOR design and (for AE) differ from the
        // forced with-replacement model.
        let values: Vec<String> = (0..500).map(|i| format!("v{}", i % 97)).collect();
        let default = estimate_values(&values, "AE", 0.2, 7).unwrap();
        let explicit = estimate_values_with_design(
            &values,
            "AE",
            0.2,
            7,
            Some(SampleDesign::wor(values.len() as u64)),
        )
        .unwrap();
        assert_eq!(default.to_json(), explicit.to_json());
        let wr =
            estimate_values_with_design(&values, "AE", 0.2, 7, Some(SampleDesign::WithReplacement))
                .unwrap();
        assert_ne!(default.estimation.estimate, wr.estimation.estimate);
    }

    #[test]
    fn shadowed_values_mode_observes_truth_without_changing_the_answer() {
        let values: Vec<String> = (0..600).map(|i| format!("v{}", i % 101)).collect();
        let (out, obs) = estimate_values_shadowed(&values, "AE", 0.5, 7, None).unwrap();
        let plain = estimate_values(&values, "AE", 0.5, 7).unwrap();
        assert_eq!(
            out.to_json(),
            plain.to_json(),
            "the shadow pass must never change the served response"
        );
        assert!(obs.exact, "request-sized inputs stay on the exact backend");
        assert_eq!(obs.truth, 101.0);
        assert!(obs.ratio_error >= 1.0);
        assert_eq!(
            obs.covered,
            obs.truth >= out.gee.lower && obs.truth <= out.gee.upper
        );
    }

    #[test]
    fn shadowed_values_mode_flags_a_bad_estimator() {
        // SAMPLE-D on a tiny fraction of an all-distinct column is the
        // synthetic bad estimator: truth/estimate ≈ 1/fraction.
        let values: Vec<String> = (0..2_000).map(|i| format!("u{i}")).collect();
        let (_, obs) = estimate_values_shadowed(&values, "SAMPLE-D", 0.01, 7, None).unwrap();
        assert!(obs.ratio_error > 50.0, "ratio {}", obs.ratio_error);
    }

    #[test]
    fn shard_error_paths_are_typed() {
        assert!(matches!(
            estimate_shards(vec![], "GEE"),
            Err(PipelineError::EmptyInput)
        ));
        match estimate_shards(vec![(5_000, vec![20, 15]), (0, vec![])], "GEE") {
            Err(PipelineError::BadSpectrum(msg)) => {
                assert!(msg.contains("shard 1"), "{msg}");
            }
            other => panic!("expected BadSpectrum, got {other:?}"),
        }
        match estimate_shards(vec![(3, vec![10])], "GEE") {
            Err(PipelineError::BadSpectrum(msg)) => {
                assert!(msg.contains("shard 0"), "{msg}");
            }
            other => panic!("expected BadSpectrum, got {other:?}"),
        }
        assert!(matches!(
            estimate_shards(vec![(10, vec![5])], "NOPE"),
            Err(PipelineError::UnknownEstimator(_))
        ));
    }

    #[test]
    fn error_paths_are_typed() {
        assert!(matches!(
            estimate_spectrum(10_000, vec![1], "NOPE"),
            Err(PipelineError::UnknownEstimator(_))
        ));
        assert!(matches!(
            estimate_values(&["a"], "GEE", 1.5, 0),
            Err(PipelineError::BadFraction(_))
        ));
        assert!(matches!(
            estimate_values::<&str>(&[], "GEE", 0.5, 0),
            Err(PipelineError::EmptyInput)
        ));
        assert!(matches!(
            estimate_spectrum(0, vec![], "GEE"),
            Err(PipelineError::EmptyInput)
        ));
        // Spectrum implying r > n is inconsistent.
        assert!(matches!(
            estimate_spectrum(3, vec![10], "GEE"),
            Err(PipelineError::BadSpectrum(_))
        ));
    }
}

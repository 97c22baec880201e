//! The estimator abstraction and the paper's universal sanity clamp.
//!
//! Every estimator maps a [`Spectrum`] to an estimate `D̂` of the
//! number of distinct values in the underlying column. Per §2 of the paper,
//! *all* estimators are post-processed with the sanity bounds
//! `d ≤ D̂ ≤ n`: an estimate below the number of distinct values already
//! seen, or above the number of rows, is certainly wrong.
//!
//! Two result surfaces exist:
//!
//! * [`DistinctEstimator::estimate`] — the bare clamped `f64`, for hot
//!   loops (the experiment grids run millions of these);
//! * [`DistinctEstimator::estimate_full`] — a typed [`Estimation`]
//!   carrying the estimate **and** its provenance (estimator name,
//!   `d`/`r`/`n`, and — for estimators that can provide one — a
//!   confidence interval). This is what crosses API boundaries: the
//!   `dve serve` responses, `dve analyze --format json`, and the
//!   catalog statistics all serialize this one struct.

use crate::design::SampleDesign;
use crate::spectrum::Spectrum;
use dve_obs::minijson::Writer;

/// A complete estimation result: the point estimate plus everything a
/// remote caller needs to interpret it.
///
/// Produced by [`DistinctEstimator::estimate_full`]. The `interval` is
/// `None` for estimators that carry no self-reported bounds; GEE fills
/// it with the paper's `[LOWER, UPPER] = [d, Σ_{i>1} f_i + (n/r)·f₁]`
/// (§4), clamped to `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimation {
    /// The clamped point estimate `D̂` (`d ≤ D̂ ≤ n`).
    pub estimate: f64,
    /// Self-reported `(lower, upper)` confidence bounds, when the
    /// estimator provides them.
    pub interval: Option<(f64, f64)>,
    /// Registry name of the estimator that produced the estimate.
    pub estimator: String,
    /// Distinct values observed in the sample, `d`.
    pub d: u64,
    /// Sample size, `r`.
    pub r: u64,
    /// Table size, `n`.
    pub n: u64,
}

impl Estimation {
    /// Serializes the estimation as a single JSON object with a stable
    /// key order:
    ///
    /// ```json
    /// {"estimator":"GEE","estimate":770.0,
    ///  "interval":{"lower":70.0,"upper":4030.0},
    ///  "d":70,"r":100,"n":10000}
    /// ```
    ///
    /// `interval` is `null` when the estimator reports no bounds.
    /// Floats use Rust's shortest round-trip formatting, so JSON readers
    /// recover bit-identical values — the byte-identity contract between
    /// the CLI and `dve serve` rests on this.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        self.json_into(&mut Writer::new(&mut out));
        out
    }

    /// Writes the [`Estimation::to_json`] object as the next value of
    /// `w`, for documents that embed it.
    pub fn json_into(&self, w: &mut Writer) {
        w.begin_object()
            .field("estimator", &self.estimator)
            .field("estimate", self.estimate)
            .key("interval");
        match self.interval {
            Some((lower, upper)) => w
                .begin_object()
                .field("lower", lower)
                .field("upper", upper)
                .end_object(),
            None => w.raw("null"),
        };
        w.field("d", self.d)
            .field("r", self.r)
            .field("n", self.n)
            .end_object();
    }
}

/// Clamps a raw estimate into the feasible interval `[d, n]` (paper §2).
///
/// Non-finite raw values (which some baselines produce on degenerate
/// spectra, e.g. Goodman's alternating series) are mapped to the nearest
/// bound: `+∞`/NaN-high to `n`, everything else to `d`.
pub fn sanity_clamp(raw: f64, distinct_in_sample: u64, table_size: u64) -> f64 {
    let d = distinct_in_sample as f64;
    let n = table_size as f64;
    if raw.is_nan() {
        // No information either way; return the only certain lower bound.
        return d;
    }
    raw.clamp(d, n)
}

/// A distinct-values estimator.
///
/// Implementors provide [`estimate_raw`](DistinctEstimator::estimate_raw);
/// callers should almost always use [`estimate`](DistinctEstimator::estimate),
/// which applies the sanity clamp exactly as the paper's experiments do.
///
/// Estimators are cheap value objects (usually zero-sized or a couple of
/// parameters); the registry in [`crate::registry`] hands them out as
/// `Box<dyn DistinctEstimator>`.
pub trait DistinctEstimator: Send + Sync {
    /// A short stable identifier, e.g. `"GEE"`, `"HYBSKEW"`. Used by the
    /// experiment harness for table headers and by the registry for
    /// lookup.
    fn name(&self) -> &'static str;

    /// The estimator's formula applied verbatim, **without** the sanity
    /// clamp. May legitimately return values outside `[d, n]` or even
    /// non-finite values for degenerate inputs.
    ///
    /// Equivalent to [`estimate_raw_for`](Self::estimate_raw_for) under
    /// the paper's [`SampleDesign::WithReplacement`] model.
    fn estimate_raw(&self, profile: &Spectrum) -> f64;

    /// [`estimate_raw`](Self::estimate_raw) conditioned on the sampling
    /// design. The default ignores the design and evaluates the paper's
    /// with-replacement formula — correct for the many estimators whose
    /// derivation never references the class-inclusion probabilities.
    /// Design-aware estimators (AE) override this to solve the matching
    /// (e.g. hypergeometric) form when the design says
    /// [`SampleDesign::WithoutReplacement`].
    fn estimate_raw_for(&self, profile: &Spectrum, design: SampleDesign) -> f64 {
        let _ = design;
        self.estimate_raw(profile)
    }

    /// The estimate with the paper's sanity bounds applied:
    /// `d ≤ D̂ ≤ n`.
    fn estimate(&self, profile: &Spectrum) -> f64 {
        sanity_clamp(
            self.estimate_raw(profile),
            profile.distinct_in_sample(),
            profile.table_size(),
        )
    }

    /// The design-conditioned estimate with the sanity clamp applied.
    /// Identical to [`estimate`](Self::estimate) under
    /// [`SampleDesign::WithReplacement`].
    fn estimate_for(&self, profile: &Spectrum, design: SampleDesign) -> f64 {
        sanity_clamp(
            self.estimate_raw_for(profile, design),
            profile.distinct_in_sample(),
            profile.table_size(),
        )
    }

    /// The typed result surface: the clamped estimate plus provenance,
    /// conditioned on the sampling design.
    ///
    /// The default implementation wraps [`estimate_for`](Self::estimate_for)
    /// with `interval: None`; estimators that carry self-reported bounds
    /// (GEE) override it. Wrappers (`Box`, references, the registry's
    /// instrumentation) forward it, so the override survives boxing.
    fn estimate_full(&self, profile: &Spectrum, design: SampleDesign) -> Estimation {
        Estimation {
            estimate: self.estimate_for(profile, design),
            interval: None,
            estimator: self.name().to_string(),
            d: profile.distinct_in_sample(),
            r: profile.sample_size(),
            n: profile.table_size(),
        }
    }
}

impl<T: DistinctEstimator + ?Sized> DistinctEstimator for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        (**self).estimate_raw(profile)
    }
    fn estimate_raw_for(&self, profile: &Spectrum, design: SampleDesign) -> f64 {
        (**self).estimate_raw_for(profile, design)
    }
    fn estimate_full(&self, profile: &Spectrum, design: SampleDesign) -> Estimation {
        (**self).estimate_full(profile, design)
    }
}

impl<T: DistinctEstimator + ?Sized> DistinctEstimator for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn estimate_raw(&self, profile: &Spectrum) -> f64 {
        (**self).estimate_raw(profile)
    }
    fn estimate_raw_for(&self, profile: &Spectrum, design: SampleDesign) -> f64 {
        (**self).estimate_raw_for(profile, design)
    }
    fn estimate_full(&self, profile: &Spectrum, design: SampleDesign) -> Estimation {
        (**self).estimate_full(profile, design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);
    impl DistinctEstimator for Fixed {
        fn name(&self) -> &'static str {
            "FIXED"
        }
        fn estimate_raw(&self, _p: &Spectrum) -> f64 {
            self.0
        }
    }

    fn profile() -> Spectrum {
        // d = 3, n = 100.
        Spectrum::from_sample_counts(100, [1, 1, 2]).unwrap()
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(sanity_clamp(50.0, 3, 100), 50.0);
        assert_eq!(sanity_clamp(1.0, 3, 100), 3.0);
        assert_eq!(sanity_clamp(1e9, 3, 100), 100.0);
        assert_eq!(sanity_clamp(f64::INFINITY, 3, 100), 100.0);
        assert_eq!(sanity_clamp(f64::NEG_INFINITY, 3, 100), 3.0);
        assert_eq!(sanity_clamp(f64::NAN, 3, 100), 3.0);
    }

    #[test]
    fn trait_applies_clamp() {
        let p = profile();
        assert_eq!(Fixed(1e12).estimate(&p), 100.0);
        assert_eq!(Fixed(0.0).estimate(&p), 3.0);
        assert_eq!(Fixed(42.0).estimate(&p), 42.0);
        assert_eq!(Fixed(42.0).estimate_raw(&p), 42.0);
    }

    #[test]
    fn blanket_impls_delegate() {
        let p = profile();
        let boxed: Box<dyn DistinctEstimator> = Box::new(Fixed(7.0));
        assert_eq!(boxed.name(), "FIXED");
        assert_eq!(boxed.estimate(&p), 7.0);
        let by_ref: &dyn DistinctEstimator = &Fixed(7.0);
        assert_eq!(by_ref.estimate(&p), 7.0);
    }

    #[test]
    fn estimate_full_defaults_wrap_estimate() {
        let p = profile();
        let full = Fixed(42.0).estimate_full(&p, SampleDesign::WithReplacement);
        assert_eq!(full.estimate, 42.0);
        assert_eq!(full.interval, None);
        assert_eq!(full.estimator, "FIXED");
        assert_eq!((full.d, full.r, full.n), (3, 4, 100));
        // The clamp applies to the full surface too.
        assert_eq!(
            Fixed(1e12)
                .estimate_full(&p, SampleDesign::WithReplacement)
                .estimate,
            100.0
        );
    }

    #[test]
    fn design_blind_estimators_ignore_the_design() {
        let p = profile();
        assert_eq!(
            Fixed(42.0).estimate_for(&p, SampleDesign::wor(100)),
            Fixed(42.0).estimate(&p)
        );
        assert_eq!(
            Fixed(42.0).estimate_raw_for(&p, SampleDesign::wor(100)),
            42.0
        );
    }

    #[test]
    fn estimate_full_override_survives_boxing() {
        struct WithBounds;
        impl DistinctEstimator for WithBounds {
            fn name(&self) -> &'static str {
                "WB"
            }
            fn estimate_raw(&self, _p: &Spectrum) -> f64 {
                5.0
            }
            fn estimate_full(&self, p: &Spectrum, design: SampleDesign) -> Estimation {
                Estimation {
                    estimate: self.estimate_for(p, design),
                    interval: Some((1.0, 9.0)),
                    estimator: self.name().to_string(),
                    d: p.distinct_in_sample(),
                    r: p.sample_size(),
                    n: p.table_size(),
                }
            }
        }
        let p = profile();
        let wr = SampleDesign::WithReplacement;
        let boxed: Box<dyn DistinctEstimator> = Box::new(WithBounds);
        assert_eq!(boxed.estimate_full(&p, wr).interval, Some((1.0, 9.0)));
        let by_ref: &dyn DistinctEstimator = &WithBounds;
        assert_eq!(by_ref.estimate_full(&p, wr).interval, Some((1.0, 9.0)));
    }
}

//! How the sample was drawn — the missing input the paper's estimators
//! implicitly condition on.
//!
//! Every estimator consumes the frequency spectrum `(n, r, f₁, f₂, …)`,
//! but the *distribution* of that spectrum depends on the sampling
//! design: `r` Bernoulli draws with replacement put a class of size `c`
//! in the sample with probability `1 − (1 − c/n)^r`, while a
//! without-replacement sample of `r` rows does so with probability
//! `1 − C(n−c, r)/C(n, r)` — hypergeometric, strictly tighter. The
//! original paper derives everything in the with-replacement model even
//! though real ANALYZE samples are drawn without replacement; at large
//! sampling fractions that mismatch is a measurable bias (the AE
//! estimator ran ~11% hot at 20% sampling before this type existed).
//!
//! [`SampleDesign`] makes the design explicit so design-aware estimators
//! (currently AE) can solve the matching fixed-point form, and so the
//! default remains the paper-faithful with-replacement model everywhere
//! a caller does not say otherwise.

/// The sampling design a frequency spectrum was produced under.
///
/// `WithReplacement` is the paper's model and the default: estimators
/// reproduce the published formulas bit-for-bit. `WithoutReplacement`
/// carries the table size `n` the sample was drawn from (which may
/// differ from a profile's nominal table size, e.g. the null-adjusted
/// `n_eff` ANALYZE uses), enabling the hypergeometric correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleDesign {
    /// The paper's model: `r` independent uniform draws.
    #[default]
    WithReplacement,
    /// A uniform sample of `r` distinct rows out of `n`.
    WithoutReplacement {
        /// Table size the sample was drawn from.
        n: u64,
    },
}

impl SampleDesign {
    /// Shorthand for [`SampleDesign::WithoutReplacement`].
    pub fn wor(n: u64) -> Self {
        SampleDesign::WithoutReplacement { n }
    }

    /// Short stable label (`"wr"` / `"wor"`), for flags and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            SampleDesign::WithReplacement => "wr",
            SampleDesign::WithoutReplacement { .. } => "wor",
        }
    }

    /// Combine the designs of two value-disjoint shards into the design
    /// of their merged spectrum.
    ///
    /// Stratified WOR composes: a WOR sample of `r_a` rows from a
    /// segment of `n_a` plus a WOR sample of `r_b` rows from a disjoint
    /// segment of `n_b` is a stratified WOR sample of the `n_a + n_b`
    /// union, and the hypergeometric correction applies per stratum with
    /// the summed population. Any with-replacement shard poisons the
    /// merge back to the paper's design-blind model — there is no honest
    /// mixed form, so the merge falls back to `WithReplacement` rather
    /// than inventing one. Returns `None` when the WOR populations sum
    /// past `u64::MAX`.
    pub fn merge(self, other: SampleDesign) -> Option<SampleDesign> {
        match (self, other) {
            (
                SampleDesign::WithoutReplacement { n: a },
                SampleDesign::WithoutReplacement { n: b },
            ) => a.checked_add(b).map(SampleDesign::wor),
            _ => Some(SampleDesign::WithReplacement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_model() {
        assert_eq!(SampleDesign::default(), SampleDesign::WithReplacement);
    }

    #[test]
    fn wor_merge_sums_populations() {
        assert_eq!(
            SampleDesign::wor(300).merge(SampleDesign::wor(200)),
            Some(SampleDesign::wor(500))
        );
        assert_eq!(
            SampleDesign::wor(u64::MAX).merge(SampleDesign::wor(1)),
            None
        );
    }

    #[test]
    fn any_wr_shard_poisons_the_merge() {
        assert_eq!(
            SampleDesign::wor(300).merge(SampleDesign::WithReplacement),
            Some(SampleDesign::WithReplacement)
        );
        assert_eq!(
            SampleDesign::WithReplacement.merge(SampleDesign::wor(300)),
            Some(SampleDesign::WithReplacement)
        );
    }

    #[test]
    fn labels_and_shorthand() {
        assert_eq!(SampleDesign::WithReplacement.label(), "wr");
        assert_eq!(SampleDesign::wor(500).label(), "wor");
        assert_eq!(
            SampleDesign::wor(500),
            SampleDesign::WithoutReplacement { n: 500 }
        );
    }
}

//! From raw samples to [`Spectrum`]s.
//!
//! Estimators never touch sampled values; they consume the frequency
//! spectrum. This module turns any sampler's output into a profile and
//! offers the one-call [`sample_profile`] used throughout the experiment
//! harness.

use dve_core::design::SampleDesign;
use dve_core::spectrum::SpectrumBuilder;
use dve_core::{Spectrum, SpectrumError};
use dve_numeric::rng::Rng;

use crate::{bernoulli, block, reservoir, sequential, with_replacement, without_replacement};

/// Which sampling algorithm to use for [`sample_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingScheme {
    /// Simple random sampling without replacement (partial Fisher–Yates).
    /// This is the scheme the paper's experiments use (SQL Server's
    /// fixed-size row sampling).
    WithoutReplacement,
    /// i.i.d. draws with replacement — the regime of the GEE analysis.
    WithReplacement,
    /// Single-pass reservoir (Algorithm L); statistically identical to
    /// `WithoutReplacement`, exercised to validate the streaming path.
    Reservoir,
    /// Ordered one-pass selection with known `n` (Vitter Method A).
    Sequential,
    /// Bernoulli sampling at rate `r/n`; the sample size is random with
    /// expectation `r`.
    Bernoulli,
    /// Page-level sampling with the given block size; `r` is rounded up
    /// to whole blocks. Biased for clustered layouts — included for the
    /// layout-sensitivity demonstrations, not for estimation quality.
    Block {
        /// Rows per sampled block.
        block_size: u64,
    },
}

impl SamplingScheme {
    /// Short metric/CLI label for the scheme.
    pub fn label(&self) -> &'static str {
        match self {
            SamplingScheme::WithoutReplacement => "wor",
            SamplingScheme::WithReplacement => "wr",
            SamplingScheme::Reservoir => "reservoir",
            SamplingScheme::Sequential => "sequential",
            SamplingScheme::Bernoulli => "bernoulli",
            SamplingScheme::Block { .. } => "block",
        }
    }

    /// The [`SampleDesign`] the scheme realizes on a table of `n` rows —
    /// what estimators should assume about inclusion probabilities.
    ///
    /// [`SamplingScheme::WithReplacement`] is the paper's i.i.d. model;
    /// every other scheme draws each row at most once, so Reservoir,
    /// Sequential, Bernoulli and Block sampling all declare
    /// [`SampleDesign::WithoutReplacement`] alongside the eponymous
    /// scheme.
    pub fn design(&self, n: u64) -> SampleDesign {
        match self {
            SamplingScheme::WithReplacement => SampleDesign::WithReplacement,
            _ => SampleDesign::wor(n),
        }
    }

    /// Rows the scheme must read to draw (about) `r` of `n`: index-based
    /// schemes touch only the drawn rows, single-pass schemes scan the
    /// column, block sampling reads whole blocks.
    fn rows_scanned(&self, n: u64, r: u64) -> u64 {
        match self {
            SamplingScheme::WithoutReplacement | SamplingScheme::WithReplacement => r,
            SamplingScheme::Reservoir | SamplingScheme::Sequential | SamplingScheme::Bernoulli => n,
            SamplingScheme::Block { block_size } => {
                r.div_ceil(*block_size).saturating_mul(*block_size).min(n)
            }
        }
    }
}

/// Builds the frequency profile of a sample of (about) `r` rows from a
/// `u64`-valued column, using the requested scheme.
///
/// For the fixed-size schemes the sample has exactly `r` rows; for
/// [`SamplingScheme::Bernoulli`] the size is `Binomial(n, r/n)`, and for
/// [`SamplingScheme::Block`] it is `r` rounded up to a whole number of
/// blocks.
///
/// Telemetry: counts `sample.rows_scanned`, labeled with the scheme, and
/// times the draw as the `sample.build` span.
///
/// # Panics
///
/// Panics if `r == 0` or `r > data.len()` (fixed-size schemes), matching
/// the underlying samplers.
pub fn sample_profile(
    data: &[u64],
    r: u64,
    scheme: SamplingScheme,
    rng: &mut Rng,
) -> Result<Spectrum, SpectrumError> {
    let n = data.len() as u64;
    let build_span = dve_obs::trace::span("sample.build").detail(|| scheme.label().to_string());
    let values: Vec<u64> = match scheme {
        SamplingScheme::WithoutReplacement => without_replacement::sample_values(data, r, rng),
        SamplingScheme::WithReplacement => with_replacement::sample_values(data, r, rng),
        SamplingScheme::Reservoir => reservoir::algorithm_l(data.iter().copied(), r as usize, rng),
        SamplingScheme::Sequential => sequential::select_values(data, r, rng),
        SamplingScheme::Bernoulli => bernoulli::sample_values(data, r as f64 / n as f64, rng),
        SamplingScheme::Block { block_size } => {
            let blocks = r.div_ceil(block_size);
            block::sample_values(data, block_size, blocks, rng)
        }
    };
    drop(build_span);
    dve_obs::global()
        .counter_labeled("sample.rows_scanned", scheme.label())
        .add(scheme.rows_scanned(n, r));
    profile_of_values(n, &values)
}

/// Counts value multiplicities and assembles the profile.
pub fn profile_of_values(n: u64, values: &[u64]) -> Result<Spectrum, SpectrumError> {
    // Start modest and let the table grow geometrically — most samples
    // have far fewer distinct values than rows, so sizing for the worst
    // case would waste the cache the open-addressing layout buys.
    let mut builder = SpectrumBuilder::with_capacity(values.len().min(4_096));
    for &v in values {
        builder.observe(v);
    }
    builder.finish_with_table_rows(n)
}

/// Rows counted serially before the parallel fan-out — the first-chunk
/// **cardinality probe**. Its distinct count sizes every parallel
/// chunk's table so steady-state counting never reallocates.
const PROBE_ROWS: usize = 65_536;

/// Floor on parallel chunk length — chunks smaller than this cost more
/// in pool dispatch than they save in counting.
const MIN_CHUNK_ROWS: usize = 8_192;

/// [`profile_of_values`] with split-count-merge parallelism: a serial
/// prefix of `PROBE_ROWS` values is counted first and its distinct
/// count `d₀` used to pre-size the per-chunk tables; the remaining
/// values are cut into contiguous chunks of at least `MIN_CHUNK_ROWS`
/// on the [`dve_par`] worker pool, each counted into its own
/// open-addressing [`SpectrumBuilder`] table, and the per-chunk
/// builders folded into the probe's with
/// [`SpectrumBuilder::absorb`] (a move, not a copy, for the heaviest
/// table).
///
/// Value-level count merging commutes and every boundary depends only
/// on `(values.len(), jobs)`, so the result equals
/// [`profile_of_values`] exactly — for any `jobs` and any chunking.
/// `jobs = 0` resolves via [`dve_par::default_jobs`] (`DVE_JOBS`, then
/// available parallelism); `jobs = 1` and short inputs degenerate to
/// the serial single-table path.
pub fn profile_of_values_chunked(
    n: u64,
    values: &[u64],
    jobs: usize,
) -> Result<Spectrum, SpectrumError> {
    let jobs = if jobs == 0 {
        dve_par::default_jobs()
    } else {
        jobs
    };
    if jobs <= 1 || values.len() <= PROBE_ROWS + MIN_CHUNK_ROWS {
        return profile_of_values(n, values);
    }
    let (probe, rest) = values.split_at(PROBE_ROWS);
    let mut acc = SpectrumBuilder::with_capacity(4_096);
    for &v in probe {
        acc.observe(v);
    }
    // The probe's cardinality bounds what sibling chunks will likely
    // see: if it saturated well below its row count the data is
    // low-cardinality and 2×d₀ headroom suffices; otherwise assume
    // near-distinct and size by chunk length. Either way the table
    // still grows transparently if the guess is low.
    let d0 = acc.distinct_observed();
    let low_card = d0 < PROBE_ROWS / 2;
    let chunk_builders = dve_par::map_chunks_min(jobs, rest, MIN_CHUNK_ROWS, |chunk| {
        let hint = if low_card {
            chunk.len().min(d0 * 2 + 16)
        } else {
            chunk.len()
        };
        let mut b = SpectrumBuilder::with_capacity(hint);
        for &v in chunk {
            b.observe(v);
        }
        b
    });
    for b in chunk_builders {
        acc.absorb(b);
    }
    acc.finish_with_table_rows(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_numeric::rng::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    /// A column with 100 distinct values, 100 copies each, shuffled.
    fn column() -> Vec<u64> {
        let mut data: Vec<u64> = (0..10_000u64).map(|i| i % 100).collect();
        // Deterministic shuffle via Fisher-Yates with a fixed rng.
        let mut r = rng(99);
        for i in (1..data.len()).rev() {
            let j = r.below(i as u64 + 1) as usize;
            data.swap(i, j);
        }
        data
    }

    #[test]
    fn fixed_size_schemes_produce_exact_r() {
        let data = column();
        let mut r = rng(1);
        for scheme in [
            SamplingScheme::WithoutReplacement,
            SamplingScheme::WithReplacement,
            SamplingScheme::Reservoir,
            SamplingScheme::Sequential,
        ] {
            let p = sample_profile(&data, 500, scheme, &mut r).unwrap();
            assert_eq!(p.sample_size(), 500, "{scheme:?}");
            assert_eq!(p.table_size(), 10_000);
        }
    }

    #[test]
    fn bernoulli_size_is_near_r() {
        let data = column();
        let mut r = rng(2);
        let p = sample_profile(&data, 500, SamplingScheme::Bernoulli, &mut r).unwrap();
        // Binomial(10_000, 0.05): sd ≈ 22, accept ±7σ.
        assert!(
            (p.sample_size() as i64 - 500).abs() < 160,
            "size {}",
            p.sample_size()
        );
    }

    #[test]
    fn block_rounds_up_to_whole_blocks() {
        let data = column();
        let mut r = rng(3);
        let p =
            sample_profile(&data, 500, SamplingScheme::Block { block_size: 64 }, &mut r).unwrap();
        assert_eq!(p.sample_size(), 8 * 64);
    }

    #[test]
    fn profile_counts_match_sample() {
        // Deterministic check on a full "sample".
        let p = profile_of_values(10, &[1, 1, 2, 3, 3, 3]).unwrap();
        assert_eq!(p.f(1), 1); // value 2
        assert_eq!(p.f(2), 1); // value 1
        assert_eq!(p.f(3), 1); // value 3
        assert_eq!(p.distinct_in_sample(), 3);
    }

    #[test]
    fn profile_of_values_agrees_with_the_builder() {
        // Value 0, classes seen once, 63 and 64 times, and one seen
        // 5 000 times: both sides of the finish's dense range.
        let mut values: Vec<u64> = (0..3_000u64).collect();
        for (value, copies) in [(0u64, 70), (1, 62), (2, 63), (3, 4_999)] {
            values.extend(std::iter::repeat_n(value, copies));
        }
        values.extend((10..20u64).flat_map(|v| std::iter::repeat_n(v, 63)));
        let mut r = rng(6);
        for i in (1..values.len()).rev() {
            values.swap(i, r.below(i as u64 + 1) as usize);
        }
        let mut builder = SpectrumBuilder::new();
        for &v in &values {
            builder.observe(v);
        }
        let profile = profile_of_values(1 << 20, &values).unwrap();
        assert_eq!(profile, builder.finish_with_table_rows(1 << 20).unwrap());
        let spectrum: Vec<_> = profile.spectrum().collect();
        assert_eq!(spectrum[..2], [(1, 2_986), (63, 1)]);
        assert_eq!(spectrum[2..], [(64, 11), (71, 1), (5_000, 1)]);
    }

    #[test]
    fn chunked_profile_equals_single_pass() {
        let data = column();
        let single = profile_of_values(10_000, &data).unwrap();
        for jobs in [0, 1, 2, 3, 8] {
            assert_eq!(
                profile_of_values_chunked(10_000, &data, jobs).unwrap(),
                single,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn chunked_probe_path_equals_single_pass() {
        // Big enough to cross PROBE_ROWS + MIN_CHUNK_ROWS and exercise
        // the probe → pre-sized parallel chunks → absorb fold, on both
        // the low-cardinality and near-distinct probe branches.
        let low_card: Vec<u64> = (0..100_000u64).map(|i| (i * 2_654_435_761) % 257).collect();
        let unique: Vec<u64> = (0..100_000u64).collect();
        for data in [&low_card, &unique] {
            let single = profile_of_values(200_000, data).unwrap();
            for jobs in [2, 4, 7] {
                assert_eq!(
                    profile_of_values_chunked(200_000, data, jobs).unwrap(),
                    single,
                    "jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn large_sample_sees_every_class() {
        // 50% sample of 100 classes × 100 copies: essentially certain to
        // see all 100 classes.
        let data = column();
        let mut r = rng(4);
        let p = sample_profile(&data, 5_000, SamplingScheme::WithoutReplacement, &mut r).unwrap();
        assert_eq!(p.distinct_in_sample(), 100);
    }

    #[test]
    fn sampling_records_metrics() {
        let data = column();
        let mut r = rng(7);
        let obs = dve_obs::global();
        let before = obs.counter_labeled("sample.rows_scanned", "wor").get();
        sample_profile(&data, 100, SamplingScheme::WithoutReplacement, &mut r).unwrap();
        let after = obs.counter_labeled("sample.rows_scanned", "wor").get();
        assert_eq!(after - before, 100);
        assert!(
            obs.histogram_labeled(dve_obs::trace::SPAN_DURATION, "sample.build")
                .count()
                >= 1
        );
    }

    #[test]
    fn schemes_declare_their_design() {
        assert_eq!(
            SamplingScheme::WithReplacement.design(500),
            SampleDesign::WithReplacement
        );
        for scheme in [
            SamplingScheme::WithoutReplacement,
            SamplingScheme::Reservoir,
            SamplingScheme::Sequential,
            SamplingScheme::Bernoulli,
            SamplingScheme::Block { block_size: 32 },
        ] {
            assert_eq!(scheme.design(500), SampleDesign::wor(500), "{scheme:?}");
        }
    }

    #[test]
    fn scheme_labels_are_distinct() {
        let schemes = [
            SamplingScheme::WithoutReplacement,
            SamplingScheme::WithReplacement,
            SamplingScheme::Reservoir,
            SamplingScheme::Sequential,
            SamplingScheme::Bernoulli,
            SamplingScheme::Block { block_size: 32 },
        ];
        let labels: std::collections::HashSet<&str> = schemes.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), schemes.len());
    }

    #[test]
    fn schemes_agree_on_distinct_count_statistics() {
        // Mean distinct-in-sample across trials should agree between
        // without-replacement and reservoir (identical distributions).
        let data = column();
        let mut r = rng(5);
        let trials = 60;
        let mut mean_wor = 0.0;
        let mut mean_res = 0.0;
        for _ in 0..trials {
            mean_wor += sample_profile(&data, 200, SamplingScheme::WithoutReplacement, &mut r)
                .unwrap()
                .distinct_in_sample() as f64
                / trials as f64;
            mean_res += sample_profile(&data, 200, SamplingScheme::Reservoir, &mut r)
                .unwrap()
                .distinct_in_sample() as f64
                / trials as f64;
        }
        assert!(
            (mean_wor - mean_res).abs() < 3.0,
            "wor {mean_wor} vs reservoir {mean_res}"
        );
    }
}

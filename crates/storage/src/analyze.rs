//! `ANALYZE` — fill optimizer statistics from a random sample.
//!
//! Mirrors what the paper's modified SQL Server did (§6): draw one
//! uniform without-replacement row sample per table, and for every column
//! compute `d`, the `f_i` spectrum, and the sample skew; then run a
//! distinct-value estimator and record the estimate with GEE's
//! `[LOWER, UPPER]` interval.
//!
//! NULL handling: estimators are defined over non-NULL values. The
//! sampled NULL fraction is scaled up to estimate the column's NULL rows;
//! the frequency profile is built over the non-NULL part of the sample
//! against the correspondingly reduced table size.

use crate::stats::ColumnStatistics;
use crate::table::Table;
use dve_core::bounds::{gee_confidence_interval, ConfidenceInterval};
use dve_core::design::SampleDesign;
use dve_core::estimator::DistinctEstimator;
use dve_core::registry;
use dve_core::spectrum::{Spectrum, SpectrumBuilder};
use dve_numeric::rng::Rng;

/// Options for [`analyze_table`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOptions {
    /// Fraction of rows to sample, in `(0, 1]`.
    pub sampling_fraction: f64,
    /// Estimator name (resolved via [`dve_core::registry`]). The paper's
    /// recommendation for a general-purpose default is AE.
    pub estimator: String,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            sampling_fraction: 0.01,
            estimator: "AE".to_string(),
        }
    }
}

/// Errors from [`analyze_table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The table has no rows.
    EmptyTable,
    /// The sampling fraction is outside `(0, 1]`.
    BadSamplingFraction,
    /// Unknown estimator name (the typed registry error, with valid
    /// names and the did-you-mean hint).
    UnknownEstimator(
        /// The registry's lookup error.
        dve_core::registry::UnknownEstimator,
    ),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::EmptyTable => write!(f, "cannot analyze an empty table"),
            AnalyzeError::BadSamplingFraction => {
                write!(f, "sampling fraction must be in (0, 1]")
            }
            AnalyzeError::UnknownEstimator(err) => write!(f, "{err}"),
        }
    }
}

impl From<dve_core::registry::UnknownEstimator> for AnalyzeError {
    fn from(err: dve_core::registry::UnknownEstimator) -> Self {
        AnalyzeError::UnknownEstimator(err)
    }
}

impl std::error::Error for AnalyzeError {}

/// Smallest sampled-row count worth dispatching as its own counting
/// task. Below this the pool's wakeup/collect overhead dwarfs the
/// per-row work (a few ns each), so finer chunking only slows ANALYZE
/// down. Chunk boundaries still depend only on `(r, jobs)` — never on
/// scheduling — so determinism is unaffected.
const MIN_ROWS_PER_TASK: usize = 4_096;

/// Analyzes every column of `table` from one shared row sample, with
/// per-column profiling fanned out over [`dve_par::default_jobs`]
/// workers. See [`analyze_table_jobs`] for the explicit-jobs form and
/// the determinism guarantee.
pub fn analyze_table(
    table: &Table,
    options: &AnalyzeOptions,
    rng: &mut Rng,
) -> Result<Vec<ColumnStatistics>, AnalyzeError> {
    analyze_table_jobs(table, options, 0, rng)
}

/// [`analyze_table`] with an explicit worker count (`0` = resolve via
/// [`dve_par::default_jobs`]: the process `--jobs` override, `DVE_JOBS`,
/// then available parallelism).
///
/// The row sample is drawn serially from `rng` — the sample is identical
/// to the serial implementation's for a given RNG state. Column
/// profiling then fans `(column × row-chunk)` counting tasks across the
/// worker pool; each task counts into its own pre-sized
/// [`SpectrumBuilder`] via the encoding-aware fast path
/// ([`crate::column::Column::count_sampled_rows`]: dense dictionary-code
/// counting for `Str`, RLE-run/dict grouping for `Int64`) and the
/// per-chunk builders are folded with [`SpectrumBuilder::absorb`].
/// Builder merging commutes and the fast paths produce the same
/// observation multiset as the per-row loop, so the returned statistics
/// are **bit-identical for every `jobs` value**.
///
/// The sample is drawn without replacement, so each column's estimate is
/// computed under [`SampleDesign::WithoutReplacement`] — design-aware
/// estimators (AE) use the hypergeometric fixed point here.
pub fn analyze_table_jobs(
    table: &Table,
    options: &AnalyzeOptions,
    jobs: usize,
    rng: &mut Rng,
) -> Result<Vec<ColumnStatistics>, AnalyzeError> {
    let analyzed = analyze_counted(table, options, jobs, rng)?;
    Ok(analyzed.columns.into_iter().map(|c| c.statistics).collect())
}

/// One analyzed column: the plain statistics plus what the catalog
/// build reads its extras from.
pub(crate) struct AnalyzedColumn {
    /// The classic ANALYZE output.
    pub(crate) statistics: ColumnStatistics,
    /// The column's counts over the whole sample.
    pub(crate) builder: SpectrumBuilder,
    /// The NULL-scaled sample behind `statistics`.
    pub(crate) sample: ColumnSample,
}

/// A full ANALYZE's product, before it is reduced to
/// [`ColumnStatistics`].
pub(crate) struct Analyzed {
    /// The shared row sample.
    pub(crate) rows: Vec<u64>,
    /// The estimator's canonical name.
    pub(crate) estimator: &'static str,
    /// Per-column results, in schema order.
    pub(crate) columns: Vec<AnalyzedColumn>,
}

/// The ANALYZE core behind [`analyze_table_jobs`] and the catalog
/// build: validates the options, draws the one shared WOR row sample,
/// counts it per column with [`count_columns`] and estimates each
/// column under `wor(n_eff)`.
pub(crate) fn analyze_counted(
    table: &Table,
    options: &AnalyzeOptions,
    jobs: usize,
    rng: &mut Rng,
) -> Result<Analyzed, AnalyzeError> {
    let n = table.row_count() as u64;
    if n == 0 {
        return Err(AnalyzeError::EmptyTable);
    }
    if !(options.sampling_fraction > 0.0 && options.sampling_fraction <= 1.0) {
        return Err(AnalyzeError::BadSamplingFraction);
    }
    let estimator = registry::by_name_instrumented(&options.estimator)?;
    let r = ((n as f64 * options.sampling_fraction).round() as u64).clamp(1, n);

    let _span = dve_obs::trace::span("storage.analyze");
    let obs = dve_obs::global();
    obs.counter("storage.analyze.rows_sampled").add(r);
    obs.counter("storage.analyze.columns")
        .add(table.schema().len() as u64);

    // One shared row sample for the whole table, as real ANALYZE does.
    let rows = dve_sample::without_replacement::sample_indices(n, r, rng);
    let columns = table
        .schema()
        .fields()
        .iter()
        .zip(count_columns(table, &rows, jobs))
        .map(|(field, (builder, nulls))| {
            let sample = finish_column(&builder, nulls, n, r);
            let design = SampleDesign::wor(sample.n_eff);
            let (distinct_estimate, interval) =
                estimate_column(estimator.as_ref(), sample.spectrum.as_ref(), design, n);
            let statistics = ColumnStatistics {
                column: field.name.clone(),
                row_count: n,
                null_count_estimate: sample.null_count_estimate,
                sample_rows: r,
                sample_distinct: sample
                    .spectrum
                    .as_ref()
                    .map_or(0, Spectrum::distinct_in_sample),
                distinct_estimate,
                interval,
                estimator: estimator.name().to_string(),
            };
            AnalyzedColumn {
                statistics,
                builder,
                sample,
            }
        })
        .collect();
    Ok(Analyzed {
        rows,
        estimator: estimator.name(),
        columns,
    })
}

/// Counts the sampled `rows` of every column of `table` — the one
/// counting fan-out behind full ANALYZE, the catalog build and the
/// incremental refresh. Returns each column's builder and its sampled
/// NULL count, in schema order.
///
/// `(column × row-chunk)` tasks run on `jobs` workers (`0` = the
/// default chain). Chunking rows as well as columns keeps every worker
/// busy even on narrow tables; boundaries depend only on
/// `(rows.len(), jobs)`, never on scheduling, and the per-chunk
/// builders fold with [`SpectrumBuilder::absorb`], which commutes — so
/// the counts are identical for every `jobs` value. The
/// [`MIN_ROWS_PER_TASK`] floor stops small samples from being shredded
/// into chunks whose dispatch overhead exceeds the counting work.
pub(crate) fn count_columns(
    table: &Table,
    rows: &[u64],
    jobs: usize,
) -> Vec<(SpectrumBuilder, u64)> {
    let jobs = dve_par::resolve_jobs((jobs > 0).then_some(jobs));
    let ncols = table.schema().len();
    let chunk_count = jobs.div_ceil(ncols).max(1);
    let per_chunk = rows
        .len()
        .div_ceil(chunk_count)
        .max(MIN_ROWS_PER_TASK)
        .max(1);
    let row_chunks: Vec<&[u64]> = rows.chunks(per_chunk).collect();
    let counted: Vec<(SpectrumBuilder, u64)> =
        dve_par::run_indexed(jobs, ncols * row_chunks.len(), |task| {
            let col_idx = task / row_chunks.len();
            let _span = dve_obs::trace::span("analyze.column_chunk")
                .detail(|| format!("col={col_idx} chunk={}", task % row_chunks.len()));
            let column = table.column(col_idx);
            let chunk = row_chunks[task % row_chunks.len()];
            // Pre-size the counting table from the encoding's distinct
            // bound so the observe loop never reallocates; the chunk
            // can't see more distinct values than it has rows.
            let mut builder = match column.distinct_hint() {
                Some(d) => SpectrumBuilder::with_capacity(d.min(chunk.len())),
                None => SpectrumBuilder::new(),
            };
            let nulls = column.count_sampled_rows(chunk, &mut builder);
            (builder, nulls)
        });

    let mut counted = counted.into_iter();
    (0..ncols)
        .map(|_| {
            let mut acc = SpectrumBuilder::new();
            let mut nulls = 0u64;
            for _ in 0..row_chunks.len() {
                let (b, chunk_nulls) = counted.next().expect("one result per counting task");
                // Moves the first chunk's table instead of re-counting
                // it — a 1-job ANALYZE pays nothing for the merge phase.
                acc.absorb(b);
                nulls += chunk_nulls;
            }
            (acc, nulls)
        })
        .collect()
}

/// One column's counted sample, NULL-scaled.
pub(crate) struct ColumnSample {
    /// NULL rows in the population, scaled up from the sample.
    pub(crate) null_count_estimate: u64,
    /// Size of the non-NULL sub-population the spectrum is finished
    /// against, never below the non-NULL sample itself.
    pub(crate) n_eff: u64,
    /// The non-NULL sample's spectrum; `None` when every sampled row
    /// was NULL.
    pub(crate) spectrum: Option<Spectrum>,
}

/// Turns a column's counts over `r` sampled rows of an `n`-row
/// population, `nulls` of them NULL, into its [`ColumnSample`]:
/// estimators are defined over non-NULL values, so the spectrum covers
/// the non-NULL part of the sample against the correspondingly reduced
/// population.
pub(crate) fn finish_column(builder: &SpectrumBuilder, nulls: u64, n: u64, r: u64) -> ColumnSample {
    let null_count_estimate = ((nulls as f64 / r as f64) * n as f64).round() as u64;
    let non_null_r = r - nulls;
    let n_eff = n.saturating_sub(null_count_estimate).max(non_null_r);
    let spectrum = (non_null_r > 0).then(|| {
        builder
            .finish_with_table_rows(n_eff)
            .expect("non-empty non-null sample")
    });
    ColumnSample {
        null_count_estimate,
        n_eff,
        spectrum,
    }
}

/// The distinct estimate and GEE interval for a column's spectrum
/// under `design`. Without a spectrum (every sampled row NULL) there is
/// nothing to estimate: zero distinct, with the trivially valid
/// interval `[0, N]` over the design's population (`rows` under WR).
pub(crate) fn estimate_column(
    estimator: &dyn DistinctEstimator,
    spectrum: Option<&Spectrum>,
    design: SampleDesign,
    rows: u64,
) -> (f64, ConfidenceInterval) {
    match spectrum {
        Some(spectrum) => (
            estimator.estimate_for(spectrum, design),
            gee_confidence_interval(spectrum),
        ),
        None => {
            let upper = match design {
                SampleDesign::WithoutReplacement { n } => n as f64,
                SampleDesign::WithReplacement => rows as f64,
            };
            (
                0.0,
                ConfidenceInterval {
                    lower: 0.0,
                    estimate: 0.0,
                    upper,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::{Field, Schema, Table};
    use crate::value::DataType;
    use dve_numeric::rng::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    fn test_table() -> Table {
        // 10_000 rows: id near-unique, category 10 values, nullable score
        // half NULL.
        let n = 10_000usize;
        let ids: Vec<i64> = (0..n as i64).collect();
        let cats: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 10).collect();
        let scores: Vec<Option<i64>> = (0..n as i64)
            .map(|i| if i % 2 == 0 { Some(i % 100) } else { None })
            .collect();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("category", DataType::Int64),
            Field::nullable("score", DataType::Int64),
        ]);
        Table::new(
            schema,
            vec![
                Column::from_i64(&ids),
                Column::from_i64(&cats),
                Column::from_i64_opt(&scores),
            ],
        )
        .unwrap()
    }

    #[test]
    fn analyze_estimates_each_column() {
        let table = test_table();
        let opts = AnalyzeOptions {
            sampling_fraction: 0.1,
            estimator: "AE".into(),
        };
        let stats = analyze_table(&table, &opts, &mut rng(1)).unwrap();
        assert_eq!(stats.len(), 3);

        // Category: 10 distinct, every class abundant — near-exact.
        let cat = &stats[1];
        assert_eq!(cat.column, "category");
        assert!(
            (cat.distinct_estimate - 10.0).abs() < 1.0,
            "category estimate {}",
            cat.distinct_estimate
        );

        // id: all distinct; estimate must be clamped-sane and large.
        let id = &stats[0];
        assert!(id.distinct_estimate >= id.sample_distinct as f64);
        assert!(id.distinct_estimate <= 10_000.0);
        assert!(id.distinct_estimate > 5_000.0, "{}", id.distinct_estimate);

        // score: ~50% NULLs; non-null rows are even i, so i % 100 takes
        // the 50 even values.
        let score = &stats[2];
        assert!(
            (score.null_count_estimate as i64 - 5_000).abs() < 600,
            "null estimate {}",
            score.null_count_estimate
        );
        assert!(
            (score.distinct_estimate - 50.0).abs() < 15.0,
            "score estimate {}",
            score.distinct_estimate
        );
    }

    #[test]
    fn interval_brackets_truth_on_easy_columns() {
        let table = test_table();
        let opts = AnalyzeOptions {
            sampling_fraction: 0.05,
            estimator: "GEE".into(),
        };
        let stats = analyze_table(&table, &opts, &mut rng(2)).unwrap();
        let cat = &stats[1];
        assert!(cat.interval.contains(10.0), "interval {:?}", cat.interval);
    }

    #[test]
    fn error_paths() {
        let table = test_table();
        assert_eq!(
            analyze_table(
                &table,
                &AnalyzeOptions {
                    sampling_fraction: 0.0,
                    estimator: "GEE".into()
                },
                &mut rng(3)
            ),
            Err(AnalyzeError::BadSamplingFraction)
        );
        let err = analyze_table(
            &table,
            &AnalyzeOptions {
                sampling_fraction: 0.1,
                estimator: "NOPE".into(),
            },
            &mut rng(4),
        )
        .unwrap_err();
        match &err {
            AnalyzeError::UnknownEstimator(e) => assert_eq!(e.name(), "NOPE"),
            other => panic!("expected UnknownEstimator, got {other:?}"),
        }
        assert!(err.to_string().contains("unknown estimator: NOPE"));
    }

    #[test]
    fn all_null_column_reports_zero() {
        let schema = Schema::new(vec![Field::nullable("x", DataType::Int64)]);
        let table = Table::new(schema, vec![Column::from_i64_opt(&vec![None; 100])]).unwrap();
        let stats = analyze_table(
            &table,
            &AnalyzeOptions {
                sampling_fraction: 0.5,
                estimator: "GEE".into(),
            },
            &mut rng(5),
        )
        .unwrap();
        assert_eq!(stats[0].distinct_estimate, 0.0);
        assert_eq!(stats[0].sample_distinct, 0);
        assert_eq!(stats[0].null_count_estimate, 100);
    }

    #[test]
    fn full_scan_is_exact_for_every_registry_estimator() {
        let table = test_table();
        for name in dve_core::registry::ALL_ESTIMATORS {
            let stats = analyze_table(
                &table,
                &AnalyzeOptions {
                    sampling_fraction: 1.0,
                    estimator: (*name).to_string(),
                },
                &mut rng(6),
            )
            .unwrap();
            let cat = &stats[1];
            assert!(
                (cat.distinct_estimate - 10.0).abs() < 1e-9,
                "{name} not exact at q=1: {}",
                cat.distinct_estimate
            );
        }
    }

    #[test]
    fn parallel_analyze_is_bit_identical_to_serial() {
        // The jobs knob must never change a statistic: same rng seed,
        // jobs 1 vs 4 vs 9, identical output down to the last bit (the
        // shared row sample is drawn before the fan-out and count
        // merging commutes).
        let table = test_table();
        let opts = AnalyzeOptions {
            sampling_fraction: 0.1,
            estimator: "AE".into(),
        };
        let serial = analyze_table_jobs(&table, &opts, 1, &mut rng(31)).unwrap();
        for jobs in [2, 4, 9] {
            let par = analyze_table_jobs(&table, &opts, jobs, &mut rng(31)).unwrap();
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn default_options_are_sensible() {
        let o = AnalyzeOptions::default();
        assert_eq!(o.estimator, "AE");
        assert!(o.sampling_fraction > 0.0 && o.sampling_fraction <= 1.0);
    }
}

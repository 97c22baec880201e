//! The optimizer-grade statistics catalog — persisted `TableStats` /
//! `ColumnStats` with incremental ANALYZE refresh.
//!
//! Plain ANALYZE produces [`crate::stats::ColumnStatistics`]. The catalog
//! build runs the same sample-count-estimate core and keeps what a query
//! optimizer actually reads (the paper's motivating consumer, §1): per
//! column the distinct estimate with GEE's `[LOWER, UPPER]` interval,
//! the NULL fraction, a
//! most-common-values list (top-k of the sampled frequency spectrum),
//! an equi-depth histogram over sampled `Int64` values, the
//! [`SampleDesign`] the estimate was computed under, and an HLL shadow
//! of the sampled value hashes. Table-level, it records *when* the
//! stats were taken as **rows-at-analyze** — never wall clock — so
//! every artifact in the repository stays bit-reproducible.
//!
//! # Incremental refresh
//!
//! Tables grow by appending rows. Instead of resampling everything, a
//! refresh samples **only the appended segment** (WOR from that
//! segment, per-increment seed derived deterministically from the
//! catalog seed) and folds the segment spectrum into the stored one via
//! the one WOR-aware merge in the workspace,
//! [`Spectrum::merge_designed`] — exactly the cluster coordinator's
//! math, where each shard samples WOR from its own segment and the
//! merged design is `wor(Σ nᵢ)`. The merge is exact when segments are
//! value-disjoint and an approximation when they share values (shared
//! values are counted once per segment, like cluster shards). Two
//! guards bound the approximation:
//!
//! * a **staleness policy**: when `stale_rows / row_count` (rows
//!   appended since the last *full* resample, over current rows)
//!   exceeds a threshold, the refresh escalates to a full resample;
//! * an **overlap drift** check: the HLL shadow unions exactly across
//!   segments, so `(d_merged − d_HLL) / d_merged` measures how much the
//!   segment samples overlap in values; past a threshold the refresh
//!   escalates as well.
//!
//! # Consumers
//!
//! [`TableStats::selectivity`] / [`TableStats::estimated_rows_after_filter`]
//! answer the planner's questions ([`crate::query::Predicate`] in,
//! fraction out); `crate::planner::plan_group_by_from_catalog` and
//! `crate::planner::plan_scan` read the catalog directly. Persistence
//! lives in [`crate::persist`] (`save_table_stats` / `load_table_stats`:
//! versioned, checksummed, saved alongside the table).

use crate::analyze::{
    analyze_counted, count_columns, estimate_column, finish_column, AnalyzeError, AnalyzeOptions,
};
use crate::column::value_hash;
use crate::query::{Filter, Predicate};
use crate::stats::ColumnStatistics;
use crate::table::Table;
use crate::value::DataType;
use dve_core::bounds::ConfidenceInterval;
use dve_core::design::SampleDesign;
use dve_core::hash::mix64;
use dve_core::registry;
use dve_core::spectrum::Spectrum;
use dve_numeric::rng::Rng;
use dve_obs::minijson::{self, JsonValue, Writer};
use dve_obs::trace;
use dve_sketch::hll::HyperLogLog;
use dve_sketch::DistinctSketch;
use std::collections::HashMap;
use std::fmt::Write;

/// Version of the catalog JSON schema (the `"version"` field in the
/// persisted envelope). Bump on any breaking shape change.
pub const STATS_VERSION: u32 = 1;

/// Most-common values kept per column (top-k of the sampled counts).
pub const MCV_TARGET: usize = 8;

/// Equi-depth histogram bucket count.
pub const HISTOGRAM_BUCKETS: u64 = 8;

/// Precision of the per-column HLL shadow (`2^p` one-byte registers —
/// 256 bytes buys ~6.5% RSE, plenty for a drift detector).
pub const HLL_SHADOW_PRECISION: u32 = 8;

/// Selectivity assumed for a range predicate when no histogram exists
/// (the classic System R default).
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Errors from catalog construction and refresh.
#[derive(Debug)]
pub enum CatalogError {
    /// The underlying ANALYZE failed.
    Analyze(
        /// The ANALYZE error.
        AnalyzeError,
    ),
    /// The table's columns no longer match the stored statistics.
    SchemaMismatch(
        /// Human-readable description.
        String,
    ),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Analyze(e) => write!(f, "{e}"),
            CatalogError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<AnalyzeError> for CatalogError {
    fn from(e: AnalyzeError) -> Self {
        CatalogError::Analyze(e)
    }
}

/// One most-common value: the value's deterministic 64-bit hash (the
/// same [`crate::column::value_hash`] the planner hashes predicate
/// literals with) and its occurrence count in the cumulative sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mcv {
    /// Value hash (see [`crate::column::Column::hash_code`]).
    pub hash: u64,
    /// Occurrences in the sample.
    pub count: u64,
}

/// An equi-depth histogram over sampled `Int64` values: `bounds` holds
/// `HISTOGRAM_BUCKETS + 1` non-decreasing boundary values, each bucket
/// carrying `sampled / HISTOGRAM_BUCKETS` of the sampled mass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket boundaries (length `HISTOGRAM_BUCKETS + 1`).
    pub bounds: Vec<i64>,
    /// Sampled values the histogram summarizes.
    pub sampled: u64,
}

impl Histogram {
    /// Builds the histogram from **sorted** sampled values. `None` when
    /// empty.
    pub fn from_sorted(values: &[i64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let b = HISTOGRAM_BUCKETS;
        let last = (values.len() - 1) as u64;
        let bounds = (0..=b).map(|k| values[((k * last) / b) as usize]).collect();
        Some(Histogram {
            bounds,
            sampled: values.len() as u64,
        })
    }

    /// Folds newly sampled **sorted** values into the histogram.
    ///
    /// Exact equi-depth merging would need the original values; the
    /// standard approximation is used instead: each stored upper bound
    /// stands in for its bucket's `sampled / B` rows, the new values
    /// carry weight 1 each, and fresh equi-depth boundaries are read
    /// off the weighted merge. All arithmetic is integer (weights are
    /// pre-scaled by `B`), so the fold is deterministic.
    pub fn fold(&self, new_sorted: &[i64]) -> Histogram {
        if new_sorted.is_empty() {
            return self.clone();
        }
        let b = HISTOGRAM_BUCKETS;
        // Weighted points, scaled by B: every old upper bound carries
        // `sampled` (= sampled/B × B), every new value carries `b`.
        let mut points: Vec<(i64, u64)> = self.bounds[1..]
            .iter()
            .map(|&v| (v, self.sampled))
            .chain(new_sorted.iter().map(|&v| (v, b)))
            .collect();
        points.sort_unstable();
        let total_sampled = self.sampled + new_sorted.len() as u64;
        let min = (*self.bounds.first().expect("non-empty bounds")).min(new_sorted[0]);
        let mut bounds = Vec::with_capacity(b as usize + 1);
        bounds.push(min);
        // Total scaled mass is B × total_sampled, so the k-th target is
        // exactly k × total_sampled.
        let mut cum = 0u64;
        let mut iter = points.iter();
        let mut current = min;
        for k in 1..=b {
            let target = k * total_sampled;
            while cum < target {
                let (v, w) = iter.next().expect("mass accounts for every target");
                cum += w;
                current = *v;
            }
            bounds.push(current);
        }
        Histogram {
            bounds,
            sampled: total_sampled,
        }
    }

    /// Estimated fraction of (non-NULL) values inside `[lo, hi]`
    /// (either bound optional), assuming values are uniform within each
    /// bucket — the classic histogram selectivity estimate.
    pub fn range_fraction(&self, lo: Option<i64>, hi: Option<i64>) -> f64 {
        let b = self.bounds.len() - 1;
        let mut mass = 0.0f64;
        for k in 1..=b {
            let (lb, ub) = (self.bounds[k - 1], self.bounds[k]);
            let qlo = lo.unwrap_or(lb).max(lb);
            let qhi = hi.unwrap_or(ub).min(ub);
            if qlo > qhi {
                continue;
            }
            // Inclusive integer widths; a degenerate bucket (lb == ub)
            // is all-in or all-out.
            let width = (ub as i128 - lb as i128 + 1) as f64;
            let overlap = (qhi as i128 - qlo as i128 + 1) as f64;
            mass += (overlap / width).min(1.0) / b as f64;
        }
        mass.clamp(0.0, 1.0)
    }
}

/// Catalog statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// NULL rows estimated from the cumulative sample.
    pub null_count_estimate: u64,
    /// Rows sampled across the full analyze and every increment.
    pub sample_rows: u64,
    /// Distinct non-NULL values in the cumulative sample (segment
    /// spectra add, so a value sampled in two segments counts twice —
    /// the same convention as the cluster merge).
    pub sample_distinct: u64,
    /// The distinct-count estimate over the merged spectrum.
    pub distinct_estimate: f64,
    /// GEE's `[LOWER, UPPER]` interval for the merged spectrum.
    pub interval: ConfidenceInterval,
    /// The design the estimate was computed under (`wor(Σ nᵢ_eff)`).
    pub design: SampleDesign,
    /// The merged frequency spectrum (`None` when every sampled row was
    /// NULL).
    pub spectrum: Option<Spectrum>,
    /// Most-common values, descending by count (hash ascending on
    /// ties), at most [`MCV_TARGET`] entries.
    pub mcvs: Vec<Mcv>,
    /// Equi-depth histogram over sampled values (`Int64` columns only).
    pub histogram: Option<Histogram>,
    /// HLL shadow of every sampled value hash — unions exactly across
    /// increments, measuring segment overlap.
    pub hll: HyperLogLog,
}

impl ColumnStats {
    /// NULL fraction of the table (`0` for an empty table).
    pub fn null_fraction(&self, row_count: u64) -> f64 {
        if row_count == 0 {
            0.0
        } else {
            (self.null_count_estimate as f64 / row_count as f64).clamp(0.0, 1.0)
        }
    }

    /// Non-NULL rows in the cumulative sample (the spectrum's `r`).
    fn non_null_sample_rows(&self) -> u64 {
        self.spectrum.as_ref().map_or(0, |s| s.sample_size())
    }

    /// Estimated selectivity of `predicate` against this column, given
    /// the table row count the stats cover.
    pub fn selectivity(&self, predicate: &Predicate, row_count: u64) -> f64 {
        let nf = self.null_fraction(row_count);
        let non_null = 1.0 - nf;
        let sel = match predicate {
            Predicate::IsNull => nf,
            Predicate::IsNotNull => non_null,
            Predicate::Eq(v) => match value_hash(v) {
                // `col = NULL` never matches (SQL semantics).
                None => 0.0,
                Some(h) => {
                    let sampled = self.non_null_sample_rows();
                    if sampled == 0 {
                        return 0.0;
                    }
                    match self.mcvs.iter().find(|m| m.hash == h) {
                        Some(m) => (m.count as f64 / sampled as f64) * non_null,
                        None => {
                            // Mass not claimed by the MCVs, spread
                            // uniformly over the remaining estimated
                            // distinct values (the PostgreSQL rule).
                            let mcv_mass: u64 = self.mcvs.iter().map(|m| m.count).sum();
                            let rest_mass = 1.0 - (mcv_mass as f64 / sampled as f64).min(1.0);
                            let rest_distinct =
                                (self.distinct_estimate - self.mcvs.len() as f64).max(1.0);
                            (rest_mass / rest_distinct) * non_null
                        }
                    }
                }
            },
            Predicate::IntRange { lo, hi } => match &self.histogram {
                Some(h) => h.range_fraction(*lo, *hi) * non_null,
                None => DEFAULT_RANGE_SELECTIVITY * non_null,
            },
        };
        sel.clamp(0.0, 1.0)
    }
}

/// Catalog statistics for one table — the persisted artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Catalog name of the table.
    pub table: String,
    /// Rows the statistics cover (the table's row count at the last
    /// full analyze or incremental refresh). This is also the catalog's
    /// `last_analyzed` stamp — rows-at-analyze, never wall clock, so
    /// persisted stats are bit-reproducible.
    pub row_count: u64,
    /// Rows at the last **full** resample — the staleness anchor.
    pub rows_at_full_analyze: u64,
    /// Incremental refreshes folded in since the last full resample.
    pub increments: u64,
    /// Sampling fraction every segment is sampled at.
    pub sampling_fraction: f64,
    /// Estimator name (canonical registry spelling).
    pub estimator: String,
    /// Base RNG seed; increment `k` derives its seed as
    /// `mix64(seed XOR k)`.
    pub seed: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// When the stats were taken, expressed as rows-at-analyze.
    pub fn last_analyzed(&self) -> u64 {
        self.row_count
    }

    /// Rows appended since the last full resample, given the table's
    /// current row count.
    pub fn stale_rows(&self, current_rows: u64) -> u64 {
        current_rows.saturating_sub(self.rows_at_full_analyze)
    }

    /// Statistics for `name`, if the column exists.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Estimated selectivity of one filter.
    pub fn selectivity(&self, filter: &Filter) -> Result<f64, crate::planner::PlannerError> {
        let col = self
            .column(&filter.column)
            .ok_or_else(|| crate::planner::PlannerError::NoSuchColumn(filter.column.clone()))?;
        Ok(col.selectivity(&filter.predicate, self.row_count))
    }

    /// The classic ANALYZE output for these stats — what `dve analyze
    /// --save` and `POST /v1/analyze?save=true` print. Straight after
    /// [`build_table_stats`] it equals
    /// [`crate::analyze::analyze_table_jobs`] with the same seed.
    pub fn column_statistics(&self) -> Vec<ColumnStatistics> {
        self.columns
            .iter()
            .map(|c| ColumnStatistics {
                column: c.name.clone(),
                row_count: self.row_count,
                null_count_estimate: c.null_count_estimate,
                sample_rows: c.sample_rows,
                sample_distinct: c.sample_distinct,
                distinct_estimate: c.distinct_estimate,
                interval: c.interval,
                estimator: self.estimator.clone(),
            })
            .collect()
    }

    /// Estimated rows surviving a conjunction of filters, under the
    /// textbook independence assumption.
    pub fn estimated_rows_after_filter(
        &self,
        filters: &[Filter],
    ) -> Result<f64, crate::planner::PlannerError> {
        let mut sel = 1.0f64;
        for f in filters {
            sel *= self.selectivity(f)?;
        }
        Ok(self.row_count as f64 * sel)
    }
}

// ---------------------------------------------------------------------
// Building (full ANALYZE → catalog stats)
// ---------------------------------------------------------------------

/// Sorts `(hash, count)` pairs into the canonical MCV order and keeps
/// the top [`MCV_TARGET`].
fn top_k_mcvs(counts: impl Iterator<Item = (u64, u64)>) -> Vec<Mcv> {
    let mut all: Vec<Mcv> = counts.map(|(hash, count)| Mcv { hash, count }).collect();
    all.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
    all.truncate(MCV_TARGET);
    all
}

/// Collects the sorted non-NULL `Int64` values at the sampled rows
/// (`None` for non-`Int64` columns or an all-NULL sample).
fn sampled_int_values(col: &crate::column::Column, rows: &[u64]) -> Option<Vec<i64>> {
    if col.data_type() != DataType::Int64 {
        return None;
    }
    let mut values: Vec<i64> = rows
        .iter()
        .filter_map(|&row| match col.get(row as usize) {
            crate::value::Value::Int64(v) => Some(v),
            _ => None,
        })
        .collect();
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values)
}

/// Runs a full catalog ANALYZE through the same core as
/// [`crate::analyze::analyze_table_jobs`]: one shared WOR row sample
/// drawn from `Rng::seed_from_u64(seed)`, counted once per column, so
/// the estimates are bit-identical to a plain ANALYZE with that seed.
/// The catalog artifacts (MCVs, HLL shadow, histogram, spectrum) come
/// from the same counts and sample.
///
/// Deterministic: the same `(table, options, seed)` produce
/// byte-identical [`TableStats::to_json`] output wherever they run —
/// the byte-identity contract between `dve analyze --save` and
/// `POST /v1/analyze?save=true`.
pub fn build_table_stats(
    table: &Table,
    name: &str,
    options: &AnalyzeOptions,
    seed: u64,
) -> Result<TableStats, AnalyzeError> {
    let _span = trace::span("catalog.analyze").detail(|| format!("table={name}"));
    dve_obs::global().counter("catalog.full_analyzes").inc();

    let analyzed = analyze_counted(table, options, 0, &mut Rng::seed_from_u64(seed))?;
    let columns = analyzed
        .columns
        .into_iter()
        .enumerate()
        .map(|(idx, c)| {
            let mut hll = HyperLogLog::new(HLL_SHADOW_PRECISION);
            for (hash, _) in c.builder.counts() {
                hll.insert(hash);
            }
            let cs = c.statistics;
            ColumnStats {
                name: cs.column,
                null_count_estimate: cs.null_count_estimate,
                sample_rows: cs.sample_rows,
                sample_distinct: cs.sample_distinct,
                distinct_estimate: cs.distinct_estimate,
                interval: cs.interval,
                design: SampleDesign::wor(c.sample.n_eff),
                spectrum: c.sample.spectrum,
                mcvs: top_k_mcvs(c.builder.counts()),
                histogram: sampled_int_values(table.column(idx), &analyzed.rows)
                    .as_deref()
                    .and_then(Histogram::from_sorted),
                hll,
            }
        })
        .collect();

    let n = table.row_count() as u64;
    Ok(TableStats {
        table: name.to_string(),
        row_count: n,
        rows_at_full_analyze: n,
        increments: 0,
        sampling_fraction: options.sampling_fraction,
        estimator: analyzed.estimator.to_string(),
        seed,
        columns,
    })
}

// ---------------------------------------------------------------------
// Refresh (staleness policy + incremental WOR merge)
// ---------------------------------------------------------------------

/// Why a refresh escalated to a full resample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResampleReason {
    /// `stale_rows / row_count` exceeded the staleness threshold.
    StaleRatio,
    /// The table has fewer rows than the stats cover (rewritten or
    /// truncated) — incremental math has nothing to stand on.
    TableShrank,
    /// The HLL shadow showed the segment samples overlapping in values
    /// beyond the drift threshold.
    OverlapDrift,
    /// The caller forced it (`dve stats refresh --full`).
    Forced,
}

impl ResampleReason {
    /// Stable lowercase label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ResampleReason::StaleRatio => "stale_ratio",
            ResampleReason::TableShrank => "table_shrank",
            ResampleReason::OverlapDrift => "overlap_drift",
            ResampleReason::Forced => "forced",
        }
    }
}

/// What [`RefreshPolicy::decide`] chose to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDecision {
    /// The stats already cover every row.
    NoNewRows,
    /// Sample only the appended segment and fold it in.
    Incremental {
        /// Appended rows to sample.
        new_rows: u64,
    },
    /// Resample the whole table.
    FullResample(
        /// Why.
        ResampleReason,
    ),
}

/// When to refresh incrementally vs. resample in full. Pure arithmetic
/// over injected row counters — trivially unit-testable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshPolicy {
    /// Full resample when `stale_rows / current_rows` exceeds this
    /// (stale rows = rows appended since the last full resample).
    pub staleness_threshold: f64,
    /// Full resample when `(d_merged − d_HLL) / d_merged` exceeds this
    /// after an incremental merge — the segment samples share too many
    /// values for the value-disjoint merge model.
    pub overlap_drift_threshold: f64,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            staleness_threshold: 0.5,
            overlap_drift_threshold: 0.25,
        }
    }
}

impl RefreshPolicy {
    /// Decides what a refresh should do, from row counters alone:
    /// `rows_at_full_analyze` and `rows_covered` come from the stats,
    /// `current_rows` from whoever counts the table (injectable, so
    /// the policy is testable without building tables).
    pub fn decide(
        &self,
        rows_at_full_analyze: u64,
        rows_covered: u64,
        current_rows: u64,
    ) -> RefreshDecision {
        if current_rows < rows_covered {
            return RefreshDecision::FullResample(ResampleReason::TableShrank);
        }
        if current_rows == rows_covered {
            return RefreshDecision::NoNewRows;
        }
        let stale = current_rows.saturating_sub(rows_at_full_analyze);
        if current_rows > 0 && stale as f64 / current_rows as f64 > self.staleness_threshold {
            return RefreshDecision::FullResample(ResampleReason::StaleRatio);
        }
        RefreshDecision::Incremental {
            new_rows: current_rows - rows_covered,
        }
    }
}

/// What a refresh did, for callers that report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// Nothing to do; the returned stats are the input stats.
    NoNewRows,
    /// An incremental merge of the appended segment.
    Incremental {
        /// Appended rows covered by the increment.
        new_rows: u64,
        /// Rows sampled from the segment.
        sampled_rows: u64,
    },
    /// A full resample.
    FullResample(
        /// Why.
        ResampleReason,
    ),
}

/// Refreshes `stats` against the table's current contents: no-op,
/// incremental WOR merge of the appended segment, or full resample,
/// per `policy`. Traced as a `catalog.refresh` span; bumps
/// `catalog.refreshes` plus `catalog.refresh.incremental` /
/// `catalog.refresh.full`.
pub fn refresh_table_stats(
    table: &Table,
    stats: &TableStats,
    policy: &RefreshPolicy,
) -> Result<(TableStats, RefreshOutcome), CatalogError> {
    let _span = trace::span("catalog.refresh").detail(|| {
        format!(
            "table={} covered={} current={}",
            stats.table,
            stats.row_count,
            table.row_count()
        )
    });
    let obs = dve_obs::global();
    obs.counter("catalog.refreshes").inc();

    check_schema(table, stats)?;
    let current = table.row_count() as u64;
    match policy.decide(stats.rows_at_full_analyze, stats.row_count, current) {
        RefreshDecision::NoNewRows => Ok((stats.clone(), RefreshOutcome::NoNewRows)),
        RefreshDecision::FullResample(reason) => full_resample(table, stats, reason),
        RefreshDecision::Incremental { new_rows } => {
            let candidate = incremental_merge(table, stats, new_rows)?;
            match worst_overlap_drift(&candidate.0) {
                drift if drift > policy.overlap_drift_threshold => {
                    full_resample(table, stats, ResampleReason::OverlapDrift)
                }
                _ => {
                    obs.counter("catalog.refresh.incremental").inc();
                    Ok(candidate)
                }
            }
        }
    }
}

/// Full-resample path shared by the policy escalations and
/// `--full`-forced refreshes: re-runs [`build_table_stats`] with the
/// stored options and seed.
pub fn full_resample(
    table: &Table,
    stats: &TableStats,
    reason: ResampleReason,
) -> Result<(TableStats, RefreshOutcome), CatalogError> {
    dve_obs::global().counter("catalog.refresh.full").inc();
    let options = AnalyzeOptions {
        sampling_fraction: stats.sampling_fraction,
        estimator: stats.estimator.clone(),
    };
    let rebuilt = build_table_stats(table, &stats.table, &options, stats.seed)?;
    Ok((rebuilt, RefreshOutcome::FullResample(reason)))
}

/// Asserts the table still has the columns the stats describe.
fn check_schema(table: &Table, stats: &TableStats) -> Result<(), CatalogError> {
    let fields = table.schema().fields();
    if fields.len() != stats.columns.len() {
        return Err(CatalogError::SchemaMismatch(format!(
            "stats cover {} columns, table has {}",
            stats.columns.len(),
            fields.len()
        )));
    }
    for (field, cs) in fields.iter().zip(&stats.columns) {
        if field.name != cs.name {
            return Err(CatalogError::SchemaMismatch(format!(
                "stats column {:?} vs table column {:?}",
                cs.name, field.name
            )));
        }
    }
    Ok(())
}

/// The largest per-column `(d_merged − d_HLL) / d_merged` — how much
/// the segment samples overlap in values. ~0 for value-disjoint
/// segments (up to HLL noise), approaching 1 when every segment
/// samples the same values.
fn worst_overlap_drift(stats: &TableStats) -> f64 {
    stats
        .columns
        .iter()
        .filter(|c| c.sample_distinct > 0)
        .map(|c| {
            let d = c.sample_distinct as f64;
            ((d - c.hll.estimate()) / d).max(0.0)
        })
        .fold(0.0, f64::max)
}

/// Samples WOR from the appended segment `[n0, n0 + new_rows)` and
/// folds the segment spectrum into each column via
/// [`Spectrum::merge_designed`] — the increment is one more WOR shard.
fn incremental_merge(
    table: &Table,
    stats: &TableStats,
    new_rows: u64,
) -> Result<(TableStats, RefreshOutcome), CatalogError> {
    let estimator = registry::by_name_instrumented(&stats.estimator)
        .map_err(|e| CatalogError::Analyze(AnalyzeError::UnknownEstimator(e)))?;
    let n0 = stats.row_count;
    let m = new_rows;
    // Per-increment seed: deterministic, distinct per increment index,
    // independent of when the rows arrived.
    let seg_seed = mix64(stats.seed ^ (stats.increments + 1));
    let r_new = ((m as f64 * stats.sampling_fraction).round() as u64).clamp(1, m);
    let rows: Vec<u64> = dve_sample::without_replacement::sample_indices(
        m,
        r_new,
        &mut Rng::seed_from_u64(seg_seed),
    )
    .into_iter()
    .map(|row| row + n0)
    .collect();
    dve_obs::global()
        .counter("catalog.refresh.rows_sampled")
        .add(r_new);

    let counted = count_columns(table, &rows, 0);
    let mut columns = Vec::with_capacity(stats.columns.len());
    for ((idx, old), (builder, nulls)) in stats.columns.iter().enumerate().zip(counted) {
        let col = table.column(idx);
        let new = finish_column(&builder, nulls, m, r_new);
        let new_design = SampleDesign::wor(new.n_eff);
        // THE merge: old stats and the new segment are two WOR shards.
        let shards: Vec<_> = (old.spectrum.clone().map(|s| (s, old.design)).into_iter())
            .chain(new.spectrum.map(|s| (s, new_design)))
            .collect();
        let overflow = || {
            CatalogError::SchemaMismatch(format!(
                "column {:?}: stored statistics and the new segment hold more than 2^64 - 1 rows",
                old.name
            ))
        };
        let (spectrum, design) = if shards.is_empty() {
            // Still nothing but NULLs: the design still grows by the
            // segment's non-NULL population.
            (None, old.design.merge(new_design).ok_or_else(overflow)?)
        } else {
            let (spectrum, design) = Spectrum::merge_designed(shards).ok_or_else(overflow)?;
            (Some(spectrum), design)
        };
        let (distinct_estimate, interval) =
            estimate_column(estimator.as_ref(), spectrum.as_ref(), design, n0 + m);

        let mut hll = old.hll.clone();
        for (hash, _) in builder.counts() {
            hll.insert(hash);
        }
        let mut mcv_counts: HashMap<u64, u64> =
            old.mcvs.iter().map(|m| (m.hash, m.count)).collect();
        for (hash, count) in builder.counts() {
            *mcv_counts.entry(hash).or_insert(0) += count;
        }
        let histogram = match (&old.histogram, sampled_int_values(col, &rows)) {
            (Some(h), Some(values)) => Some(h.fold(&values)),
            (Some(h), None) => Some(h.clone()),
            (None, Some(values)) => Histogram::from_sorted(&values),
            (None, None) => None,
        };

        columns.push(ColumnStats {
            name: old.name.clone(),
            null_count_estimate: old.null_count_estimate + new.null_count_estimate,
            sample_rows: old.sample_rows + r_new,
            sample_distinct: spectrum.as_ref().map_or(0, Spectrum::distinct_in_sample),
            distinct_estimate,
            interval,
            design,
            spectrum,
            mcvs: top_k_mcvs(mcv_counts.into_iter()),
            histogram,
            hll,
        });
    }

    Ok((
        TableStats {
            table: stats.table.clone(),
            row_count: n0 + m,
            rows_at_full_analyze: stats.rows_at_full_analyze,
            increments: stats.increments + 1,
            sampling_fraction: stats.sampling_fraction,
            estimator: stats.estimator.clone(),
            seed: stats.seed,
            columns,
        },
        RefreshOutcome::Incremental {
            new_rows: m,
            sampled_rows: r_new,
        },
    ))
}

// ---------------------------------------------------------------------
// In-memory catalog (the serve daemon's registry)
// ---------------------------------------------------------------------

/// An in-memory statistics catalog keyed by table name — what
/// `dve serve` holds behind `POST /v1/analyze?save=true` and
/// `GET /v1/stats/{table}`. Lookups bump `catalog.hits` /
/// `catalog.misses`; saves bump `catalog.saves`.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    entries: HashMap<String, TableStats>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Saves (or replaces) the stats under their table name; `true`
    /// when an existing entry was replaced.
    pub fn save(&mut self, stats: TableStats) -> bool {
        dve_obs::global().counter("catalog.saves").inc();
        self.entries.insert(stats.table.clone(), stats).is_some()
    }

    /// Looks a table up, counting the hit or miss.
    pub fn get(&self, table: &str) -> Option<&TableStats> {
        let entry = self.entries.get(table);
        let obs = dve_obs::global();
        match entry {
            Some(_) => obs.counter("catalog.hits").inc(),
            None => obs.counter("catalog.misses").inc(),
        }
        entry
    }

    /// Removes a table's entry; `true` when one existed.
    pub fn drop_table(&mut self, table: &str) -> bool {
        self.entries.remove(table).is_some()
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------
// JSON (canonical writer + matching reader)
// ---------------------------------------------------------------------

fn hex_u64(v: &JsonValue, what: &str) -> Result<u64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what}: expected a hex string"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{what}: missing 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("{what}: {e}"))
}

fn get<'a>(obj: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing {key:?}"))
}

fn get_u64(obj: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    get(obj, key, what)?
        .as_u64()
        .ok_or_else(|| format!("{what}: {key:?} must be a non-negative integer"))
}

fn get_f64(obj: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    get(obj, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: {key:?} must be a number"))
}

fn get_str<'a>(obj: &'a JsonValue, key: &str, what: &str) -> Result<&'a str, String> {
    get(obj, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}: {key:?} must be a string"))
}

impl TableStats {
    /// The canonical JSON encoding — fixed key order, shortest
    /// round-trip floats, `0x…` strings for full-width hashes — shared
    /// byte-for-byte by `dve stats show`, `GET /v1/stats/{table}`, and
    /// the persisted file's `"stats"` member.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 512 * self.columns.len());
        let mut w = Writer::new(&mut out);
        w.begin_object()
            .field("table", &self.table)
            .field("row_count", self.row_count)
            .field("last_analyzed", self.last_analyzed())
            .field("rows_at_full_analyze", self.rows_at_full_analyze)
            .field("increments", self.increments)
            .field("sampling_fraction", self.sampling_fraction)
            .field("estimator", &self.estimator)
            // Numbers in the schema hold only values an `f64` carries
            // exactly; full-width hashes travel as `0x…` strings.
            .field("seed", &format!("{:#018x}", self.seed))
            .key("columns")
            .begin_array();
        for c in &self.columns {
            c.json_into(&mut w);
        }
        w.end_array().end_object();
        out
    }

    /// Parses the canonical encoding back; inverse of
    /// [`TableStats::to_json`] down to the last bit.
    pub fn from_json(text: &str) -> Result<TableStats, String> {
        let root = minijson::parse(text)?;
        let what = "table stats";
        let row_count = get_u64(&root, "row_count", what)?;
        let last_analyzed = get_u64(&root, "last_analyzed", what)?;
        if last_analyzed != row_count {
            return Err(format!(
                "{what}: last_analyzed {last_analyzed} != row_count {row_count}"
            ));
        }
        let columns = get(&root, "columns", what)?
            .as_array()
            .ok_or_else(|| format!("{what}: \"columns\" must be an array"))?
            .iter()
            .map(ColumnStats::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TableStats {
            table: get_str(&root, "table", what)?.to_string(),
            row_count,
            rows_at_full_analyze: get_u64(&root, "rows_at_full_analyze", what)?,
            increments: get_u64(&root, "increments", what)?,
            sampling_fraction: get_f64(&root, "sampling_fraction", what)?,
            estimator: get_str(&root, "estimator", what)?.to_string(),
            seed: hex_u64(get(&root, "seed", what)?, "seed")?,
            columns,
        })
    }
}

impl ColumnStats {
    fn json_into(&self, w: &mut Writer) {
        w.begin_object()
            .field("name", &self.name)
            .field("null_count_estimate", self.null_count_estimate)
            .field("sample_rows", self.sample_rows)
            .field("sample_distinct", self.sample_distinct)
            .field("distinct_estimate", self.distinct_estimate)
            .key("interval")
            .begin_object()
            .field("lower", self.interval.lower)
            .field("estimate", self.interval.estimate)
            .field("upper", self.interval.upper)
            .end_object()
            .key("design")
            .begin_object()
            .field("kind", self.design.label());
        if let SampleDesign::WithoutReplacement { n } = self.design {
            w.field("n", n);
        }
        w.end_object().key("spectrum");
        match &self.spectrum {
            None => w.raw("null"),
            Some(s) => {
                w.begin_object()
                    .field("n", s.table_size())
                    .key("entries")
                    .begin_array();
                for (freq, count) in s.spectrum() {
                    w.begin_array().value(freq).value(count).end_array();
                }
                w.end_array().end_object()
            }
        };
        w.key("mcvs").begin_array();
        for m in &self.mcvs {
            w.begin_object()
                .field("hash", &format!("{:#018x}", m.hash))
                .field("count", m.count)
                .end_object();
        }
        w.end_array().key("histogram");
        match &self.histogram {
            None => w.raw("null"),
            Some(h) => {
                w.begin_object()
                    .field("sampled", h.sampled)
                    .key("bounds")
                    .begin_array();
                for &b in &h.bounds {
                    w.value(b);
                }
                w.end_array().end_object()
            }
        };
        let mut registers = String::with_capacity(2 * self.hll.register_bytes().len());
        for byte in self.hll.register_bytes() {
            let _ = write!(registers, "{byte:02x}");
        }
        w.key("hll")
            .begin_object()
            .field("p", self.hll.precision())
            .field("registers", &registers)
            .end_object()
            .end_object();
    }

    fn from_json_value(v: &JsonValue) -> Result<ColumnStats, String> {
        let what = "column stats";
        let distinct_estimate = get_f64(v, "distinct_estimate", what)?;
        let interval_v = get(v, "interval", what)?;
        let interval = ConfidenceInterval {
            lower: get_f64(interval_v, "lower", "interval")?,
            estimate: get_f64(interval_v, "estimate", "interval")?,
            upper: get_f64(interval_v, "upper", "interval")?,
        };
        let design_v = get(v, "design", what)?;
        let design = match get_str(design_v, "kind", "design")? {
            "wr" => SampleDesign::WithReplacement,
            "wor" => SampleDesign::wor(get_u64(design_v, "n", "design")?),
            other => return Err(format!("design: unknown kind {other:?}")),
        };
        let spectrum = match get(v, "spectrum", what)? {
            JsonValue::Null => None,
            s => {
                let n = get_u64(s, "n", "spectrum")?;
                let entries = get(s, "entries", "spectrum")?
                    .as_array()
                    .ok_or("spectrum: \"entries\" must be an array")?
                    .iter()
                    .map(|e| {
                        let pair = e
                            .as_array()
                            .filter(|p| p.len() == 2)
                            .ok_or("spectrum: each entry must be a [frequency, count] pair")?;
                        let freq = pair[0].as_u64().ok_or("spectrum: bad frequency")?;
                        let count = pair[1].as_u64().ok_or("spectrum: bad count")?;
                        Ok::<(u64, u64), String>((freq, count))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(Spectrum::from_parts(n, entries).map_err(|e| format!("spectrum: {e}"))?)
            }
        };
        let mcvs = get(v, "mcvs", what)?
            .as_array()
            .ok_or("mcvs must be an array")?
            .iter()
            .map(|m| {
                Ok::<Mcv, String>(Mcv {
                    hash: hex_u64(get(m, "hash", "mcv")?, "mcv hash")?,
                    count: get_u64(m, "count", "mcv")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histogram = match get(v, "histogram", what)? {
            JsonValue::Null => None,
            h => {
                let bounds = get(h, "bounds", "histogram")?
                    .as_array()
                    .ok_or("histogram: \"bounds\" must be an array")?
                    .iter()
                    .map(|b| {
                        b.as_f64()
                            .filter(|x| x.fract() == 0.0)
                            .map(|x| x as i64)
                            .ok_or_else(|| "histogram: bounds must be integers".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(Histogram {
                    bounds,
                    sampled: get_u64(h, "sampled", "histogram")?,
                })
            }
        };
        let hll_v = get(v, "hll", what)?;
        let p = get_u64(hll_v, "p", "hll")? as u32;
        let hex = get_str(hll_v, "registers", "hll")?;
        if hex.len() % 2 != 0 || !hex.is_ascii() {
            return Err("hll: registers must be an even-length hex string".into());
        }
        let registers = (0..hex.len() / 2)
            .map(|i| {
                u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).map_err(|e| format!("hll: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let hll = HyperLogLog::from_registers(p, registers)
            .ok_or("hll: invalid precision or register array")?;
        Ok(ColumnStats {
            name: get_str(v, "name", what)?.to_string(),
            null_count_estimate: get_u64(v, "null_count_estimate", what)?,
            sample_rows: get_u64(v, "sample_rows", what)?,
            sample_distinct: get_u64(v, "sample_distinct", what)?,
            distinct_estimate,
            interval,
            design,
            spectrum,
            mcvs,
            histogram,
            hll,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_table_jobs;
    use crate::column::Column;
    use crate::table::{Field, Schema};
    use crate::value::Value;
    use dve_numeric::check::{check, i64_in, vec_of};

    fn int_table(values: &[i64]) -> Table {
        Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Column::from_i64(values)],
        )
        .unwrap()
    }

    fn opts(fraction: f64) -> AnalyzeOptions {
        AnalyzeOptions {
            sampling_fraction: fraction,
            estimator: "AE".into(),
        }
    }

    #[test]
    fn build_matches_plain_analyze() {
        let values: Vec<i64> = (0..5_000).map(|i| i % 120).collect();
        let table = int_table(&values);
        let built = build_table_stats(&table, "t", &opts(0.1), 7).unwrap();
        let plain = analyze_table_jobs(&table, &opts(0.1), 0, &mut Rng::seed_from_u64(7)).unwrap();
        assert_eq!(built.column_statistics(), plain);
        let c = &built.columns[0];
        assert_eq!(c.distinct_estimate, plain[0].distinct_estimate);
        assert_eq!(c.sample_distinct, plain[0].sample_distinct);
        assert_eq!(
            c.spectrum.as_ref().unwrap().distinct_in_sample(),
            plain[0].sample_distinct
        );
        assert!(!c.mcvs.is_empty());
        assert!(c.histogram.is_some());
        assert_eq!(built.row_count, 5_000);
        assert_eq!(built.last_analyzed(), 5_000);
    }

    #[test]
    fn mcvs_are_topk_and_consistent_with_hashes() {
        // Value 1 dominates: 0..10 once each plus 990 extra 1s.
        let mut values: Vec<i64> = (0..10).collect();
        values.extend(std::iter::repeat_n(1i64, 990));
        let table = int_table(&values);
        let built = build_table_stats(&table, "t", &opts(1.0), 1).unwrap();
        let mcvs = &built.columns[0].mcvs;
        assert_eq!(mcvs.len(), MCV_TARGET.min(10));
        assert_eq!(mcvs[0].hash, value_hash(&Value::Int64(1)).unwrap());
        assert_eq!(mcvs[0].count, 991);
        assert!(mcvs.windows(2).all(|w| w[0].count >= w[1].count));
    }

    #[test]
    fn histogram_build_fold_and_range() {
        let values: Vec<i64> = (0..800).collect();
        let h = Histogram::from_sorted(&values).unwrap();
        assert_eq!(h.bounds.len() as u64, HISTOGRAM_BUCKETS + 1);
        assert_eq!(h.bounds[0], 0);
        assert_eq!(*h.bounds.last().unwrap(), 799);
        // Uniform data: a half-range predicate covers ~half the mass.
        let frac = h.range_fraction(Some(0), Some(399));
        assert!((frac - 0.5).abs() < 0.1, "fraction {frac}");
        assert_eq!(h.range_fraction(None, None), 1.0);
        assert_eq!(h.range_fraction(Some(1_000), None), 0.0);

        // Folding in a disjoint higher range shifts the upper bounds.
        let newer: Vec<i64> = (800..1_600).collect();
        let folded = h.fold(&newer);
        assert_eq!(folded.sampled, 1_600);
        assert_eq!(*folded.bounds.last().unwrap(), 1_599);
        assert_eq!(folded.bounds[0], 0);
        let frac = folded.range_fraction(Some(800), None);
        assert!((frac - 0.5).abs() < 0.15, "fraction {frac}");
        // Determinism: folding twice yields identical bytes.
        assert_eq!(folded, h.fold(&newer));
    }

    #[test]
    fn staleness_policy_decides_from_injected_counters() {
        let policy = RefreshPolicy::default();
        // No growth.
        assert_eq!(
            policy.decide(1_000, 1_000, 1_000),
            RefreshDecision::NoNewRows
        );
        // Small growth: incremental.
        assert_eq!(
            policy.decide(1_000, 1_000, 1_400),
            RefreshDecision::Incremental { new_rows: 400 }
        );
        // Growth past the threshold (stale 1_500 / current 2_500 = 0.6):
        // full resample.
        assert_eq!(
            policy.decide(1_000, 1_000, 2_500),
            RefreshDecision::FullResample(ResampleReason::StaleRatio)
        );
        // Cumulative increments count against the full-analyze anchor.
        assert_eq!(
            policy.decide(1_000, 2_000, 2_200),
            RefreshDecision::FullResample(ResampleReason::StaleRatio)
        );
        // A shrunken table always forces a resample.
        assert_eq!(
            policy.decide(1_000, 2_000, 1_500),
            RefreshDecision::FullResample(ResampleReason::TableShrank)
        );
        // A stricter threshold flips the incremental case.
        let strict = RefreshPolicy {
            staleness_threshold: 0.1,
            ..RefreshPolicy::default()
        };
        assert_eq!(
            strict.decide(1_000, 1_000, 1_400),
            RefreshDecision::FullResample(ResampleReason::StaleRatio)
        );
    }

    #[test]
    fn incremental_equals_full_on_disjoint_segments_at_full_fraction() {
        // At fraction 1.0 both paths see every row; with value-disjoint
        // segments the WOR shard merge is exact, so the incremental
        // spectrum must equal the one-shot spectrum bit for bit.
        let seg1: Vec<i64> = (0..600).map(|i| i % 40).collect();
        let seg2: Vec<i64> = (0..400).map(|i| 1_000 + i % 25).collect();
        let whole: Vec<i64> = seg1.iter().chain(&seg2).copied().collect();

        let built = build_table_stats(&int_table(&seg1), "t", &opts(1.0), 3).unwrap();
        let grown = int_table(&whole);
        let (refreshed, outcome) =
            refresh_table_stats(&grown, &built, &RefreshPolicy::default()).unwrap();
        assert_eq!(
            outcome,
            RefreshOutcome::Incremental {
                new_rows: 400,
                sampled_rows: 400
            }
        );
        let full = build_table_stats(&grown, "t", &opts(1.0), 3).unwrap();
        assert_eq!(
            refreshed.columns[0].spectrum, full.columns[0].spectrum,
            "incremental and full spectra must agree"
        );
        assert_eq!(
            refreshed.columns[0].distinct_estimate,
            full.columns[0].distinct_estimate
        );
        assert_eq!(refreshed.columns[0].design, full.columns[0].design);
        assert_eq!(refreshed.row_count, 1_000);
        assert_eq!(refreshed.increments, 1);
    }

    /// The incremental ≡ full equivalence gate, property-tested:
    /// for any value-disjoint segment pair at fraction 1.0, ANALYZE
    /// over n, then an incremental merge of m, equals a full
    /// ANALYZE over all n+m rows at the spectrum level.
    #[test]
    fn prop_incremental_merge_equals_full_analyze() {
        check("prop_incremental_merge_equals_full_analyze", 256, |rng| {
            let seg1 = vec_of(rng, 1..300, |rng| i64_in(rng, 0..200));
            let seg2 = vec_of(rng, 1..300, |rng| i64_in(rng, 10_000..10_200));
            let whole: Vec<i64> = seg1.iter().chain(&seg2).copied().collect();
            let built = build_table_stats(&int_table(&seg1), "t", &opts(1.0), 11).unwrap();
            let grown = int_table(&whole);
            let policy = RefreshPolicy {
                staleness_threshold: 1.0,
                ..RefreshPolicy::default()
            };
            let (refreshed, outcome) = refresh_table_stats(&grown, &built, &policy).unwrap();
            assert_eq!(
                outcome,
                RefreshOutcome::Incremental {
                    new_rows: seg2.len() as u64,
                    sampled_rows: seg2.len() as u64,
                }
            );
            let full = build_table_stats(&grown, "t", &opts(1.0), 11).unwrap();
            assert_eq!(&refreshed.columns[0].spectrum, &full.columns[0].spectrum);
            assert_eq!(refreshed.columns[0].design, full.columns[0].design);
            assert_eq!(
                refreshed.columns[0].distinct_estimate,
                full.columns[0].distinct_estimate
            );
        });
    }

    #[test]
    fn overlapping_increment_escalates_to_full_resample() {
        // The appended segment repeats the original values exactly, so
        // the HLL shadow sees half the distincts the summed spectra
        // claim — well past the drift threshold.
        let seg: Vec<i64> = (0..500).map(|i| i % 50).collect();
        let whole: Vec<i64> = seg.iter().chain(&seg).copied().collect();
        let built = build_table_stats(&int_table(&seg), "t", &opts(1.0), 5).unwrap();
        let policy = RefreshPolicy {
            staleness_threshold: 1.0,
            ..RefreshPolicy::default()
        };
        let (refreshed, outcome) =
            refresh_table_stats(&int_table(&whole), &built, &policy).unwrap();
        assert_eq!(
            outcome,
            RefreshOutcome::FullResample(ResampleReason::OverlapDrift)
        );
        assert_eq!(refreshed.increments, 0);
        assert_eq!(refreshed.rows_at_full_analyze, 1_000);
    }

    #[test]
    fn refresh_noop_and_shrink() {
        let values: Vec<i64> = (0..1_000).collect();
        let table = int_table(&values);
        let built = build_table_stats(&table, "t", &opts(0.2), 9).unwrap();
        let (same, outcome) =
            refresh_table_stats(&table, &built, &RefreshPolicy::default()).unwrap();
        assert_eq!(outcome, RefreshOutcome::NoNewRows);
        assert_eq!(same, built);

        let shrunk = int_table(&values[..500]);
        let (re, outcome) =
            refresh_table_stats(&shrunk, &built, &RefreshPolicy::default()).unwrap();
        assert_eq!(
            outcome,
            RefreshOutcome::FullResample(ResampleReason::TableShrank)
        );
        assert_eq!(re.row_count, 500);
    }

    #[test]
    fn refresh_rejects_schema_mismatch() {
        let built = build_table_stats(&int_table(&[1, 2, 3]), "t", &opts(1.0), 1).unwrap();
        let renamed = Table::new(
            Schema::new(vec![Field::new("other", DataType::Int64)]),
            vec![Column::from_i64(&[1, 2, 3, 4])],
        )
        .unwrap();
        assert!(matches!(
            refresh_table_stats(&renamed, &built, &RefreshPolicy::default()),
            Err(CatalogError::SchemaMismatch(_))
        ));
        // Stored statistics claiming ~2^64 rows (a hand-edited sidecar)
        // have no merge with the appended segment: an error, not an
        // overflow.
        let mut huge = build_table_stats(&int_table(&[1, 2, 3, 4]), "t", &opts(1.0), 1).unwrap();
        huge.columns[0].spectrum = Some(Spectrum::from_spectrum(u64::MAX, vec![4]).unwrap());
        assert!(matches!(
            refresh_table_stats(
                &int_table(&[1, 2, 3, 4, 5]),
                &huge,
                &RefreshPolicy::default()
            ),
            Err(CatalogError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn refresh_rejects_a_design_population_past_u64_max() {
        // A sidecar may claim any WOR population for a column; adding the
        // appended segment's population to `wor(u64::MAX)` has no answer.
        let mut stats = build_table_stats(&int_table(&[1, 2, 3, 4]), "t", &opts(1.0), 1).unwrap();
        stats.columns[0].design = SampleDesign::wor(u64::MAX);
        let err = refresh_table_stats(
            &int_table(&[1, 2, 3, 4, 5]),
            &stats,
            &RefreshPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CatalogError::SchemaMismatch(_)), "{err:?}");
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let values: Vec<i64> = (0..3_000).map(|i| (i * 7) % 90).collect();
        let table = int_table(&values);
        let built = build_table_stats(&table, "ro\"und\ntrip", &opts(0.15), 13).unwrap();
        let json = built.to_json();
        let parsed = TableStats::from_json(&json).unwrap();
        assert_eq!(parsed, built, "struct round-trip");
        assert_eq!(parsed.to_json(), json, "byte round-trip");

        // And again after an incremental refresh (exercises the merged
        // design, grown MCVs, folded histogram, mutated HLL).
        let whole: Vec<i64> = values
            .iter()
            .copied()
            .chain((0..900).map(|i| 500 + (i % 70)))
            .collect();
        let policy = RefreshPolicy {
            overlap_drift_threshold: 1.0,
            ..RefreshPolicy::default()
        };
        let (refreshed, _) = refresh_table_stats(&int_table(&whole), &built, &policy).unwrap();
        let json = refreshed.to_json();
        let parsed = TableStats::from_json(&json).unwrap();
        assert_eq!(parsed, refreshed);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn from_json_rejects_corruption() {
        let built = build_table_stats(&int_table(&[1, 2, 3]), "t", &opts(1.0), 1).unwrap();
        let json = built.to_json();
        assert!(TableStats::from_json("{").is_err());
        assert!(TableStats::from_json("{}").is_err());
        // An inconsistent spectrum fails from_parts validation.
        let bad = json.replace("\"entries\":[[", "\"entries\":[[999999,");
        assert!(TableStats::from_json(&bad).is_err());
        // A multi-byte character in the register hex must not split
        // mid-character when the pairs are sliced.
        let bad = json.replace("\"registers\":\"", "\"registers\":\"aéb");
        assert!(TableStats::from_json(&bad).is_err());
    }

    #[test]
    fn selectivity_covers_every_predicate() {
        let mut values: Vec<Option<i64>> = (0..900).map(|i| Some(i % 30)).collect();
        values.extend(std::iter::repeat_n(None, 100));
        let table = Table::new(
            Schema::new(vec![Field::nullable("k", DataType::Int64)]),
            vec![Column::from_i64_opt(&values)],
        )
        .unwrap();
        let built = build_table_stats(&table, "t", &opts(1.0), 2).unwrap();
        let stats = &built;

        let sel = |p: Predicate| stats.selectivity(&Filter::new("k", p)).unwrap();
        let nulls = sel(Predicate::IsNull);
        assert!((nulls - 0.1).abs() < 0.02, "null fraction {nulls}");
        assert!((sel(Predicate::IsNotNull) - 0.9).abs() < 0.02);
        // 30 uniform values over 90% non-null rows: Eq ≈ 0.03.
        let eq = sel(Predicate::Eq(Value::Int64(3)));
        assert!((eq - 0.03).abs() < 0.01, "eq {eq}");
        assert_eq!(sel(Predicate::Eq(Value::Null)), 0.0);
        // Half the value range.
        let range = sel(Predicate::IntRange {
            lo: Some(0),
            hi: Some(14),
        });
        assert!((range - 0.45).abs() < 0.1, "range {range}");
        // Unknown column errors.
        assert!(stats
            .selectivity(&Filter::new("missing", Predicate::IsNull))
            .is_err());

        let est = stats
            .estimated_rows_after_filter(&[
                Filter::new("k", Predicate::IsNotNull),
                Filter::new("k", Predicate::Eq(Value::Int64(3))),
            ])
            .unwrap();
        // ~1000 × 0.9 × 0.03 ≈ 27 (the 30 matching rows, discounted by
        // independence).
        assert!((est - 27.0).abs() < 10.0, "estimated rows {est}");
    }

    #[test]
    fn stats_catalog_saves_gets_drops() {
        let built = build_table_stats(&int_table(&[1, 2, 3]), "t", &opts(1.0), 1).unwrap();
        let mut catalog = StatsCatalog::new();
        assert!(catalog.is_empty());
        assert!(!catalog.save(built.clone()));
        assert!(catalog.save(built), "replacement reported");
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.table_names(), vec!["t"]);
        assert!(catalog.get("t").is_some());
        assert!(catalog.get("nope").is_none());
        assert!(catalog.drop_table("t"));
        assert!(!catalog.drop_table("t"));
    }
}

//! Optimizer-facing column statistics — the artifact ANALYZE produces.
//!
//! This is the paper's motivating consumer: a query optimizer reads the
//! distinct-count estimate (plus the GEE confidence interval) when
//! costing joins and aggregations.

use dve_core::bounds::ConfidenceInterval;
use dve_core::estimator::Estimation;
use dve_obs::minijson::Writer;

/// Statistics for one column, as a catalog would store them.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStatistics {
    /// Column name.
    pub column: String,
    /// Table row count at ANALYZE time.
    pub row_count: u64,
    /// NULL rows observed (scaled up from the sample).
    pub null_count_estimate: u64,
    /// Rows actually sampled.
    pub sample_rows: u64,
    /// Distinct non-NULL values seen in the sample.
    pub sample_distinct: u64,
    /// The distinct-count estimate.
    pub distinct_estimate: f64,
    /// GEE's `[LOWER, UPPER]` interval around the truth (always computed,
    /// regardless of which estimator produced `distinct_estimate` — the
    /// interval's validity only needs the sample).
    pub interval: ConfidenceInterval,
    /// Name of the estimator that produced `distinct_estimate`.
    pub estimator: String,
}

impl ColumnStatistics {
    /// A scale-free confidence signal: interval width over estimate.
    /// Optimizers can fall back to a full scan when this is too large.
    pub fn relative_uncertainty(&self) -> f64 {
        self.interval.width() / self.distinct_estimate.max(1.0)
    }

    /// Estimated selectivity of an equality predicate on this column,
    /// `1 / D̂` — the quantity optimizers actually plug into cost models.
    pub fn equality_selectivity(&self) -> f64 {
        1.0 / self.distinct_estimate.max(1.0)
    }

    /// The statistics re-shaped as the typed [`Estimation`] result
    /// surface: `r`/`n` are the catalog-level sample and table sizes
    /// (including NULL rows; the profile behind the estimate covers the
    /// non-NULL sub-population), `d` is the distinct non-NULL values
    /// seen, and the interval is GEE's `[LOWER, UPPER]`.
    pub fn estimation(&self) -> Estimation {
        Estimation {
            estimate: self.distinct_estimate,
            interval: Some((self.interval.lower, self.interval.upper)),
            estimator: self.estimator.clone(),
            d: self.sample_distinct,
            r: self.sample_rows,
            n: self.row_count,
        }
    }

    /// Serializes the column statistics as one JSON object embedding the
    /// shared [`Estimation`] encoding — the same bytes `dve serve`'s
    /// `/v1/analyze` and `dve analyze --format json` emit per column.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        self.json_into(&mut Writer::new(&mut out));
        out
    }

    fn json_into(&self, w: &mut Writer) {
        w.begin_object()
            .field("column", &self.column)
            .field("null_count_estimate", self.null_count_estimate)
            .key("estimation");
        self.estimation().json_into(w);
        w.end_object();
    }
}

fn columns_json_into(w: &mut Writer, stats: &[ColumnStatistics]) {
    w.begin_array();
    for s in stats {
        s.json_into(w);
    }
    w.end_array();
}

/// Serializes a slice of column statistics as a JSON array (the
/// `columns` payload of [`analyze_json`]).
pub fn columns_to_json(stats: &[ColumnStatistics]) -> String {
    let mut out = String::with_capacity(64 + 192 * stats.len());
    columns_json_into(&mut Writer::new(&mut out), stats);
    out
}

/// The document `dve analyze --format json` prints and `POST
/// /v1/analyze` answers: `{"columns":[…]}`, plus `"saved":NAME` when
/// the statistics were saved to the catalog under a table name.
pub fn analyze_json(stats: &[ColumnStatistics], saved: Option<&str>) -> String {
    let mut out = String::with_capacity(96 + 192 * stats.len());
    let mut w = Writer::new(&mut out);
    w.begin_object().key("columns");
    columns_json_into(&mut w, stats);
    if let Some(table) = saved {
        w.field("saved", table);
    }
    w.end_object();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(estimate: f64, lower: f64, upper: f64) -> ColumnStatistics {
        ColumnStatistics {
            column: "c".into(),
            row_count: 1000,
            null_count_estimate: 0,
            sample_rows: 100,
            sample_distinct: 42,
            distinct_estimate: estimate,
            interval: ConfidenceInterval {
                lower,
                estimate,
                upper,
            },
            estimator: "GEE".into(),
        }
    }

    #[test]
    fn selectivity_is_inverse_distinct() {
        let s = stats(50.0, 42.0, 200.0);
        assert!((s.equality_selectivity() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn uncertainty_is_relative_width() {
        let s = stats(50.0, 42.0, 142.0);
        assert!((s.relative_uncertainty() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_estimate_guarded() {
        let s = stats(0.0, 0.0, 0.0);
        assert_eq!(s.equality_selectivity(), 1.0);
    }
}

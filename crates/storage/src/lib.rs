//! # dve-storage — a mini in-memory column store
//!
//! The substrate the paper ran on was Microsoft SQL Server 7.0 with a
//! server modification that exposed, per sampled column, the distinct
//! count `d`, the frequency spectrum `f_i`, and the sample skew. This
//! crate provides the equivalent open substrate:
//!
//! * [`value`] / [`column`](mod@column) — typed columns (`Int64`,
//!   `Float64`, `Str`, `Bool`) with NULL masks, chunked adaptive encodings
//!   ([`encoding`]: plain / run-length / dictionary), O(1)-ish point
//!   access, and deterministic per-row value hashes for sampling;
//! * [`table`] — schemas, tables, and a catalog;
//! * [`stats`] — optimizer-facing [`stats::ColumnStatistics`]
//!   (distinct estimate + GEE confidence interval + selectivity helpers);
//! * [`analyze`] — the `ANALYZE` command: one shared row sample per
//!   table, per-column frequency profiles, any registry estimator;
//! * [`catalog`] — the optimizer-grade statistics catalog:
//!   [`catalog::TableStats`] with MCVs, histograms, and HLL shadows,
//!   incremental ANALYZE refresh via the WOR shard merge, and the
//!   staleness policy ([`catalog::RefreshPolicy`]);
//! * [`planner`] — statistics consumers: group-by strategy choice and
//!   scan planning driven by the catalog.
//!
//! ```
//! use dve_storage::{analyze::{analyze_table, AnalyzeOptions}, table::Table};
//!
//! let values: Vec<u64> = (0..10_000).map(|i| i % 250).collect();
//! let table = Table::from_generated("city_id", &values);
//! let mut rng = dve_numeric::rng::Rng::seed_from_u64(42);
//! let stats = analyze_table(&table, &AnalyzeOptions::default(), &mut rng).unwrap();
//! let s = &stats[0];
//! assert!(s.interval.lower <= 250.0 && 250.0 <= s.interval.upper);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod catalog;
pub mod column;
pub mod encoding;
pub mod persist;
pub mod planner;
pub mod query;
pub mod stats;
pub mod table;
pub mod value;

pub use analyze::{analyze_table, analyze_table_jobs, AnalyzeOptions};
pub use catalog::{
    build_table_stats, refresh_table_stats, ColumnStats, RefreshOutcome, RefreshPolicy,
    StatsCatalog, TableStats,
};
pub use column::Column;
pub use persist::{
    load_table, load_table_stats, read_table, save_table, save_table_stats, stats_path_for,
    write_table,
};
pub use planner::{execute_group_by, plan_group_by, plan_scan, GroupByStrategy, ScanStrategy};
pub use query::{count_distinct, filter_rows, Filter, Predicate};
pub use stats::{analyze_json, columns_to_json, ColumnStatistics};
pub use table::{Catalog, Field, Schema, Table};
pub use value::{DataType, Value};

//! An estimate-driven query planner — the paper's motivating consumer
//! made concrete.
//!
//! *"A principled choice of an execution plan by an optimizer depends
//! heavily on the availability of statistical summaries such as … the
//! number of distinct values in a column"* (§1). The classic decision
//! that hinges on the distinct count is GROUP BY strategy:
//!
//! * **HashAggregate** — O(n) with an O(D) hash table; wins when the
//!   group count fits the memory budget;
//! * **SortAggregate** — O(n log n) with O(n) sequential memory; wins
//!   when there are too many groups to hash in memory (a real system
//!   would spill; we model the cliff with a cost penalty).
//!
//! [`plan_group_by`] picks a strategy from a [`ColumnStatistics`]
//! estimate; [`plan_group_by_from_catalog`] does the same straight from
//! the persisted statistics catalog ([`crate::catalog::TableStats`]);
//! [`plan_scan`] chooses between a full scan and materializing matching
//! row ids from the catalog's selectivity estimates; and
//! [`execute_group_by`] actually runs either strategy so the bench
//! suite can measure what a wrong estimate costs.

use crate::catalog::TableStats;
use crate::query::Filter;
use crate::stats::ColumnStatistics;
use crate::table::Table;
use std::collections::HashMap;

/// Errors from planning or executing against missing inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// The named column does not exist in the table or its statistics.
    NoSuchColumn(
        /// The missing column name.
        String,
    ),
    /// The catalog has no statistics to plan from.
    NoStatistics {
        /// The table the caller asked about.
        table: String,
    },
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::NoSuchColumn(name) => write!(f, "no such column: {name}"),
            PlannerError::NoStatistics { table } => {
                write!(f, "no statistics for table {table:?} — run ANALYZE first")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// GROUP BY execution strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupByStrategy {
    /// Build a hash table keyed by value.
    HashAggregate,
    /// Sort row hashes, then count runs.
    SortAggregate,
}

/// Planner decision with its inputs, for explain-style output.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByPlan {
    /// Chosen strategy.
    pub strategy: GroupByStrategy,
    /// The distinct estimate the decision used.
    pub estimated_groups: f64,
    /// The memory budget (in groups) the hash strategy was allowed.
    pub hash_budget_groups: u64,
    /// True when the estimator's confidence interval straddles the
    /// budget — the planner is flying blind and a robust system might
    /// prefer the sort strategy or a higher sampling rate.
    pub decision_uncertain: bool,
}

/// Chooses a GROUP BY strategy from the decision's raw inputs.
fn choose_group_by(estimate: f64, lower: f64, upper: f64, hash_budget_groups: u64) -> GroupByPlan {
    let budget = hash_budget_groups as f64;
    GroupByPlan {
        strategy: if estimate <= budget {
            GroupByStrategy::HashAggregate
        } else {
            GroupByStrategy::SortAggregate
        },
        estimated_groups: estimate,
        hash_budget_groups,
        decision_uncertain: (lower <= budget) != (upper <= budget),
    }
}

/// Chooses a GROUP BY strategy from column statistics.
///
/// Hash aggregation is selected when the estimated distinct count fits
/// the budget. The GEE interval is consulted for an uncertainty flag:
/// if `LOWER` fits but `UPPER` does not, the estimate alone is carrying
/// the decision.
pub fn plan_group_by(stats: &ColumnStatistics, hash_budget_groups: u64) -> GroupByPlan {
    choose_group_by(
        stats.distinct_estimate,
        stats.interval.lower,
        stats.interval.upper,
        hash_budget_groups,
    )
}

/// [`plan_group_by`], but reading the persisted statistics catalog —
/// the production path: ANALYZE once, persist, plan many times.
pub fn plan_group_by_from_catalog(
    stats: &TableStats,
    column: &str,
    hash_budget_groups: u64,
) -> Result<GroupByPlan, PlannerError> {
    let col = stats
        .column(column)
        .ok_or_else(|| PlannerError::NoSuchColumn(column.to_string()))?;
    Ok(choose_group_by(
        col.distinct_estimate,
        col.interval.lower,
        col.interval.upper,
        hash_budget_groups,
    ))
}

/// Scan strategies for a filtered read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStrategy {
    /// Stream every row through the filters.
    FullScan,
    /// Materialize the matching row-id list first (worth the extra
    /// buffer only when few rows survive).
    MaterializeRowIds,
}

/// A scan plan: the chosen strategy plus the selectivity reasoning
/// behind it, for explain-style output.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// Chosen strategy.
    pub strategy: ScanStrategy,
    /// Estimated rows surviving all filters.
    pub estimated_rows: f64,
    /// The row budget `MaterializeRowIds` was allowed.
    pub materialize_budget_rows: u64,
    /// Filters reordered most-selective-first (ascending estimated
    /// selectivity), so the cheapest rejector runs first.
    pub filter_order: Vec<usize>,
}

/// Chooses a scan strategy for a conjunction of filters from the
/// statistics catalog: materialize row ids when the estimated survivor
/// count fits the budget, and order filters most-selective-first.
pub fn plan_scan(
    stats: &TableStats,
    filters: &[Filter],
    materialize_budget_rows: u64,
) -> Result<ScanPlan, PlannerError> {
    let mut selectivities = Vec::with_capacity(filters.len());
    for f in filters {
        selectivities.push(stats.selectivity(f)?);
    }
    let mut filter_order: Vec<usize> = (0..filters.len()).collect();
    filter_order.sort_by(|&a, &b| {
        selectivities[a]
            .partial_cmp(&selectivities[b])
            .expect("selectivities are finite")
            .then(a.cmp(&b))
    });
    let estimated_rows = stats.row_count as f64 * selectivities.iter().product::<f64>();
    Ok(ScanPlan {
        strategy: if !filters.is_empty() && estimated_rows <= materialize_budget_rows as f64 {
            ScanStrategy::MaterializeRowIds
        } else {
            ScanStrategy::FullScan
        },
        estimated_rows,
        materialize_budget_rows,
        filter_order,
    })
}

/// Result of executing a GROUP BY: the group count plus simple cost
/// counters a bench can compare.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByResult {
    /// Number of groups found (= exact distinct count of the column).
    pub groups: u64,
    /// Strategy that ran.
    pub strategy: GroupByStrategy,
    /// Peak auxiliary memory in bytes (hash table or sort buffer).
    pub peak_memory_bytes: usize,
}

/// Executes `GROUP BY column` (counting groups) with the given strategy.
pub fn execute_group_by(
    table: &Table,
    column: &str,
    strategy: GroupByStrategy,
) -> Result<GroupByResult, PlannerError> {
    let col = table
        .column_by_name(column)
        .ok_or_else(|| PlannerError::NoSuchColumn(column.to_string()))?;
    Ok(match strategy {
        GroupByStrategy::HashAggregate => {
            let mut groups: HashMap<u64, u64> = HashMap::new();
            for row in 0..col.len() {
                if let Some(h) = col.hash_code(row) {
                    *groups.entry(h).or_insert(0) += 1;
                }
            }
            GroupByResult {
                groups: groups.len() as u64,
                strategy,
                peak_memory_bytes: groups.capacity() * 16,
            }
        }
        GroupByStrategy::SortAggregate => {
            let mut hashes: Vec<u64> = (0..col.len())
                .filter_map(|row| col.hash_code(row))
                .collect();
            hashes.sort_unstable();
            let mut groups = 0u64;
            let mut prev = None;
            for h in &hashes {
                if Some(*h) != prev {
                    groups += 1;
                    prev = Some(*h);
                }
            }
            GroupByResult {
                groups,
                strategy,
                peak_memory_bytes: hashes.capacity() * 8,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::bounds_helpers::stats_with;
    use super::*;
    use crate::analyze::{analyze_table, AnalyzeOptions};
    use crate::catalog::build_table_stats;
    use crate::query::Predicate;
    use crate::table::Table;
    use crate::value::Value;
    use dve_numeric::rng::Rng;

    #[test]
    fn both_strategies_agree_on_group_count() {
        let col: Vec<u64> = (0..50_000).map(|i| i % 777).collect();
        let table = Table::from_generated("k", &col);
        let hash = execute_group_by(&table, "k", GroupByStrategy::HashAggregate).unwrap();
        let sort = execute_group_by(&table, "k", GroupByStrategy::SortAggregate).unwrap();
        assert_eq!(hash.groups, 777);
        assert_eq!(sort.groups, 777);
        // Hash memory tracks D, sort memory tracks n.
        assert!(hash.peak_memory_bytes < sort.peak_memory_bytes);
    }

    #[test]
    fn planner_picks_hash_when_groups_fit() {
        let stats = stats_with(500.0, 450.0, 600.0);
        let plan = plan_group_by(&stats, 10_000);
        assert_eq!(plan.strategy, GroupByStrategy::HashAggregate);
        assert!(!plan.decision_uncertain);
    }

    #[test]
    fn planner_picks_sort_when_groups_overflow() {
        let stats = stats_with(5_000_000.0, 4_000_000.0, 9_000_000.0);
        let plan = plan_group_by(&stats, 10_000);
        assert_eq!(plan.strategy, GroupByStrategy::SortAggregate);
        assert!(!plan.decision_uncertain);
    }

    #[test]
    fn planner_flags_straddling_interval() {
        let stats = stats_with(9_000.0, 1_000.0, 500_000.0);
        let plan = plan_group_by(&stats, 10_000);
        assert_eq!(plan.strategy, GroupByStrategy::HashAggregate);
        assert!(plan.decision_uncertain, "interval straddles the budget");
    }

    #[test]
    fn end_to_end_plan_from_analyze() {
        let col: Vec<u64> = (0..100_000).map(|i| i % 50).collect();
        let table = Table::from_generated("k", &col);
        let mut rng = Rng::seed_from_u64(5);
        let stats = analyze_table(
            &table,
            &AnalyzeOptions {
                sampling_fraction: 0.02,
                estimator: "AE".into(),
            },
            &mut rng,
        )
        .unwrap();
        let plan = plan_group_by(&stats[0], 1_000);
        assert_eq!(plan.strategy, GroupByStrategy::HashAggregate);
        let result = execute_group_by(&table, "k", plan.strategy).unwrap();
        assert_eq!(result.groups, 50);
    }

    #[test]
    fn execute_checks_column() {
        let table = Table::from_generated("k", &[1, 2]);
        let err = execute_group_by(&table, "missing", GroupByStrategy::HashAggregate).unwrap_err();
        assert_eq!(err, PlannerError::NoSuchColumn("missing".into()));
        assert!(err.to_string().contains("missing"));
    }

    fn catalog_stats(values: &[u64]) -> TableStats {
        let table = Table::from_generated("k", values);
        build_table_stats(
            &table,
            "t",
            &AnalyzeOptions {
                sampling_fraction: 0.05,
                estimator: "AE".into(),
            },
            7,
        )
        .unwrap()
    }

    #[test]
    fn catalog_plan_matches_direct_plan() {
        let values: Vec<u64> = (0..80_000).map(|i| i % 40).collect();
        let table = Table::from_generated("k", &values);
        let options = AnalyzeOptions {
            sampling_fraction: 0.05,
            estimator: "AE".into(),
        };
        let built = build_table_stats(&table, "t", &options, 7).unwrap();
        let direct = plan_group_by(&built.column_statistics()[0], 1_000);
        let from_catalog = plan_group_by_from_catalog(&built, "k", 1_000).unwrap();
        assert_eq!(direct, from_catalog);
        assert_eq!(from_catalog.strategy, GroupByStrategy::HashAggregate);
        assert!(matches!(
            plan_group_by_from_catalog(&built, "nope", 1_000),
            Err(PlannerError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn scan_plan_materializes_selective_filters_and_orders_them() {
        let values: Vec<u64> = (0..50_000).map(|i| i % 500).collect();
        let stats = catalog_stats(&values);
        let filters = vec![
            Filter::new(
                "k",
                Predicate::IntRange {
                    lo: Some(0),
                    hi: Some(249),
                },
            ),
            Filter::new("k", Predicate::Eq(Value::Int64(3))),
        ];
        let plan = plan_scan(&stats, &filters, 5_000).unwrap();
        // Eq (~1/500) is far more selective than the half range — it
        // must run first, and the combined estimate fits the budget.
        assert_eq!(plan.filter_order, vec![1, 0]);
        assert_eq!(plan.strategy, ScanStrategy::MaterializeRowIds);
        assert!(
            plan.estimated_rows < 5_000.0,
            "rows {}",
            plan.estimated_rows
        );

        // The same filters with a tiny budget fall back to a full scan.
        let plan = plan_scan(&stats, &filters, 10).unwrap();
        assert_eq!(plan.strategy, ScanStrategy::FullScan);

        // No filters: nothing to materialize.
        let plan = plan_scan(&stats, &[], 1 << 40).unwrap();
        assert_eq!(plan.strategy, ScanStrategy::FullScan);
        assert_eq!(plan.estimated_rows, stats.row_count as f64);

        // Unknown filter column errors.
        let bad = vec![Filter::new("zzz", Predicate::IsNull)];
        assert!(matches!(
            plan_scan(&stats, &bad, 100),
            Err(PlannerError::NoSuchColumn(_))
        ));
    }
}

/// Test-only constructor for synthetic statistics.
#[cfg(test)]
pub(crate) mod bounds_helpers {
    use crate::stats::ColumnStatistics;
    use dve_core::bounds::ConfidenceInterval;

    pub(crate) fn stats_with(estimate: f64, lower: f64, upper: f64) -> ColumnStatistics {
        ColumnStatistics {
            column: "c".into(),
            row_count: 1_000_000,
            null_count_estimate: 0,
            sample_rows: 10_000,
            sample_distinct: lower as u64,
            distinct_estimate: estimate,
            interval: ConfidenceInterval {
                lower,
                estimate,
                upper,
            },
            estimator: "GEE".into(),
        }
    }
}

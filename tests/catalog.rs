//! End-to-end tests for the statistics catalog: the optimizer actually
//! changes its plan when the stats are refreshed, the policy escalates
//! heavy appends to a full resample, and the persisted sidecar
//! round-trips through disk bit-identically.

use distinct_values::storage::catalog::ResampleReason;
use distinct_values::storage::planner::plan_group_by_from_catalog;
use distinct_values::storage::{
    build_table_stats, load_table_stats, refresh_table_stats, save_table, save_table_stats,
    stats_path_for, AnalyzeOptions, Column, DataType, Field, GroupByStrategy, RefreshOutcome,
    RefreshPolicy, Schema, Table,
};

fn int_table(values: &[i64]) -> Table {
    Table::new(
        Schema::new(vec![Field::new("k", DataType::Int64)]),
        vec![Column::from_i64(values)],
    )
    .expect("single consistent column")
}

fn opts(fraction: f64) -> AnalyzeOptions {
    AnalyzeOptions {
        sampling_fraction: fraction,
        estimator: "AE".to_string(),
    }
}

/// The paper's motivating scenario, through the catalog: a GROUP BY
/// column that fit the hash budget at ANALYZE time grows past it, and
/// after an *incremental* refresh the planner flips from HashAggregate
/// to SortAggregate. Both decisions are asserted.
#[test]
fn optimizer_flips_group_by_plan_after_incremental_refresh() {
    // 6 000 rows over 100 distinct store ids: well inside a 1 000-group
    // hash budget.
    let old: Vec<i64> = (0..6_000).map(|i| i % 100).collect();
    let table = int_table(&old);
    let stale = build_table_stats(&table, "events", &opts(0.5), 7).expect("analyze succeeds");

    let budget = 1_000u64;
    let before = plan_group_by_from_catalog(&stale, "k", budget).expect("column exists");
    assert_eq!(
        before.strategy,
        GroupByStrategy::HashAggregate,
        "100 distinct values fit the 1000-group budget: {before:?}"
    );

    // 4 000 appended rows, every one a brand-new id. Stale ratio
    // 4000/10000 = 0.4 stays under the default 0.5 threshold, so the
    // refresh folds the new segment in incrementally.
    let mut grown = old.clone();
    grown.extend((0..4_000).map(|i| 1_000_000 + i as i64));
    let table = int_table(&grown);
    let (fresh, outcome) =
        refresh_table_stats(&table, &stale, &RefreshPolicy::default()).expect("refresh succeeds");
    assert!(
        matches!(
            outcome,
            RefreshOutcome::Incremental {
                new_rows: 4_000,
                ..
            }
        ),
        "append below the staleness threshold merges incrementally: {outcome:?}"
    );
    assert_eq!(fresh.row_count, 10_000);
    assert_eq!(fresh.last_analyzed(), 10_000);
    assert_eq!(fresh.increments, 1);
    assert_eq!(fresh.rows_at_full_analyze, 6_000);

    let after = plan_group_by_from_catalog(&fresh, "k", budget).expect("column exists");
    assert_eq!(
        after.strategy,
        GroupByStrategy::SortAggregate,
        "~4100 distinct values blow the 1000-group budget: {after:?}"
    );

    // The stale stats would still pick the (now wrong) hash plan — the
    // refresh is what changed the optimizer's mind.
    let still_stale = plan_group_by_from_catalog(&stale, "k", budget).expect("column exists");
    assert_eq!(still_stale.strategy, GroupByStrategy::HashAggregate);
}

/// Appending more rows than the staleness policy tolerates abandons the
/// incremental path: the whole table is resampled and the increment
/// counter resets.
#[test]
fn heavy_append_forces_full_resample() {
    let old: Vec<i64> = (0..1_000).map(|i| i % 50).collect();
    let built = build_table_stats(&int_table(&old), "t", &opts(0.2), 3).expect("analyze succeeds");

    // 3 000 new rows on a 1 000-row base: stale ratio 0.75 > 0.5.
    let mut grown = old.clone();
    grown.extend((0..3_000).map(|i| 500_000 + i as i64));
    let (fresh, outcome) =
        refresh_table_stats(&int_table(&grown), &built, &RefreshPolicy::default())
            .expect("refresh succeeds");
    assert_eq!(
        outcome,
        RefreshOutcome::FullResample(ResampleReason::StaleRatio),
        "stale ratio 0.75 exceeds the default 0.5 threshold"
    );
    assert_eq!(fresh.rows_at_full_analyze, 4_000);
    assert_eq!(fresh.row_count, 4_000);
    assert_eq!(fresh.increments, 0);
}

/// The sidecar round-trips through a real file: struct-identical,
/// byte-identical on re-serialization, and dropped cleanly.
#[test]
fn stats_sidecar_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("dve_catalog_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t.dvet");

    let values: Vec<i64> = (0..500).map(|i| i % 37).collect();
    let table = int_table(&values);
    save_table(&table, &path).expect("save table");
    let built = build_table_stats(&table, "t", &opts(0.3), 42).expect("analyze succeeds");
    save_table_stats(&built, &path).expect("save stats");

    let loaded = load_table_stats(&path).expect("load stats");
    assert_eq!(loaded, built, "struct round-trip");
    assert_eq!(
        loaded.to_json(),
        built.to_json(),
        "re-serialization is bit-identical"
    );

    // A refreshed sidecar persists and reloads the same way.
    let mut grown = values.clone();
    grown.extend((0..200).map(|i| 90_000 + i as i64));
    let (fresh, _) = refresh_table_stats(&int_table(&grown), &built, &RefreshPolicy::default())
        .expect("refresh succeeds");
    save_table_stats(&fresh, &path).expect("save refreshed stats");
    let reloaded = load_table_stats(&path).expect("reload stats");
    assert_eq!(reloaded, fresh);
    assert_eq!(reloaded.to_json(), fresh.to_json());

    std::fs::remove_file(stats_path_for(&path)).expect("sidecar exists");
    assert!(load_table_stats(&path).is_err(), "dropped sidecar is gone");
    std::fs::remove_dir_all(&dir).ok();
}

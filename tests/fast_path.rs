//! Integration contract of the ingest fast paths: dictionary/RLE-aware
//! counting, null-run skipping, and pre-sized open-addressing builders
//! must be invisible at the API surface. Every test pins the fast path
//! to a slow per-row reference (or to serial execution) across the
//! storage → core crate boundary, on a table that mixes all the chunk
//! encodings the fast paths specialize on.

use distinct_values::core::spectrum::{Spectrum, SpectrumBuilder};
use distinct_values::numeric::rng::Rng;
use distinct_values::storage::{
    analyze_table_jobs, AnalyzeOptions, Column, DataType, Field, Schema, Table,
};

/// A table hitting every counting fast path at once: sorted duplicates
/// (RLE chunks), unsorted low cardinality (dictionary chunks), sorted
/// duplicates with whole null runs (RLE + null skipping), scrambled
/// near-unique values (plain chunks), and categorical strings (the
/// dictionary-coded `Str` path).
fn mixed_table(rows: usize) -> Table {
    let rle: Vec<i64> = (0..rows).map(|i| (i / 48) as i64).collect();
    let dict: Vec<i64> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 83) as i64)
        .collect();
    let nullable: Vec<Option<i64>> = (0..rows)
        .map(|i| {
            if (i / 96) % 7 == 0 {
                None
            } else {
                Some((i / 48) as i64)
            }
        })
        .collect();
    let plain: Vec<i64> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 5) as i64)
        .collect();
    let strs: Vec<String> = (0..rows).map(|i| format!("s{:02}", i % 41)).collect();
    Table::new(
        Schema::new(vec![
            Field::new("rle_sorted", DataType::Int64),
            Field::new("dict_lowcard", DataType::Int64),
            Field::nullable("rle_nullable", DataType::Int64),
            Field::new("plain_unique", DataType::Int64),
            Field::new("str_categorical", DataType::Str),
        ]),
        vec![
            Column::from_i64(&rle),
            Column::from_i64(&dict),
            Column::from_i64_opt(&nullable),
            Column::from_i64(&plain),
            Column::from_strs(&strs),
        ],
    )
    .expect("mixed columns share one length")
}

/// An unsorted, duplicate-free row pick — the shape `count_sampled_rows`
/// receives from the without-replacement sampler (which emits indices in
/// partial-shuffle order, not ascending).
fn scrambled_rows(rows: usize, stride: usize) -> Vec<u64> {
    (0..rows).map(|i| ((i * stride) % rows) as u64).collect()
}

/// The headline contract: ANALYZE statistics over the mixed-encoding
/// table are bit-identical at any job count — fast paths, per-chunk
/// builders, and the `absorb` merge cannot perturb a single bit of any
/// estimate or interval.
///
/// The sample must be large enough that the parallel runs really split
/// rows. ANALYZE makes `ceil(jobs / 5)` row chunks per column here,
/// each at least 4 096 rows, out of `r = 0.5 · 30 000 = 15 000` sampled
/// rows: jobs 2 and 4 give one chunk per column, jobs 7 gives 2 chunks
/// of 7 500, and jobs 16 gives 4 chunks of at most 4 096.
#[test]
fn analyze_on_mixed_encodings_is_bit_identical_across_jobs() {
    let table = mixed_table(30_000);
    let options = AnalyzeOptions {
        sampling_fraction: 0.5,
        ..AnalyzeOptions::default()
    };
    let mut rng = Rng::seed_from_u64(17);
    let serial = analyze_table_jobs(&table, &options, 1, &mut rng).unwrap();
    for jobs in [2, 4, 7, 16] {
        let mut rng = Rng::seed_from_u64(17);
        let parallel = analyze_table_jobs(&table, &options, jobs, &mut rng).unwrap();
        assert_eq!(serial, parallel, "ANALYZE diverged at jobs={jobs}");
    }
}

/// Fast-path counting equals the slow per-row reference on every
/// column: same null count, same spectrum, for a scrambled WOR-shaped
/// row pick.
#[test]
fn fast_path_counting_matches_per_row_hashing_on_every_column() {
    let rows = 10_000;
    let table = mixed_table(rows);
    // gcd(7, 10_000) = 1, so the pick visits each row exactly once, out
    // of order.
    let picked = scrambled_rows(rows, 7);
    for (idx, field) in table.schema().fields().iter().enumerate() {
        let column = table.column(idx);

        // Slow reference: hash every picked row individually.
        let mut slow_counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut slow_nulls = 0u64;
        for &row in &picked {
            match column.hash_code(row as usize) {
                Some(h) => *slow_counts.entry(h).or_insert(0) += 1,
                None => slow_nulls += 1,
            }
        }
        let slow_spectrum =
            Spectrum::from_sample_counts(rows as u64, slow_counts.into_values()).unwrap();

        // Fast path: the exact call sequence ANALYZE uses.
        let mut builder = match column.distinct_hint() {
            Some(d) => SpectrumBuilder::with_capacity(d.min(picked.len())),
            None => SpectrumBuilder::new(),
        };
        let fast_nulls = column.count_sampled_rows(&picked, &mut builder);
        let fast_spectrum = builder.finish_with_table_rows(rows as u64).unwrap();

        assert_eq!(
            fast_nulls, slow_nulls,
            "null count diverged on {}",
            field.name
        );
        assert_eq!(
            fast_spectrum, slow_spectrum,
            "spectrum diverged on {}",
            field.name
        );
    }
}

/// `exact_distinct`'s encoding-aware shortcuts (dense `Str` bitmap,
/// integer candidate sets) agree with the hash-everything reference.
#[test]
fn exact_distinct_fast_paths_match_hashing_reference() {
    let table = mixed_table(5_000);
    for (idx, field) in table.schema().fields().iter().enumerate() {
        let column = table.column(idx);
        let reference: std::collections::HashSet<u64> =
            column.hash_codes().into_iter().flatten().collect();
        assert_eq!(
            column.exact_distinct(),
            reference.len() as u64,
            "exact_distinct diverged on {}",
            field.name
        );
    }
}

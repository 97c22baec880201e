//! Typed, chunk-encoded columns with null support.
//!
//! * `Int64` columns are split into fixed-size chunks, each adaptively
//!   encoded (plain / RLE / dictionary — see [`crate::encoding`]);
//! * `Str` columns are globally dictionary-encoded;
//! * `Float64` and `Bool` columns are plain.
//!
//! Every column supports O(1)-ish point access ([`Column::get`]) and a
//! stable per-row 64-bit **value hash** ([`Column::hash_code`]) that the
//! sampling/ANALYZE layer uses: equal values hash equal, NULLs are
//! excluded (`None`), and the hash is deterministic across runs so
//! experiments are reproducible.

use crate::encoding::IntEncoding;
use crate::value::{DataType, Value};
use dve_core::hash::{hash_bytes, mix64, FastSet};
use dve_core::spectrum::SpectrumBuilder;

/// Rows per encoded chunk of an `Int64` column.
pub const CHUNK_ROWS: usize = 65_536;

/// Validity mask: `None` means all rows valid.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullMask {
    /// `true` = null at that row. Empty/absent = no nulls.
    nulls: Option<Vec<bool>>,
}

impl NullMask {
    /// A mask with no nulls.
    pub fn none() -> Self {
        Self { nulls: None }
    }

    /// Builds from a per-row null flag vector, dropping it if all-false.
    pub fn from_flags(flags: Vec<bool>) -> Self {
        if flags.iter().any(|&b| b) {
            Self { nulls: Some(flags) }
        } else {
            Self { nulls: None }
        }
    }

    /// Whether `row` is null.
    pub fn is_null(&self, row: usize) -> bool {
        self.nulls.as_ref().is_some_and(|v| v[row])
    }

    /// Number of nulls.
    pub fn null_count(&self) -> u64 {
        self.nulls
            .as_ref()
            .map_or(0, |v| v.iter().filter(|&&b| b).count() as u64)
    }
}

/// A column of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Chunk-encoded 64-bit integers.
    Int64 {
        /// Encoded chunks of up to [`CHUNK_ROWS`] rows.
        chunks: Vec<IntEncoding>,
        /// Validity mask.
        nulls: NullMask,
        /// Total rows.
        len: usize,
    },
    /// Plain 64-bit floats.
    Float64 {
        /// Row values (garbage at null rows).
        data: Vec<f64>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Globally dictionary-encoded strings.
    Str {
        /// Per-row dictionary codes (garbage at null rows).
        codes: Vec<u32>,
        /// Distinct strings in first-appearance order.
        dict: Vec<String>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Plain booleans.
    Bool {
        /// Row values (garbage at null rows).
        data: Vec<bool>,
        /// Validity mask.
        nulls: NullMask,
    },
}

impl Column {
    /// Builds an `Int64` column (no nulls).
    pub fn from_i64(values: &[i64]) -> Self {
        let chunks = values.chunks(CHUNK_ROWS).map(IntEncoding::encode).collect();
        Column::Int64 {
            chunks,
            nulls: NullMask::none(),
            len: values.len(),
        }
    }

    /// Builds an `Int64` column from optional values (None = NULL; NULL
    /// rows are stored as 0 under the mask).
    pub fn from_i64_opt(values: &[Option<i64>]) -> Self {
        let raw: Vec<i64> = values.iter().map(|v| v.unwrap_or(0)).collect();
        let flags: Vec<bool> = values.iter().map(|v| v.is_none()).collect();
        let chunks = raw.chunks(CHUNK_ROWS).map(IntEncoding::encode).collect();
        Column::Int64 {
            chunks,
            nulls: NullMask::from_flags(flags),
            len: values.len(),
        }
    }

    /// Builds an `Int64` column from unsigned generator output (datagen
    /// columns are `Vec<u64>` with values far below `i64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if any value exceeds `i64::MAX`.
    pub fn from_u64(values: &[u64]) -> Self {
        let signed: Vec<i64> = values
            .iter()
            .map(|&v| i64::try_from(v).expect("value exceeds i64::MAX"))
            .collect();
        Self::from_i64(&signed)
    }

    /// Builds a `Float64` column (no nulls).
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64 {
            data: values,
            nulls: NullMask::none(),
        }
    }

    /// Builds a `Str` column (no nulls), dictionary-encoding the input.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let s = v.as_ref();
            if let Some(&c) = index.get(s) {
                codes.push(c);
            } else {
                let c = dict.len() as u32;
                dict.push(s.to_string());
                codes.push(c);
                // The key borrows from the caller's slice, which outlives
                // this loop.
                index.insert(s, c);
            }
        }
        Column::Str {
            codes,
            dict,
            nulls: NullMask::none(),
        }
    }

    /// Builds a `Str` column from optional strings (None = NULL).
    pub fn from_strs_opt(values: &[Option<&str>]) -> Self {
        let flags: Vec<bool> = values.iter().map(|v| v.is_none()).collect();
        let filled: Vec<&str> = values.iter().map(|v| v.unwrap_or("")).collect();
        let Column::Str { codes, dict, .. } = Self::from_strs(&filled) else {
            unreachable!("from_strs always builds Str");
        };
        Column::Str {
            codes,
            dict,
            nulls: NullMask::from_flags(flags),
        }
    }

    /// Builds a `Bool` column (no nulls).
    pub fn from_bools(values: Vec<bool>) -> Self {
        Column::Bool {
            data: values,
            nulls: NullMask::none(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { len, .. } => *len,
            Column::Float64 { data, .. } => data.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Bool { data, .. } => data.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Str { .. } => DataType::Str,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> u64 {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Bool { nulls, .. } => nulls.null_count(),
        }
    }

    /// Whether `row` is NULL.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn is_null(&self, row: usize) -> bool {
        assert!(row < self.len(), "row {row} out of range");
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Bool { nulls, .. } => nulls.is_null(row),
        }
    }

    /// Point access.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn get(&self, row: usize) -> Value {
        assert!(row < self.len(), "row {row} out of range");
        if self.is_null(row) {
            return Value::Null;
        }
        match self {
            Column::Int64 { chunks, .. } => {
                Value::Int64(chunks[row / CHUNK_ROWS].get(row % CHUNK_ROWS))
            }
            Column::Float64 { data, .. } => Value::Float64(data[row]),
            Column::Str { codes, dict, .. } => Value::Str(dict[codes[row] as usize].clone()),
            Column::Bool { data, .. } => Value::Bool(data[row]),
        }
    }

    /// A deterministic 64-bit hash of the value at `row`; `None` for
    /// NULL. Equal values hash equal. Numeric/bool values go through the
    /// **bijective** [`dve_core::hash::mix64`], so two distinct values
    /// never collide; strings go through [`dve_core::hash::hash_bytes`]
    /// and collide with probability ~2⁻⁶⁴ (irrelevant next to sampling
    /// error, noted in DESIGN.md).
    pub fn hash_code(&self, row: usize) -> Option<u64> {
        assert!(row < self.len(), "row {row} out of range");
        if self.is_null(row) {
            return None;
        }
        Some(match self {
            Column::Int64 { chunks, .. } => {
                mix64(chunks[row / CHUNK_ROWS].get(row % CHUNK_ROWS) as u64)
            }
            Column::Float64 { data, .. } => mix64(normalize_f64_bits(data[row])),
            // The string's bytes identify it; fold in nothing else so
            // equal strings hash equal across columns and dictionaries.
            Column::Str { codes, dict, .. } => hash_bytes(dict[codes[row] as usize].as_bytes()),
            Column::Bool { data, .. } => mix64(u64::from(data[row])),
        })
    }

    /// All row hashes (None = NULL) — the input to sampling-free
    /// full-scan estimation checks.
    pub fn hash_codes(&self) -> Vec<Option<u64>> {
        (0..self.len()).map(|row| self.hash_code(row)).collect()
    }

    /// A cheap upper bound on the column's distinct non-NULL values,
    /// read off the encoding metadata: dictionary length for `Str`,
    /// summed per-chunk encoding bounds for `Int64`, 2 for `Bool`.
    /// `None` when nothing better than the row count is known. Used to
    /// pre-size counting tables so the observe loop never reallocates.
    pub fn distinct_hint(&self) -> Option<usize> {
        match self {
            Column::Str { dict, .. } => Some(dict.len()),
            Column::Int64 { chunks, len, .. } => Some(
                chunks
                    .iter()
                    .map(|c| c.distinct_upper_bound())
                    .sum::<usize>()
                    .min(*len),
            ),
            Column::Bool { .. } => Some(2),
            Column::Float64 { .. } => None,
        }
    }

    /// Counts the sampled `rows` (global row indices, any order, repeats
    /// allowed) into `builder`, returning the number of NULL sampled
    /// rows — the ingest hot path behind ANALYZE.
    ///
    /// Produces exactly the same multiset of `(hash, count)`
    /// observations as the per-row loop over [`Column::hash_code`] /
    /// `observe`, hence a bit-identical finished spectrum — but takes
    /// the fastest route the storage layout allows:
    ///
    /// * `Str`: one dense `Vec<u64>` indexed by dictionary code — no
    ///   hashing per row; each *distinct sampled* string is hashed once;
    /// * `Int64`: rows are sorted (counting commutes, so reordering is
    ///   free) and walked chunk by chunk via
    ///   [`IntEncoding::for_each_group`] — RLE runs and dictionary codes
    ///   become single `observe_count` calls;
    /// * NULL rows (and whole NULL runs) are skipped, never hashed;
    /// * `Float64`/`Bool` fall back to the per-row loop, which their
    ///   plain layout already serves well.
    pub fn count_sampled_rows(&self, rows: &[u64], builder: &mut SpectrumBuilder) -> u64 {
        match self {
            Column::Str { codes, dict, nulls } => {
                let mut counts = vec![0u64; dict.len()];
                let mut null_rows = 0u64;
                for &row in rows {
                    if nulls.is_null(row as usize) {
                        null_rows += 1;
                    } else {
                        counts[codes[row as usize] as usize] += 1;
                    }
                }
                for (code, &count) in counts.iter().enumerate() {
                    if count > 0 {
                        builder.observe_count(hash_bytes(dict[code].as_bytes()), count);
                    }
                }
                null_rows
            }
            Column::Int64 { chunks, nulls, .. } => {
                let mut null_rows = 0u64;
                let mut sorted: Vec<u64> = Vec::with_capacity(rows.len());
                for &row in rows {
                    if nulls.is_null(row as usize) {
                        null_rows += 1;
                    } else {
                        sorted.push(row);
                    }
                }
                sorted.sort_unstable();
                let mut offsets: Vec<u32> = Vec::new();
                let mut i = 0usize;
                while i < sorted.len() {
                    let chunk_idx = (sorted[i] / CHUNK_ROWS as u64) as usize;
                    let base = (chunk_idx * CHUNK_ROWS) as u64;
                    let end = base + CHUNK_ROWS as u64;
                    offsets.clear();
                    while i < sorted.len() && sorted[i] < end {
                        offsets.push((sorted[i] - base) as u32);
                        i += 1;
                    }
                    chunks[chunk_idx].for_each_group(&offsets, |v, count| {
                        builder.observe_count(mix64(v as u64), count);
                    });
                }
                null_rows
            }
            _ => {
                let mut null_rows = 0u64;
                for &row in rows {
                    match self.hash_code(row as usize) {
                        Some(h) => builder.observe(h),
                        None => null_rows += 1,
                    }
                }
                null_rows
            }
        }
    }

    /// Exact number of distinct non-NULL values (full scan; the ground
    /// truth the estimators are judged against).
    ///
    /// Telemetry: counts scanned rows in `storage.scan.rows` and times
    /// the scan as the `storage.scan` span.
    pub fn exact_distinct(&self) -> u64 {
        fn scan_rows() -> &'static std::sync::Arc<dve_obs::Counter> {
            static C: std::sync::OnceLock<std::sync::Arc<dve_obs::Counter>> =
                std::sync::OnceLock::new();
            C.get_or_init(|| dve_obs::global().counter("storage.scan.rows"))
        }
        scan_rows().add(self.len() as u64);
        let _span = dve_obs::trace::span("storage.scan");
        match self {
            Column::Str { codes, dict, nulls } => {
                if nulls.null_count() == 0 {
                    dict.len() as u64
                } else {
                    // Dense code bitmap: one byte per dictionary entry
                    // beats hashing every row.
                    let mut used = vec![false; dict.len()];
                    for (row, &c) in codes.iter().enumerate() {
                        if !nulls.is_null(row) {
                            used[c as usize] = true;
                        }
                    }
                    used.iter().filter(|&&u| u).count() as u64
                }
            }
            Column::Int64 { chunks, nulls, .. } if nulls.null_count() == 0 => {
                // Union the encodings' candidate values — for RLE/dict
                // chunks this touches runs/dictionaries, not rows.
                let mut set: FastSet<i64> = FastSet::default();
                for chunk in chunks {
                    set.extend(chunk.distinct_candidates().iter().copied());
                }
                set.len() as u64
            }
            _ => {
                let mut set: FastSet<u64> = FastSet::default();
                set.extend(self.hash_codes().into_iter().flatten());
                set.len() as u64
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::Int64 { chunks, .. } => chunks.iter().map(|c| c.memory_bytes()).sum(),
            Column::Float64 { data, .. } => data.len() * 8,
            Column::Str { codes, dict, .. } => {
                codes.len() * 4 + dict.iter().map(|s| s.len() + 24).sum::<usize>()
            }
            Column::Bool { data, .. } => data.len(),
        }
    }
}

/// The same deterministic 64-bit hash [`Column::hash_code`] computes,
/// but for a free-standing [`Value`] — the bridge that lets the
/// statistics catalog look a predicate's literal up in a hash-keyed
/// MCV list. `None` for [`Value::Null`]. Guaranteed to agree with
/// `hash_code` for every value a column can store (tested).
pub fn value_hash(value: &Value) -> Option<u64> {
    Some(match value {
        Value::Null => return None,
        Value::Int64(v) => mix64(*v as u64),
        Value::Float64(v) => mix64(normalize_f64_bits(*v)),
        Value::Str(s) => hash_bytes(s.as_bytes()),
        Value::Bool(b) => mix64(u64::from(*b)),
    })
}

/// Normalizes a float to hashable bits: -0.0 folds into 0.0 and all
/// NaNs into one bit pattern, so equal (`==`) floats hash equal and
/// NaNs form a single counted class.
#[inline]
fn normalize_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        u64::MAX
    } else {
        v.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip_across_chunks() {
        let values: Vec<i64> = (0..(CHUNK_ROWS as i64 * 2 + 100))
            .map(|i| i % 1000)
            .collect();
        let col = Column::from_i64(&values);
        assert_eq!(col.len(), values.len());
        assert_eq!(col.data_type(), DataType::Int64);
        for &row in &[
            0usize,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            values.len() - 1,
        ] {
            assert_eq!(col.get(row), Value::Int64(values[row]), "row {row}");
        }
        assert_eq!(col.exact_distinct(), 1000);
    }

    #[test]
    fn nullable_int_column() {
        let col = Column::from_i64_opt(&[Some(1), None, Some(1), Some(2), None]);
        assert_eq!(col.null_count(), 2);
        assert!(col.is_null(1));
        assert!(!col.is_null(0));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(3), Value::Int64(2));
        assert_eq!(col.hash_code(1), None);
        // Distinct counts non-null values only: {1, 2}.
        assert_eq!(col.exact_distinct(), 2);
    }

    #[test]
    fn str_column_dictionary() {
        let col = Column::from_strs(&["ny", "sf", "ny", "la", "sf", "ny"]);
        assert_eq!(col.len(), 6);
        assert_eq!(col.exact_distinct(), 3);
        assert_eq!(col.get(0), Value::Str("ny".into()));
        assert_eq!(col.get(3), Value::Str("la".into()));
        // Equal strings hash equal, different differ.
        assert_eq!(col.hash_code(0), col.hash_code(2));
        assert_ne!(col.hash_code(0), col.hash_code(1));
    }

    #[test]
    fn nullable_str_column_distinct_ignores_nulls() {
        let col = Column::from_strs_opt(&[Some("a"), None, Some("b"), Some("a"), None]);
        assert_eq!(col.null_count(), 2);
        assert_eq!(col.exact_distinct(), 2);
        assert_eq!(col.get(1), Value::Null);
    }

    #[test]
    fn float_column_hash_semantics() {
        let col = Column::from_f64(vec![0.0, -0.0, 1.5, f64::NAN, f64::NAN]);
        // 0.0 and -0.0 are equal values → equal hashes.
        assert_eq!(col.hash_code(0), col.hash_code(1));
        // NaNs are normalized to a single class for counting purposes.
        assert_eq!(col.hash_code(3), col.hash_code(4));
        assert_ne!(col.hash_code(0), col.hash_code(2));
        assert_eq!(col.exact_distinct(), 3); // {0.0, 1.5, NaN}
    }

    #[test]
    fn bool_column() {
        let col = Column::from_bools(vec![true, false, true]);
        assert_eq!(col.exact_distinct(), 2);
        assert_eq!(col.get(1), Value::Bool(false));
        assert_eq!(col.data_type(), DataType::Bool);
    }

    #[test]
    fn from_u64_generator_output() {
        let col = Column::from_u64(&[5, 5, 9]);
        assert_eq!(col.get(2), Value::Int64(9));
        assert_eq!(col.exact_distinct(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        Column::from_i64(&[1]).get(1);
    }

    #[test]
    fn int_hashes_identify_values() {
        let col = Column::from_i64(&[7, 8, 7, 7]);
        assert_eq!(col.hash_code(0), col.hash_code(2));
        assert_eq!(col.hash_code(0), col.hash_code(3));
        assert_ne!(col.hash_code(0), col.hash_code(1));
    }

    #[test]
    fn memory_reflects_encoding_wins() {
        let clustered: Vec<i64> = (0..10_000).map(|i| i / 2_500).collect();
        let unique: Vec<i64> = (0..10_000).collect();
        let c1 = Column::from_i64(&clustered);
        let c2 = Column::from_i64(&unique);
        assert!(c1.memory_bytes() < c2.memory_bytes() / 10);
    }

    /// The reference slow path: per-row hash_code → observe.
    fn count_slow(col: &Column, rows: &[u64]) -> (SpectrumBuilder, u64) {
        let mut b = SpectrumBuilder::new();
        let mut nulls = 0u64;
        for &row in rows {
            match col.hash_code(row as usize) {
                Some(h) => b.observe(h),
                None => nulls += 1,
            }
        }
        (b, nulls)
    }

    /// Fast path ≡ slow path: identical finished spectrum and null count.
    fn assert_fast_equals_slow(col: &Column, rows: &[u64]) {
        let (slow, slow_nulls) = count_slow(col, rows);
        let mut fast = SpectrumBuilder::new();
        let fast_nulls = col.count_sampled_rows(rows, &mut fast);
        assert_eq!(fast_nulls, slow_nulls);
        assert_eq!(fast.sampled_rows(), slow.sampled_rows());
        assert_eq!(fast.distinct_observed(), slow.distinct_observed());
        let n = (col.len() as u64).max(fast.sampled_rows()).max(1);
        match (
            fast.finish_with_table_rows(n),
            slow.finish_with_table_rows(n),
        ) {
            (Ok(f), Ok(s)) => assert_eq!(f, s),
            (Err(f), Err(s)) => assert_eq!(f, s),
            other => panic!("fast/slow disagree on error-ness: {other:?}"),
        }
    }

    #[test]
    fn fast_path_matches_slow_path_on_every_column_kind() {
        // Unsorted, repeating, boundary-crossing row picks.
        let pick = |len: usize| -> Vec<u64> {
            (0..len as u64)
                .map(|i| (i * 2_654_435_761) % len as u64)
                .chain([0, (len - 1) as u64, 0])
                .collect()
        };

        // Int64 spanning 3 chunks with mixed encodings: sorted dup runs
        // (RLE), low-card shuffle (dict), unique tail (plain).
        let mut ints: Vec<i64> = (0..CHUNK_ROWS as i64).map(|i| i / 8_192).collect();
        ints.extend((0..CHUNK_ROWS as i64).map(|i| (i * 7) % 13));
        ints.extend((0..1_000).map(|i| 1_000_000 + i));
        let int_col = Column::from_i64(&ints);
        assert_fast_equals_slow(&int_col, &pick(ints.len()));

        // Nullable Int64 with whole null stretches.
        let opt: Vec<Option<i64>> = (0..20_000i64)
            .map(|i| {
                if (i / 100) % 3 == 0 {
                    None
                } else {
                    Some(i % 50)
                }
            })
            .collect();
        let null_col = Column::from_i64_opt(&opt);
        assert_fast_equals_slow(&null_col, &pick(opt.len()));

        // Str with nulls — the dense dictionary-code path.
        let strs: Vec<Option<&str>> = ["ny", "sf", "la", "ny"]
            .into_iter()
            .cycle()
            .take(5_000)
            .enumerate()
            .map(|(i, s)| if i % 11 == 0 { None } else { Some(s) })
            .collect::<Vec<_>>();
        let str_col = Column::from_strs_opt(&strs);
        assert_fast_equals_slow(&str_col, &pick(strs.len()));

        // Float64 and Bool fall back to the per-row loop.
        let float_col = Column::from_f64((0..3_000).map(|i| (i % 17) as f64 / 3.0).collect());
        assert_fast_equals_slow(&float_col, &pick(3_000));
        let bool_col = Column::from_bools((0..500).map(|i| i % 3 == 0).collect());
        assert_fast_equals_slow(&bool_col, &pick(500));
    }

    #[test]
    fn fast_path_handles_empty_and_all_null() {
        let col = Column::from_i64_opt(&vec![None; 64]);
        let mut b = SpectrumBuilder::new();
        assert_eq!(col.count_sampled_rows(&[], &mut b), 0);
        let rows: Vec<u64> = (0..64).collect();
        assert_eq!(col.count_sampled_rows(&rows, &mut b), 64);
        assert_eq!(b.sampled_rows(), 0);
    }

    #[test]
    fn distinct_hints_bound_truth() {
        let int_col = Column::from_i64(&(0..10_000i64).map(|i| i / 100).collect::<Vec<_>>());
        let hint = int_col.distinct_hint().unwrap();
        assert!(hint as u64 >= int_col.exact_distinct());
        assert!(hint <= int_col.len());
        let str_col = Column::from_strs(&["a", "b", "a"]);
        assert_eq!(str_col.distinct_hint(), Some(2));
        assert_eq!(Column::from_bools(vec![true]).distinct_hint(), Some(2));
        assert_eq!(Column::from_f64(vec![1.0]).distinct_hint(), None);
    }

    #[test]
    fn exact_distinct_fast_paths_agree_with_hashing() {
        // Mixed-encoding int column, with and without nulls.
        let mut vals: Vec<i64> = (0..70_000i64).map(|i| i / 1_000).collect();
        vals.extend(0..5_000);
        let col = Column::from_i64(&vals);
        let set: std::collections::HashSet<i64> = vals.iter().copied().collect();
        assert_eq!(col.exact_distinct(), set.len() as u64);

        let opt: Vec<Option<i64>> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 5 == 0 { None } else { Some(v) })
            .collect();
        let null_col = Column::from_i64_opt(&opt);
        let null_set: std::collections::HashSet<i64> = opt.iter().copied().flatten().collect();
        assert_eq!(null_col.exact_distinct(), null_set.len() as u64);
    }

    #[test]
    fn empty_column() {
        let col = Column::from_i64(&[]);
        assert!(col.is_empty());
        assert_eq!(col.exact_distinct(), 0);
        assert_eq!(col.null_count(), 0);
    }

    /// [`value_hash`] must agree with [`Column::hash_code`] for every
    /// value every column type can store — the statistics catalog uses
    /// it to look predicate literals up in hash-keyed MCV lists built
    /// from `hash_code` output.
    #[test]
    fn value_hash_agrees_with_column_hash_code() {
        let ints: Vec<i64> = vec![i64::MIN, -7, -1, 0, 1, 42, i64::MAX];
        let floats: Vec<f64> = vec![-0.0, 0.0, 1.5, -2.25, f64::NAN, f64::INFINITY];
        let strs: Vec<String> = ["", "a", "répartition", "same", "same"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let bools = vec![true, false, true];
        let columns: Vec<Column> = vec![
            Column::from_i64(&ints),
            Column::from_f64(floats),
            Column::from_strs(&strs),
            Column::from_bools(bools),
            Column::from_i64_opt(&[Some(3), None, Some(3)]),
        ];
        for col in &columns {
            for row in 0..col.len() {
                assert_eq!(
                    value_hash(&col.get(row)),
                    col.hash_code(row),
                    "row {row} of {:?} column",
                    col.data_type()
                );
            }
        }
    }
}

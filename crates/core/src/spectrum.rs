//! The canonical frequency spectrum of a random sample — the sufficient
//! statistic every estimator in this crate consumes, stored sparsely and
//! built to merge.
//!
//! Following the paper's §2: a table column has `n` rows; a uniform
//! random sample of `r` rows is taken; `f_i` is the number of distinct
//! values that occur exactly `i` times in the sample, and `d = Σ f_i` is
//! the number of distinct values observed. The estimators never see raw
//! values — only `(n, r, f₁, f₂, …)`.
//!
//! Two composition levels exist, and they are **not** interchangeable:
//!
//! * [`SpectrumBuilder`] accumulates raw `value → count` observations and
//!   merges at the *value* level. This is the right tool whenever the
//!   same value can appear in more than one chunk (row-chunked scans of
//!   one sample, per-partition accumulation) — counts for a recurring
//!   value add up before the spectrum is formed, so any chunking yields
//!   the exact single-pass spectrum.
//! * [`Spectrum::merge`] combines two *finalized* spectra by adding
//!   `f`-vectors. That is only exact when the shards are value-disjoint
//!   (e.g. hash-partitioned shards of a distributed scan); a value seen
//!   in two shards would be double-counted as two distinct classes.
//!
//! Both operations are associative and commutative, so shard order never
//! changes a result.

use crate::counter::CountTable;
use crate::design::SampleDesign;
use std::collections::HashMap;
use std::hash::Hash;

/// Largest `max_frequency` [`Spectrum::to_dense`] will materialize
/// (2²² entries ≈ 32 MiB of `u64`s). A sparse spectrum with a single
/// class of frequency 10⁹ is three machine words; its dense form is an
/// 8 GB allocation — [`Spectrum::try_to_dense`] refuses past this cap
/// instead of OOMing.
pub const DENSE_CAP: u64 = 1 << 22;

/// Errors raised while constructing a [`Spectrum`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpectrumError {
    /// The sample was empty (`r = 0`); no estimator is defined there.
    EmptySample,
    /// The claimed table size was zero.
    EmptyTable,
    /// The sample describes more rows than the table holds
    /// (`r > n`), impossible under without-replacement sampling and a sign
    /// of mismatched inputs under with-replacement sampling too, since the
    /// paper's sampling fractions never exceed 1.
    SampleLargerThanTable {
        /// Rows implied by the frequency spectrum.
        sample_rows: u64,
        /// Claimed table size.
        table_rows: u64,
    },
    /// More distinct values were observed than the table has rows.
    MoreClassesThanRows {
        /// Distinct values observed in the sample.
        distinct: u64,
        /// Claimed table size.
        table_rows: u64,
    },
    /// Sparse `(i, f_i)` entries handed to [`Spectrum::from_parts`] were
    /// malformed: a zero frequency or count, or out-of-order /
    /// duplicated `i`. Carries the offending entry index.
    MalformedEntries {
        /// Index of the first bad `(i, f_i)` pair.
        index: usize,
    },
    /// A dense materialization was requested for a spectrum whose
    /// `max_frequency` exceeds [`DENSE_CAP`].
    DenseTooLarge {
        /// The spectrum's largest frequency with `f_i > 0`.
        max_frequency: u64,
        /// The cap that was exceeded ([`DENSE_CAP`]).
        cap: u64,
    },
}

impl std::fmt::Display for SpectrumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectrumError::EmptySample => write!(f, "sample is empty (r = 0)"),
            SpectrumError::EmptyTable => write!(f, "table is empty (n = 0)"),
            SpectrumError::SampleLargerThanTable {
                sample_rows,
                table_rows,
            } => write!(
                f,
                "sample has {sample_rows} rows but table only has {table_rows}"
            ),
            SpectrumError::MoreClassesThanRows {
                distinct,
                table_rows,
            } => write!(
                f,
                "sample shows {distinct} distinct values but table only has {table_rows} rows"
            ),
            SpectrumError::MalformedEntries { index } => write!(
                f,
                "sparse spectrum entry {index} is malformed \
                 (needs i ≥ 1, f_i ≥ 1, strictly ascending i)"
            ),
            SpectrumError::DenseTooLarge { max_frequency, cap } => write!(
                f,
                "dense spectrum of max_frequency {max_frequency} exceeds the {cap}-entry cap; \
                 use the sparse iterator instead"
            ),
        }
    }
}

impl std::error::Error for SpectrumError {}

/// The frequency-of-frequencies summary of a sample of `r` rows drawn from
/// a table of `n` rows.
///
/// Invariants maintained by every constructor:
///
/// * `n ≥ 1`, `1 ≤ r ≤ n`;
/// * `Σ i · f_i = r` (the spectrum accounts for every sampled row);
/// * `d = Σ f_i ≤ min(r, n)`.
///
/// The spectrum is stored sparsely as `(i, f_i)` entries with `f_i > 0`,
/// ascending in `i` — a skewed sample whose most frequent class appears
/// a million times costs a handful of entries, not a million-slot dense
/// vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spectrum {
    /// Table size `n`.
    n: u64,
    /// Sample size `r` (= Σ i·f_i).
    r: u64,
    /// Distinct values in the sample `d` (= Σ f_i).
    d: u64,
    /// Sparse `(i, f_i)` entries, ascending in `i`, every `f_i > 0`.
    entries: Vec<(u64, u64)>,
}

impl Spectrum {
    /// Validates sparse entries (already ascending, `f > 0`) against `n`.
    fn from_sparse(n: u64, entries: Vec<(u64, u64)>) -> Result<Self, SpectrumError> {
        if n == 0 {
            return Err(SpectrumError::EmptyTable);
        }
        let mut r: u64 = 0;
        let mut d: u64 = 0;
        for &(i, f) in &entries {
            debug_assert!(i >= 1 && f >= 1, "sparse entries must be positive");
            // Untrusted entries can claim more rows than u64 holds.
            r = i
                .checked_mul(f)
                .and_then(|rows| r.checked_add(rows))
                .ok_or(SpectrumError::SampleLargerThanTable {
                    sample_rows: u64::MAX,
                    table_rows: n,
                })?;
            d += f;
        }
        if r == 0 {
            return Err(SpectrumError::EmptySample);
        }
        if r > n {
            return Err(SpectrumError::SampleLargerThanTable {
                sample_rows: r,
                table_rows: n,
            });
        }
        if d > n {
            return Err(SpectrumError::MoreClassesThanRows {
                distinct: d,
                table_rows: n,
            });
        }
        Ok(Self { n, r, d, entries })
    }

    /// Builds a spectrum from untrusted sparse `(i, f_i)` entries — the
    /// wire-decoding constructor. Unlike the internal fast path, every
    /// entry is checked: `i ≥ 1`, `f_i ≥ 1`, and strictly ascending `i`
    /// (no duplicates), then the usual `(n, r, d)` invariants apply.
    ///
    /// ```
    /// use dve_core::Spectrum;
    /// let s = Spectrum::from_parts(100, vec![(1, 4), (3, 2)]).unwrap();
    /// assert_eq!(s.sample_size(), 10);
    /// assert!(Spectrum::from_parts(100, vec![(3, 2), (1, 4)]).is_err());
    /// ```
    pub fn from_parts(n: u64, entries: Vec<(u64, u64)>) -> Result<Self, SpectrumError> {
        let mut prev = 0u64;
        for (index, &(i, f)) in entries.iter().enumerate() {
            if i <= prev || f == 0 {
                return Err(SpectrumError::MalformedEntries { index });
            }
            prev = i;
        }
        Self::from_sparse(n, entries)
    }

    /// Merges value-disjoint `(spectrum, design)` shards into one
    /// spectrum under one honest combined design — **the** WOR-merge
    /// implementation; the serve `"shards"` mode and the cluster
    /// coordinator both route through here. Spectra add per
    /// [`Spectrum::merge`]; designs fold per [`SampleDesign::merge`]
    /// (all-WOR shards yield `wor(Σ nᵢ)`, any WR shard falls back to the
    /// paper's with-replacement model). Returns `None` for an empty
    /// shard list, and when the shards' spectra or WOR populations sum
    /// past `u64::MAX`.
    pub fn merge_designed(
        shards: impl IntoIterator<Item = (Spectrum, SampleDesign)>,
    ) -> Option<(Spectrum, SampleDesign)> {
        let mut iter = shards.into_iter();
        let (mut spectrum, mut design) = iter.next()?;
        for (s, d) in iter {
            spectrum = spectrum.merge(&s)?;
            design = design.merge(d)?;
        }
        Some((spectrum, design))
    }

    /// Builds a spectrum from the per-class occurrence counts observed in
    /// the sample (one entry per distinct value, its multiplicity in the
    /// sample). Zero counts are ignored, and the result is independent
    /// of input order.
    ///
    /// ```
    /// use dve_core::Spectrum;
    /// // Sample [a, a, a, b, b, c] from a 1000-row table.
    /// let p = Spectrum::from_sample_counts(1000, [3, 2, 1]).unwrap();
    /// assert_eq!(p.sample_size(), 6);
    /// assert_eq!(p.distinct_in_sample(), 3);
    /// assert_eq!(p.f(1), 1);
    /// assert_eq!(p.f(3), 1);
    /// ```
    pub fn from_sample_counts(
        n: u64,
        counts: impl IntoIterator<Item = u64>,
    ) -> Result<Self, SpectrumError> {
        let mut tally = Tally::new();
        for c in counts {
            tally.add(0, c);
        }
        tally.finish(n)
    }

    /// The finish: the spectrum of a count table's counts. It reads the
    /// count slots alone, never the keys, because an empty slot holds
    /// count 0 and the tally ignores zeros. Table order does not matter.
    fn from_count_table(n: u64, table: &CountTable) -> Result<Self, SpectrumError> {
        let (slots, zero_count) = table.count_slots();
        let mut tally = Tally::new();
        let mut groups = slots.chunks_exact(LANES);
        for group in groups.by_ref() {
            for (lane, &c) in group.iter().enumerate() {
                tally.add(lane, c);
            }
        }
        for &c in groups.remainder() {
            tally.add(0, c);
        }
        tally.add(0, zero_count);
        tally.finish(n)
    }

    /// Builds a spectrum directly from a dense frequency vector
    /// (`spectrum[i - 1] = f_i`).
    pub fn from_spectrum(n: u64, spectrum: Vec<u64>) -> Result<Self, SpectrumError> {
        let entries: Vec<(u64, u64)> = spectrum
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(idx, &f)| (idx as u64 + 1, f))
            .collect();
        Self::from_sparse(n, entries)
    }

    /// Builds a spectrum by hashing raw sampled values.
    ///
    /// This is the convenience path examples use; the experiment harness
    /// builds counts in the samplers instead to avoid re-hashing.
    pub fn from_values<V: Hash + Eq>(
        n: u64,
        values: impl IntoIterator<Item = V>,
    ) -> Result<Self, SpectrumError> {
        let mut counts: HashMap<V, u64> = HashMap::new();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        Self::from_sample_counts(n, counts.into_values())
    }

    /// Combines two spectra of **value-disjoint** shards: table sizes,
    /// sample sizes, and `f`-vectors add. Associative and commutative
    /// (each field is a sum), so any shard order yields the same result.
    ///
    /// Only exact when no value occurs in both shards — a value sampled
    /// `a` times in one shard and `b` times in another contributes
    /// `f_a + f_b` here but `f_{a+b}` in a single-pass spectrum. For
    /// chunked ingestion of one logical sample use [`SpectrumBuilder`],
    /// which merges at the value level.
    ///
    /// Returns `None` when the combined table would exceed `u64::MAX`
    /// rows — shard sizes arrive in request bodies, worker frames and
    /// stats sidecars, so the sum is checked.
    ///
    /// ```
    /// use dve_core::Spectrum;
    /// let a = Spectrum::from_spectrum(5_000, vec![20, 15]).unwrap();
    /// let b = Spectrum::from_spectrum(5_000, vec![20, 15]).unwrap();
    /// let whole = a.merge(&b).unwrap();
    /// assert_eq!(whole.table_size(), 10_000);
    /// assert_eq!(whole.sample_size(), 100);
    /// assert_eq!((whole.f(1), whole.f(2)), (40, 30));
    /// ```
    pub fn merge(&self, other: &Spectrum) -> Option<Spectrum> {
        // Each side has r ≤ n and d ≤ n, so one checked Σ n bounds every
        // sum below, f-vector entries included.
        let n = self.n.checked_add(other.n)?;
        let mut entries = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut a, mut b) = (
            self.entries.iter().peekable(),
            other.entries.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, fa)), Some(&&(ib, fb))) => {
                    if ia == ib {
                        entries.push((ia, fa + fb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        entries.push((ia, fa));
                        a.next();
                    } else {
                        entries.push((ib, fb));
                        b.next();
                    }
                }
                (Some(&&e), None) => {
                    entries.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    entries.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        // Two valid spectra sum to a valid one: n₁+n₂ ≥ 1, r₁+r₂ ≤ n₁+n₂,
        // d₁+d₂ ≤ n₁+n₂ — every invariant is preserved by addition.
        Some(Spectrum {
            n,
            r: self.r + other.r,
            d: self.d + other.d,
            entries,
        })
    }

    /// Table size `n`.
    pub fn table_size(&self) -> u64 {
        self.n
    }

    /// Sample size `r`.
    pub fn sample_size(&self) -> u64 {
        self.r
    }

    /// Number of distinct values in the sample, `d`.
    pub fn distinct_in_sample(&self) -> u64 {
        self.d
    }

    /// Sampling fraction `q = r / n`.
    pub fn sampling_fraction(&self) -> f64 {
        self.r as f64 / self.n as f64
    }

    /// `f_i`: the number of values occurring exactly `i` times in the
    /// sample. Returns 0 for `i = 0` and any `i` with no observed class.
    pub fn f(&self, i: u64) -> u64 {
        self.entries
            .binary_search_by_key(&i, |&(j, _)| j)
            .map(|idx| self.entries[idx].1)
            .unwrap_or(0)
    }

    /// Largest frequency with `f_i > 0`.
    pub fn max_frequency(&self) -> u64 {
        self.entries.last().map_or(0, |&(i, _)| i)
    }

    /// Iterates over `(i, f_i)` pairs with `f_i > 0`, ascending in `i` —
    /// the same visit order a dense vector scan produces, so estimator
    /// float accumulations are bit-identical to the dense representation.
    pub fn spectrum(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// The dense spectrum vector (`vec[i-1] = f_i`), trailing zeros
    /// trimmed, refusing spectra whose `max_frequency` exceeds
    /// [`DENSE_CAP`]. A dense vector is O(max frequency) regardless of
    /// how few classes exist, so an adversarial (or merely very skewed)
    /// spectrum could otherwise turn three sparse entries into a
    /// multi-gigabyte allocation.
    pub fn try_to_dense(&self) -> Result<Vec<u64>, SpectrumError> {
        let max = self.max_frequency();
        if max > DENSE_CAP {
            return Err(SpectrumError::DenseTooLarge {
                max_frequency: max,
                cap: DENSE_CAP,
            });
        }
        let mut out = vec![0u64; max as usize];
        for &(i, f) in &self.entries {
            out[(i - 1) as usize] = f;
        }
        Ok(out)
    }

    /// The dense spectrum vector (`vec[i-1] = f_i`), trailing zeros
    /// trimmed. Mostly for tests and dense-format interop.
    ///
    /// # Panics
    ///
    /// If `max_frequency` exceeds [`DENSE_CAP`] — use
    /// [`Spectrum::try_to_dense`] (or stay sparse via
    /// [`Spectrum::spectrum`]) when the input is not trusted small.
    pub fn to_dense(&self) -> Vec<u64> {
        self.try_to_dense()
            .expect("spectrum too skewed for a dense vector")
    }

    /// Number of "rare" classes: distinct values with sample frequency
    /// `≤ cutoff`. Used by DUJ2A-style estimators that treat abundant
    /// classes separately.
    pub fn distinct_with_freq_at_most(&self, cutoff: u64) -> u64 {
        self.spectrum()
            .take_while(|&(i, _)| i <= cutoff)
            .map(|(_, f)| f)
            .sum()
    }

    /// Number of sampled rows contributed by classes with frequency
    /// `≤ cutoff`.
    pub fn rows_with_freq_at_most(&self, cutoff: u64) -> u64 {
        self.spectrum()
            .take_while(|&(i, _)| i <= cutoff)
            .map(|(i, f)| i * f)
            .sum()
    }

    /// Restricts the spectrum to classes with sample frequency `≤ cutoff`,
    /// keeping `n` unchanged and shrinking `r` accordingly. Returns `None`
    /// if no class survives. Used by DUJ2A.
    pub fn restrict_to_freq_at_most(&self, cutoff: u64) -> Option<Self> {
        let entries: Vec<(u64, u64)> = self
            .entries
            .iter()
            .take_while(|&&(i, _)| i <= cutoff)
            .copied()
            .collect();
        Self::from_sparse(self.n, entries).ok()
    }

    /// Per-class counts reconstructed from the spectrum, i.e. a vector with
    /// `f_i` copies of `i`. This is what the χ² uniformity test consumes.
    /// Ascending order; length `d`.
    pub fn class_counts(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.d as usize);
        for (i, f) in self.spectrum() {
            for _ in 0..f {
                out.push(i);
            }
        }
        out
    }
}

/// Frequencies below this are tallied in arrays indexed by the
/// frequency: nearly every class of a real sample.
const DENSE: usize = 64;

/// Interleaved tally arrays. Consecutive counts go to different arrays,
/// so a run of equal counts (empty slots, most of all) does not queue
/// on one memory cell.
const LANES: usize = 4;

/// Counts of counts, the working form of `f_i`. Frequencies below
/// [`DENSE`] go to `lanes[lane][frequency]`; the rarer larger ones go
/// through a [`CountTable`] keyed by the frequency and are sorted into
/// the ascending tail.
struct Tally {
    lanes: [[u64; DENSE]; LANES],
    large: CountTable,
}

impl Tally {
    fn new() -> Self {
        Self {
            lanes: [[0; DENSE]; LANES],
            large: CountTable::new(),
        }
    }

    /// Tallies one class of frequency `c`; `c = 0` is ignored.
    #[inline]
    fn add(&mut self, lane: usize, c: u64) {
        if c < DENSE as u64 {
            self.lanes[lane][c as usize] += 1;
        } else {
            self.large.increment(c);
        }
    }

    /// The spectrum, its entries allocated once at their exact length.
    fn finish(self, n: u64) -> Result<Spectrum, SpectrumError> {
        let mut dense = [0u64; DENSE];
        for lane in &self.lanes {
            for (f, &g) in dense.iter_mut().zip(lane) {
                *f += g;
            }
        }
        // Index 0 holds the ignored zero counts.
        let dense = (1..DENSE as u64).zip(&dense[1..]).filter(|&(_, &f)| f > 0);
        let mut entries = Vec::with_capacity(dense.clone().count() + self.large.len());
        entries.extend(dense.map(|(i, &f)| (i, f)));
        let tail = entries.len();
        entries.extend(self.large.iter());
        entries[tail..].sort_unstable();
        Spectrum::from_sparse(n, entries)
    }
}

/// Incremental, mergeable construction of a [`Spectrum`] from raw
/// `value → count` observations.
///
/// The builder is the value-level composition layer: observations of the
/// same value in different chunks add up before the spectrum is formed,
/// so `merge_from` over any partition of a sample reproduces the
/// single-pass spectrum exactly (addition of counts is associative and
/// commutative). Table rows accumulate separately via
/// [`SpectrumBuilder::add_table_rows`] or are supplied at
/// [`SpectrumBuilder::finish_with_table_rows`].
///
/// ```
/// use dve_core::SpectrumBuilder;
/// let mut a = SpectrumBuilder::new();
/// a.observe(7);
/// a.observe(7);
/// let mut b = SpectrumBuilder::new();
/// b.observe(7);
/// b.observe(9);
/// a.merge_from(&b);
/// let s = a.finish_with_table_rows(100).unwrap();
/// assert_eq!(s.f(3), 1); // value 7 seen 2 + 1 times
/// assert_eq!(s.f(1), 1); // value 9
/// ```
///
/// Internally the builder counts into an open-addressing
/// [`CountTable`] — flat arrays, no SipHash, no per-entry allocation —
/// so the per-row `observe` is a handful of arithmetic ops plus one
/// probe. Pre-size with [`SpectrumBuilder::with_capacity`] when the
/// distinct count is known (dictionary length, column stats, a
/// first-chunk probe) and the observe loop is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SpectrumBuilder {
    counts: CountTable,
    table_rows: u64,
}

impl SpectrumBuilder {
    /// An empty builder (no observations, zero table rows).
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `distinct_hint` distinct values: observing
    /// at most that many distinct hashes never reallocates the counting
    /// table.
    pub fn with_capacity(distinct_hint: usize) -> Self {
        Self {
            counts: CountTable::with_capacity(distinct_hint),
            table_rows: 0,
        }
    }

    /// Records one sampled occurrence of a (hashed) value.
    #[inline]
    pub fn observe(&mut self, value_hash: u64) {
        self.counts.increment(value_hash);
    }

    /// Records `count` sampled occurrences of a (hashed) value at once —
    /// the RLE fast path: a run of `count` equal rows costs one probe.
    /// `count = 0` is a no-op.
    #[inline]
    pub fn observe_count(&mut self, value_hash: u64, count: u64) {
        self.counts.add(value_hash, count);
    }

    /// Adds table rows covered by this builder's chunk (the `n` side of
    /// the spectrum accumulates alongside the counts).
    pub fn add_table_rows(&mut self, rows: u64) {
        self.table_rows += rows;
    }

    /// Table rows accumulated so far.
    pub fn table_rows(&self) -> u64 {
        self.table_rows
    }

    /// Sampled rows observed so far (Σ counts). O(1).
    pub fn sampled_rows(&self) -> u64 {
        self.counts.total()
    }

    /// Distinct values observed so far. O(1). Feed this from a
    /// first-chunk cardinality probe into
    /// [`SpectrumBuilder::with_capacity`] to pre-size sibling chunks.
    pub fn distinct_observed(&self) -> usize {
        self.counts.len()
    }

    /// Iterates the accumulated `(value_hash, count)` pairs in table
    /// order — the raw material for most-common-value lists and sketch
    /// shadows. The order is unspecified: a linear-probing layout
    /// depends on insertion order and chunking, not only on the
    /// observation multiset. Sort before using it for anything stable,
    /// as `dve_storage::catalog::top_k_mcvs` does.
    pub fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter()
    }

    /// Folds another builder's observations into this one at the value
    /// level — counts for values present in both add. Associative and
    /// commutative, so any chunking and merge order of one logical
    /// sample yields the same finished spectrum.
    pub fn merge_from(&mut self, other: &SpectrumBuilder) {
        self.counts.merge_from(&other.counts);
        self.table_rows += other.table_rows;
    }

    /// Consuming merge. Equivalent to [`SpectrumBuilder::merge_from`]
    /// but when `self` is still empty it **moves** `other`'s table
    /// instead of re-counting every entry — folding N per-chunk builders
    /// into an empty accumulator pays for N−1 merges, not N.
    pub fn absorb(&mut self, other: SpectrumBuilder) {
        self.table_rows += other.table_rows;
        self.counts.absorb(other.counts);
    }

    /// Finishes with the accumulated table-row total.
    pub fn finish(&self) -> Result<Spectrum, SpectrumError> {
        self.finish_with_table_rows(self.table_rows)
    }

    /// Finishes against an explicit table size `n` (e.g. a
    /// null-adjusted effective row count), ignoring accumulated rows.
    pub fn finish_with_table_rows(&self, n: u64) -> Result<Spectrum, SpectrumError> {
        Spectrum::from_count_table(n, &self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_basic() {
        let p = Spectrum::from_sample_counts(100, [5, 1, 1, 2]).unwrap();
        assert_eq!(p.sample_size(), 9);
        assert_eq!(p.distinct_in_sample(), 4);
        assert_eq!(p.f(1), 2);
        assert_eq!(p.f(2), 1);
        assert_eq!(p.f(5), 1);
        assert_eq!(p.f(3), 0);
        assert_eq!(p.f(0), 0);
        assert_eq!(p.max_frequency(), 5);
        assert_eq!(p.table_size(), 100);
    }

    #[test]
    fn overflowing_sample_size_is_an_error() {
        // Found by the stats-sidecar mutation fuzzer: a frequency
        // inflated to a huge value made Σ i·f_i overflow.
        for entries in [vec![(1, 4), (u64::MAX, 2)], vec![(1 << 32, 1 << 32)]] {
            assert_eq!(
                Spectrum::from_parts(100, entries),
                Err(SpectrumError::SampleLargerThanTable {
                    sample_rows: u64::MAX,
                    table_rows: 100,
                })
            );
        }
    }

    #[test]
    fn zero_counts_ignored() {
        let p = Spectrum::from_sample_counts(10, [0, 3, 0, 1]).unwrap();
        assert_eq!(p.distinct_in_sample(), 2);
        assert_eq!(p.sample_size(), 4);
    }

    /// `from_sample_counts` tallies frequencies below 64 densely and the
    /// rest in a table; both must agree with a `BTreeMap` tally, zero
    /// counts included (ignored), overflow included (an error).
    #[test]
    fn dense_and_sparse_frequencies_match_a_btreemap() {
        use dve_numeric::check::{check, u64_in, usize_in, vec_of};
        use std::collections::BTreeMap;
        const HALF: u64 = u64::MAX / 2;
        const EDGES: [u64; 8] = [0, 1, 63, 64, 65, HALF - 1, HALF, HALF + 1];
        check(
            "dense_and_sparse_frequencies_match_a_btreemap",
            256,
            |rng| {
                let counts = vec_of(rng, 0..200, |rng| match rng.below(40) {
                    0 => EDGES[usize_in(rng, 5..8)],
                    1..=12 => EDGES[usize_in(rng, 0..5)],
                    _ => u64_in(rng, 0..200),
                });
                let n = match rng.below(2) {
                    0 => u64::MAX,
                    _ => u64_in(rng, 1..20_000),
                };
                let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
                for &c in counts.iter().filter(|&&c| c != 0) {
                    *reference.entry(c).or_insert(0) += 1;
                }
                let rows: u128 = reference
                    .iter()
                    .map(|(&i, &f)| u128::from(i) * u128::from(f))
                    .sum();
                let entries: Vec<(u64, u64)> = reference.into_iter().collect();

                let got = Spectrum::from_sample_counts(n, counts.iter().copied());
                assert_eq!(got, Spectrum::from_parts(n, entries.clone()));
                if rows > u128::from(u64::MAX) {
                    assert_eq!(
                        got,
                        Err(SpectrumError::SampleLargerThanTable {
                            sample_rows: u64::MAX,
                            table_rows: n,
                        })
                    );
                }
                if let Ok(s) = got {
                    assert_eq!(s.spectrum().collect::<Vec<_>>(), entries);
                }
            },
        );

        // Both sides of the boundary in one sample, then an overflow.
        let s = Spectrum::from_sample_counts(1_000, [0, 1, 63, 64, 65, 63, 0]).unwrap();
        let spectrum: Vec<_> = s.spectrum().collect();
        assert_eq!(spectrum, vec![(1, 1), (63, 2), (64, 1), (65, 1)]);
        assert_eq!(
            Spectrum::from_sample_counts(100, [HALF + 1, 3, HALF + 1]),
            Err(SpectrumError::SampleLargerThanTable {
                sample_rows: u64::MAX,
                table_rows: 100,
            })
        );
    }

    /// The finish reads the count slots and the zero key's count alone.
    /// Builders that observed hash 0, whose counts are long runs of 1s or
    /// of 63s, or that hold counts of 64 and above, must finish to the
    /// spectrum of a `BTreeMap` tally of the same observations.
    #[test]
    fn builder_finish_matches_a_btreemap_on_edge_counts() {
        use dve_numeric::check::{check, u64_in, usize_in};
        use dve_numeric::rng::Rng;
        use std::collections::BTreeMap;

        /// A count of one run shape.
        fn count(rng: &mut Rng, shape: u64) -> u64 {
            match shape {
                0 => 1,
                1 => 63,
                2 => u64_in(rng, 64..70),
                3 => u64_in(rng, 64..1 << 40),
                _ => u64_in(rng, 1..128),
            }
        }

        check(
            "builder_finish_matches_a_btreemap_on_edge_counts",
            128,
            |rng| {
                let mut builder = SpectrumBuilder::with_capacity(usize_in(rng, 0..2_000));
                let mut by_key: BTreeMap<u64, u64> = BTreeMap::new();
                for _ in 0..usize_in(rng, 1..6) {
                    let shape = rng.below(5);
                    for _ in 0..usize_in(rng, 0..3_000) {
                        let key = match rng.below(64) {
                            0 => 0,
                            _ => rng.next_u64(),
                        };
                        let c = count(rng, shape);
                        builder.observe_count(key, c);
                        *by_key.entry(key).or_insert(0) += c;
                    }
                }
                let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
                for &c in by_key.values() {
                    *reference.entry(c).or_insert(0) += 1;
                }
                let n = u64::MAX;
                assert_eq!(
                    builder.finish_with_table_rows(n),
                    Spectrum::from_parts(n, reference.into_iter().collect())
                );
            },
        );

        // Hash 0 alone, and hash 0 beside a run of 63s: the out-of-band
        // count goes into the tally like any other.
        let mut b = SpectrumBuilder::new();
        b.observe_count(0, 64);
        assert_eq!(
            b.finish_with_table_rows(100)
                .unwrap()
                .spectrum()
                .collect::<Vec<_>>(),
            vec![(64, 1)]
        );
        for key in 1..=1_000 {
            b.observe_count(key, 63);
        }
        b.observe(0);
        assert_eq!(
            b.finish_with_table_rows(u64::MAX)
                .unwrap()
                .spectrum()
                .collect::<Vec<_>>(),
            vec![(63, 1_000), (65, 1)]
        );
    }

    #[test]
    fn spectrum_roundtrip_and_invariant() {
        let p = Spectrum::from_spectrum(50, vec![3, 0, 2, 0, 0, 1]).unwrap();
        // r = 3·1 + 2·3 + 1·6 = 15, d = 6.
        assert_eq!(p.sample_size(), 15);
        assert_eq!(p.distinct_in_sample(), 6);
        let collected: Vec<_> = p.spectrum().collect();
        assert_eq!(collected, vec![(1, 3), (3, 2), (6, 1)]);
    }

    #[test]
    fn trailing_zeros_trimmed() {
        let p = Spectrum::from_spectrum(50, vec![2, 1, 0, 0]).unwrap();
        assert_eq!(p.max_frequency(), 2);
        assert_eq!(p.to_dense(), vec![2, 1]);
    }

    #[test]
    fn to_dense_restores_interior_zeros() {
        let p = Spectrum::from_spectrum(50, vec![3, 0, 2]).unwrap();
        assert_eq!(p.to_dense(), vec![3, 0, 2]);
    }

    #[test]
    fn from_values_hashes() {
        let p = Spectrum::from_values(1000, ["a", "b", "a", "c", "a"]).unwrap();
        assert_eq!(p.sample_size(), 5);
        assert_eq!(p.distinct_in_sample(), 3);
        assert_eq!(p.f(1), 2);
        assert_eq!(p.f(3), 1);
    }

    #[test]
    fn sampling_fraction() {
        let p = Spectrum::from_sample_counts(200, [1, 1]).unwrap();
        assert!((p.sampling_fraction() - 0.01).abs() < 1e-15);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            Spectrum::from_sample_counts(100, std::iter::empty()),
            Err(SpectrumError::EmptySample)
        );
        assert_eq!(
            Spectrum::from_sample_counts(0, [1u64]),
            Err(SpectrumError::EmptyTable)
        );
        assert!(matches!(
            Spectrum::from_sample_counts(3, [2, 2]),
            Err(SpectrumError::SampleLargerThanTable { .. })
        ));
    }

    #[test]
    fn errors_display() {
        let e = Spectrum::from_sample_counts(3, [2u64, 2]).unwrap_err();
        assert!(e.to_string().contains("sample has 4 rows"));
        assert!(!SpectrumError::EmptySample.to_string().is_empty());
        assert!(!SpectrumError::EmptyTable.to_string().is_empty());
    }

    #[test]
    fn rare_class_helpers() {
        let p = Spectrum::from_spectrum(100, vec![4, 3, 0, 1]).unwrap();
        // f1=4, f2=3, f4=1 → r = 4 + 6 + 4 = 14, d = 8.
        assert_eq!(p.distinct_with_freq_at_most(1), 4);
        assert_eq!(p.distinct_with_freq_at_most(2), 7);
        assert_eq!(p.distinct_with_freq_at_most(10), 8);
        assert_eq!(p.rows_with_freq_at_most(2), 10);
        let rare = p.restrict_to_freq_at_most(2).unwrap();
        assert_eq!(rare.sample_size(), 10);
        assert_eq!(rare.distinct_in_sample(), 7);
        assert_eq!(rare.table_size(), 100);
    }

    #[test]
    fn restrict_everything_away_returns_none() {
        let p = Spectrum::from_spectrum(100, vec![0, 0, 5]).unwrap();
        assert!(p.restrict_to_freq_at_most(2).is_none());
    }

    #[test]
    fn class_counts_reconstruction() {
        let p = Spectrum::from_spectrum(100, vec![2, 1]).unwrap();
        assert_eq!(p.class_counts(), vec![1, 1, 2]);
    }

    #[test]
    fn from_parts_validates_wire_entries() {
        let s = Spectrum::from_parts(100, vec![(1, 4), (3, 2)]).unwrap();
        assert_eq!(s.sample_size(), 10);
        assert_eq!(s.distinct_in_sample(), 6);
        // Out of order, duplicated i, zero f, zero i — all rejected with
        // the offending index.
        assert_eq!(
            Spectrum::from_parts(100, vec![(3, 2), (1, 4)]),
            Err(SpectrumError::MalformedEntries { index: 1 })
        );
        assert_eq!(
            Spectrum::from_parts(100, vec![(2, 1), (2, 1)]),
            Err(SpectrumError::MalformedEntries { index: 1 })
        );
        assert_eq!(
            Spectrum::from_parts(100, vec![(1, 0)]),
            Err(SpectrumError::MalformedEntries { index: 0 })
        );
        assert_eq!(
            Spectrum::from_parts(100, vec![(0, 3)]),
            Err(SpectrumError::MalformedEntries { index: 0 })
        );
        assert!(!Spectrum::from_parts(100, vec![(0, 3)])
            .unwrap_err()
            .to_string()
            .is_empty());
        // Invariants still apply after the shape check.
        assert!(matches!(
            Spectrum::from_parts(3, vec![(2, 2)]),
            Err(SpectrumError::SampleLargerThanTable { .. })
        ));
    }

    #[test]
    fn merge_designed_is_the_canonical_shard_merge() {
        let a = Spectrum::from_spectrum(1_000, vec![4, 0, 2]).unwrap();
        let b = Spectrum::from_spectrum(500, vec![0, 3, 1]).unwrap();
        let (m, design) = Spectrum::merge_designed([
            (a.clone(), SampleDesign::wor(1_000)),
            (b.clone(), SampleDesign::wor(500)),
        ])
        .unwrap();
        assert_eq!(Some(m), a.merge(&b));
        assert_eq!(design, SampleDesign::wor(1_500));
        // One WR shard downgrades the whole merge to the paper model.
        let (_, design) = Spectrum::merge_designed([
            (a.clone(), SampleDesign::wor(1_000)),
            (b.clone(), SampleDesign::WithReplacement),
        ])
        .unwrap();
        assert_eq!(design, SampleDesign::WithReplacement);
        // Single shard passes through; empty list has no merge.
        let (solo, d) = Spectrum::merge_designed([(a.clone(), SampleDesign::wor(1_000))]).unwrap();
        assert_eq!((solo, d), (a.clone(), SampleDesign::wor(1_000)));
        assert!(Spectrum::merge_designed(std::iter::empty()).is_none());
        // Shards whose sizes sum past u64::MAX have no merge either.
        let huge = Spectrum::from_spectrum(u64::MAX, vec![1]).unwrap();
        let small = Spectrum::from_spectrum(2, vec![1]).unwrap();
        assert_eq!(huge.merge(&small), None);
        assert!(Spectrum::merge_designed([
            (huge, SampleDesign::wor(u64::MAX)),
            (small, SampleDesign::wor(2)),
        ])
        .is_none());
        // So do shards whose WOR populations alone overflow.
        assert!(Spectrum::merge_designed([
            (a, SampleDesign::wor(u64::MAX)),
            (b, SampleDesign::wor(1)),
        ])
        .is_none());
    }

    #[test]
    fn full_scan_profile() {
        // r = n is legal: a 100% "sample".
        let p = Spectrum::from_sample_counts(4, [2, 2]).unwrap();
        assert_eq!(p.sample_size(), 4);
        assert_eq!(p.sampling_fraction(), 1.0);
    }

    #[test]
    fn shard_merge_adds_every_field() {
        let a = Spectrum::from_spectrum(1_000, vec![4, 0, 2]).unwrap();
        let b = Spectrum::from_spectrum(500, vec![0, 3, 1]).unwrap();
        let m = a.merge(&b).unwrap();
        assert_eq!(m.table_size(), 1_500);
        assert_eq!(m.sample_size(), a.sample_size() + b.sample_size());
        assert_eq!(m.distinct_in_sample(), 6 + 4);
        assert_eq!(m.to_dense(), vec![4, 3, 3]);
        // Commutes.
        assert_eq!(Some(m), b.merge(&a));
    }

    #[test]
    fn shard_merge_is_associative() {
        let a = Spectrum::from_spectrum(100, vec![2]).unwrap();
        let b = Spectrum::from_spectrum(200, vec![0, 5]).unwrap();
        let c = Spectrum::from_spectrum(300, vec![1, 1, 1]).unwrap();
        let ab_c = a.merge(&b).and_then(|ab| ab.merge(&c));
        assert_eq!(ab_c, b.merge(&c).and_then(|bc| a.merge(&bc)));
    }

    #[test]
    fn builder_matches_one_shot_for_any_chunking() {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 7) % 61).collect();
        let mut one_shot = SpectrumBuilder::new();
        for &v in &values {
            one_shot.observe(v);
        }
        let single = one_shot.finish_with_table_rows(5_000).unwrap();
        for chunk_size in [1usize, 3, 100, 499, 500] {
            let mut merged = SpectrumBuilder::new();
            for chunk in values.chunks(chunk_size) {
                let mut b = SpectrumBuilder::new();
                for &v in chunk {
                    b.observe(v);
                }
                merged.merge_from(&b);
            }
            assert_eq!(
                merged.finish_with_table_rows(5_000).unwrap(),
                single,
                "chunk_size={chunk_size}"
            );
        }
    }

    #[test]
    fn dense_materialization_is_capped() {
        // One class sampled DENSE_CAP + 1 times: three sparse words, but
        // a dense vector would be 32 MiB + 8 bytes. Must refuse, not
        // allocate.
        let skewed = Spectrum::from_sample_counts(DENSE_CAP + 2, [DENSE_CAP + 1]).unwrap();
        assert_eq!(
            skewed.try_to_dense(),
            Err(SpectrumError::DenseTooLarge {
                max_frequency: DENSE_CAP + 1,
                cap: DENSE_CAP,
            })
        );
        assert!(!skewed.try_to_dense().unwrap_err().to_string().is_empty());
        // In-cap spectra round-trip unchanged.
        let small = Spectrum::from_spectrum(50, vec![3, 0, 2]).unwrap();
        assert_eq!(small.try_to_dense().unwrap(), vec![3, 0, 2]);
    }

    #[test]
    fn absorb_equals_merge_from() {
        let mut chunks = Vec::new();
        for c in 0..4u64 {
            let mut b = SpectrumBuilder::new();
            for i in 0..200u64 {
                b.observe((c * 50 + i) % 131);
            }
            b.add_table_rows(1_000);
            chunks.push(b);
        }
        let mut by_ref = SpectrumBuilder::new();
        for b in &chunks {
            by_ref.merge_from(b);
        }
        let mut by_move = SpectrumBuilder::new();
        for b in chunks {
            by_move.absorb(b);
        }
        assert_eq!(by_move.table_rows(), 4_000);
        assert_eq!(by_move.sampled_rows(), by_ref.sampled_rows());
        assert_eq!(by_move.distinct_observed(), by_ref.distinct_observed());
        assert_eq!(by_move.finish().unwrap(), by_ref.finish().unwrap());
    }

    #[test]
    fn with_capacity_builder_matches_default() {
        let mut sized = SpectrumBuilder::with_capacity(64);
        let mut plain = SpectrumBuilder::new();
        for i in 0..5_000u64 {
            let h = i % 61;
            sized.observe(h);
            plain.observe(h);
        }
        assert_eq!(
            sized.finish_with_table_rows(10_000).unwrap(),
            plain.finish_with_table_rows(10_000).unwrap()
        );
    }

    #[test]
    fn builder_tracks_rows_and_counts() {
        let mut b = SpectrumBuilder::new();
        b.observe_count(1, 3);
        b.observe_count(2, 0); // no-op
        b.observe(2);
        b.add_table_rows(40);
        assert_eq!(b.table_rows(), 40);
        assert_eq!(b.sampled_rows(), 4);
        let s = b.finish().unwrap();
        assert_eq!(s.table_size(), 40);
        assert_eq!((s.f(1), s.f(3)), (1, 1));
        assert!(SpectrumBuilder::new().finish().is_err());
    }
}

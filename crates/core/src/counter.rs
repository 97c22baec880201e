//! An open-addressing `u64 → u64` counter — the per-chunk level of the
//! two-level spectrum counting scheme.
//!
//! [`CountTable`] replaces the `HashMap<u64, u64>` that used to back
//! [`crate::spectrum::SpectrumBuilder`]. The keys are already 64-bit
//! value hashes (or small trusted integers), so the table skips SipHash
//! entirely: the probe index is [`crate::hash::mix64`] of the key masked
//! to a power-of-two capacity, collisions resolve by linear probing, and
//! the whole table is two flat `Vec<u64>`s — **no per-entry allocation**,
//! no bucket pointers, cache-line-friendly probes.
//!
//! The two-level scheme: each parallel chunk counts into its own
//! `CountTable` (sized from column statistics or a first-chunk
//! cardinality probe, so steady-state inserts never reallocate), and the
//! per-chunk tables are folded into the first one ([`CountTable::absorb`]
//! moves, never copies, the initial chunk). Count addition commutes, so
//! any chunking and any fold order produce the same multiset of counts —
//! the bit-identical-to-serial contract lives on that.
//!
//! Iteration order over a `CountTable` depends on capacity and insertion
//! history and is therefore **not** deterministic across chunkings; the
//! spectrum layer only ever consumes the *multiset* of counts (it
//! re-sorts by frequency), which is chunking-invariant.
//!
//! # Slot-array reuse
//!
//! Large slot arrays are recycled through one process-wide spare list.
//! Dropping a table, and growing one, hands its arrays of at least
//! `REUSE_MIN_SLOTS` (2²⁰ slots, 8 MiB) to the list; allocating an array
//! of the same length takes a spare and zero-fills it. A fresh array is a
//! new `mmap`, faulted in one 4 KiB page at a time, and a memset of a
//! resident spare is 7–9× cheaper (2-vCPU x86-64 host, per two-array
//! table: 2²² slots 48 ms fresh against 6.8 ms reused, 2²⁰ slots 10 ms
//! against 1.1 ms). A profile that drops its multi-million-slot chunk
//! tables and rebuilds them on the next pass gains the most.
//!
//! The threshold is measured, not guessed. A spare is memory the process
//! keeps, and at a few hundred KiB the fault cost is small next to the
//! counting. Pooling arrays from 2¹⁵ slots (256 KiB) up cut the minor
//! faults of the small-segment `append_refresh` benchmark by 67 % but
//! raised its peak RSS by 5.5 % and gained no time.
//!
//! **Memory invariant.** A miss — no spare of the wanted length — empties
//! the list before it allocates. Hits and drops only move arrays between
//! the list and live tables, so spare plus live table memory never
//! exceeds what was live at once since the last miss, and a workload
//! whose table sizes change gives its spares back on the first new size.

use crate::hash::mix64;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Minimum non-empty capacity (power of two).
const MIN_CAPACITY: usize = 16;

/// Slot arrays at least this long go through [`SPARES`] (8 MiB of `u64`).
const REUSE_MIN_SLOTS: usize = 1 << 20;

/// The process-wide spare list every [`CountTable`] allocates from.
static SPARES: Spares = Spares::new(REUSE_MIN_SLOTS);

/// A list of spare slot arrays of at least `min_len` entries.
struct Spares {
    min_len: usize,
    list: Mutex<Vec<Vec<u64>>>,
}

impl Spares {
    const fn new(min_len: usize) -> Self {
        Self {
            min_len,
            list: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Vec<u64>>> {
        // The list holds plain arrays, valid whatever a panicking holder
        // left behind.
        self.list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A slot array of `len` zeros: a spare of that length when there is
    /// one, otherwise a fresh allocation after every spare is freed.
    fn zeroed(&self, len: usize) -> Vec<u64> {
        if len >= self.min_len {
            let mut list = self.lock();
            if let Some(i) = list.iter().position(|s| s.len() == len) {
                let mut slots = list.swap_remove(i);
                drop(list);
                slots.fill(0);
                return slots;
            }
            let stale = std::mem::take(&mut *list);
            drop(list);
            drop(stale);
        }
        vec![0; len]
    }

    /// Keeps `slots` as a spare if it is long enough; frees it otherwise.
    fn give(&self, slots: Vec<u64>) {
        if slots.len() >= self.min_len {
            self.lock().push(slots);
        }
    }
}

/// An open-addressing hash table from `u64` keys to `u64` counts.
///
/// Key `0` is used as the empty-slot sentinel internally; its count is
/// carried in a dedicated field, so the full `u64` key space is
/// supported.
#[derive(Debug, Default)]
pub struct CountTable {
    /// Slot keys; `0` = empty. Length is `mask + 1` (power of two) or 0.
    keys: Vec<u64>,
    /// Slot counts, parallel to `keys`.
    counts: Vec<u64>,
    /// `capacity - 1` for bit-masked probing (`usize::MAX` when empty —
    /// never used before the first allocation).
    mask: usize,
    /// Occupied slots (excludes the zero key).
    occupied: usize,
    /// Count for key `0`.
    zero_count: u64,
    /// Σ of all counts, maintained incrementally.
    total: u64,
}

impl CountTable {
    /// An empty table. Allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table pre-sized to hold `distinct_hint` distinct keys without
    /// growing — the "sized from column stats / cardinality probe"
    /// entry point. Inserting at most `distinct_hint` distinct keys is
    /// guaranteed allocation-free after construction.
    pub fn with_capacity(distinct_hint: usize) -> Self {
        let mut t = Self::default();
        if distinct_hint > 0 {
            t.allocate(Self::capacity_for(distinct_hint));
        }
        t
    }

    /// Power-of-two capacity keeping load ≤ 7/8 for `distinct` keys.
    fn capacity_for(distinct: usize) -> usize {
        let needed = distinct + distinct.div_ceil(7) + 1;
        needed.next_power_of_two().max(MIN_CAPACITY)
    }

    fn allocate(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        self.keys = SPARES.zeroed(capacity);
        self.counts = SPARES.zeroed(capacity);
        self.mask = capacity - 1;
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.occupied + usize::from(self.zero_count > 0)
    }

    /// Whether no key has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ of all counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current slot capacity (0 before the first insert).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Adds `count` occurrences of `key`. `count = 0` is a no-op.
    #[inline]
    pub fn add(&mut self, key: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.total += count;
        if key == 0 {
            self.zero_count += count;
            return;
        }
        if self.keys.is_empty() {
            self.allocate(MIN_CAPACITY);
        }
        let mut i = mix64(key) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                self.counts[i] += count;
                return;
            }
            if k == 0 {
                self.keys[i] = key;
                self.counts[i] = count;
                self.occupied += 1;
                // Load factor 7/8: grow *after* inserting so the table
                // never probes full.
                if self.occupied + (self.occupied >> 3) >= self.keys.len() - (self.keys.len() >> 3)
                {
                    self.grow();
                }
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Adds one occurrence of `key` — the per-row observe.
    #[inline]
    pub fn increment(&mut self, key: u64) {
        self.add(key, 1);
    }

    #[cold]
    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_counts = std::mem::take(&mut self.counts);
        self.allocate((old_keys.len() * 2).max(MIN_CAPACITY));
        self.occupied = 0;
        for (&k, &c) in old_keys.iter().zip(&old_counts) {
            if k != 0 {
                // Re-insert without the growth check: the new table has
                // twice the room.
                let mut i = mix64(k) as usize & self.mask;
                while self.keys[i] != 0 {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = k;
                self.counts[i] = c;
                self.occupied += 1;
            }
        }
        SPARES.give(old_keys);
        SPARES.give(old_counts);
    }

    /// Iterates `(key, count)` pairs with `count > 0`, in an
    /// unspecified (capacity-dependent) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let zero = (self.zero_count > 0).then_some((0u64, self.zero_count));
        zero.into_iter().chain(
            self.keys
                .iter()
                .zip(&self.counts)
                .filter(|&(&k, _)| k != 0)
                .map(|(&k, &c)| (k, c)),
        )
    }

    /// Iterates just the counts (the multiset the spectrum layer
    /// consumes), in an unspecified order.
    pub fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, c)| c)
    }

    /// Folds `other`'s counts into `self` (counts for shared keys add).
    pub fn merge_from(&mut self, other: &CountTable) {
        for (k, c) in other.iter() {
            self.add(k, c);
        }
    }

    /// Consumes `other`, folding it into `self`. When `self` is still
    /// empty this **moves** `other`'s storage instead of re-inserting
    /// every entry — the first chunk of a merge fold costs nothing.
    pub fn absorb(&mut self, other: CountTable) {
        if self.is_empty() && self.capacity() <= other.capacity() {
            *self = other;
            return;
        }
        // Prefer inserting the smaller side into the larger.
        if other.len() > self.len() && other.capacity() >= Self::capacity_for(self.len()) {
            let mine = std::mem::replace(self, other);
            self.merge_from(&mine);
        } else {
            self.merge_from(&other);
        }
    }
}

impl Clone for CountTable {
    fn clone(&self) -> Self {
        let copy = |src: &Vec<u64>| {
            let mut slots = SPARES.zeroed(src.len());
            slots.copy_from_slice(src);
            slots
        };
        Self {
            keys: copy(&self.keys),
            counts: copy(&self.counts),
            ..*self
        }
    }
}

impl Drop for CountTable {
    fn drop(&mut self) {
        SPARES.give(std::mem::take(&mut self.keys));
        SPARES.give(std::mem::take(&mut self.counts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_numeric::check::{check, u64_in, usize_in, vec_of};
    use dve_numeric::rng::Rng;
    use std::collections::HashMap;

    fn as_map(t: &CountTable) -> HashMap<u64, u64> {
        t.iter().collect()
    }

    #[test]
    fn counts_like_a_hashmap() {
        let mut t = CountTable::new();
        let mut m: HashMap<u64, u64> = HashMap::new();
        for i in 0..10_000u64 {
            let key = (i * i) % 257;
            t.increment(key);
            *m.entry(key).or_insert(0) += 1;
        }
        assert_eq!(as_map(&t), m);
        assert_eq!(t.len(), m.len());
        assert_eq!(t.total(), 10_000);
    }

    #[test]
    fn zero_key_is_a_real_key() {
        let mut t = CountTable::new();
        t.add(0, 3);
        t.increment(0);
        t.increment(7);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total(), 5);
        assert_eq!(as_map(&t), HashMap::from([(0, 4), (7, 1)]));
    }

    #[test]
    fn zero_count_is_a_no_op() {
        let mut t = CountTable::new();
        t.add(5, 0);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 0, "no-op must not allocate");
        assert_eq!(t.counts().count(), 0);
    }

    #[test]
    fn with_capacity_never_grows_within_hint() {
        let mut t = CountTable::with_capacity(1_000);
        let cap = t.capacity();
        assert!(cap.is_power_of_two());
        for i in 0..1_000u64 {
            // Adversarial-ish clustered keys: sequential integers.
            t.increment(i);
        }
        assert_eq!(t.capacity(), cap, "pre-sized table grew");
        assert_eq!(t.len(), 1_000);
    }

    #[test]
    fn grows_transparently_past_any_hint() {
        let mut t = CountTable::with_capacity(8);
        for i in 0..100_000u64 {
            t.increment(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        assert_eq!(t.len(), 100_000);
        assert_eq!(t.total(), 100_000);
    }

    #[test]
    fn merge_and_absorb_agree_with_hashmap_union() {
        let mut a = CountTable::new();
        let mut b = CountTable::new();
        for i in 0..500u64 {
            a.add(i % 40, 2);
            b.add(i % 70, 1);
        }
        let mut want = as_map(&a);
        for (k, c) in b.iter() {
            *want.entry(k).or_insert(0) += c;
        }
        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(as_map(&merged), want);

        let mut absorbed = a.clone();
        absorbed.absorb(b.clone());
        assert_eq!(as_map(&absorbed), want);

        // Absorb into empty moves the storage outright.
        let mut empty = CountTable::new();
        empty.absorb(b.clone());
        assert_eq!(as_map(&empty), as_map(&b));
        assert_eq!(empty.capacity(), b.capacity());
    }

    #[test]
    fn absorb_prefers_the_larger_side() {
        let mut big = CountTable::new();
        for i in 0..10_000u64 {
            big.increment(i);
        }
        let mut small = CountTable::new();
        small.add(3, 5);
        let mut acc = CountTable::new();
        acc.absorb(small.clone());
        let want_small_then_big = {
            let mut m = as_map(&small);
            for (k, c) in big.iter() {
                *m.entry(k).or_insert(0) += c;
            }
            m
        };
        acc.absorb(big);
        assert_eq!(as_map(&acc), want_small_then_big);
        assert_eq!(acc.len(), 10_000);
    }

    /// The tentpole contract: open-addressing counting ≡ `HashMap`
    /// counting for arbitrary keys and counts, under arbitrary
    /// chunking of the input stream.
    #[test]
    fn equivalent_to_hashmap_counting() {
        check("equivalent_to_hashmap_counting", 256, |rng| {
            let keys = vec_of(rng, 0..400, |rng| {
                (u64_in(rng, 0..u64::MAX), u64_in(rng, 1..5))
            });
            let cut = usize_in(rng, 0..400);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for &(k, c) in &keys {
                *reference.entry(k).or_insert(0) += c;
            }

            // One-shot table.
            let mut one = CountTable::new();
            for &(k, c) in &keys {
                one.add(k, c);
            }
            assert_eq!(as_map(&one), reference.clone());
            assert_eq!(one.total(), reference.values().sum::<u64>());

            // Two chunks folded with absorb (the two-level scheme).
            let cut = cut.min(keys.len());
            let mut first = CountTable::with_capacity(cut);
            for &(k, c) in &keys[..cut] {
                first.add(k, c);
            }
            let mut second = CountTable::new();
            for &(k, c) in &keys[cut..] {
                second.add(k, c);
            }
            let mut folded = CountTable::new();
            folded.absorb(first);
            folded.absorb(second);
            assert_eq!(as_map(&folded), reference);
        });
    }

    /// Builds a table from `hint` and `keys`; returns its entries in
    /// iteration order and its total.
    fn build(hint: usize, keys: &[u64]) -> (Vec<(u64, u64)>, u64) {
        let mut t = CountTable::with_capacity(hint);
        for &k in keys {
            t.increment(k);
        }
        (t.iter().collect(), t.total())
    }

    /// `(key, count)` ascending by key: a sort-and-count reference (a
    /// `HashMap` is too slow at 400k keys in a debug build).
    fn sorted_counts(keys: &[u64]) -> Vec<(u64, u64)> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut counts: Vec<(u64, u64)> = Vec::new();
        for k in sorted {
            match counts.last_mut() {
                Some((last, c)) if *last == k => *c += 1,
                _ => counts.push((k, 1)),
            }
        }
        counts
    }

    /// Recycled slot arrays count exactly like fresh ones. Two threads
    /// create, grow and drop tables on both sides of the reuse threshold.
    /// Every table must count like a reference count. A barrier holds
    /// each rebuild until both threads have dropped their tables, so the
    /// rebuild — same inserts, on dirty arrays either thread handed back
    /// — must still iterate in the same order.
    #[test]
    fn reused_slot_arrays_count_like_fresh_ones() {
        check("reused_slot_arrays_count_like_fresh_ones", 2, |rng| {
            // Both threads take every shape once, in the same order.
            let first_shape = rng.below(3);
            let seeds = [rng.next_u64(), rng.next_u64()];
            let barrier = std::sync::Barrier::new(seeds.len());
            let failures: Vec<String> = std::thread::scope(|scope| {
                let workers = seeds.map(|seed| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let rng = &mut Rng::seed_from_u64(seed);
                        let mut failures = Vec::new();
                        for shape in (0..3).map(|i| (first_shape + i) % 3) {
                            let (hint, inserts) = match shape {
                                // Small: never pooled; grows within small sizes.
                                0 => (usize_in(rng, 0..1_000), usize_in(rng, 0..3_000)),
                                // 2^20 slots: pooled from the start.
                                1 => (usize_in(rng, 460_000..900_000), usize_in(rng, 0..5_000)),
                                // 2^19 slots grown past the load limit into 2^20.
                                _ => (
                                    usize_in(rng, 230_000..450_000),
                                    usize_in(rng, 410_000..412_000),
                                ),
                            };
                            // Repeats land in the small-key range.
                            let keys: Vec<u64> = (0..inserts)
                                .map(|_| match rng.below(4) {
                                    0 => rng.below(64),
                                    _ => rng.next_u64(),
                                })
                                .collect();
                            // Failures are collected, not raised, so
                            // neither thread leaves the other waiting.
                            let (first, total) = build(hint, &keys);
                            let mut counted = first.clone();
                            counted.sort_unstable();
                            if counted != sorted_counts(&keys) || total != inserts as u64 {
                                failures.push(format!("shape {shape}: wrong counts"));
                            }
                            barrier.wait();
                            if build(hint, &keys).0 != first {
                                failures.push(format!("shape {shape}: rebuild reordered"));
                            }
                        }
                        failures
                    })
                });
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("worker panicked"))
                    .collect()
            });
            assert!(failures.is_empty(), "{failures:?}");
        });
    }

    #[test]
    fn a_hit_reuses_the_array_and_a_miss_empties_the_list() {
        let spares = Spares::new(64);
        spares.give(vec![7; 32]); // below the threshold: freed, not kept
        spares.give(vec![7; 64]);
        let dirty = vec![7; 128];
        let ptr = dirty.as_ptr();
        spares.give(dirty);
        assert_eq!(spares.lock().len(), 2);

        // A hit takes the spare of the same length and zero-fills it.
        let hit = spares.zeroed(128);
        assert_eq!(hit.as_ptr(), ptr, "a hit must reuse the spare");
        assert!(hit.iter().all(|&s| s == 0));
        assert_eq!(spares.lock().len(), 1);

        // Short arrays bypass the list.
        assert_eq!(spares.zeroed(16), vec![0; 16]);
        assert_eq!(spares.lock().len(), 1);

        // A miss frees every spare before it allocates.
        let miss = spares.zeroed(256);
        assert_eq!(miss, vec![0; 256]);
        assert!(spares.lock().is_empty(), "a miss must empty the list");
    }

    /// The memory invariant: under any sequence of allocations and
    /// drops, spare plus live memory in pooled arrays never exceeds the
    /// peak live amount.
    #[test]
    fn spare_plus_live_never_exceeds_the_live_peak() {
        check("spare_plus_live_never_exceeds_the_live_peak", 256, |rng| {
            const MIN_LEN: usize = 64;
            let spares = Spares::new(MIN_LEN);
            let pooled = |s: &Vec<u64>| if s.len() >= MIN_LEN { s.len() } else { 0 };
            let mut live: Vec<Vec<u64>> = Vec::new();
            let mut peak = 0;
            for _ in 0..usize_in(rng, 1..80) {
                if live.is_empty() || rng.below(2) == 0 {
                    let mut slots = spares.zeroed([16, 64, 128, 256][usize_in(rng, 0..4)]);
                    assert!(slots.iter().all(|&s| s == 0), "spare not zeroed");
                    slots.fill(u64::MAX);
                    live.push(slots);
                } else {
                    let i = usize_in(rng, 0..live.len());
                    spares.give(live.swap_remove(i));
                }
                let live_now: usize = live.iter().map(pooled).sum();
                peak = peak.max(live_now);
                let spare: usize = spares.lock().iter().map(Vec::len).sum();
                assert!(
                    spare + live_now <= peak,
                    "spare {spare} + live {live_now} exceeds the live peak {peak}"
                );
            }
        });
    }
}

//! End-to-end determinism contract of the parallel execution layer:
//! every estimation result must be **bit-identical** across `jobs`
//! values — parallelism may only change wall times. These tests cross
//! crate boundaries on purpose (audit → runner → sample → par,
//! storage → par) to catch any layer quietly reintroducing
//! order-dependence.

use distinct_values::core::spectrum::{Spectrum, SpectrumBuilder};
use distinct_values::experiments::audit::{run_audit, AuditConfig};
use distinct_values::numeric::check::{check, u64_in, usize_in, vec_of};
use distinct_values::numeric::rng::Rng;
use distinct_values::obs::window::{ManualClock, WindowClock, WindowedHistogram, WINDOWS};
use distinct_values::storage::{analyze_table_jobs, AnalyzeOptions, Table};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The headline guarantee: the same audit grid at `jobs = 1` and
/// `jobs = 4` serializes byte-identically once wall times are zeroed —
/// the property `scripts/ci.sh` re-checks with the release binary.
#[test]
fn audit_json_is_byte_identical_across_jobs() {
    let mut config = AuditConfig::quick();
    config.jobs = 1;
    let serial = run_audit(&config).without_walltime().to_json();
    for jobs in [2, 4] {
        config.jobs = jobs;
        let parallel = run_audit(&config).without_walltime().to_json();
        assert_eq!(serial, parallel, "audit JSON diverged at jobs={jobs}");
    }
}

/// ANALYZE shares one row sample across columns; chunked per-column
/// counting must reproduce the serial statistics exactly, including
/// every floating-point field of the GEE intervals.
///
/// On this one-column table ANALYZE makes `jobs` row chunks of at least
/// 4 096 rows each out of `r = 0.5 · 40 000 = 20 000` sampled rows, so
/// every parallel run below splits rows: 2 chunks at jobs 2, 4 at
/// jobs 4 and 5 at jobs 7.
#[test]
fn analyze_statistics_are_identical_across_jobs() {
    let values: Vec<u64> = (0..40_000u64).map(|i| (i * i) % 1_777).collect();
    let table = Table::from_generated("sq_mod", &values);
    let options = AnalyzeOptions {
        sampling_fraction: 0.5,
        ..AnalyzeOptions::default()
    };
    let mut rng = Rng::seed_from_u64(9);
    let serial = analyze_table_jobs(&table, &options, 1, &mut rng).unwrap();
    for jobs in [2, 4, 7] {
        let mut rng = Rng::seed_from_u64(9);
        let parallel = analyze_table_jobs(&table, &options, jobs, &mut rng).unwrap();
        assert_eq!(serial, parallel, "ANALYZE diverged at jobs={jobs}");
    }
}

/// Trial seeding is position-independent: doubling the worker count of
/// an already-run grid and re-running from the same config cannot move
/// a single error statistic.
#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let mut config = AuditConfig::quick();
    config.jobs = 4;
    let a = run_audit(&config).without_walltime();
    let b = run_audit(&config).without_walltime();
    assert_eq!(a, b);
}

/// Builds a finalized [`Spectrum`] from a sparse `(freq, count)` list
/// with `extra_rows` added to the table size, offsetting the value hash
/// space by `base` so different shards can be made value-disjoint.
fn shard_spectrum(classes: &[(u64, u64)], extra_rows: u64, base: u64) -> Spectrum {
    let mut b = SpectrumBuilder::new();
    let mut next = base;
    for &(freq, count) in classes {
        for _ in 0..count {
            b.observe_count(next, freq);
            next += 1;
        }
    }
    // The table holds at least the sampled rows, plus any unsampled ones.
    b.add_table_rows(b.sampled_rows() + extra_rows);
    b.finish().expect("non-empty shard spectrum")
}

fn sparse_classes(rng: &mut Rng) -> Vec<(u64, u64)> {
    vec_of(rng, 1..8, |rng| (u64_in(rng, 1..40), u64_in(rng, 1..30)))
}

/// `Spectrum::merge` of value-disjoint shards is commutative:
/// shard order cannot move a single field.
#[test]
fn spectrum_merge_is_commutative() {
    check("spectrum_merge_is_commutative", 64, |rng| {
        let a = sparse_classes(rng);
        let b = sparse_classes(rng);
        let extra = u64_in(rng, 0..1_000);
        let sa = shard_spectrum(&a, extra, 0);
        let sb = shard_spectrum(&b, 0, 1 << 32);
        assert_eq!(sa.merge(&sb), sb.merge(&sa));
    });
}

/// …and associative: any merge tree over the same shards yields the
/// same spectrum, which is what lets `analyze` and the serve API
/// fold shards in arrival order.
#[test]
fn spectrum_merge_is_associative() {
    check("spectrum_merge_is_associative", 64, |rng| {
        let a = sparse_classes(rng);
        let b = sparse_classes(rng);
        let c = sparse_classes(rng);
        let sa = shard_spectrum(&a, 0, 0);
        let sb = shard_spectrum(&b, 0, 1 << 32);
        let sc = shard_spectrum(&c, 0, 2 << 32);
        let ab_c = sa.merge(&sb).and_then(|ab| ab.merge(&sc));
        assert_eq!(ab_c, sb.merge(&sc).and_then(|bc| sa.merge(&bc)));
        assert!(ab_c.is_some());
    });
}

/// Chunked ingestion through [`SpectrumBuilder::merge_from`] is
/// bit-identical to one-shot ingestion for *any* split of the rows —
/// even when the same value lands in several chunks (the builder
/// merges at value level, unlike finalized-[`Spectrum::merge`],
/// which requires value-disjoint shards).
#[test]
fn chunked_ingest_matches_one_shot_for_any_split() {
    check("chunked_ingest_matches_one_shot_for_any_split", 64, |rng| {
        let values = vec_of(rng, 1..600, |rng| u64_in(rng, 0..200));
        let splits = vec_of(rng, 0..5, |rng| usize_in(rng, 0..600));
        let mut one_shot = SpectrumBuilder::new();
        one_shot.add_table_rows(values.len() as u64);
        for &v in &values {
            one_shot.observe(v);
        }

        let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (values.len() + 1)).collect();
        cuts.push(0);
        cuts.push(values.len());
        cuts.sort_unstable();
        let mut acc = SpectrumBuilder::new();
        acc.add_table_rows(values.len() as u64);
        for pair in cuts.windows(2) {
            let mut chunk = SpectrumBuilder::new();
            for &v in &values[pair[0]..pair[1]] {
                chunk.observe(v);
            }
            acc.merge_from(&chunk);
        }

        assert_eq!(one_shot.finish().unwrap(), acc.finish().unwrap());
    });
}

/// Sliding-window recorders under concurrent writers and live ring
/// rotation (the monitoring-grade contract): rotation may tear a
/// bounded number of in-flight records — at most one per writer per
/// rotation — but can never invent counts, wedge a writer, or
/// produce quantiles outside the observed value range.
#[test]
fn windowed_histogram_rotation_loss_is_bounded() {
    check("windowed_histogram_rotation_loss_is_bounded", 64, |rng| {
        let writers = usize_in(rng, 2..5);
        let per_writer = u64_in(rng, 2_000..8_000);
        let clock = ManualClock::new();
        let hist = WindowedHistogram::with_clock(WindowClock::Manual(clock.clone()));
        let finished = AtomicUsize::new(0);
        let mut rotations = 0u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let hist = &hist;
                let finished = &finished;
                s.spawn(move || {
                    for i in 0..per_writer {
                        hist.record((w as u64 + 1) * 1_000 + i % 997);
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            // Rotate the ring under the writers' feet. Capped at 58
            // advances (58 × 61 s < 1 h) so no bucket ages out of the 1h
            // window or gets its slot reused — every missing record is
            // then attributable to a torn rotation, nothing else.
            while finished.load(Ordering::Acquire) < writers && rotations < 58 {
                std::thread::yield_now();
                clock.advance_secs(61);
                rotations += 1;
            }
        });
        let stats = hist.stats(WINDOWS[2].1);
        let total = writers as u64 * per_writer;
        let max_loss = writers as u64 * (rotations + 1);
        assert!(
            stats.count <= total,
            "invented counts: {} > {total}",
            stats.count
        );
        assert!(
            stats.count + max_loss >= total,
            "lost {} records, bound is {max_loss} ({rotations} rotations × {writers} writers)",
            total - stats.count,
        );
        let (min, max) = (stats.min.unwrap(), stats.max.unwrap());
        assert!(min <= max);
        for q in [stats.p50, stats.p95, stats.p99] {
            assert!(
                q >= min as f64 && q <= max as f64,
                "quantile {q} outside [{min}, {max}]"
            );
        }
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
    });
}

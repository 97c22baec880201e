//! # dve-par — a std-only scoped worker pool with deterministic output
//!
//! The experiment grids, the audit sweep, and `ANALYZE` are all
//! embarrassingly parallel: a list of independent tasks whose results are
//! aggregated in a fixed order. This crate provides that shape — and
//! nothing else — on top of [`std::thread::scope`], with no external
//! dependencies (no rayon):
//!
//! * [`run_indexed`] — apply a function to indices `0..tasks` across a
//!   worker pool and return the results **in index order**. Workers pull
//!   contiguous index chunks from a shared atomic cursor, so scheduling
//!   is dynamic but the output is a pure function of the task function:
//!   bit-identical to the serial loop, regardless of worker count or
//!   interleaving.
//! * [`map_chunks`] — split a slice into contiguous chunks, map each on
//!   the pool, return per-chunk results in slice order (the building
//!   block for split-count-merge frequency profiling).
//! * The **jobs knob** — [`resolve_jobs`] / [`default_jobs`] pick the
//!   worker count from, in priority order: an explicit value (a `--jobs`
//!   flag), the process-wide override ([`set_default_jobs`]), the
//!   `DVE_JOBS` environment variable, and finally
//!   [`std::thread::available_parallelism`]. A malformed `DVE_JOBS`
//!   warns once through [`dve_obs`] and falls back instead of silently
//!   serializing the process.
//!
//! ## Determinism contract
//!
//! For any `f` without interior mutability shared across calls,
//! `run_indexed(jobs, n, f)` returns exactly `(0..n).map(f).collect()`
//! for every `jobs`. Callers that fold the returned vector front to back
//! therefore reproduce the serial aggregation bit for bit — this is how
//! the experiment runner keeps `BENCH_accuracy.json` byte-identical
//! between `--jobs 1` and `--jobs N`.
//!
//! ## Telemetry
//!
//! Every pool run records, through the global [`dve_obs`] registry:
//!
//! * `par.tasks_total` — counter, tasks submitted;
//! * `par.worker_busy_ns` — histogram, per-worker time spent inside task
//!   functions;
//! * `par.queue_wait_ns` — histogram, per-worker time spent outside task
//!   functions (claiming chunks, waiting on the queue, thread startup);
//! * `par.jobs` — gauge, worker count of the most recent pool run;
//! * `par.chunk_size` — gauge, indices claimed per queue round trip in
//!   the most recent [`run_indexed`];
//! * `par.data_chunk_rows` — gauge, items per data chunk in the most
//!   recent [`map_chunks`]/[`map_chunks_min`].
//!
//! A healthy parallel run shows `worker_busy_ns ≫ queue_wait_ns`; an
//! oversubscribed or contended one shows the opposite. Speedups are
//! thereby observable, not asserted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide jobs override; 0 means "not set".
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (the CLI's global
/// `--jobs N`). `0` clears the override. Takes priority over `DVE_JOBS`
/// and hardware detection in [`default_jobs`].
pub fn set_default_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs, Ordering::Relaxed);
}

/// Worker count from `DVE_JOBS`, if set and well-formed. A malformed or
/// zero value warns once (`par.jobs.bad_spec`) and is ignored.
fn jobs_from_env() -> Option<usize> {
    let spec = std::env::var("DVE_JOBS").ok()?;
    match spec.trim().parse::<usize>() {
        Ok(j) if j >= 1 => Some(j),
        _ => {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                dve_obs::Event::warn("par.jobs.bad_spec")
                    .message(format!(
                        "ignoring DVE_JOBS={spec:?}: expected a positive integer"
                    ))
                    .emit();
            });
            None
        }
    }
}

/// Resolves the worker count: `explicit` (e.g. a `--jobs` flag) wins,
/// then the [`set_default_jobs`] override, then `DVE_JOBS`, then
/// [`std::thread::available_parallelism`] (1 if undetectable). Always
/// returns at least 1.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(j) = explicit {
        return j.max(1);
    }
    match GLOBAL_JOBS.load(Ordering::Relaxed) {
        0 => {}
        j => return j,
    }
    if let Some(j) = jobs_from_env() {
        return j;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// [`resolve_jobs`] with no explicit value — the default every parallel
/// entry point uses when its caller passed `jobs = 0` ("auto").
pub fn default_jobs() -> usize {
    resolve_jobs(None)
}

fn tasks_total() -> &'static Arc<dve_obs::Counter> {
    static C: OnceLock<Arc<dve_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| dve_obs::global().counter("par.tasks_total"))
}

fn worker_busy_ns() -> &'static Arc<dve_obs::Histogram> {
    static H: OnceLock<Arc<dve_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| dve_obs::global().histogram("par.worker_busy_ns"))
}

fn queue_wait_ns() -> &'static Arc<dve_obs::Histogram> {
    static H: OnceLock<Arc<dve_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| dve_obs::global().histogram("par.queue_wait_ns"))
}

fn jobs_gauge() -> &'static Arc<dve_obs::Gauge> {
    static G: OnceLock<Arc<dve_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| dve_obs::global().gauge("par.jobs"))
}

fn chunk_size_gauge() -> &'static Arc<dve_obs::Gauge> {
    static G: OnceLock<Arc<dve_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| dve_obs::global().gauge("par.chunk_size"))
}

fn data_chunk_rows_gauge() -> &'static Arc<dve_obs::Gauge> {
    static G: OnceLock<Arc<dve_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| dve_obs::global().gauge("par.data_chunk_rows"))
}

/// Chunk of the index space a worker claims per queue round trip: small
/// enough for load balance across uneven task costs, large enough that
/// the atomic cursor isn't contended. Four chunks per worker.
fn chunk_size(tasks: usize, jobs: usize) -> usize {
    tasks.div_ceil(jobs * 4).max(1)
}

/// Applies `f` to every index in `0..tasks` using up to `jobs` worker
/// threads and returns the results **in index order** — bit-identical to
/// `(0..tasks).map(f).collect()` for any `jobs`.
///
/// `jobs ≤ 1` (or `tasks ≤ 1`) runs inline on the calling thread with no
/// thread or queue overhead, so the serial path really is the serial
/// code. Worker panics propagate to the caller with their original
/// payload.
pub fn run_indexed<T, F>(jobs: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(tasks.max(1));
    tasks_total().add(tasks as u64);
    jobs_gauge().set(jobs as i64);
    if jobs <= 1 {
        chunk_size_gauge().set(tasks.max(1) as i64);
        return (0..tasks).map(f).collect();
    }

    let chunk = chunk_size(tasks, jobs);
    chunk_size_gauge().set(chunk as i64);
    let cursor = AtomicUsize::new(0);
    // Workers are fresh OS threads with no thread-local trace context;
    // adopting the caller's context here is what keeps a request trace
    // causal across the pool boundary. Tracing never touches `f`'s
    // results, so the determinism contract is unaffected.
    let parent_ctx = dve_obs::trace::current();
    let worker = |_w: usize| {
        let _adopt = dve_obs::trace::adopt(parent_ctx);
        let _span = dve_obs::trace::span("par.worker");
        let spawned = Instant::now();
        let mut busy = Duration::ZERO;
        let mut out: Vec<(usize, T)> = Vec::with_capacity(tasks / jobs + 1);
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= tasks {
                break;
            }
            let end = (start + chunk).min(tasks);
            let t0 = Instant::now();
            for i in start..end {
                out.push((i, f(i)));
            }
            busy += t0.elapsed();
        }
        let total = spawned.elapsed();
        worker_busy_ns().record(busy.as_nanos() as u64);
        queue_wait_ns().record(total.saturating_sub(busy).as_nanos() as u64);
        out
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("dve-par-{w}"))
                    .spawn_scoped(s, move || worker(w))
                    .expect("spawning a scoped worker thread")
            })
            .collect();
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        for h in handles {
            let produced = h
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, v) in produced {
                debug_assert!(slots[i].is_none(), "task {i} produced twice");
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|v| v.expect("every claimed task produces exactly one result"))
            .collect()
    })
}

/// Splits `data` into `jobs` contiguous chunks (fewer if `data` is
/// short), maps each chunk on the pool, and returns the per-chunk
/// results in slice order.
///
/// Chunk boundaries depend only on `data.len()` and `jobs` — never on
/// scheduling — so a front-to-back fold of the result is deterministic.
/// This is the split phase of split-count-merge frequency profiling; the
/// merge partner is `SpectrumBuilder::absorb` in `dve-core`.
pub fn map_chunks<'a, T, R, F>(jobs: usize, data: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    map_chunks_min(jobs, data, 1, f)
}

/// [`map_chunks`] with a floor on chunk length: every chunk (except
/// possibly the last) holds at least `min_chunk` items, so small inputs
/// are not shredded into per-item dispatches whose pool overhead
/// exceeds the mapped work — the granularity fix for the
/// `spectrum_merge`/`analyze` scenarios where parallel used to lose to
/// serial. Boundaries still depend only on
/// `(data.len(), jobs, min_chunk)` — never on scheduling — so a
/// front-to-back fold of the result stays deterministic. The chosen
/// chunk length is recorded in the `par.data_chunk_rows` gauge.
pub fn map_chunks_min<'a, T, R, F>(jobs: usize, data: &'a [T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    if data.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(data.len());
    let per_chunk = data.len().div_ceil(jobs).max(min_chunk.max(1));
    data_chunk_rows_gauge().set(per_chunk as i64);
    let chunks: Vec<&[T]> = data.chunks(per_chunk).collect();
    run_indexed(jobs, chunks.len(), |i| f(chunks[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_results_arrive_in_index_order() {
        for jobs in [1, 2, 3, 8] {
            let got = run_indexed(jobs, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_on_floats() {
        // The determinism contract the runner relies on: same f64s, same
        // order, regardless of worker count.
        let f = |i: usize| (i as f64).sqrt().sin() / (i as f64 + 0.25);
        let serial = run_indexed(1, 500, f);
        for jobs in [2, 4, 7] {
            let par = run_indexed(jobs, 500, f);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 10), vec![10]);
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
        // More workers than tasks must not deadlock or duplicate.
        assert_eq!(run_indexed(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(4, 16, |i| {
                assert!(i != 7, "task seven fails");
                i
            })
        });
        assert!(result.is_err(), "panic must cross the pool boundary");
    }

    #[test]
    fn map_chunks_covers_the_slice_in_order() {
        let data: Vec<u64> = (0..1000).collect();
        for jobs in [1, 3, 4, 16] {
            let sums = map_chunks(jobs, &data, |chunk| chunk.iter().sum::<u64>());
            assert!(sums.len() <= jobs.max(1), "jobs={jobs}: {}", sums.len());
            assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        }
        // Chunk boundaries are a pure function of (len, jobs).
        let a = map_chunks(3, &data, |c| c.to_vec());
        let b = map_chunks(3, &data, |c| c.to_vec());
        assert_eq!(a, b);
        assert_eq!(a.concat(), data);
    }

    #[test]
    fn map_chunks_empty_slice() {
        let data: [u64; 0] = [];
        assert!(map_chunks(4, &data, |c| c.len()).is_empty());
    }

    #[test]
    fn map_chunks_min_floors_granularity() {
        let data: Vec<u64> = (0..1_000).collect();
        // With a 400-item floor and 8 requested jobs, at most 3 chunks.
        let lens = map_chunks_min(8, &data, 400, |c| c.len());
        assert!(lens.len() <= 3, "{lens:?}");
        assert_eq!(lens.iter().sum::<usize>(), 1_000);
        assert!(lens[..lens.len() - 1].iter().all(|&l| l >= 400), "{lens:?}");
        // Results equal the unfloored mapping, front to back.
        let floored = map_chunks_min(4, &data, 64, |c| c.to_vec());
        assert_eq!(floored.concat(), data);
        // min_chunk = 0 behaves like 1 (no division by zero, no stall).
        assert_eq!(
            map_chunks_min(2, &data, 0, |c| c.iter().sum::<u64>())
                .iter()
                .sum::<u64>(),
            data.iter().sum::<u64>()
        );
    }

    #[test]
    fn jobs_resolution_priority() {
        // Explicit beats everything and is floored at 1.
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
        // Global override beats env/hardware.
        set_default_jobs(5);
        assert_eq!(resolve_jobs(None), 5);
        assert_eq!(default_jobs(), 5);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn chunking_is_balanced_and_nonzero() {
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(100, 4), 7);
        assert!(chunk_size(5, 2) >= 1);
        // Every index is claimed exactly once whatever the chunking.
        let counts = std::sync::Mutex::new(vec![0u32; 97]);
        run_indexed(5, 97, |i| {
            counts.lock().unwrap()[i] += 1;
        });
        assert!(counts.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn trace_context_propagates_across_workers() {
        use dve_obs::trace;
        // No other test in this binary toggles tracing, so the global
        // switch is safe to flip here.
        trace::set_tracing(true);
        trace::clear();
        let root_ctx = {
            let root = trace::root_span("par.test_root");
            let ctx = root.context().expect("tracing is on");
            let _inner: Vec<()> = run_indexed(4, 8, |_i| {
                let _s = trace::span("par.test_task");
                std::thread::sleep(Duration::from_millis(1));
            });
            ctx
        };
        let spans = trace::spans_for(root_ctx.trace_id);
        trace::set_tracing(false);

        let root = spans
            .iter()
            .find(|s| s.name == "par.test_root")
            .expect("root span recorded");
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "par.worker").collect();
        let tasks: Vec<_> = spans.iter().filter(|s| s.name == "par.test_task").collect();
        assert!(!workers.is_empty(), "worker spans recorded: {spans:?}");
        assert_eq!(tasks.len(), 8, "{spans:?}");
        // Every span belongs to the one trace and links back to the root.
        for w in &workers {
            assert_eq!(w.trace_id, root_ctx.trace_id);
            assert_eq!(w.parent_id, Some(root.span_id), "worker parent");
        }
        let worker_ids: Vec<_> = workers.iter().map(|w| w.span_id).collect();
        for t in &tasks {
            assert_eq!(t.trace_id, root_ctx.trace_id);
            let p = t.parent_id.expect("task spans have a parent");
            assert!(worker_ids.contains(&p), "task parented to a worker span");
        }
        // The pool really did fan the trace out across OS threads.
        let mut tids: Vec<u64> = workers.iter().map(|w| w.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert!(tids.len() >= 2, "expected >=2 worker threads: {tids:?}");
    }

    #[test]
    fn pool_records_telemetry() {
        let before = tasks_total().get();
        run_indexed(2, 50, |i| i);
        assert!(tasks_total().get() >= before + 50);
        assert!(worker_busy_ns().count() >= 2);
        assert!(queue_wait_ns().count() >= 2);
        assert!(jobs_gauge().get() >= 1);
    }
}

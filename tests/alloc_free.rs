//! Allocation pins for the hot paths: each test runs a path a thousand
//! times under a counting [`GlobalAlloc`] and asserts it never touched the
//! heap. A serving daemon runs these paths per request (or per row), so a
//! stray allocation is a regression multiplied by traffic.
//!
//! The count is thread-local so the assertions are immune to the test
//! harness's other threads allocating concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// Safety: delegates directly to `System`; the bookkeeping only
// touches a thread-local counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Thread-locals can themselves allocate during TLS teardown;
        // `try_with` makes the probe inert in that window.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on
/// this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn registry_lookup_is_allocation_free_on_the_hot_path() {
    use distinct_values::core::registry;

    // Warm up any lazy statics outside the measured window.
    assert_eq!(registry::canonical_name("gee"), Some("GEE"));
    assert!(registry::by_name("shlosser").is_ok());

    let count = allocations_in(|| {
        for _ in 0..1000 {
            assert_eq!(registry::canonical_name("ShLoSsEr"), Some("SHLOSSER"));
            assert_eq!(registry::canonical_name("gee"), Some("GEE"));
        }
    });
    assert_eq!(count, 0, "canonical_name allocated {count} times");

    // `by_name` on a zero-sized estimator: the `Box<dyn …>` of a ZST
    // does not allocate, so the whole happy path stays heap-free.
    let count = allocations_in(|| {
        for _ in 0..1000 {
            let est = registry::by_name("shlosser").ok();
            assert!(est.is_some());
        }
    });
    assert_eq!(count, 0, "by_name(\"shlosser\") allocated {count} times");
}

#[test]
fn warm_metric_lookup_is_allocation_free() {
    use distinct_values::obs;

    // `instrument` looks up a labeled counter and histogram for every
    // estimator it wraps; once the instruments exist, the lookup borrows
    // the name and label and must not build an owned key.
    let reg = obs::global();
    let _ = reg.counter_labeled("test.alloc_free.calls", "GEE");
    let _ = reg.histogram_labeled("test.alloc_free_ns", "GEE");
    let count = allocations_in(|| {
        for _ in 0..1000 {
            drop(reg.counter_labeled("test.alloc_free.calls", "GEE"));
            drop(reg.histogram_labeled("test.alloc_free_ns", "GEE"));
        }
    });
    assert_eq!(count, 0, "warm metric lookup allocated {count} times");
}

#[test]
fn tracing_off_is_allocation_free_on_the_span_path() {
    use distinct_values::obs::trace;

    // The serve hot path opens several spans per request; with the
    // collector disarmed each must cost one relaxed atomic load and
    // nothing else — no ids drawn, no detail closures run, no heap.
    trace::set_tracing(false);
    // Warm thread-local state outside the measured window.
    drop(trace::span("bench.warmup"));
    let _ = trace::current_thread_id();

    let count = allocations_in(|| {
        for _ in 0..1000 {
            let g = trace::span("bench.hot").detail(|| "never built".to_string());
            drop(g);
            drop(trace::root_span("bench.hot_root"));
            let _ = trace::with_span("bench.hot_fn", || std::hint::black_box(7u64));
            let _ = std::hint::black_box(trace::current());
        }
    });
    assert_eq!(count, 0, "disabled tracing allocated {count} times");
}

#[test]
fn monitoring_off_is_allocation_free_on_the_request_path() {
    use distinct_values::serve::Monitor;

    // With `--shadow-sample-rate 0.0` the per-request monitoring
    // cost must be a single float compare: no trace lookup, no
    // coin, no heap. This is the contract that lets the monitor sit
    // on every values-mode request unconditionally.
    let off = Monitor::disabled();
    assert!(!off.should_sample()); // warm-up
    let count = allocations_in(|| {
        for _ in 0..1000 {
            assert!(!std::hint::black_box(&off).should_sample());
        }
    });
    assert_eq!(count, 0, "disabled monitor allocated {count} times");
}

#[test]
fn windowed_histogram_record_is_allocation_free() {
    use distinct_values::obs::window::{WindowedHistogram, WINDOWS};

    // The shadow sampler records into windowed histograms on the
    // (sampled) request path; ring slots are preallocated at
    // construction, so steady-state record() — rotations included —
    // must never touch the heap.
    let hist = WindowedHistogram::new();
    hist.record(1); // warm-up
    let count = allocations_in(|| {
        for i in 0..10_000u64 {
            hist.record(std::hint::black_box(i * 37 % 5_000));
        }
    });
    assert_eq!(count, 0, "windowed record allocated {count} times");
    assert!(hist.stats(WINDOWS[2].1).count >= 10_000);
}

#[test]
fn presized_spectrum_ingest_is_allocation_free() {
    use distinct_values::core::hash::mix64;
    use distinct_values::core::spectrum::SpectrumBuilder;

    // The counting hot path: a builder pre-sized from a distinct
    // hint (as the ANALYZE fast path does) must ingest without ever
    // touching the heap — the open-addressing table is allocated up
    // front and `capacity_for` guarantees it never grows within the
    // hint. A stray allocation here is a per-row cost multiplied by
    // every sampled row of every column.
    const DISTINCT: u64 = 4_096;
    let mut builder = SpectrumBuilder::with_capacity(DISTINCT as usize);
    builder.observe(mix64(u64::MAX)); // warm-up (also exercises probing)
    let count = allocations_in(|| {
        for i in 0..100_000u64 {
            builder.observe_count(mix64(i % DISTINCT), 1 + i % 3);
        }
    });
    assert_eq!(
        count, 0,
        "pre-sized spectrum ingest allocated {count} times"
    );
    assert_eq!(builder.distinct_observed(), DISTINCT as usize + 1);
}

#[test]
fn rebuilding_a_large_spectrum_builder_reuses_its_slot_arrays() {
    use distinct_values::core::spectrum::SpectrumBuilder;

    // A profiling pass drops its multi-million-slot count tables and the
    // next pass builds tables of the same size. Arrays of 2^20 slots and
    // more are recycled, so the rebuild takes both back from the spare
    // list instead of mapping and faulting in fresh ones. 800 000
    // distinct values size a table at exactly 2^20 slots (two 8 MiB
    // arrays). No other test here builds a table that large, so nothing
    // takes the spares between the drop and the rebuild.
    const DISTINCT: usize = 800_000;
    drop(SpectrumBuilder::with_capacity(DISTINCT));
    let mut rebuilt = None;
    let count = allocations_in(|| rebuilt = Some(SpectrumBuilder::with_capacity(DISTINCT)));
    assert_eq!(count, 0, "rebuilding the builder allocated {count} times");
    let mut rebuilt = rebuilt.unwrap();
    rebuilt.observe(7);
    assert_eq!(
        rebuilt.distinct_observed(),
        1,
        "a reused table starts empty"
    );
}

#[test]
fn probe_actually_counts() {
    // Guard against the probe silently going dead (e.g. a future
    // allocator change): a Vec allocation must register.
    let count = allocations_in(|| {
        let v: Vec<u8> = Vec::with_capacity(64);
        std::hint::black_box(&v);
    });
    assert!(count >= 1, "the counting allocator saw no allocations");
}

//! # dve-obs — dependency-light observability for the estimation pipeline
//!
//! Production NDV estimators run inside query optimizers and distributed
//! scan pipelines where per-stage telemetry is what makes error/latency
//! regressions diagnosable. This crate provides the three primitives the
//! workspace wires through every layer, built entirely on
//! `std::sync::atomic` so recording stays lock-free and thread-safe for
//! the future parallel runner:
//!
//! * **Metrics** — labeled [`Counter`]/[`Gauge`]/[`Histogram`] families
//!   ([`metrics`]). Histograms are log-bucketed (8 sub-buckets per power
//!   of two, ≈ 12.5% relative resolution) and report `p50/p95/p99`.
//! * **Registry** — a process-global [`Registry`] ([`registry`]) whose
//!   [`MetricsSnapshot`] serializes to JSON (hand-rolled writer), an
//!   aligned text table, or the Prometheus text exposition format
//!   ([`prom`]) for scraping.
//! * **Events** — an [`EventSink`] abstraction ([`event`]) with a JSONL
//!   writer (file or stderr, selected via the `DVE_LOG` environment
//!   variable), a pretty stderr sink (the default), and an in-memory
//!   [`VecSink`] for tests.
//! * **Accuracy audit** — recorders for estimation *quality* ([`audit`]):
//!   per-estimator ratio-error histograms, GEE interval coverage
//!   counters, and AE solver form-agreement telemetry, all addressed
//!   through the same global registry.
//! * **Spans & causal tracing** — [`trace::span`] is the one timing
//!   primitive: every span records its duration on drop into
//!   `span.duration_ns{<span name>}`, traced or not ([`trace`]). Tracing
//!   (off by default) adds propagated `trace_id`/`span_id`/`parent_id`
//!   contexts, a bounded sharded collector and a Chrome trace-event
//!   exporter. An untraced warm span makes zero allocations and takes no
//!   lock.
//! * **Sliding windows & SLOs** — rotating-ring [`WindowedCounter`]/
//!   [`WindowedHistogram`] instruments with `p50/p95/p99` over the last
//!   `1m`/`5m`/`1h` ([`window`], injectable clock for deterministic
//!   tests), and [`SloTracker`] error budgets with Google-SRE two-window
//!   burn-rate alerting ([`slo`]) feeding structured events into the
//!   `DVE_LOG` sink.
//!
//! ## Recording
//!
//! Hot paths cache their instrument handle once and then pay only a few
//! relaxed atomic operations per record, with no allocation once the
//! handle is warm (pinned by `warm_metric_lookup_is_allocation_free` in
//! `tests/alloc_free.rs`):
//!
//! ```
//! use std::sync::{Arc, OnceLock};
//!
//! fn rows_scanned() -> &'static Arc<dve_obs::Counter> {
//!     static C: OnceLock<Arc<dve_obs::Counter>> = OnceLock::new();
//!     C.get_or_init(|| dve_obs::global().counter("demo.rows_scanned"))
//! }
//!
//! rows_scanned().add(128);
//! assert!(rows_scanned().get() >= 128);
//! ```
//!
//! ## Disabling
//!
//! [`set_enabled`]`(false)` (or `DVE_METRICS=off` in binaries that honor
//! it) turns every recording method into a single relaxed load + branch,
//! so instrumented code paths stay near-free when telemetry is off.
//!
//! ## `DVE_LOG`
//!
//! | value | sink |
//! |---|---|
//! | unset, `pretty` | human-readable stderr, `info` level |
//! | `debug` | human-readable stderr, `debug` level |
//! | `jsonl` | one JSON object per event on stderr |
//! | `jsonl:PATH` | one JSON object per event appended to `PATH` |
//! | `off` | drop all events |
//! | anything else | `pretty`, plus a one-time `obs.log.bad_spec` warning |
//!
//! An unwritable `jsonl:PATH` likewise never drops events silently: the
//! sink falls back to JSONL-on-stderr and emits a one-time
//! `obs.log.unwritable` warning through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod event;
pub mod metrics;
pub mod minijson;
pub mod prom;
pub mod registry;
pub mod slo;
pub mod trace;
pub mod window;

pub use event::{
    emit, set_sink, sink, Event, EventSink, JsonlSink, Level, NullSink, PrettySink, VecSink,
};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{
    global, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, Registry,
};
pub use slo::{SloConfig, SloTracker};
pub use window::{
    global_windows, ManualClock, WindowClock, WindowRegistry, WindowSnapshot, WindowStats,
    WindowedCounter, WindowedHistogram,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric recording is currently enabled (default: yes).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric recording. When disabled, every
/// recording method degenerates to one relaxed load and a branch.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Serializes tests that toggle or depend on the global [`enabled`]
/// flag (unit tests in one binary share it).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_toggle_roundtrips() {
        let _guard = test_lock();
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}

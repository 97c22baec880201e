//! Causal tracing: propagated trace contexts, a lock-sharded ring-buffer
//! span collector, and a Chrome trace-event JSON exporter.
//!
//! A span is also the workspace's one timing primitive. Whether or not
//! tracing is on, every span records its duration on drop into the
//! labeled histogram [`SPAN_DURATION`]`{<span name>}` of the global
//! registry, so `/metrics` answers "where did the time go, per layer"
//! for every request. Tracing adds the causal view: "where did *this*
//! request's time go". A traced span carries a
//! `trace_id`/`span_id`/`parent_id` triple (SplitMix64-derived 64-bit
//! ids), so a single `POST /v1/estimate` can be followed from the accept
//! thread, across the `dve-par` pool boundary, down to the per-estimator
//! math — and exported as a file that `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) load directly.
//!
//! ## Context propagation rules
//!
//! * The current context lives in a thread-local ([`current`]).
//! * [`root_span`] starts a new trace and installs itself as current;
//!   [`span`] opens a child of the current context. With tracing off, or
//!   no current trace, a span only times itself: it allocates nothing
//!   and touches no collector, so library code may be instrumented
//!   unconditionally.
//! * Crossing a thread boundary is explicit: capture [`current`] before
//!   spawning, then [`adopt`] it inside the worker. `dve-par` does this
//!   for every pool worker, so spans opened inside tasks link to the
//!   caller's trace.
//! * Spans that were *measured* on one thread but *recorded* on another
//!   (e.g. queue wait, observed by the worker but attributable to the
//!   accept thread) use [`record_span`] with an explicit thread id.
//!
//! ## Determinism interaction
//!
//! Tracing never feeds back into estimation: ids are derived from a
//! process-local counter, timestamps come from a process-local epoch,
//! and the collector is write-only from the instrumented code's point of
//! view. `dve-par` adopts the parent context *around* the task function,
//! so task results — and therefore the bit-identical-to-serial contract
//! — are unchanged for every `jobs` value.
//!
//! ## Overhead budget
//!
//! Tracing is **off** by default. Disabled, a span costs one relaxed
//! load, two clock reads and one histogram record through a cached
//! handle, with zero heap allocations and no lock once its name is warm
//! (pinned by the counting-allocator test
//! `tracing_off_is_allocation_free_on_the_span_path` in
//! `tests/alloc_free.rs`). Enabled, each finished span also costs one
//! `VecDeque` push behind one of [`SHARDS`] mutexes; the buffers are
//! bounded ([`SHARD_CAP`] spans per shard, drop-oldest), so a
//! long-running daemon's memory stays flat and [`dropped_spans`] makes
//! the loss observable.

use crate::metrics::Histogram;
use crate::minijson::Writer;
use dve_numeric::rng::{splitmix64, GOLDEN};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The labeled histogram each span's duration lands in, one member per
/// span name (Prometheus: `span_duration_ns{label="<span name>"}`).
pub const SPAN_DURATION: &str = "span.duration_ns";

/// Number of mutex-sharded span buffers. A power of two; spans shard by
/// `trace_id`, so one trace's spans share a shard (single-lock lookup)
/// while concurrent traces spread across locks.
pub const SHARDS: usize = 8;

/// Bound on buffered spans per shard. At ~100 bytes a span this caps the
/// collector near 1.6 MiB; overflow drops the oldest span and bumps
/// [`dropped_spans`].
pub const SHARD_CAP: usize = 2048;

/// How many completed root spans the recent-traces index remembers.
pub const RECENT_CAP: usize = 64;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether span recording is currently enabled (default: **no** — unlike
/// metrics, tracing is opt-in).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Globally enables or disables tracing. Disabled, every span
/// constructor is one relaxed load + branch with zero allocations.
pub fn set_tracing(on: bool) {
    if on {
        // Pin the timestamp epoch before the first span so `start_ns`
        // values are small and monotone from "tracing turned on".
        let _ = epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Records `ns` into [`SPAN_DURATION`]`{name}`. Handles are cached in a
/// fixed table keyed by the name's address, so a warm name costs one
/// probe and the histogram's relaxed atomics: no lock, no allocation.
/// A name that finds the table full goes through the registry instead.
fn record_duration(name: &'static str, ns: u64) {
    type Slot = OnceLock<(&'static str, Arc<Histogram>)>;
    const SLOTS: usize = 128;
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Slot = OnceLock::new();
    static CACHE: [Slot; SLOTS] = [EMPTY; SLOTS];
    let home = ((name.as_ptr() as u64).wrapping_mul(GOLDEN) >> 57) as usize;
    for probe in 0..SLOTS {
        let (slot_name, hist) = CACHE[(home + probe) % SLOTS]
            .get_or_init(|| (name, crate::global().histogram_labeled(SPAN_DURATION, name)));
        if *slot_name == name {
            hist.record(ns);
            return;
        }
    }
    crate::global()
        .histogram_labeled(SPAN_DURATION, name)
        .record(ns);
}

/// Process-unique id source: SplitMix64 over a counter, offset by a
/// per-process seed so concurrent daemons do not collide.
fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED);
        splitmix64(&mut (t ^ u64::from(std::process::id())))
    });
    let v = splitmix64(&mut (seed ^ NEXT.fetch_add(1, Ordering::Relaxed)));
    if v == 0 {
        1
    } else {
        v
    }
}

/// A 64-bit trace identifier, formatted as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// A 64-bit span identifier, formatted as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// A fresh process-unique trace id.
    pub fn new() -> Self {
        TraceId(next_id())
    }

    /// Parses a client-supplied trace id (e.g. an `X-Dve-Trace-Id`
    /// header). 1–16 hex digits parse literally; anything else is
    /// deterministically hashed, so *every* string names exactly one
    /// trace and the parse cannot fail.
    pub fn parse(s: &str) -> Self {
        let t = s.trim();
        if !t.is_empty() && t.len() <= 16 && t.bytes().all(|b| b.is_ascii_hexdigit()) {
            if let Ok(v) = u64::from_str_radix(t, 16) {
                return TraceId(v);
            }
        }
        let mut h = 0x6A5D_39EA_E116_586Au64;
        for b in t.bytes() {
            h = splitmix64(&mut (h ^ u64::from(b)));
        }
        TraceId(h)
    }
}

impl Default for TraceId {
    fn default() -> Self {
        Self::new()
    }
}

/// The propagated pair: which trace we are in and which span is the
/// innermost open one (the parent of anything opened next).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span in this request tree shares.
    pub trace_id: TraceId,
    /// The innermost open span — the parent for new children.
    pub span_id: SpanId,
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's current trace context, if any. Capture this
/// before spawning workers and [`adopt`] it inside them.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// A small monotone id for the calling OS thread (1, 2, 3, … in first-
/// use order). `std::thread::ThreadId` has no stable numeric accessor,
/// and trace viewers want small integers per track.
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds between the tracing epoch (first use after
/// [`set_tracing`]`(true)`) and `at`; 0 for instants before the epoch.
pub fn instant_ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Nanoseconds since the tracing epoch, now.
pub fn now_ns() -> u64 {
    instant_ns(Instant::now())
}

/// One finished span as the collector stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's own id.
    pub span_id: SpanId,
    /// The enclosing span, `None` for a trace root.
    pub parent_id: Option<SpanId>,
    /// Static span name (`"serve.request"`, `"pipeline.estimate"`, …).
    pub name: &'static str,
    /// Optional free-form annotation (estimator name, route, …).
    pub detail: Option<String>,
    /// The OS thread the work ran on ([`current_thread_id`] numbering).
    pub tid: u64,
    /// Start, nanoseconds since the tracing epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A trace the daemon recently completed, newest first in
/// [`recent_traces`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// The completed trace.
    pub trace_id: TraceId,
    /// Name of the root span.
    pub root_name: &'static str,
    /// Root start, nanoseconds since the tracing epoch.
    pub start_ns: u64,
    /// Root duration in nanoseconds.
    pub dur_ns: u64,
    /// Spans buffered for this trace when the root closed.
    pub spans: usize,
}

struct Collector {
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    recent: Mutex<VecDeque<TraceSummary>>,
    dropped: AtomicU64,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        shards: (0..SHARDS)
            .map(|_| Mutex::new(VecDeque::with_capacity(64)))
            .collect(),
        recent: Mutex::new(VecDeque::with_capacity(RECENT_CAP)),
        dropped: AtomicU64::new(0),
    })
}

fn shard_of(trace_id: TraceId) -> usize {
    (trace_id.0 as usize) & (SHARDS - 1)
}

fn push_record(rec: SpanRecord) {
    let c = collector();
    let is_root = rec.parent_id.is_none();
    let (trace_id, root_name, start_ns, dur_ns) =
        (rec.trace_id, rec.name, rec.start_ns, rec.dur_ns);
    {
        let mut shard = c.shards[shard_of(rec.trace_id)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAP {
            shard.pop_front();
            c.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(rec);
    }
    if is_root {
        let mut recent = c.recent.lock().unwrap_or_else(|e| e.into_inner());
        recent.retain(|t| t.trace_id != trace_id);
        if recent.len() >= RECENT_CAP {
            recent.pop_back();
        }
        // `spans` is a placeholder here; `recent_traces` fills it from
        // the live buffers at read time, so children recorded after the
        // root (manual/out-of-band spans) are still counted.
        recent.push_front(TraceSummary {
            trace_id,
            root_name,
            start_ns,
            dur_ns,
            spans: 0,
        });
    }
}

/// Every buffered span of `trace_id`, sorted by start time (ties by span
/// id). Empty if the trace is unknown or already evicted.
pub fn spans_for(trace_id: TraceId) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = collector().shards[shard_of(trace_id)]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter(|s| s.trace_id == trace_id)
        .cloned()
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.span_id));
    spans
}

/// Recently completed traces, newest first (bounded by [`RECENT_CAP`]).
/// The per-trace span count reflects what is buffered *now* — eviction
/// can shrink it, late out-of-band spans grow it.
pub fn recent_traces() -> Vec<TraceSummary> {
    let c = collector();
    let mut out: Vec<TraceSummary> = c
        .recent
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    for t in &mut out {
        t.spans = c.shards[shard_of(t.trace_id)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.trace_id == t.trace_id)
            .count();
    }
    out
}

/// Spans evicted from the ring buffers since process start.
pub fn dropped_spans() -> u64 {
    collector().dropped.load(Ordering::Relaxed)
}

/// Spans currently buffered in each collector shard ring, indexed by
/// shard (`SHARDS` entries). Exported as per-shard occupancy gauges on
/// the daemon's `/metrics` so operators can see the buffers filling
/// before [`dropped_spans`] starts climbing.
pub fn shard_occupancy() -> [usize; SHARDS] {
    let c = collector();
    let mut out = [0usize; SHARDS];
    for (slot, shard) in out.iter_mut().zip(&c.shards) {
        *slot = shard.lock().unwrap_or_else(|e| e.into_inner()).len();
    }
    out
}

/// Empties the collector and the recent-traces index (tests, and the CLI
/// between profiled runs).
pub fn clear() {
    let c = collector();
    for shard in &c.shards {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    c.recent.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// The tracing half of a span: present only when tracing was on and the
/// span joined a trace.
struct Traced {
    ctx: TraceContext,
    parent: Option<SpanId>,
    prev: Option<TraceContext>,
    detail: Option<String>,
}

/// An RAII span: created by [`span`] / [`root_span`], it records its
/// lifetime into [`SPAN_DURATION`]`{name}` on drop. When it joins a trace
/// it is also installed as the thread's current context for its lifetime
/// and recorded into the collector on drop; otherwise it allocates
/// nothing.
#[must_use = "a span measures its guard's lifetime; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    traced: Option<Traced>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SpanGuard");
        d.field("name", &self.name);
        if let Some(t) = &self.traced {
            d.field("trace_id", &t.ctx.trace_id);
        }
        d.finish_non_exhaustive()
    }
}

fn open(name: &'static str, trace: Option<(TraceId, Option<SpanId>)>) -> SpanGuard {
    let traced = trace.map(|(trace_id, parent)| {
        let ctx = TraceContext {
            trace_id,
            span_id: SpanId(next_id()),
        };
        Traced {
            ctx,
            parent,
            prev: CURRENT.with(|c| c.replace(Some(ctx))),
            detail: None,
        }
    });
    SpanGuard {
        name,
        start: Instant::now(),
        traced,
    }
}

/// Opens a child span of the thread's current context. With tracing off
/// or no current trace it only times itself (allocation-free).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let parent = if tracing_enabled() { current() } else { None };
    open(name, parent.map(|ctx| (ctx.trace_id, Some(ctx.span_id))))
}

/// Opens a new trace rooted at `name` (fresh trace id). With tracing off
/// it only times itself.
#[inline]
pub fn root_span(name: &'static str) -> SpanGuard {
    open(name, tracing_enabled().then(|| (TraceId::new(), None)))
}

/// Opens a new trace under a caller-chosen id (e.g. parsed from an
/// `X-Dve-Trace-Id` header). With tracing off it only times itself.
#[inline]
pub fn root_span_with_id(name: &'static str, trace_id: TraceId) -> SpanGuard {
    open(name, tracing_enabled().then_some((trace_id, None)))
}

impl SpanGuard {
    /// This span's context (the one children will link to), `None` when
    /// the span is not traced.
    pub fn context(&self) -> Option<TraceContext> {
        self.traced.as_ref().map(|t| t.ctx)
    }

    /// Attaches a free-form annotation. The closure runs (and the
    /// string allocates) only when the span is traced.
    pub fn detail(mut self, f: impl FnOnce() -> String) -> Self {
        self.set_detail(f);
        self
    }

    /// Replaces the annotation on an already-open span (e.g. the
    /// response status, known only at the end).
    pub fn set_detail(&mut self, f: impl FnOnce() -> String) {
        if let Some(t) = &mut self.traced {
            t.detail = Some(f());
        }
    }

    /// Backdates the span's start to `at` (an [`Instant`] captured
    /// before the guard existed — e.g. the accept timestamp of a
    /// request whose trace id was only known after parsing). The
    /// recorded duration then runs from `at`.
    pub fn started_at(mut self, at: Instant) -> Self {
        self.start = at;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        record_duration(self.name, dur_ns);
        let Some(t) = self.traced.take() else {
            return;
        };
        CURRENT.with(|c| c.set(t.prev));
        push_record(SpanRecord {
            trace_id: t.ctx.trace_id,
            span_id: t.ctx.span_id,
            parent_id: t.parent,
            name: self.name,
            detail: t.detail,
            tid: current_thread_id(),
            start_ns: instant_ns(self.start),
            dur_ns,
        });
    }
}

/// A guard that installs an inherited context on the current thread and
/// restores the previous one on drop — the cross-thread propagation
/// primitive ([`adopt`]).
#[must_use = "dropping the guard immediately un-adopts the context"]
#[derive(Debug)]
pub struct AdoptGuard {
    prev: Option<TraceContext>,
    active: bool,
}

/// Installs `ctx` (a [`current`] captured on another thread) as this
/// thread's current context until the guard drops. `None` is a no-op
/// guard, so callers can pass `current()` through unconditionally.
pub fn adopt(ctx: Option<TraceContext>) -> AdoptGuard {
    match ctx {
        Some(c) => AdoptGuard {
            prev: CURRENT.with(|cur| cur.replace(Some(c))),
            active: true,
        },
        None => AdoptGuard {
            prev: None,
            active: false,
        },
    }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Records a span that was measured out-of-band: explicit start,
/// duration, and thread attribution, linked as a child of `parent`.
/// Used for phases observed after the fact (queue wait) or attributed
/// to a thread other than the recorder (the accept thread). The
/// duration always lands in [`SPAN_DURATION`]`{name}`; the span reaches
/// the collector only when tracing is on and `parent` is a trace.
/// Returns the new span's id, or `None` when it was not traced.
pub fn record_span(
    name: &'static str,
    parent: Option<TraceContext>,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
    detail: Option<&str>,
) -> Option<SpanId> {
    record_duration(name, dur_ns);
    let parent = parent.filter(|_| tracing_enabled())?;
    let span_id = SpanId(next_id());
    push_record(SpanRecord {
        trace_id: parent.trace_id,
        span_id,
        parent_id: Some(parent.span_id),
        name,
        detail: detail.map(str::to_string),
        tid,
        start_ns,
        dur_ns,
    });
    Some(span_id)
}

/// Records a complete root span out-of-band (e.g. a request shed with
/// `429` before any handler ran). The duration always lands in
/// [`SPAN_DURATION`]`{name}`. Returns the root's context so callers can
/// attach children via [`record_span`], or `None` when tracing is off.
pub fn record_root_span(
    name: &'static str,
    trace_id: TraceId,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
    detail: Option<&str>,
) -> Option<TraceContext> {
    record_duration(name, dur_ns);
    if !tracing_enabled() {
        return None;
    }
    let span_id = SpanId(next_id());
    push_record(SpanRecord {
        trace_id,
        span_id,
        parent_id: None,
        name,
        detail: detail.map(str::to_string),
        tid,
        start_ns,
        dur_ns,
    });
    Some(TraceContext { trace_id, span_id })
}

/// Renders spans as Chrome trace-event JSON (the `{"traceEvents":[…]}`
/// object format), loadable in `chrome://tracing` and Perfetto. Each
/// span becomes one complete (`"ph":"X"`) event; timestamps are
/// microseconds with nanosecond precision preserved in the fraction.
pub fn export_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    let mut w = Writer::new(&mut out);
    w.begin_object()
        .field("displayTimeUnit", "ms")
        .key("traceEvents")
        .begin_array();
    for s in spans {
        w.begin_object()
            .field("name", s.name)
            .field("cat", "dve")
            .field("ph", "X")
            .key("ts")
            .raw(&format_us(s.start_ns))
            .key("dur")
            .raw(&format_us(s.dur_ns))
            .field("pid", 1u64)
            .field("tid", s.tid)
            .key("args")
            .begin_object()
            .field("trace_id", &s.trace_id.to_string())
            .field("span_id", &s.span_id.to_string());
        if let Some(p) = s.parent_id {
            w.field("parent_id", &p.to_string());
        }
        if let Some(d) = &s.detail {
            w.field("detail", d);
        }
        w.end_object().end_object();
    }
    w.end_array().end_object();
    out
}

/// Nanoseconds rendered as microseconds with three decimals (`ts`/`dur`
/// fields of the trace-event format are µs).
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// What [`validate_chrome_trace`] found in a structurally valid trace
/// file: enough to assert "this really is a causal multi-thread trace"
/// in CI without eyeballing Perfetto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total complete (`"ph":"X"`) events.
    pub spans: usize,
    /// Distinct `tid` values across all events.
    pub threads: usize,
    /// Events without a `parent_id` (trace roots).
    pub roots: usize,
    /// Events whose `parent_id` resolves to another event's `span_id`
    /// within the same `trace_id`.
    pub linked: usize,
}

/// Validates a Chrome trace-event JSON document produced by
/// [`export_chrome_trace`] (or anything shape-compatible): parses it
/// with [`crate::minijson`], checks every event's required fields, and
/// verifies that every `parent_id` resolves to a `span_id` in the same
/// trace — i.e. the spans form a causal forest, not a soup.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    use crate::minijson::{parse, JsonValue};
    let doc = parse(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"traceEvents\" array")?;

    // First pass: shape-check every event and index (trace_id, span_id).
    let mut ids: Vec<(String, String)> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let field = |key: &str| {
            e.get(key)
                .ok_or_else(|| format!("event {i} missing \"{key}\""))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"name\" is not a string"))?;
        if name.is_empty() {
            return Err(format!("event {i}: empty span name"));
        }
        if field("ph")?.as_str() != Some("X") {
            return Err(format!("event {i}: expected complete event (ph=X)"));
        }
        for key in ["ts", "dur"] {
            let v = field(key)?
                .as_f64()
                .ok_or_else(|| format!("event {i}: \"{key}\" is not a number"))?;
            if v.is_nan() || v < 0.0 {
                return Err(format!("event {i}: negative \"{key}\""));
            }
        }
        field("tid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: \"tid\" is not an integer"))?;
        let args = field("args")?;
        let arg_str = |key: &str| {
            args.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i}: args.{key} missing or not a string"))
        };
        ids.push((
            arg_str("trace_id")?.to_string(),
            arg_str("span_id")?.to_string(),
        ));
    }

    // Second pass: every parent_id must resolve within its own trace.
    let mut roots = 0usize;
    let mut linked = 0usize;
    let mut tids: Vec<u64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        tids.push(e.get("tid").and_then(JsonValue::as_u64).unwrap_or(0));
        match e.get("args").and_then(|a| a.get("parent_id")) {
            None => roots += 1,
            Some(p) => {
                let p = p
                    .as_str()
                    .ok_or_else(|| format!("event {i}: args.parent_id is not a string"))?;
                let trace = &ids[i].0;
                if !ids.iter().any(|(t, s)| t == trace && s == p) {
                    return Err(format!(
                        "event {i}: parent_id {p} does not resolve within trace {trace}"
                    ));
                }
                linked += 1;
            }
        }
    }
    tids.sort_unstable();
    tids.dedup();
    Ok(TraceCheck {
        spans: events.len(),
        threads: tids.len(),
        roots,
        linked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests here toggle the global `TRACING` flag; serialize them with
    /// the same lock the metrics tests use for `ENABLED`.
    fn traced<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::test_lock();
        set_tracing(true);
        let out = f();
        set_tracing(false);
        out
    }

    #[test]
    fn ids_format_as_16_hex_digits() {
        assert_eq!(TraceId(0xabc).to_string(), "0000000000000abc");
        assert_eq!(SpanId(u64::MAX).to_string(), "ffffffffffffffff");
    }

    #[test]
    fn trace_id_parse_accepts_hex_and_hashes_the_rest() {
        assert_eq!(TraceId::parse("abc123"), TraceId(0xabc123));
        assert_eq!(TraceId::parse("  FF  "), TraceId(0xff));
        assert_eq!(TraceId::parse("0000000000000abc"), TraceId(0xabc));
        // Non-hex strings hash deterministically and distinctly.
        let a = TraceId::parse("my-request");
        let b = TraceId::parse("my-request");
        let c = TraceId::parse("my-request-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Round trip: the formatted id parses back to itself.
        assert_eq!(TraceId::parse(&a.to_string()), a);
        // The hash of a non-hex id is pinned: ids named by clients must
        // keep naming the same trace.
        assert_eq!(TraceId::parse("not-hex"), TraceId(0xf5c0_e5d0_e7bf_126d));
    }

    #[test]
    fn generated_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(next_id()), "id collision");
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::test_lock();
        set_tracing(false);
        let g = root_span("t.root");
        assert!(g.context().is_none());
        drop(g);
        let g = span("t.child");
        assert!(g.context().is_none());
        drop(g);
        assert!(current().is_none());
        assert!(record_span(
            "t.manual",
            Some(TraceContext {
                trace_id: TraceId(1),
                span_id: SpanId(1)
            }),
            0,
            1,
            1,
            None
        )
        .is_none());
    }

    #[test]
    fn untraced_spans_still_time_their_layer() {
        let _guard = crate::test_lock();
        set_tracing(false);
        let count = |name: &str| {
            crate::global()
                .histogram_labeled(SPAN_DURATION, name)
                .count()
        };
        let before = [
            count("t.timed.span"),
            count("t.timed.root"),
            count("t.timed.manual"),
            count("t.timed.manual_root"),
        ];
        drop(span("t.timed.span"));
        drop(root_span("t.timed.root"));
        assert!(record_span("t.timed.manual", None, 0, 40, 1, None).is_none());
        assert!(record_root_span("t.timed.manual_root", TraceId(1), 0, 50, 1, None).is_none());
        let after = [
            count("t.timed.span"),
            count("t.timed.root"),
            count("t.timed.manual"),
            count("t.timed.manual_root"),
        ];
        assert_eq!(after, before.map(|c| c + 1));
        let manual = crate::global().histogram_labeled(SPAN_DURATION, "t.timed.manual");
        assert_eq!(manual.max(), Some(40));
    }

    #[test]
    fn child_span_without_a_current_trace_is_untraced() {
        traced(|| {
            let g = span("t.orphan");
            assert!(g.context().is_none());
        });
    }

    #[test]
    fn nesting_links_parents_and_restores_current() {
        traced(|| {
            let root = root_span("t.root");
            let root_ctx = root.context().unwrap();
            assert_eq!(current(), Some(root_ctx));
            {
                let child = span("t.child").detail(|| "inner".to_string());
                let child_ctx = child.context().unwrap();
                assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
                assert_eq!(current(), Some(child_ctx));
                let grand = span("t.grandchild");
                assert_eq!(current(), grand.context());
                drop(grand);
                assert_eq!(current(), Some(child_ctx));
            }
            assert_eq!(current(), Some(root_ctx));
            drop(root);
            assert_eq!(current(), None);

            let spans = spans_for(root_ctx.trace_id);
            assert_eq!(spans.len(), 3);
            let root_rec = spans.iter().find(|s| s.name == "t.root").unwrap();
            let child_rec = spans.iter().find(|s| s.name == "t.child").unwrap();
            let grand_rec = spans.iter().find(|s| s.name == "t.grandchild").unwrap();
            assert_eq!(root_rec.parent_id, None);
            assert_eq!(child_rec.parent_id, Some(root_rec.span_id));
            assert_eq!(grand_rec.parent_id, Some(child_rec.span_id));
            assert_eq!(child_rec.detail.as_deref(), Some("inner"));
        });
    }

    #[test]
    fn adopt_carries_context_across_threads() {
        traced(|| {
            let root = root_span("t.xthread");
            let ctx = current();
            let worker_tid = std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = adopt(ctx);
                    assert_eq!(current(), ctx);
                    drop(span("t.worker"));
                    current_thread_id()
                })
                .join()
                .unwrap()
            });
            let trace_id = root.context().unwrap().trace_id;
            drop(root);
            let spans = spans_for(trace_id);
            let worker = spans.iter().find(|s| s.name == "t.worker").unwrap();
            assert_eq!(worker.parent_id, Some(ctx.unwrap().span_id));
            assert_eq!(worker.tid, worker_tid);
            assert_ne!(worker.tid, current_thread_id());
        });
    }

    #[test]
    fn adopt_none_is_a_no_op() {
        let before = current();
        let g = adopt(None);
        assert_eq!(current(), before);
        drop(g);
        assert_eq!(current(), before);
    }

    #[test]
    fn manual_records_and_recent_index() {
        traced(|| {
            let trace_id = TraceId::new();
            let root = record_root_span("t.shed", trace_id, 10, 20, 7, Some("429")).unwrap();
            record_span("t.shed.wait", Some(root), 10, 5, 7, None).unwrap();
            let spans = spans_for(trace_id);
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].tid, 7);
            let recent = recent_traces();
            let summary = recent.iter().find(|t| t.trace_id == trace_id).unwrap();
            assert_eq!(summary.root_name, "t.shed");
            assert_eq!(summary.dur_ns, 20);
            // The child was recorded after the root, but the read-time
            // count still sees both.
            assert_eq!(summary.spans, 2);
        });
    }

    #[test]
    fn ring_buffer_drops_oldest_at_capacity() {
        traced(|| {
            clear();
            let dropped_before = dropped_spans();
            // All spans of one trace land in one shard; overflow it.
            let trace_id = TraceId::new();
            let ctx = record_root_span("t.flood", trace_id, 0, 1, 1, None).unwrap();
            for _ in 0..SHARD_CAP + 10 {
                record_span("t.flood.child", Some(ctx), 0, 1, 1, None);
            }
            assert!(dropped_spans() > dropped_before);
            assert!(spans_for(trace_id).len() <= SHARD_CAP);
            clear();
        });
    }

    #[test]
    fn chrome_export_is_valid_json_with_linked_events() {
        traced(|| {
            let trace_id;
            {
                let root = root_span("t.export").detail(|| "q\"uote".to_string());
                trace_id = root.context().unwrap().trace_id;
                drop(span("t.export.child"));
            }
            let spans = spans_for(trace_id);
            let json = export_chrome_trace(&spans);
            let doc = crate::minijson::parse(&json).expect("exporter emits valid JSON");
            let events = doc
                .get("traceEvents")
                .and_then(crate::minijson::JsonValue::as_array)
                .expect("traceEvents array");
            assert_eq!(events.len(), 2);
            for e in events {
                assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("tid").and_then(|v| v.as_u64()).is_some());
                assert_eq!(
                    e.get("args")
                        .and_then(|a| a.get("trace_id"))
                        .and_then(|v| v.as_str()),
                    Some(trace_id.to_string().as_str())
                );
            }
            let root_ev = events
                .iter()
                .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("t.export"))
                .unwrap();
            let child_ev = events
                .iter()
                .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("t.export.child"))
                .unwrap();
            assert_eq!(
                child_ev
                    .get("args")
                    .and_then(|a| a.get("parent_id"))
                    .and_then(|v| v.as_str()),
                root_ev
                    .get("args")
                    .and_then(|a| a.get("span_id"))
                    .and_then(|v| v.as_str())
            );
            assert_eq!(
                root_ev
                    .get("args")
                    .and_then(|a| a.get("detail"))
                    .and_then(|v| v.as_str()),
                Some("q\"uote")
            );
        });
    }

    #[test]
    fn started_at_backdates_the_root() {
        traced(|| {
            let t0 = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(2));
            let root = root_span("t.backdated").started_at(t0);
            let trace_id = root.context().unwrap().trace_id;
            drop(root);
            let spans = spans_for(trace_id);
            assert!(
                spans[0].dur_ns >= 2_000_000,
                "backdated duration too short: {}",
                spans[0].dur_ns
            );
        });
    }

    #[test]
    fn format_us_preserves_ns_precision() {
        assert_eq!(format_us(1_234_567), "1234.567");
        assert_eq!(format_us(5), "0.005");
        assert_eq!(format_us(0), "0.000");
    }

    #[test]
    fn validator_accepts_exported_traces_and_counts_threads() {
        traced(|| {
            let trace_id;
            {
                let root = root_span("t.check");
                trace_id = root.context().unwrap().trace_id;
                let ctx = root.context();
                drop(span("t.check.inline"));
                std::thread::spawn(move || {
                    let _adopt = adopt(ctx);
                    drop(span("t.check.worker"));
                })
                .join()
                .unwrap();
            }
            let json = export_chrome_trace(&spans_for(trace_id));
            let check = validate_chrome_trace(&json).expect("exported trace validates");
            assert_eq!(check.spans, 3);
            assert_eq!(check.roots, 1);
            assert_eq!(check.linked, 2);
            assert!(check.threads >= 2, "{check:?}");
        });
    }

    #[test]
    fn validator_rejects_broken_traces() {
        // Not JSON at all.
        assert!(validate_chrome_trace("nope").is_err());
        // JSON but not a trace document.
        assert!(validate_chrome_trace("{\"spans\":[]}").is_err());
        // Dangling parent link.
        let dangling = r#"{"traceEvents":[
            {"name":"a","cat":"dve","ph":"X","ts":0.0,"dur":1.0,"pid":1,"tid":1,
             "args":{"trace_id":"t1","span_id":"s1","parent_id":"missing"}}]}"#;
        let err = validate_chrome_trace(dangling).unwrap_err();
        assert!(err.contains("does not resolve"), "{err}");
        // Wrong phase.
        let bad_ph = r#"{"traceEvents":[
            {"name":"a","cat":"dve","ph":"B","ts":0.0,"dur":1.0,"pid":1,"tid":1,
             "args":{"trace_id":"t1","span_id":"s1"}}]}"#;
        assert!(validate_chrome_trace(bad_ph).is_err());
        // Empty trace is structurally fine.
        let empty = validate_chrome_trace(r#"{"traceEvents":[]}"#).unwrap();
        assert_eq!(empty.spans, 0);
    }
}

//! Request routing and the stable `/v1` request/response contract.
//!
//! Every response body is JSON except `GET /metrics` (Prometheus text
//! exposition). Every 4xx/5xx from every endpoint uses one envelope:
//!
//! ```json
//! {"error":{"code":"unknown_estimator","message":"…","hint":"GET /v1/estimators lists every valid name"}}
//! ```
//!
//! `code` is the stable machine key (CLI consumers map it to an exit
//! status via [`exit_code_for`]); `message` says what happened;
//! `hint` says what to do about it. Versioned surfaces (`/healthz`,
//! `/v1/estimators`) report [`API_VERSION`] so clients can detect skew
//! before depending on a shape.
//!
//! Request bodies are decoded with the workspace's dependency-free
//! [`dve_obs::minijson`] reader — the same parser the CI accuracy gates
//! trust — so malformed JSON is a structured 400, never a panic.

use crate::http::Request;
use crate::monitor::Monitor;
use crate::pipeline::{self, PipelineError};
use dve_cluster::{ClusterError, ClusterSweep, Coordinator};
use dve_core::design::SampleDesign;
use dve_numeric::rng::Rng;
use dve_obs::minijson::{self, JsonValue, Writer};
use dve_obs::trace;
use dve_storage::analyze::AnalyzeError;
use dve_storage::{
    analyze_json, analyze_table_jobs, build_table_stats, AnalyzeOptions, Column, DataType, Field,
    Schema, StatsCatalog, Table,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A fully rendered response, ready for [`crate::http::write_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

/// The version of the HTTP API contract, reported by `/healthz` and
/// `/v1/estimators`. Bump on any breaking change to a request or
/// response shape; additive fields do not bump it.
pub const API_VERSION: u32 = 1;

impl Response {
    fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// The error envelope every failure uses, with the code's default
    /// hint attached.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        Response::error_with_hint(status, code, message, default_hint(code))
    }

    /// [`Response::error`] with an explicit hint, for the cases where
    /// the right next step depends on the specific failure.
    pub fn error_with_hint(status: u16, code: &str, message: &str, hint: &str) -> Self {
        let mut body = String::with_capacity(96 + message.len() + hint.len());
        Writer::new(&mut body)
            .begin_object()
            .key("error")
            .begin_object()
            .field("code", code)
            .field("message", message)
            .field("hint", hint)
            .end_object()
            .end_object();
        Response::json(status, body)
    }
}

/// What a client should do next, per error code. Part of the error
/// contract: every code has a hint, so consumers can always surface
/// actionable text without a lookup table of their own.
fn default_hint(code: &str) -> &'static str {
    match code {
        "malformed_json" => "send a JSON object body; DESIGN.md documents every request shape",
        "bad_request" => "check the request shape against DESIGN.md",
        "bad_query" => "query parameter values must parse; omit the parameter for its default",
        "unknown_estimator" => "GET /v1/estimators lists every valid name",
        "not_found" => "check the path; the route table is in DESIGN.md",
        "method_not_allowed" => "check the method for this route in DESIGN.md",
        "overloaded" => "the request queue is full; retry with backoff",
        "deadline_exceeded" => "retry; if persistent, raise --queue-depth or --jobs",
        "read_timeout" => "send the complete request within the read deadline",
        "body_too_large" => "shrink the request body or raise --max-body-bytes",
        "trace_not_found" => "GET /v1/traces lists the trace ids still buffered",
        "stats_not_found" => "POST /v1/analyze?save=true&table=NAME saves statistics first",
        "cluster_not_configured" => "start the daemon with --cluster WORKER[,WORKER...]",
        "cluster_unavailable" => "check the worker daemons; per-worker errors are in the message",
        _ => "see DESIGN.md for the API contract",
    }
}

/// The exit status a CLI consumer should use for an error envelope's
/// `code`: `2` for request errors the caller can fix, `3` for
/// capacity/availability conditions worth retrying, `1` otherwise.
pub fn exit_code_for(code: &str) -> i32 {
    match code {
        "malformed_json" | "bad_request" | "bad_query" | "unknown_estimator" | "not_found"
        | "method_not_allowed" | "body_too_large" | "trace_not_found" | "stats_not_found" => 2,
        "overloaded"
        | "deadline_exceeded"
        | "read_timeout"
        | "cluster_unavailable"
        | "cluster_not_configured" => 3,
        _ => 1,
    }
}

/// The route label used for `serve.requests` metrics.
pub fn route_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        (_, "/healthz") => "healthz",
        (_, "/metrics") => "metrics",
        (_, "/v1/estimators") => "estimators",
        (_, "/v1/estimate") => "estimate",
        (_, "/v1/analyze") => "analyze",
        (_, "/v1/slo") => "slo",
        (_, p) if p == "/v1/traces" || p.starts_with("/v1/traces/") => "traces",
        (_, p) if p.starts_with("/v1/stats/") => "stats",
        _ => "other",
    }
}

/// The daemon-level facts `/healthz` reports alongside liveness, plus
/// the per-server guarantee [`Monitor`] behind `/v1/slo`.
#[derive(Debug, Clone)]
pub struct ServeStatus {
    /// When the daemon started serving.
    pub started: Instant,
    /// Resolved worker-pool size (after `--jobs`/`DVE_JOBS` resolution).
    pub jobs: usize,
    /// Configured queue depth (the shed threshold).
    pub queue_capacity: usize,
    /// Accepted requests currently waiting for a worker.
    pub queue_len: usize,
    /// Shadow-truth sampler + SLO tracker for this server.
    pub monitor: Arc<Monitor>,
    /// The cluster coordinator, when the daemon was started with
    /// `--cluster`. `None` means the `cluster` estimate source answers
    /// `503 cluster_not_configured`.
    pub cluster: Option<Arc<Coordinator>>,
    /// The in-memory statistics catalog behind
    /// `POST /v1/analyze?save=true` and `GET /v1/stats/{table}`.
    pub catalog: Arc<Mutex<StatsCatalog>>,
}

impl Default for ServeStatus {
    fn default() -> Self {
        ServeStatus {
            started: Instant::now(),
            jobs: 0,
            queue_capacity: 0,
            queue_len: 0,
            monitor: Arc::new(Monitor::disabled()),
            cluster: None,
            catalog: Arc::new(Mutex::new(StatsCatalog::new())),
        }
    }
}

/// Routes one parsed request to its handler, with a default (zeroed)
/// [`ServeStatus`] — unit tests and embedders that do not run the
/// daemon loop.
pub fn handle(req: &Request) -> Response {
    handle_with_status(req, &ServeStatus::default())
}

/// Routes one parsed request to its handler.
pub fn handle_with_status(req: &Request, status: &ServeStatus) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(status),
        ("GET", "/v1/estimators") => estimators(),
        ("GET", "/metrics") => metrics(status),
        ("GET", "/v1/slo") => Response::json(200, status.monitor.slo_json()),
        ("GET", "/v1/traces") => traces_index(req),
        ("GET", p) if p.starts_with("/v1/traces/") => trace_by_id(&p["/v1/traces/".len()..]),
        ("POST", "/v1/estimate") => estimate(&req.body, status),
        ("POST", "/v1/analyze") => analyze(req, status),
        ("GET", p) if p.starts_with("/v1/stats/") => stats_lookup(&p["/v1/stats/".len()..], status),
        (
            _,
            "/healthz" | "/metrics" | "/v1/estimators" | "/v1/estimate" | "/v1/analyze" | "/v1/slo",
        ) => Response::error(405, "method_not_allowed", "wrong method for this path"),
        (_, p)
            if p == "/v1/traces" || p.starts_with("/v1/traces/") || p.starts_with("/v1/stats/") =>
        {
            Response::error(405, "method_not_allowed", "wrong method for this path")
        }
        (_, path) => Response::error(404, "not_found", &format!("no such path: {path}")),
    }
}

/// `GET /healthz` — liveness plus the facts an operator checks first:
/// uptime, version, pool size, and queue pressure.
fn healthz(status: &ServeStatus) -> Response {
    let mut body = String::with_capacity(160);
    Writer::new(&mut body)
        .begin_object()
        .field("status", "ok")
        .field("version", env!("CARGO_PKG_VERSION"))
        .field("api_version", API_VERSION)
        .field("uptime_s", status.started.elapsed().as_secs())
        .field("jobs", status.jobs)
        .field("queue_depth", status.queue_len)
        .field("queue_capacity", status.queue_capacity)
        .field(
            "cluster_workers",
            status.cluster.as_ref().map_or(0, |c| c.workers().len()),
        )
        .end_object();
    Response::json(200, body)
}

/// `GET /metrics` — Prometheus text exposition: the process-wide
/// registry snapshot (with trace-collector pressure gauges refreshed
/// first), the windowed shadow-error series, and the `slo_*` gauges.
fn metrics(status: &ServeStatus) -> Response {
    let registry = dve_obs::global();
    registry
        .gauge("trace.dropped_spans")
        .set(trace::dropped_spans() as i64);
    for (shard, len) in trace::shard_occupancy().iter().enumerate() {
        registry
            .gauge_labeled("trace.shard_occupancy", &format!("{shard}"))
            .set(*len as i64);
    }
    let mut body = registry.snapshot().to_prometheus();
    body.push_str(&status.monitor.prometheus());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body,
    }
}

/// How many index entries `GET /v1/traces` returns when `?limit=` is
/// absent, out of range, or unparseable — also the hard cap.
const TRACES_LIMIT_CAP: usize = 100;

/// `GET /v1/traces` — the recent-traces index, newest first. `?limit=N`
/// trims the answer; N is capped at [`TRACES_LIMIT_CAP`]. Malformed or
/// unknown query parameters are a structured `400 bad_query` — a typo'd
/// filter silently answering with the default is worse than an error.
fn traces_index(req: &Request) -> Response {
    let mut limit = TRACES_LIMIT_CAP;
    for pair in req.query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = n.min(TRACES_LIMIT_CAP),
                Err(_) => {
                    return Response::error(
                        400,
                        "bad_query",
                        &format!("\"limit\" must be a non-negative integer, got {value:?}"),
                    )
                }
            },
            other => {
                return Response::error(
                    400,
                    "bad_query",
                    &format!("unknown query parameter {other:?}"),
                )
            }
        }
    }
    let mut body = String::new();
    let mut w = Writer::new(&mut body);
    w.begin_object().key("traces").begin_array();
    for t in trace::recent_traces().iter().take(limit) {
        w.begin_object()
            .field("trace_id", &t.trace_id.to_string())
            .field("root", t.root_name)
            .field("start_us", t.start_ns / 1_000)
            .field("dur_us", t.dur_ns / 1_000)
            .field("spans", t.spans)
            .end_object();
    }
    w.end_array()
        .field("dropped_spans", trace::dropped_spans())
        .end_object();
    Response::json(200, body)
}

/// `GET /v1/traces/{id}` — one trace as Chrome trace-event JSON
/// (loadable in Perfetto / `chrome://tracing`).
fn trace_by_id(id: &str) -> Response {
    let spans = trace::spans_for(trace::TraceId::parse(id));
    if spans.is_empty() {
        return Response::error(
            404,
            "trace_not_found",
            &format!(
                "no buffered trace with id {id:?} (evicted, never recorded, or tracing is off)"
            ),
        );
    }
    Response::json(200, trace::export_chrome_trace(&spans))
}

fn estimators() -> Response {
    let mut body = String::new();
    let mut w = Writer::new(&mut body);
    w.begin_object()
        .field("api_version", API_VERSION)
        .key("estimators")
        .begin_array();
    for name in dve_core::registry::ALL_ESTIMATORS {
        w.value(*name);
    }
    w.end_array().end_object();
    Response::json(200, body)
}

/// Decodes the shared `estimator`/`fraction`/`seed` knobs with their
/// defaults (AE, 1%, 42 — the CLI's defaults).
struct CommonKnobs {
    estimator: String,
    fraction: f64,
    seed: u64,
}

fn common_knobs(root: &JsonValue) -> Result<CommonKnobs, Response> {
    let estimator = match root.get("estimator") {
        None => "AE".to_string(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| Response::error(400, "bad_request", "\"estimator\" must be a string"))?
            .to_string(),
    };
    let fraction = match root.get("fraction") {
        None => 0.01,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| Response::error(400, "bad_request", "\"fraction\" must be a number"))?,
    };
    let seed = match root.get("seed") {
        None => 42,
        Some(v) => v.as_u64().ok_or_else(|| {
            Response::error(
                400,
                "bad_request",
                "\"seed\" must be a non-negative integer",
            )
        })?,
    };
    Ok(CommonKnobs {
        estimator,
        fraction,
        seed,
    })
}

fn parse_body(body: &[u8]) -> Result<JsonValue, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "malformed_json", "request body is not UTF-8"))?;
    minijson::parse(text).map_err(|e| Response::error(400, "malformed_json", &e))
}

fn pipeline_error(err: PipelineError) -> Response {
    let code = match &err {
        PipelineError::UnknownEstimator(_) => "unknown_estimator",
        _ => "bad_request",
    };
    Response::error(400, code, &err.to_string())
}

/// The optional `"design"` knob: which sampling model the estimator
/// should assume. `None` keeps the mode's default (with-replacement for
/// `spectrum`/`shards`, the sampler's without-replacement design for
/// `values`).
fn design_knob(root: &JsonValue) -> Result<Option<&'static str>, Response> {
    match root.get("design") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some("wr") => Ok(Some("wr")),
            Some("wor") => Ok(Some("wor")),
            _ => Err(Response::error(
                400,
                "bad_request",
                "\"design\" must be \"wr\" or \"wor\"",
            )),
        },
    }
}

/// `POST /v1/estimate` — four input modes (exactly one per request):
///
/// * `{"n": 10000, "spectrum": [40, 30], "estimator": "GEE"}` — the
///   client sampled elsewhere and ships the frequency spectrum;
/// * `{"shards": [{"n": 5000, "spectrum": [20, 15]}, …]}` — per-shard
///   spectra from a horizontally partitioned table, merged server-side
///   before one estimate over the union;
/// * `{"values": ["a", "b", …], "fraction": 0.05, "seed": 7}` — raw
///   values; the daemon samples, profiles, and estimates;
/// * `{"cluster": true, "fraction": 0.05, "seed": 7}` — the daemon (a
///   coordinator started with `--cluster`) sweeps its worker set,
///   merges the partial spectra, estimates once over the union, and
///   appends a `"cluster"` coverage object to the response.
///
/// All modes accept `"design": "wr" | "wor"` to pick the sampling model
/// design-aware estimators assume.
///
/// When the [`Monitor`]'s deterministic coin selects a `values`-mode
/// request, the exact distinct count is computed alongside the estimate
/// and the observed error recorded — the response bytes are identical
/// either way.
fn estimate(body: &[u8], status: &ServeStatus) -> Response {
    let monitor = &status.monitor;
    let root = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let knobs = match common_knobs(&root) {
        Ok(k) => k,
        Err(resp) => return resp,
    };
    let design = match design_knob(&root) {
        Ok(d) => d,
        Err(resp) => return resp,
    };

    let (spectrum_v, values_v, shards_v, cluster_v) = (
        root.get("spectrum"),
        root.get("values"),
        root.get("shards"),
        root.get("cluster"),
    );
    if [spectrum_v, values_v, shards_v, cluster_v]
        .iter()
        .filter(|m| m.is_some())
        .count()
        > 1
    {
        return Response::error(
            400,
            "bad_request",
            "provide exactly one of \"spectrum\", \"values\", \"shards\", or \"cluster\"",
        );
    }

    if let Some(cluster_flag) = cluster_v {
        if !matches!(cluster_flag, JsonValue::Bool(true)) {
            return Response::error(400, "bad_request", "\"cluster\" must be true");
        }
        return estimate_cluster(status, &knobs, design);
    }

    let outcome = match (spectrum_v, values_v, shards_v) {
        (Some(spec), None, None) => {
            let Some(items) = spec.as_array() else {
                return Response::error(400, "bad_request", "\"spectrum\" must be an array");
            };
            let mut spectrum = Vec::with_capacity(items.len());
            for item in items {
                let Some(f) = item.as_u64() else {
                    return Response::error(
                        400,
                        "bad_request",
                        "\"spectrum\" entries must be non-negative integers",
                    );
                };
                spectrum.push(f);
            }
            let Some(n) = root.get("n").and_then(JsonValue::as_u64) else {
                return Response::error(
                    400,
                    "bad_request",
                    "spectrum mode requires \"n\" (the table row count)",
                );
            };
            match design {
                Some("wor") => pipeline::estimate_spectrum_designed(
                    n,
                    spectrum,
                    &knobs.estimator,
                    SampleDesign::wor(n),
                ),
                _ => pipeline::estimate_spectrum(n, spectrum, &knobs.estimator),
            }
        }
        (None, None, Some(shards_json)) => {
            let Some(items) = shards_json.as_array() else {
                return Response::error(
                    400,
                    "bad_request",
                    "\"shards\" must be an array of {\"n\", \"spectrum\"} objects",
                );
            };
            let mut shards = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let Some(n) = item.get("n").and_then(JsonValue::as_u64) else {
                    return Response::error(
                        400,
                        "bad_request",
                        &format!("shards[{i}] needs \"n\" (the shard row count)"),
                    );
                };
                let Some(spec) = item.get("spectrum").and_then(JsonValue::as_array) else {
                    return Response::error(
                        400,
                        "bad_request",
                        &format!("shards[{i}] needs a \"spectrum\" array"),
                    );
                };
                let mut spectrum = Vec::with_capacity(spec.len());
                for f in spec {
                    let Some(f) = f.as_u64() else {
                        return Response::error(
                            400,
                            "bad_request",
                            &format!("shards[{i}] spectrum entries must be non-negative integers"),
                        );
                    };
                    spectrum.push(f);
                }
                shards.push((n, spectrum));
            }
            match design {
                // Only the kind matters: each shard is re-designed as
                // wor(nᵢ), and the checked merge sums the nᵢ.
                Some("wor") => pipeline::estimate_shards_designed(
                    shards,
                    &knobs.estimator,
                    SampleDesign::wor(0),
                ),
                _ => pipeline::estimate_shards(shards, &knobs.estimator),
            }
        }
        (None, Some(values), None) => {
            let Some(items) = values.as_array() else {
                return Response::error(400, "bad_request", "\"values\" must be an array");
            };
            let mut strings = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    JsonValue::Str(s) => strings.push(s.clone()),
                    JsonValue::Num(v) => strings.push(format!("{v}")),
                    _ => {
                        return Response::error(
                            400,
                            "bad_request",
                            "\"values\" entries must be strings or numbers",
                        )
                    }
                }
            }
            let design = match design {
                Some("wr") => Some(SampleDesign::WithReplacement),
                _ => None,
            };
            if monitor.should_sample() {
                pipeline::estimate_values_shadowed(
                    &strings,
                    &knobs.estimator,
                    knobs.fraction,
                    knobs.seed,
                    design,
                )
                .map(|(out, obs)| {
                    monitor.observe(&out, &obs);
                    out
                })
            } else {
                pipeline::estimate_values_with_design(
                    &strings,
                    &knobs.estimator,
                    knobs.fraction,
                    knobs.seed,
                    design,
                )
            }
        }
        _ => {
            return Response::error(
                400,
                "bad_request",
                "provide \"spectrum\" (with \"n\"), \"shards\", \"values\", or \"cluster\": true",
            )
        }
    };

    match outcome {
        Ok(out) => {
            let _serialize = trace::span("serve.serialize");
            Response::json(200, out.to_json())
        }
        Err(err) => pipeline_error(err),
    }
}

/// The `cluster` estimate source: sweep the worker set, estimate over
/// the merged spectrum, and report coverage. The estimation object is
/// byte-identical to what the other modes produce for the same merged
/// statistic; the appended `"cluster"` object is additive.
fn estimate_cluster(
    status: &ServeStatus,
    knobs: &CommonKnobs,
    design: Option<&'static str>,
) -> Response {
    let Some(coordinator) = status.cluster.as_ref() else {
        return Response::error(
            503,
            "cluster_not_configured",
            "this daemon is not a cluster coordinator",
        );
    };
    let sweep = match coordinator.sweep(knobs.fraction, knobs.seed) {
        Ok(sweep) => sweep,
        Err(e @ ClusterError::BadFraction(_)) => {
            return Response::error(400, "bad_request", &e.to_string())
        }
        Err(e @ ClusterError::NoWorkers) => {
            return Response::error(503, "cluster_not_configured", &e.to_string())
        }
        Err(e @ (ClusterError::AllWorkersFailed(_) | ClusterError::EmptySample)) => {
            return Response::error(502, "cluster_unavailable", &e.to_string())
        }
    };
    // The merged design is the honest wor(Σ nᵢ); "wr" forces the
    // paper's with-replacement model, "wor" is what the sweep already
    // carries.
    let design = match design {
        Some("wr") => SampleDesign::WithReplacement,
        _ => sweep.design,
    };
    match pipeline::estimate_profile(&sweep.spectrum, &knobs.estimator, design) {
        Ok(out) => {
            let _serialize = trace::span("serve.serialize");
            let mut body = String::with_capacity(320);
            let mut w = Writer::new(&mut body);
            w.begin_object();
            out.members_into(&mut w);
            w.key("cluster");
            cluster_json_into(&mut w, &sweep);
            w.end_object();
            Response::json(200, body)
        }
        Err(err) => pipeline_error(err),
    }
}

/// Renders a sweep's coverage report:
/// `{"workers":…,"answered":…,"segments":…,"retries":…,"skipped":[…]}`.
fn cluster_json_into(w: &mut Writer, sweep: &ClusterSweep) {
    w.begin_object()
        .field("workers", sweep.workers_total)
        .field("answered", sweep.workers_answered)
        .field("segments", sweep.segments)
        .field("retries", sweep.retries)
        .key("skipped")
        .begin_array();
    for s in &sweep.skipped {
        w.begin_object()
            .field("worker", &s.worker)
            .field("segments", s.segments)
            .field("error", &s.error)
            .end_object();
    }
    w.end_array().end_object();
}

/// Query knobs for `POST /v1/analyze`: `?save=true&table=NAME` saves
/// the run's statistics into the daemon's catalog under `NAME`.
struct AnalyzeQuery {
    save: bool,
    table: Option<String>,
}

fn parse_analyze_query(query: &str) -> Result<AnalyzeQuery, Response> {
    let mut out = AnalyzeQuery {
        save: false,
        table: None,
    };
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "save" => match value {
                "true" => out.save = true,
                "false" => out.save = false,
                other => {
                    return Err(Response::error(
                        400,
                        "bad_query",
                        &format!("\"save\" must be true or false, got {other:?}"),
                    ))
                }
            },
            "table" => out.table = Some(value.to_string()),
            other => {
                return Err(Response::error(
                    400,
                    "bad_query",
                    &format!("unknown query parameter {other:?}"),
                ))
            }
        }
    }
    let named = matches!(out.table.as_deref(), Some(t) if !t.is_empty());
    if out.save && !named {
        return Err(Response::error(
            400,
            "bad_query",
            "\"save=true\" needs a \"table\" name to save under",
        ));
    }
    Ok(out)
}

/// `GET /v1/stats/{table}` — the saved statistics for a table, in the
/// catalog's canonical JSON (byte-identical to `dve stats show` on the
/// same statistics).
fn stats_lookup(table: &str, status: &ServeStatus) -> Response {
    let catalog = status.catalog.lock().expect("catalog lock");
    match catalog.get(table) {
        Some(stats) => {
            let _serialize = trace::span("serve.serialize");
            Response::json(200, stats.to_json())
        }
        None => Response::error(
            404,
            "stats_not_found",
            &format!("no saved statistics for table {table:?}"),
        ),
    }
}

/// `POST /v1/analyze` — inline rows, analyzed exactly like
/// `dve analyze` analyzes a stored table:
///
/// ```json
/// {"columns": [{"name": "city", "values": ["ann arbor", null, "troy"]}],
///  "estimator": "AE", "fraction": 0.5, "seed": 42}
/// ```
///
/// With `?save=true&table=NAME`, the run additionally builds the full
/// statistics-catalog artifact (MCVs, histogram, HLL shadow, merged
/// spectrum) and saves it in the daemon's catalog for
/// `GET /v1/stats/NAME`; the response gains an additive
/// `"saved":"NAME"` member. Estimates are bit-identical either way.
fn analyze(req: &Request, status: &ServeStatus) -> Response {
    let body: &[u8] = &req.body;
    let query = match parse_analyze_query(&req.query) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let root = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let knobs = match common_knobs(&root) {
        Ok(k) => k,
        Err(resp) => return resp,
    };

    let Some(cols) = root.get("columns").and_then(JsonValue::as_array) else {
        return Response::error(400, "bad_request", "\"columns\" must be a non-empty array");
    };
    if cols.is_empty() {
        return Response::error(400, "bad_request", "\"columns\" must be a non-empty array");
    }
    let mut fields = Vec::with_capacity(cols.len());
    let mut columns = Vec::with_capacity(cols.len());
    for (i, col) in cols.iter().enumerate() {
        let Some(name) = col.get("name").and_then(JsonValue::as_str) else {
            return Response::error(
                400,
                "bad_request",
                &format!("columns[{i}] needs a \"name\""),
            );
        };
        let Some(values) = col.get("values").and_then(JsonValue::as_array) else {
            return Response::error(
                400,
                "bad_request",
                &format!("columns[{i}] needs a \"values\" array"),
            );
        };
        let mut rendered: Vec<Option<String>> = Vec::with_capacity(values.len());
        for v in values {
            match v {
                JsonValue::Null => rendered.push(None),
                JsonValue::Str(s) => rendered.push(Some(s.clone())),
                JsonValue::Num(x) => rendered.push(Some(format!("{x}"))),
                JsonValue::Bool(b) => rendered.push(Some(b.to_string())),
                _ => {
                    return Response::error(
                        400,
                        "bad_request",
                        &format!("columns[{i}] values must be scalars or null"),
                    )
                }
            }
        }
        let opts: Vec<Option<&str>> = rendered.iter().map(|v| v.as_deref()).collect();
        fields.push(Field::nullable(name, DataType::Str));
        columns.push(Column::from_strs_opt(&opts));
    }
    let table = match Table::new(Schema::new(fields), columns) {
        Ok(t) => t,
        Err(e) => return Response::error(400, "bad_request", &e.to_string()),
    };

    let options = AnalyzeOptions {
        sampling_fraction: knobs.fraction,
        estimator: knobs.estimator,
    };
    if let Some(name) = query.table.filter(|_| query.save) {
        // The catalog build runs the identical analyze (same seed, same
        // sample) and additionally derives the catalog artifacts.
        return match build_table_stats(&table, &name, &options, knobs.seed) {
            Ok(stats) => {
                let columns = stats.column_statistics();
                status.catalog.lock().expect("catalog lock").save(stats);
                let _serialize = trace::span("serve.serialize");
                Response::json(200, analyze_json(&columns, Some(&name)))
            }
            Err(AnalyzeError::UnknownEstimator(err)) => {
                Response::error(400, "unknown_estimator", &err.to_string())
            }
            Err(e) => Response::error(400, "bad_request", &e.to_string()),
        };
    }
    let mut rng = Rng::seed_from_u64(knobs.seed);
    match analyze_table_jobs(&table, &options, 0, &mut rng) {
        Ok(stats) => {
            let _serialize = trace::span("serve.serialize");
            Response::json(200, analyze_json(&stats, None))
        }
        Err(AnalyzeError::UnknownEstimator(err)) => {
            Response::error(400, "unknown_estimator", &err.to_string())
        }
        Err(e) => Response::error(400, "bad_request", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Response {
        handle(&Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    fn get(path: &str) -> Response {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        handle(&Request {
            method: "GET".to_string(),
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    #[test]
    fn healthz_and_estimators() {
        let health = get("/healthz");
        assert_eq!(health.status, 200);
        for needle in [
            "\"status\":\"ok\"",
            "\"version\":\"",
            "\"api_version\":1",
            "\"uptime_s\":",
            "\"jobs\":0",
            "\"queue_depth\":0",
            "\"queue_capacity\":0",
            "\"cluster_workers\":0",
        ] {
            assert!(health.body.contains(needle), "{needle} ∉ {}", health.body);
        }
        let resp = get("/v1/estimators");
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.starts_with("{\"api_version\":1,"),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"GEE\""));
        assert!(resp.body.contains("\"AE\""));
    }

    #[test]
    fn healthz_reports_the_given_status() {
        let status = ServeStatus {
            started: Instant::now() - std::time::Duration::from_secs(5),
            jobs: 3,
            queue_capacity: 64,
            queue_len: 2,
            ..ServeStatus::default()
        };
        let resp = handle_with_status(
            &Request {
                method: "GET".to_string(),
                path: "/healthz".to_string(),
                query: String::new(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            &status,
        );
        assert!(resp.body.contains("\"jobs\":3"), "{}", resp.body);
        assert!(resp.body.contains("\"queue_depth\":2"), "{}", resp.body);
        assert!(resp.body.contains("\"queue_capacity\":64"), "{}", resp.body);
        let uptime = resp
            .body
            .split("\"uptime_s\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap();
        assert!(uptime >= 5, "{uptime}");
    }

    #[test]
    fn traces_index_and_lookup() {
        // The index route always answers, even with tracing off.
        let idx = get("/v1/traces");
        assert_eq!(idx.status, 200);
        assert!(idx.body.contains("\"traces\":["), "{}", idx.body);
        assert!(idx.body.contains("\"dropped_spans\":"), "{}", idx.body);
        // ?limit=N trims the index; out-of-range clamps to the cap.
        assert_eq!(
            get("/v1/traces?limit=0").body.matches("trace_id").count(),
            0
        );
        assert_eq!(get("/v1/traces?limit=9999").status, 200);
        // Malformed and unknown query parameters are structured 400s,
        // not silent defaults.
        let junk = get("/v1/traces?limit=abc");
        assert_eq!(junk.status, 400, "{}", junk.body);
        assert!(
            junk.body.contains("\"code\":\"bad_query\""),
            "{}",
            junk.body
        );
        assert!(junk.body.contains("\"hint\":\""), "{}", junk.body);
        let unknown = get("/v1/traces?nope=1");
        assert_eq!(unknown.status, 400, "{}", unknown.body);
        assert!(
            unknown.body.contains("unknown query parameter"),
            "{}",
            unknown.body
        );
        // Unknown ids are a structured 404.
        let missing = get("/v1/traces/00000000deadbeef");
        assert_eq!(missing.status, 404);
        assert!(missing.body.contains("trace_not_found"), "{}", missing.body);
        // Wrong methods are 405, like every other route.
        assert_eq!(post("/v1/traces", "").status, 405);
        assert_eq!(post("/v1/traces/abc", "").status, 405);
    }

    #[test]
    fn slo_endpoint_and_metrics_pressure_gauges() {
        let slo = get("/v1/slo");
        assert_eq!(slo.status, 200);
        for needle in [
            "\"shadow_sample_rate\":0",
            "\"alert\":\"ok\"",
            "\"burn_rate\":{\"5m\":",
            "\"estimators\":[",
        ] {
            assert!(slo.body.contains(needle), "{needle} ∉ {}", slo.body);
        }
        assert_eq!(post("/v1/slo", "").status, 405);

        let metrics = get("/metrics");
        assert_eq!(metrics.status, 200);
        for needle in [
            "# TYPE trace_dropped_spans gauge",
            "trace_shard_occupancy{label=\"0\"}",
            "trace_shard_occupancy{label=\"7\"}",
            "# TYPE slo_alert_state gauge",
            "# TYPE slo_burn_rate gauge",
        ] {
            assert!(metrics.body.contains(needle), "{needle} ∉ {}", metrics.body);
        }
    }

    fn status_with_monitor(monitor: Monitor) -> ServeStatus {
        ServeStatus {
            monitor: Arc::new(monitor),
            ..ServeStatus::default()
        }
    }

    #[test]
    fn sampled_estimate_answers_identically_and_records() {
        let sampling = status_with_monitor(Monitor::new(1.0));
        let body = br#"{"values":["a","b","a","c","b","a"],"fraction":0.5,"seed":7}"#;
        let sampled = estimate(body, &sampling);
        let plain = estimate(body, &status_with_monitor(Monitor::disabled()));
        assert_eq!(sampled.status, 200, "{}", sampled.body);
        assert_eq!(sampled.body, plain.body);
        assert!(sampling.monitor.slo_json().contains("\"estimator\":\"AE\""));
    }

    #[test]
    fn estimate_spectrum_mode_matches_pipeline() {
        let resp = post(
            "/v1/estimate",
            r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let expected = pipeline::estimate_spectrum(10_000, vec![40, 30], "GEE").unwrap();
        assert_eq!(resp.body, expected.to_json());
    }

    #[test]
    fn estimate_values_mode_matches_pipeline() {
        let resp = post(
            "/v1/estimate",
            r#"{"values":["a","b","a","c","b","a"],"fraction":0.5,"seed":7}"#,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let values = ["a", "b", "a", "c", "b", "a"];
        let expected = pipeline::estimate_values(&values, "AE", 0.5, 7).unwrap();
        assert_eq!(resp.body, expected.to_json());
    }

    #[test]
    fn estimate_shards_mode_merges_before_estimating() {
        // Two half-shards must answer byte-identically to the summed
        // single-spectrum request.
        let single = post(
            "/v1/estimate",
            r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#,
        );
        let sharded = post(
            "/v1/estimate",
            r#"{"estimator":"GEE","shards":[{"n":5000,"spectrum":[20,15]},{"n":5000,"spectrum":[20,15]}]}"#,
        );
        assert_eq!(single.status, 200, "{}", single.body);
        assert_eq!(sharded.status, 200, "{}", sharded.body);
        assert_eq!(single.body, sharded.body);
    }

    #[test]
    fn estimate_design_knob_switches_the_model() {
        let wr = post(
            "/v1/estimate",
            r#"{"estimator":"AE","n":1000,"spectrum":[80,40,15,5],"design":"wr"}"#,
        );
        let default = post(
            "/v1/estimate",
            r#"{"estimator":"AE","n":1000,"spectrum":[80,40,15,5]}"#,
        );
        let wor = post(
            "/v1/estimate",
            r#"{"estimator":"AE","n":1000,"spectrum":[80,40,15,5],"design":"wor"}"#,
        );
        assert_eq!(wr.status, 200, "{}", wr.body);
        assert_eq!(wor.status, 200, "{}", wor.body);
        // Spectrum mode defaults to the paper's WR model.
        assert_eq!(wr.body, default.body);
        assert_ne!(wr.body, wor.body);
        let bad = post(
            "/v1/estimate",
            r#"{"n":1000,"spectrum":[80],"design":"sideways"}"#,
        );
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("\\\"design\\\""), "{}", bad.body);
    }

    #[test]
    fn estimate_rejects_bad_shard_shapes() {
        for (body, needle) in [
            (r#"{"shards":{}}"#, "must be an array"),
            (
                r#"{"shards":[{"spectrum":[1]}]}"#,
                "shards[0] needs \\\"n\\\"",
            ),
            (
                r#"{"shards":[{"n":10}]}"#,
                "shards[0] needs a \\\"spectrum\\\"",
            ),
            (
                r#"{"shards":[{"n":10,"spectrum":[1.5]}]}"#,
                "non-negative integers",
            ),
            (
                r#"{"n":10,"spectrum":[1],"shards":[{"n":10,"spectrum":[1]}]}"#,
                "exactly one of",
            ),
        ] {
            let resp = post("/v1/estimate", body);
            assert_eq!(resp.status, 400, "{body}");
            assert!(resp.body.contains(needle), "{body} → {}", resp.body);
        }
    }

    #[test]
    fn estimate_rejects_bad_shapes() {
        assert_eq!(post("/v1/estimate", "{not json").status, 400);
        assert!(post("/v1/estimate", "{not json")
            .body
            .contains("malformed_json"));
        assert_eq!(post("/v1/estimate", "{}").status, 400);
        assert_eq!(
            post("/v1/estimate", r#"{"n":10,"spectrum":[1],"values":["a"]}"#).status,
            400
        );
        assert_eq!(post("/v1/estimate", r#"{"spectrum":[1]}"#).status, 400);
        assert_eq!(
            post("/v1/estimate", r#"{"n":10,"spectrum":[1.5]}"#).status,
            400
        );
        let resp = post(
            "/v1/estimate",
            r#"{"n":10,"spectrum":[1],"estimator":"GE"}"#,
        );
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("unknown_estimator"), "{}", resp.body);
        assert!(resp.body.contains("did you mean GEE?"), "{}", resp.body);
    }

    #[test]
    fn analyze_roundtrip_and_errors() {
        let resp = post(
            "/v1/analyze",
            r#"{"columns":[{"name":"city","values":["a",null,"b","a"]}],"fraction":1.0}"#,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"column\":\"city\""), "{}", resp.body);
        assert!(resp.body.contains("\"estimation\":{"), "{}", resp.body);

        assert_eq!(post("/v1/analyze", r#"{"columns":[]}"#).status, 400);
        assert_eq!(
            post("/v1/analyze", r#"{"columns":[{"name":"c"}]}"#).status,
            400
        );
        // Ragged columns are a table-construction error, reported as 400.
        let ragged = post(
            "/v1/analyze",
            r#"{"columns":[{"name":"a","values":["x"]},{"name":"b","values":["x","y"]}]}"#,
        );
        assert_eq!(ragged.status, 400, "{}", ragged.body);
    }

    #[test]
    fn analyze_save_roundtrips_through_stats_endpoint() {
        // One shared status so the analyze save and the stats lookup
        // see the same catalog, like requests on a running daemon do.
        let status = ServeStatus::default();
        let with_status = |method: &str, path: &str, body: &str| {
            let (path, query) = match path.split_once('?') {
                Some((p, q)) => (p.to_string(), q.to_string()),
                None => (path.to_string(), String::new()),
            };
            handle_with_status(
                &Request {
                    method: method.to_string(),
                    path,
                    query,
                    headers: Vec::new(),
                    body: body.as_bytes().to_vec(),
                },
                &status,
            )
        };

        let body =
            r#"{"columns":[{"name":"city","values":["a",null,"b","a"]}],"fraction":1.0,"seed":7}"#;
        // Miss before anything was saved.
        let miss = with_status("GET", "/v1/stats/city_table", "");
        assert_eq!(miss.status, 404, "{}", miss.body);
        assert!(
            miss.body.contains("\"code\":\"stats_not_found\""),
            "{}",
            miss.body
        );

        // Plain analyze does not save; estimates must be bit-identical
        // to the saving run.
        let plain = with_status("POST", "/v1/analyze", body);
        assert_eq!(plain.status, 200, "{}", plain.body);
        assert_eq!(with_status("GET", "/v1/stats/city_table", "").status, 404);

        let saved = with_status("POST", "/v1/analyze?save=true&table=city_table", body);
        assert_eq!(saved.status, 200, "{}", saved.body);
        assert!(
            saved.body.contains("\"saved\":\"city_table\""),
            "{}",
            saved.body
        );
        let plain_cols = &plain.body[..plain.body.len() - 1]; // drop closing '}'
        assert!(
            saved.body.starts_with(plain_cols),
            "save must not change the estimate bytes:\n{}\n{}",
            plain.body,
            saved.body
        );

        let stats = with_status("GET", "/v1/stats/city_table", "");
        assert_eq!(stats.status, 200, "{}", stats.body);
        assert!(
            stats.body.starts_with("{\"table\":\"city_table\""),
            "{}",
            stats.body
        );
        // The body is the catalog's canonical encoding: it reparses and
        // re-serializes to the same bytes.
        let parsed = dve_storage::TableStats::from_json(&stats.body).unwrap();
        assert_eq!(parsed.to_json(), stats.body);
        assert_eq!(parsed.row_count, 4);
        assert_eq!(parsed.columns[0].name, "city");

        // Query validation: save without a table name, bad save value,
        // unknown parameter.
        for bad in [
            "/v1/analyze?save=true",
            "/v1/analyze?save=true&table=",
            "/v1/analyze?save=yes&table=t",
            "/v1/analyze?shave=true",
        ] {
            let resp = with_status("POST", bad, body);
            assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
            assert!(
                resp.body.contains("\"code\":\"bad_query\""),
                "{}",
                resp.body
            );
        }

        // Wrong method on the stats route is 405, not 404.
        assert_eq!(with_status("POST", "/v1/stats/city_table", "").status, 405);
    }

    #[test]
    fn unknown_routes_and_methods() {
        assert_eq!(get("/nope").status, 404);
        assert_eq!(post("/healthz", "").status, 405);
        assert_eq!(get("/v1/estimate").status, 405);
    }

    #[test]
    fn every_error_uses_the_envelope() {
        for resp in [
            get("/nope"),
            post("/healthz", ""),
            post("/v1/estimate", "{not json"),
            post("/v1/estimate", "{}"),
            get("/v1/traces?limit=x"),
            post("/v1/estimate", r#"{"cluster":true}"#),
        ] {
            assert!(
                resp.body.starts_with("{\"error\":{\"code\":\""),
                "{}",
                resp.body
            );
            for field in ["\"code\":\"", "\"message\":\"", "\"hint\":\""] {
                assert!(resp.body.contains(field), "{field} ∉ {}", resp.body);
            }
        }
    }

    #[test]
    fn exit_codes_partition_the_error_space() {
        for code in ["bad_request", "malformed_json", "unknown_estimator"] {
            assert_eq!(exit_code_for(code), 2, "{code}");
        }
        for code in [
            "overloaded",
            "cluster_unavailable",
            "cluster_not_configured",
        ] {
            assert_eq!(exit_code_for(code), 3, "{code}");
        }
        assert_eq!(exit_code_for("internal"), 1);
    }

    #[test]
    fn cluster_mode_without_a_coordinator_is_503() {
        let resp = post("/v1/estimate", r#"{"cluster":true}"#);
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(
            resp.body.contains("\"code\":\"cluster_not_configured\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("--cluster"), "{}", resp.body);
    }

    #[test]
    fn cluster_mode_rejects_bad_shapes() {
        let not_true = post("/v1/estimate", r#"{"cluster":"yes"}"#);
        assert_eq!(not_true.status, 400, "{}", not_true.body);
        let mixed = post("/v1/estimate", r#"{"cluster":true,"values":["a"]}"#);
        assert_eq!(mixed.status, 400, "{}", mixed.body);
        assert!(mixed.body.contains("exactly one of"), "{}", mixed.body);
    }

    #[test]
    fn cluster_mode_estimates_and_reports_coverage() {
        use dve_cluster::{ClusterConfig, Segment, Worker, WorkerConfig};
        let worker = Worker::bind(
            WorkerConfig {
                addr: "127.0.0.1:0".to_string(),
                io_timeout: std::time::Duration::from_secs(2),
            },
            vec![Segment::from_values("s0", ["a", "b", "a", "c", "b", "a"])],
        )
        .unwrap();
        let addr = worker.local_addr().unwrap().to_string();
        let handle = worker.handle();
        let thread = std::thread::spawn(move || worker.run().unwrap());

        let status = ServeStatus {
            cluster: Some(Arc::new(Coordinator::new(ClusterConfig::new(vec![addr])))),
            ..ServeStatus::default()
        };
        let resp = estimate(
            br#"{"cluster":true,"fraction":1.0,"seed":7,"estimator":"GEE"}"#,
            &status,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        // The estimation object is the ordinary contract; the cluster
        // coverage report rides behind it.
        assert!(resp.body.starts_with("{\"estimation\":{"), "{}", resp.body);
        assert!(
            resp.body.contains(
                "\"cluster\":{\"workers\":1,\"answered\":1,\"segments\":1,\"retries\":0,\"skipped\":[]}"
            ),
            "{}",
            resp.body
        );
        // Stripping the cluster object leaves bytes identical to the
        // equivalent single-node spectrum estimate under the same
        // merged design — the CI gate's contract.
        let stripped = resp
            .body
            .replace(",\"cluster\":{\"workers\":1,\"answered\":1,\"segments\":1,\"retries\":0,\"skipped\":[]}", "");
        let single =
            pipeline::estimate_spectrum_designed(6, vec![1, 1, 1], "GEE", SampleDesign::wor(6))
                .unwrap();
        assert_eq!(stripped, single.to_json());

        handle.shutdown();
        thread.join().unwrap();
    }
}

//! Byte pins for every compact JSON writer in the workspace.
//!
//! The JSON these writers emit is a contract: `dve estimate --format
//! json` ≡ `POST /v1/estimate`, the checksummed stats sidecars, the
//! `/metrics` and `/v1/slo` bodies, `BENCH_accuracy.json` and the
//! `results/` reports. Each fixture below feeds one writer inputs that
//! exercise its escaping and number rules — `"`, `\`, `\n`, a raw
//! control character, NaN/±inf wherever the type holds a float, and
//! empty arrays — and compares the output byte for byte with a string
//! recorded from the writer before it moved onto the shared
//! `minijson` encoder.

use distinct_values::cluster::{ClusterConfig, Coordinator, Segment, Worker, WorkerConfig};
use distinct_values::core::bounds::ConfidenceInterval;
use distinct_values::core::estimator::Estimation;
use distinct_values::experiments::audit::{AuditCell, AuditReport};
use distinct_values::experiments::report::{ExperimentReport, ReportRow};
use distinct_values::obs::trace::{export_chrome_trace, SpanId, SpanRecord, TraceId};
use distinct_values::obs::{Event, Registry};
use distinct_values::serve::api::{handle_with_status, Response, ServeStatus};
use distinct_values::serve::http::Request;
use distinct_values::serve::monitor::Monitor;
use distinct_values::serve::pipeline::EstimateOutcome;
use distinct_values::storage::{
    build_table_stats, columns_to_json, save_table, save_table_stats, stats_path_for,
    AnalyzeOptions, Column, ColumnStatistics, DataType, Field, Schema, Table,
};
use std::sync::Arc;
use std::time::Duration;

/// Every character class the escaper treats specially.
const NASTY: &str = "q\"b\\s\nn\u{1}c\té";

fn request(method: &str, target: &str, body: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn body(status: &ServeStatus, method: &str, target: &str, payload: &str) -> String {
    handle_with_status(&request(method, target, payload), status).body
}

fn nasty_table() -> Table {
    Table::new(
        Schema::new(vec![
            Field::new(NASTY, DataType::Int64),
            Field::new("s", DataType::Str),
        ]),
        vec![
            Column::from_i64(&[1, 2, 2, 3, 3, 3, 4, 4, 4, 4]),
            Column::from_strs(&["a", NASTY, "a", "b", "", "a", "c", NASTY, "d", "a"]),
        ],
    )
    .expect("consistent columns")
}

fn options() -> AnalyzeOptions {
    AnalyzeOptions {
        sampling_fraction: 0.6,
        estimator: "GEE".to_string(),
    }
}

#[test]
fn estimation_to_json() {
    let odd = Estimation {
        estimate: f64::NAN,
        interval: Some((f64::NEG_INFINITY, f64::INFINITY)),
        estimator: NASTY.to_string(),
        d: 1,
        r: 2,
        n: u64::MAX,
    };
    let plain = Estimation {
        estimate: 0.1 + 0.2,
        interval: None,
        estimator: "AE".to_string(),
        d: 0,
        r: 0,
        n: 0,
    };
    assert_eq!(
        odd.to_json(),
        "{\"estimator\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"estimate\":null,\"interval\":{\"lower\":null,\"upper\":null},\"d\":1,\"r\":2,\"n\":18446744073709551615}"
    );
    assert_eq!(
        plain.to_json(),
        "{\"estimator\":\"AE\",\"estimate\":0.30000000000000004,\"interval\":null,\"d\":0,\"r\":0,\"n\":0}"
    );
}

#[test]
fn estimate_outcome_to_json() {
    let odd = EstimateOutcome {
        estimation: Estimation {
            estimate: f64::INFINITY,
            interval: None,
            estimator: NASTY.to_string(),
            d: 3,
            r: 4,
            n: 5,
        },
        gee: ConfidenceInterval {
            lower: 0.5,
            estimate: f64::NAN,
            upper: 1e300,
        },
    };
    assert_eq!(odd.to_json(), "{\"estimation\":{\"estimator\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"estimate\":null,\"interval\":null,\"d\":3,\"r\":4,\"n\":5},\"gee_interval\":{\"lower\":0.5,\"upper\":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000}}");
}

#[test]
fn error_envelope() {
    let status = ServeStatus::default();
    assert_eq!(
        Response::error_with_hint(400, "bad_request", NASTY, NASTY).body,
        "{\"error\":{\"code\":\"bad_request\",\"message\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"hint\":\"q\\\"b\\\\s\\nn\\u0001c\\té\"}}"
    );
    assert_eq!(Response::error(429, "overloaded", "").body, "{\"error\":{\"code\":\"overloaded\",\"message\":\"\",\"hint\":\"the request queue is full; retry with backoff\"}}");
    assert_eq!(body(&status, "GET", "/nope\"", ""), "{\"error\":{\"code\":\"not_found\",\"message\":\"no such path: /nope\\\"\",\"hint\":\"check the path; the route table is in DESIGN.md\"}}");
    assert_eq!(body(&status, "POST", "/v1/estimate", "{nope"), "{\"error\":{\"code\":\"malformed_json\",\"message\":\"expected '\\\"' at byte 1 (found Some('n'))\",\"hint\":\"send a JSON object body; DESIGN.md documents every request shape\"}}");
    assert_eq!(
        body(&status, "POST", "/v1/estimate", "{\"estimator\":\"NOPE\",\"n\":5,\"spectrum\":[1]}"),
        "{\"error\":{\"code\":\"unknown_estimator\",\"message\":\"unknown estimator: NOPE; valid names: GEE, AE, AE-EXP, HYBGEE, HYBSKEW, DUJ2A, HYBVAR, SHLOSSER, SHLOSSER3, SJACK, JACK1, JACK2, DUJ1, DUJ2, CHAO, CHAOLEE, BOOT, COVERAGE, GOODMAN, MOM, MOM-INF, SAMPLE-D, SCALEUP\",\"hint\":\"GET /v1/estimators lists every valid name\"}}"
    );
}

#[test]
fn healthz_estimators_and_traces_index() {
    let status = ServeStatus {
        jobs: 3,
        queue_capacity: 64,
        queue_len: 2,
        ..ServeStatus::default()
    };
    assert_eq!(body(&status, "GET", "/healthz", ""), "{\"status\":\"ok\",\"version\":\"0.1.0\",\"api_version\":1,\"uptime_s\":0,\"jobs\":3,\"queue_depth\":2,\"queue_capacity\":64,\"cluster_workers\":0}");
    assert_eq!(body(&status, "GET", "/v1/estimators", ""), "{\"api_version\":1,\"estimators\":[\"GEE\",\"AE\",\"AE-EXP\",\"HYBGEE\",\"HYBSKEW\",\"DUJ2A\",\"HYBVAR\",\"SHLOSSER\",\"SHLOSSER3\",\"SJACK\",\"JACK1\",\"JACK2\",\"DUJ1\",\"DUJ2\",\"CHAO\",\"CHAOLEE\",\"BOOT\",\"COVERAGE\",\"GOODMAN\",\"MOM\",\"MOM-INF\",\"SAMPLE-D\",\"SCALEUP\"]}");
    assert_eq!(
        body(&status, "GET", "/v1/traces", ""),
        "{\"traces\":[],\"dropped_spans\":0}"
    );
    assert_eq!(body(&status, "GET", "/v1/traces?limit=x\"", ""), "{\"error\":{\"code\":\"bad_query\",\"message\":\"\\\"limit\\\" must be a non-negative integer, got \\\"x\\\\\\\"\\\"\",\"hint\":\"query parameter values must parse; omit the parameter for its default\"}}");
}

#[test]
fn estimate_modes() {
    let status = ServeStatus::default();
    let post = |payload| body(&status, "POST", "/v1/estimate", payload);
    assert_eq!(
        post("{\"estimator\":\"GEE\",\"n\":10000,\"spectrum\":[40,30]}"),
        "{\"estimation\":{\"estimator\":\"GEE\",\"estimate\":430,\"interval\":{\"lower\":70,\"upper\":4030},\"d\":70,\"r\":100,\"n\":10000},\"gee_interval\":{\"lower\":70,\"upper\":4030}}"
    );
    assert_eq!(
        post("{\"estimator\":\"AE\",\"design\":\"wor\",\"n\":1000,\"spectrum\":[7,0,2]}"),
        "{\"estimation\":{\"estimator\":\"AE\",\"estimate\":137.3131902888949,\"interval\":null,\"d\":9,\"r\":13,\"n\":1000},\"gee_interval\":{\"lower\":9,\"upper\":540.4615384615385}}"
    );
    assert_eq!(
        post("{\"estimator\":\"GEE\",\"shards\":[{\"n\":5000,\"spectrum\":[20,15]},{\"n\":5000,\"spectrum\":[20,15]}]}"),
        "{\"estimation\":{\"estimator\":\"GEE\",\"estimate\":430,\"interval\":{\"lower\":70,\"upper\":4030},\"d\":70,\"r\":100,\"n\":10000},\"gee_interval\":{\"lower\":70,\"upper\":4030}}"
    );
    assert_eq!(
        post("{\"estimator\":\"AE\",\"design\":\"wor\",\"shards\":[{\"n\":50,\"spectrum\":[3]},{\"n\":70,\"spectrum\":[1,1]}]}"),
        "{\"estimation\":{\"estimator\":\"AE\",\"estimate\":11.026455026453835,\"interval\":null,\"d\":5,\"r\":6,\"n\":120},\"gee_interval\":{\"lower\":5,\"upper\":81}}"
    );
    assert_eq!(
        post("{\"estimator\":\"HYBSKEW\",\"fraction\":0.5,\"seed\":7,\"values\":[\"a\",\"q\\\"\",1,1.5,\"a\",\"\\n\"]}"),
        "{\"estimation\":{\"estimator\":\"HYBSKEW\",\"estimate\":2.407903212326066,\"interval\":null,\"d\":2,\"r\":3,\"n\":6},\"gee_interval\":{\"lower\":2,\"upper\":3}}"
    );
}

#[test]
fn analyze_bodies_and_saved_stats() {
    let status = ServeStatus::default();
    let payload = "{\"estimator\":\"GEE\",\"fraction\":0.6,\"seed\":3,\"columns\":[\
        {\"name\":\"q\\\"b\\\\s\\nn\\u0001\",\"values\":[\"a\",\"b\",\"a\",null,\"c\\\"\",1,2.5]},\
        {\"name\":\"v\",\"values\":[1,1,2,3.5,null,\"\",\"\\\\\"]}]}";
    assert_eq!(body(&status, "POST", "/v1/analyze", payload), "{\"columns\":[{\"column\":\"q\\\"b\\\\s\\nn\\u0001\",\"null_count_estimate\":0,\"estimation\":{\"estimator\":\"GEE\",\"estimate\":3.6457513110645907,\"interval\":{\"lower\":3,\"upper\":4.5},\"d\":3,\"r\":4,\"n\":7}},{\"column\":\"v\",\"null_count_estimate\":2,\"estimation\":{\"estimator\":\"GEE\",\"estimate\":3.872983346207417,\"interval\":{\"lower\":3,\"upper\":5},\"d\":3,\"r\":4,\"n\":7}}]}");
    let payload = "{\"estimator\":\"AE\",\"fraction\":0.5,\"seed\":3,\"columns\":[\
        {\"name\":\"k\\t\",\"values\":[\"x\",\"y\",\"x\",\"z\",null]}]}";
    assert_eq!(
        body(&status, "POST", "/v1/analyze?save=true&table=t\"\\b", payload),
        "{\"columns\":[{\"column\":\"k\\t\",\"null_count_estimate\":2,\"estimation\":{\"estimator\":\"AE\",\"estimate\":3,\"interval\":{\"lower\":2,\"upper\":3},\"d\":2,\"r\":3,\"n\":5}}],\"saved\":\"t\\\"\\\\b\"}"
    );
    assert_eq!(body(&status, "GET", "/v1/stats/t\"\\b", ""), "{\"table\":\"t\\\"\\\\b\",\"row_count\":5,\"last_analyzed\":5,\"rows_at_full_analyze\":5,\"increments\":0,\"sampling_fraction\":0.5,\"estimator\":\"AE\",\"seed\":\"0x0000000000000003\",\"columns\":[{\"name\":\"k\\t\",\"null_count_estimate\":2,\"sample_rows\":3,\"sample_distinct\":2,\"distinct_estimate\":3,\"interval\":{\"lower\":2,\"estimate\":2.449489742783178,\"upper\":3},\"design\":{\"kind\":\"wor\",\"n\":3},\"spectrum\":{\"n\":3,\"entries\":[[1,2]]},\"mcvs\":[{\"hash\":\"0xcb420b971cf315a9\",\"count\":1},{\"hash\":\"0xf9ee9d533438fa9e\",\"count\":1}],\"histogram\":null,\"hll\":{\"p\":8,\"registers\":\"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000\"}}]}");
}

#[test]
fn slo_body() {
    assert_eq!(Monitor::new(0.25).slo_json(), "{\"shadow_sample_rate\":0.25,\"target\":0.9,\"max_ratio_error\":10,\"burn_threshold\":2,\"alert\":\"ok\",\"burn_rate\":{\"5m\":0,\"1h\":0},\"budget_remaining\":1,\"samples\":{\"1m\":0,\"5m\":0,\"1h\":0},\"coverage\":{\"1m\":null,\"5m\":null,\"1h\":null},\"estimators\":[]}");
    assert_eq!(body(&ServeStatus::default(), "GET", "/v1/slo", ""), "{\"shadow_sample_rate\":0,\"target\":0.9,\"max_ratio_error\":10,\"burn_threshold\":2,\"alert\":\"ok\",\"burn_rate\":{\"5m\":0,\"1h\":0},\"budget_remaining\":1,\"samples\":{\"1m\":0,\"5m\":0,\"1h\":0},\"coverage\":{\"1m\":null,\"5m\":null,\"1h\":null},\"estimators\":[]}");
}

#[test]
fn metrics_snapshot_to_json() {
    let registry = Registry::new();
    assert_eq!(
        registry.snapshot().to_json(),
        "{\"counters\":[],\"gauges\":[],\"histograms\":[]}"
    );
    registry.counter_labeled(NASTY, NASTY).add(3);
    registry.counter("plain").inc();
    registry.gauge_labeled("g\"", "").set(-7);
    registry.histogram_labeled("lat_ns", "\n").record(1_000);
    registry.histogram_labeled("lat_ns", "\n").record(3_000);
    registry.histogram("untouched_ns");
    assert_eq!(registry.snapshot().to_json(), "{\"counters\":[{\"name\":\"plain\",\"label\":\"\",\"value\":1},{\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"label\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"value\":3}],\"gauges\":[{\"name\":\"g\\\"\",\"label\":\"\",\"value\":-7}],\"histograms\":[{\"name\":\"lat_ns\",\"label\":\"\\n\",\"count\":2,\"sum\":4000,\"min\":1000,\"max\":3000,\"mean\":2000,\"p50\":1000,\"p95\":2944,\"p99\":2944},{\"name\":\"untouched_ns\",\"label\":\"\",\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"mean\":0,\"p50\":0,\"p95\":0,\"p99\":0}]}");
}

#[test]
fn event_to_jsonl() {
    let mut event = Event::warn(NASTY)
        .message(NASTY)
        .field_u64("u\"", u64::MAX)
        .field_i64("i", i64::MIN)
        .field_f64("nan", f64::NAN)
        .field_f64("inf", f64::NEG_INFINITY)
        .field_f64("x", 0.1 + 0.2)
        .field_str(NASTY, NASTY);
    event.ts_ms = 1_700_000_000_123;
    assert_eq!(event.to_jsonl(), "{\"ts_ms\":1700000000123,\"level\":\"warn\",\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"message\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"u\\\"\":18446744073709551615,\"i\":-9223372036854775808,\"nan\":null,\"inf\":null,\"x\":0.30000000000000004,\"q\\\"b\\\\s\\nn\\u0001c\\té\":\"q\\\"b\\\\s\\nn\\u0001c\\té\"}");
    let mut bare = Event::info("bare");
    bare.ts_ms = 0;
    assert_eq!(
        bare.to_jsonl(),
        "{\"ts_ms\":0,\"level\":\"info\",\"name\":\"bare\"}"
    );
}

#[test]
fn chrome_trace_export() {
    assert_eq!(
        export_chrome_trace(&[]),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
    );
    let spans = [
        SpanRecord {
            trace_id: TraceId(0xfeed),
            span_id: SpanId(1),
            parent_id: None,
            name: "serve.\"request\"",
            detail: Some(NASTY.to_string()),
            tid: 4,
            start_ns: 1_234_567,
            dur_ns: 999,
        },
        SpanRecord {
            trace_id: TraceId(u64::MAX),
            span_id: SpanId(2),
            parent_id: Some(SpanId(1)),
            name: "pipeline.estimate",
            detail: None,
            tid: 0,
            start_ns: 0,
            dur_ns: 1_000_000_001,
        },
    ];
    assert_eq!(export_chrome_trace(&spans), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"serve.\\\"request\\\"\",\"cat\":\"dve\",\"ph\":\"X\",\"ts\":1234.567,\"dur\":0.999,\"pid\":1,\"tid\":4,\"args\":{\"trace_id\":\"000000000000feed\",\"span_id\":\"0000000000000001\",\"detail\":\"q\\\"b\\\\s\\nn\\u0001c\\té\"}},{\"name\":\"pipeline.estimate\",\"cat\":\"dve\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1000000.001,\"pid\":1,\"tid\":0,\"args\":{\"trace_id\":\"ffffffffffffffff\",\"span_id\":\"0000000000000002\",\"parent_id\":\"0000000000000001\"}}]}");
}

#[test]
fn column_statistics_to_json() {
    let odd = ColumnStatistics {
        column: NASTY.to_string(),
        row_count: 10,
        null_count_estimate: 2,
        sample_rows: 4,
        sample_distinct: 3,
        distinct_estimate: f64::NAN,
        interval: ConfidenceInterval {
            lower: f64::NEG_INFINITY,
            estimate: 1.0,
            upper: f64::INFINITY,
        },
        estimator: NASTY.to_string(),
    };
    let plain = ColumnStatistics {
        column: "c".to_string(),
        distinct_estimate: 7.25,
        interval: ConfidenceInterval {
            lower: 3.0,
            estimate: 7.25,
            upper: 9.5,
        },
        estimator: "GEE".to_string(),
        ..odd.clone()
    };
    assert_eq!(odd.to_json(), "{\"column\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":2,\"estimation\":{\"estimator\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"estimate\":null,\"interval\":{\"lower\":null,\"upper\":null},\"d\":3,\"r\":4,\"n\":10}}");
    assert_eq!(columns_to_json(&[]), "[]");
    assert_eq!(columns_to_json(&[odd, plain]), "[{\"column\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":2,\"estimation\":{\"estimator\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"estimate\":null,\"interval\":{\"lower\":null,\"upper\":null},\"d\":3,\"r\":4,\"n\":10}},{\"column\":\"c\",\"null_count_estimate\":2,\"estimation\":{\"estimator\":\"GEE\",\"estimate\":7.25,\"interval\":{\"lower\":3,\"upper\":9.5},\"d\":3,\"r\":4,\"n\":10}}]");
}

#[test]
fn table_stats_and_sidecar() {
    let table = nasty_table();
    let mut stats = build_table_stats(&table, NASTY, &options(), 11).expect("analyze");
    assert_eq!(stats.to_json(), "{\"table\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"row_count\":10,\"last_analyzed\":10,\"rows_at_full_analyze\":10,\"increments\":0,\"sampling_fraction\":0.6,\"estimator\":\"GEE\",\"seed\":\"0x000000000000000b\",\"columns\":[{\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":4,\"distinct_estimate\":4.872983346207417,\"interval\":{\"lower\":4,\"estimate\":4.872983346207417,\"upper\":6},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,3],[3,1]]},\"mcvs\":[{\"hash\":\"0x28de10f7772ad8bb\",\"count\":3},{\"hash\":\"0x3c02aa47758292bd\",\"count\":1},{\"hash\":\"0x850163e6ba26a867\",\"count\":1},{\"hash\":\"0x946f086bbb956c5d\",\"count\":1}],\"histogram\":{\"sampled\":6,\"bounds\":[1,1,2,2,3,4,4,4,4]},\"hll\":{\"p\":8,\"registers\":\"00000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000007000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}},{\"name\":\"s\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":3,\"distinct_estimate\":3.2909944487358054,\"interval\":{\"lower\":3,\"estimate\":3.2909944487358054,\"upper\":3.666666666666667},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,1],[2,1],[3,1]]},\"mcvs\":[{\"hash\":\"0x0000d34cd5061280\",\"count\":3},{\"hash\":\"0x485f58d21cd3f3d4\",\"count\":2},{\"hash\":\"0x0f7fc61ec55c41c5\",\"count\":1}],\"histogram\":null,\"hll\":{\"p\":8,\"registers\":\"09000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}}]}");
    stats.sampling_fraction = f64::NAN;
    stats.columns[0].distinct_estimate = f64::INFINITY;
    stats.columns[0].interval.upper = f64::NEG_INFINITY;
    stats.columns[1].spectrum = None;
    stats.columns[1].mcvs.clear();
    stats.columns[1].histogram = None;
    assert_eq!(stats.to_json(), "{\"table\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"row_count\":10,\"last_analyzed\":10,\"rows_at_full_analyze\":10,\"increments\":0,\"sampling_fraction\":null,\"estimator\":\"GEE\",\"seed\":\"0x000000000000000b\",\"columns\":[{\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":4,\"distinct_estimate\":null,\"interval\":{\"lower\":4,\"estimate\":4.872983346207417,\"upper\":null},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,3],[3,1]]},\"mcvs\":[{\"hash\":\"0x28de10f7772ad8bb\",\"count\":3},{\"hash\":\"0x3c02aa47758292bd\",\"count\":1},{\"hash\":\"0x850163e6ba26a867\",\"count\":1},{\"hash\":\"0x946f086bbb956c5d\",\"count\":1}],\"histogram\":{\"sampled\":6,\"bounds\":[1,1,2,2,3,4,4,4,4]},\"hll\":{\"p\":8,\"registers\":\"00000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000007000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}},{\"name\":\"s\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":3,\"distinct_estimate\":3.2909944487358054,\"interval\":{\"lower\":3,\"estimate\":3.2909944487358054,\"upper\":3.666666666666667},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":null,\"mcvs\":[],\"histogram\":null,\"hll\":{\"p\":8,\"registers\":\"09000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}}]}");
    stats.columns.clear();
    assert_eq!(stats.to_json(), "{\"table\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"row_count\":10,\"last_analyzed\":10,\"rows_at_full_analyze\":10,\"increments\":0,\"sampling_fraction\":null,\"estimator\":\"GEE\",\"seed\":\"0x000000000000000b\",\"columns\":[]}");

    let dir = std::env::temp_dir().join(format!("dve-json-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t.dvet");
    let stats = build_table_stats(&table, "t", &options(), 11).expect("analyze");
    save_table_stats(&stats, &path).expect("save sidecar");
    let sidecar = std::fs::read_to_string(stats_path_for(&path)).expect("read sidecar");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(sidecar, "{\"format\":\"dve-stats\",\"version\":1,\"checksum\":\"0xb3a075ff75fded37\",\"stats\":{\"table\":\"t\",\"row_count\":10,\"last_analyzed\":10,\"rows_at_full_analyze\":10,\"increments\":0,\"sampling_fraction\":0.6,\"estimator\":\"GEE\",\"seed\":\"0x000000000000000b\",\"columns\":[{\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":4,\"distinct_estimate\":4.872983346207417,\"interval\":{\"lower\":4,\"estimate\":4.872983346207417,\"upper\":6},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,3],[3,1]]},\"mcvs\":[{\"hash\":\"0x28de10f7772ad8bb\",\"count\":3},{\"hash\":\"0x3c02aa47758292bd\",\"count\":1},{\"hash\":\"0x850163e6ba26a867\",\"count\":1},{\"hash\":\"0x946f086bbb956c5d\",\"count\":1}],\"histogram\":{\"sampled\":6,\"bounds\":[1,1,2,2,3,4,4,4,4]},\"hll\":{\"p\":8,\"registers\":\"00000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000007000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}},{\"name\":\"s\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":3,\"distinct_estimate\":3.2909944487358054,\"interval\":{\"lower\":3,\"estimate\":3.2909944487358054,\"upper\":3.666666666666667},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,1],[2,1],[3,1]]},\"mcvs\":[{\"hash\":\"0x0000d34cd5061280\",\"count\":3},{\"hash\":\"0x485f58d21cd3f3d4\",\"count\":2},{\"hash\":\"0x0f7fc61ec55c41c5\",\"count\":1}],\"histogram\":null,\"hll\":{\"p\":8,\"registers\":\"09000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}}]}}\n");
}

#[test]
fn analyze_cli_wrapper() {
    let dir = std::env::temp_dir().join(format!("dve-json-bytes-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t.dvet");
    save_table(&nasty_table(), &path).expect("save table");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dve"))
            .args(args)
            .output()
            .expect("run dve");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let table = path.to_str().expect("utf-8 path");
    let analyzed = run(&["analyze", table, "--fraction", "0.6", "--format", "json"]);
    let saved = run(&[
        "analyze",
        table,
        "--fraction",
        "0.6",
        "--format",
        "json",
        "--save",
        "--table",
        NASTY,
    ]);
    let shown = run(&["stats", "show", table]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(analyzed, "{\"columns\":[{\"column\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":0,\"estimation\":{\"estimator\":\"AE\",\"estimate\":5.973008653272256,\"interval\":{\"lower\":4,\"upper\":6},\"d\":4,\"r\":6,\"n\":10}},{\"column\":\"s\",\"null_count_estimate\":0,\"estimation\":{\"estimator\":\"AE\",\"estimate\":4.3529411764705905,\"interval\":{\"lower\":4,\"upper\":5.333333333333334},\"d\":4,\"r\":6,\"n\":10}}]}\n");
    assert_eq!(saved, "{\"columns\":[{\"column\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":0,\"estimation\":{\"estimator\":\"AE\",\"estimate\":5.973008653272256,\"interval\":{\"lower\":4,\"upper\":6},\"d\":4,\"r\":6,\"n\":10}},{\"column\":\"s\",\"null_count_estimate\":0,\"estimation\":{\"estimator\":\"AE\",\"estimate\":4.3529411764705905,\"interval\":{\"lower\":4,\"upper\":5.333333333333334},\"d\":4,\"r\":6,\"n\":10}}]}\n");
    assert_eq!(shown, "{\"table\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"row_count\":10,\"last_analyzed\":10,\"rows_at_full_analyze\":10,\"increments\":0,\"sampling_fraction\":0.6,\"estimator\":\"AE\",\"seed\":\"0x000000000000002a\",\"columns\":[{\"name\":\"q\\\"b\\\\s\\nn\\u0001c\\té\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":4,\"distinct_estimate\":5.973008653272256,\"interval\":{\"lower\":4,\"estimate\":4.872983346207417,\"upper\":6},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,3],[3,1]]},\"mcvs\":[{\"hash\":\"0x28de10f7772ad8bb\",\"count\":3},{\"hash\":\"0x3c02aa47758292bd\",\"count\":1},{\"hash\":\"0x850163e6ba26a867\",\"count\":1},{\"hash\":\"0x946f086bbb956c5d\",\"count\":1}],\"histogram\":{\"sampled\":6,\"bounds\":[1,1,2,2,3,4,4,4,4]},\"hll\":{\"p\":8,\"registers\":\"00000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000007000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}},{\"name\":\"s\",\"null_count_estimate\":0,\"sample_rows\":6,\"sample_distinct\":4,\"distinct_estimate\":4.3529411764705905,\"interval\":{\"lower\":4,\"estimate\":4.581988897471611,\"upper\":5.333333333333334},\"design\":{\"kind\":\"wor\",\"n\":10},\"spectrum\":{\"n\":10,\"entries\":[[1,2],[2,2]]},\"mcvs\":[{\"hash\":\"0x0000d34cd5061280\",\"count\":2},{\"hash\":\"0x485f58d21cd3f3d4\",\"count\":2},{\"hash\":\"0x0f7fc61ec55c41c5\",\"count\":1},{\"hash\":\"0x7bab5dc99563400a\",\"count\":1}],\"histogram\":null,\"hll\":{\"p\":8,\"registers\":\"09000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\"}}]}\n");
}

#[test]
fn audit_report_to_json() {
    let cell = AuditCell {
        // Registry names and truth labels are plain identifiers; the
        // pre-minijson writer did not escape them.
        estimator: "AE-EXP".to_string(),
        zipf: f64::NAN,
        dup: 3,
        fraction: 0.1 + 0.2,
        truth: f64::INFINITY,
        truth_source: "exact".to_string(),
        mean_ratio_error: 1.5,
        p95_ratio_error: f64::NEG_INFINITY,
        coverage: 1.0,
        mean_rel_width: 1e-7,
        mean_trial_ns: 12_345,
    };
    let mut report = AuditReport {
        version: 1,
        base_rows: 1_000,
        trials: 2,
        seed: u64::MAX,
        cells: vec![],
    };
    assert_eq!(report.to_json(), "{\n  \"version\": 1,\n  \"base_rows\": 1000,\n  \"trials\": 2,\n  \"seed\": 18446744073709551615,\n  \"cells\": [\n  ]\n}\n");
    report.cells = vec![cell.clone(), cell];
    assert_eq!(report.to_json(), "{\n  \"version\": 1,\n  \"base_rows\": 1000,\n  \"trials\": 2,\n  \"seed\": 18446744073709551615,\n  \"cells\": [\n    {\"estimator\":\"AE-EXP\",\"zipf\":null,\"dup\":3,\"fraction\":0.30000000000000004,\"truth\":null,\"truth_source\":\"exact\",\"mean_ratio_error\":1.5,\"p95_ratio_error\":null,\"coverage\":1,\"mean_rel_width\":0.0000001,\"mean_trial_ns\":12345},\n    {\"estimator\":\"AE-EXP\",\"zipf\":null,\"dup\":3,\"fraction\":0.30000000000000004,\"truth\":null,\"truth_source\":\"exact\",\"mean_ratio_error\":1.5,\"p95_ratio_error\":null,\"coverage\":1,\"mean_rel_width\":0.0000001,\"mean_trial_ns\":12345}\n  ]\n}\n");
}

#[test]
fn experiment_report_to_json() {
    let report = ExperimentReport {
        id: "fig\"1".to_string(),
        title: NASTY.to_string(),
        x_label: "x\\".to_string(),
        series: vec!["GEE".to_string(), NASTY.to_string()],
        rows: vec![
            ReportRow {
                x: "0.1%\n".to_string(),
                values: vec![f64::NAN, 0.1 + 0.2],
            },
            ReportRow {
                x: String::new(),
                values: vec![],
            },
        ],
        notes: vec![],
    };
    assert_eq!(report.to_json(), "{\n  \"id\": \"fig\\\"1\",\n  \"title\": \"q\\\"b\\\\s\\nn\\u0001c\\té\",\n  \"x_label\": \"x\\\\\",\n  \"series\": [\n    \"GEE\",\n    \"q\\\"b\\\\s\\nn\\u0001c\\té\"\n  ],\n  \"rows\": [\n    {\n      \"x\": \"0.1%\\n\",\n      \"values\": [\n        null,\n        0.30000000000000004\n      ]\n    },\n    {\n      \"x\": \"\",\n      \"values\": []\n    }\n  ],\n  \"notes\": []\n}");
}

#[test]
fn cluster_coverage_object() {
    let worker = Worker::bind(
        WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            io_timeout: Duration::from_secs(2),
        },
        vec![Segment::from_values("seg\"a", ["a", "b", "a", "c"])],
    )
    .expect("bind worker");
    let live = worker.local_addr().expect("worker addr").to_string();
    let handle = worker.handle();
    let thread = std::thread::spawn(move || worker.run());
    let mut config = ClusterConfig::new(vec![live.clone(), "127.0.0.1:1".to_string()]);
    config.retries = 0;
    let status = ServeStatus {
        cluster: Some(Arc::new(Coordinator::new(config))),
        ..ServeStatus::default()
    };
    let answer = body(
        &status,
        "POST",
        "/v1/estimate",
        "{\"cluster\":true,\"fraction\":1.0,\"seed\":7,\"estimator\":\"AE\"}",
    );
    handle.shutdown();
    thread.join().expect("worker thread").expect("worker run");
    assert_eq!(answer.replace(&live, "LIVE"), "{\"estimation\":{\"estimator\":\"AE\",\"estimate\":3,\"interval\":null,\"d\":3,\"r\":4,\"n\":4},\"gee_interval\":{\"lower\":3,\"upper\":3},\"cluster\":{\"workers\":2,\"answered\":1,\"segments\":1,\"retries\":0,\"skipped\":[{\"worker\":\"127.0.0.1:1\",\"segments\":null,\"error\":\"Connection refused (os error 111)\"}]}}");
}

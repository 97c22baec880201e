//! End-to-end tests for the `dve serve` daemon: real sockets, real
//! HTTP bytes, an ephemeral port per server.
//!
//! The burst test is the acceptance criterion for the load-shedding
//! design: under more concurrent clients than `queue_depth + jobs` can
//! absorb, every response must be a clean 200 or 429 — no hangs, no
//! 5xx from queue pressure.

use distinct_values::serve::{pipeline, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A running daemon plus the thread driving it.
struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn boot(config: ServeConfig) -> TestServer {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread exits")
            .expect("server run returns Ok");
    }
}

/// Sends one raw HTTP request and returns `(status, body)`.
fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

#[test]
fn happy_paths_and_metrics() {
    let server = boot(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    for key in [
        "\"status\":\"ok\"",
        "\"version\":\"",
        "\"uptime_s\":",
        "\"jobs\":2",
        "\"queue_capacity\":",
    ] {
        assert!(body.contains(key), "healthz missing {key}: {body}");
    }

    let (status, body) = get(addr, "/v1/estimators");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"GEE\"") && body.contains("\"SHLOSSER\""),
        "{body}"
    );

    // Spectrum mode must be byte-identical to the in-process pipeline.
    let (status, body) = post(
        addr,
        "/v1/estimate",
        r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let expected = pipeline::estimate_spectrum(10_000, vec![40, 30], "GEE").unwrap();
    assert_eq!(body, expected.to_json());

    // Values mode likewise (this is the CLI's exact chain).
    let values: Vec<String> = (0..200).map(|i| format!("v{}", i % 37)).collect();
    let json_values: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
    let request = format!(
        "{{\"values\":[{}],\"estimator\":\"AE\",\"fraction\":0.25,\"seed\":9}}",
        json_values.join(",")
    );
    let (status, body) = post(addr, "/v1/estimate", &request);
    assert_eq!(status, 200, "{body}");
    let expected = pipeline::estimate_values(&values, "AE", 0.25, 9).unwrap();
    assert_eq!(body, expected.to_json());

    // Analyze: same bytes as an in-process analyze + the shared
    // ColumnStatistics serializer.
    let (status, body) = post(
        addr,
        "/v1/analyze",
        r#"{"columns":[{"name":"city","values":["a",null,"b","a","b","b"]}],"fraction":1.0,"seed":3}"#,
    );
    assert_eq!(status, 200, "{body}");
    {
        use distinct_values::storage::{
            analyze_table_jobs, columns_to_json, AnalyzeOptions, Column, Schema, Table,
        };
        let table = Table::new(
            Schema::new(vec![distinct_values::storage::Field::nullable(
                "city",
                distinct_values::storage::DataType::Str,
            )]),
            vec![Column::from_strs_opt(&[
                Some("a"),
                None,
                Some("b"),
                Some("a"),
                Some("b"),
                Some("b"),
            ])],
        )
        .unwrap();
        let stats = analyze_table_jobs(
            &table,
            &AnalyzeOptions {
                sampling_fraction: 1.0,
                estimator: "AE".to_string(),
            },
            0,
            &mut distinct_values::numeric::rng::Rng::seed_from_u64(3),
        )
        .unwrap();
        assert_eq!(body, format!("{{\"columns\":{}}}", columns_to_json(&stats)));
    }

    // The serve.* telemetry must show up in the Prometheus exposition.
    let (status, prom) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        prom.contains("serve_requests_total{label=\"estimate\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_responses_total{label=\"200\"}"),
        "{prom}"
    );
    assert!(prom.contains("serve_shed_total"), "{prom}");
    assert!(
        prom.contains("span_duration_ns_count{label=\"serve.request\"}"),
        "{prom}"
    );

    server.stop();
}

#[test]
fn traced_request_end_to_end() {
    // A client-chosen trace id must flow accept → queue → parse →
    // estimator math → serialize, and come back causally linked across
    // at least two OS threads (accept loop + worker) via
    // GET /v1/traces/{id}.
    let server = boot(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let body = r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#;
    let (status, _) = roundtrip(
        addr,
        &format!(
            "POST /v1/estimate HTTP/1.1\r\nHost: t\r\nX-Dve-Trace-Id: cafe1234\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200);

    // 1-16 hex chars parse literally, so the canonical id is zero-padded.
    let (status, trace_json) = get(addr, "/v1/traces/cafe1234");
    assert_eq!(status, 200, "{trace_json}");
    let check = distinct_values::obs::trace::validate_chrome_trace(&trace_json)
        .expect("served trace is valid Chrome trace-event JSON");
    assert!(check.spans >= 5, "{check:?}\n{trace_json}");
    assert_eq!(check.roots, 1, "{trace_json}");
    assert_eq!(check.linked, check.spans - 1, "{trace_json}");
    assert!(
        check.threads >= 2,
        "expected accept + worker threads: {check:?}\n{trace_json}"
    );
    for name in [
        "serve.request",
        "serve.queue_wait",
        "serve.parse",
        "pipeline.spectrum_build",
        "pipeline.estimate",
        "serve.serialize",
    ] {
        assert!(
            trace_json.contains(&format!("\"name\":\"{name}\"")),
            "missing span {name}: {trace_json}"
        );
    }
    assert!(
        trace_json.contains("\"trace_id\":\"00000000cafe1234\""),
        "{trace_json}"
    );

    // The recent-trace index lists it.
    let (status, index) = get(addr, "/v1/traces");
    assert_eq!(status, 200);
    assert!(index.contains("00000000cafe1234"), "{index}");

    server.stop();
}

#[test]
fn shadow_sampling_drives_slo_and_flips_the_burn_alert() {
    // Phase 1: every values-mode request shadow-sampled
    // (--shadow-sample-rate 1.0) under a mixed-estimator burst. Healthy
    // estimators must report near-total interval coverage and small
    // windowed ratio errors on /v1/slo, and the same series must reach
    // /metrics with trace-id exemplars.
    let server = boot(ServeConfig {
        jobs: 2,
        shadow_sample_rate: 1.0,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let values: Vec<String> = (0..400).map(|i| format!("\"v{}\"", i % 101)).collect();
    let values = values.join(",");
    for (i, estimator) in ["GEE", "AE", "SHLOSSER", "GEE", "AE"].iter().enumerate() {
        let request = format!(
            "{{\"values\":[{values}],\"estimator\":\"{estimator}\",\"fraction\":0.5,\"seed\":{i}}}"
        );
        let (status, body) = post(addr, "/v1/estimate", &request);
        assert_eq!(status, 200, "{body}");
    }

    let (status, slo) = get(addr, "/v1/slo");
    assert_eq!(status, 200, "{slo}");
    for needle in [
        "\"shadow_sample_rate\":1",
        "\"alert\":\"ok\"",
        "\"estimator\":\"GEE\"",
        "\"estimator\":\"AE\"",
        "\"estimator\":\"SHLOSSER\"",
        "\"ratio_error_permille\":{\"p50\":",
        "\"burn_rate\":{\"5m\":",
        "\"budget_remaining\":",
    ] {
        assert!(slo.contains(needle), "missing {needle}: {slo}");
    }
    // All shadow samples of healthy estimators at fraction 0.5 must be
    // covered by their GEE interval: 1h coverage ≥ 0.9 (exactly 1 here).
    let coverage: f64 = slo
        .split("\"coverage\":{")
        .nth(1)
        .and_then(|s| s.split("\"1h\":").nth(1))
        .and_then(|s| s.split(['}', ',']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no 1h coverage in {slo}"));
    assert!(coverage >= 0.9, "coverage {coverage} < 0.9: {slo}");

    let (status, prom) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for needle in [
        "window_ratio_error_permille{label=\"GEE\",window=\"1h\",quantile=\"0.5\"}",
        "window_shadow_samples{label=\"AE\",window=\"1h\"}",
        " # {trace_id=\"",
        "# TYPE slo_burn_rate gauge",
        "slo_alert_state 0",
        "# TYPE trace_dropped_spans gauge",
        "trace_shard_occupancy{label=\"0\"}",
    ] {
        assert!(prom.contains(needle), "missing {needle} in /metrics");
    }
    server.stop();

    // Phase 2: a synthetic bad estimator — SAMPLE-D returns the sampled
    // distinct count, ~1% of the truth on all-distinct data — must burn
    // through the error budget and flip the multi-window alert.
    let server = boot(ServeConfig {
        jobs: 2,
        shadow_sample_rate: 1.0,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let bad_values: Vec<String> = (0..2_000).map(|i| format!("\"u{i}\"")).collect();
    let bad_values = bad_values.join(",");
    for seed in 0..5 {
        let request = format!(
            "{{\"values\":[{bad_values}],\"estimator\":\"SAMPLE-D\",\"fraction\":0.01,\"seed\":{seed}}}"
        );
        let (status, body) = post(addr, "/v1/estimate", &request);
        assert_eq!(status, 200, "{body}");
    }
    let (status, slo) = get(addr, "/v1/slo");
    assert_eq!(status, 200, "{slo}");
    assert!(slo.contains("\"alert\":\"burning\""), "{slo}");
    let (_, prom) = get(addr, "/metrics");
    assert!(prom.contains("slo_alert_state 1"), "{prom}");
    server.stop();
}

#[test]
fn traces_index_respects_limit() {
    let server = boot(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    for i in 0..3 {
        let body = r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#;
        let (status, _) = roundtrip(
            addr,
            &format!(
                "POST /v1/estimate HTTP/1.1\r\nHost: t\r\nX-Dve-Trace-Id: ba5e{i}\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status, 200);
    }
    let (status, one) = get(addr, "/v1/traces?limit=1");
    assert_eq!(status, 200);
    assert_eq!(one.matches("\"trace_id\"").count(), 1, "{one}");
    let (_, all) = get(addr, "/v1/traces");
    assert!(all.matches("\"trace_id\"").count() >= 3, "{all}");
    server.stop();
}

#[test]
fn structured_errors() {
    let server = boot(ServeConfig {
        jobs: 1,
        max_body_bytes: 256,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let (status, body) = post(addr, "/v1/estimate", "{this is not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"malformed_json\""), "{body}");

    let (status, body) = post(
        addr,
        "/v1/estimate",
        r#"{"estimator":"GE","n":10,"spectrum":[1]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"unknown_estimator\""), "{body}");
    assert!(body.contains("did you mean GEE?"), "{body}");
    assert!(body.contains("SHLOSSER"), "{body}");

    // A body longer than max_body_bytes is refused with 413.
    let huge = format!(
        r#"{{"values":[{}]}}"#,
        (0..100)
            .map(|i| format!("\"padding-{i}\""))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert!(huge.len() > 256);
    let (status, body) = post(addr, "/v1/estimate", &huge);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"code\":\"body_too_large\""), "{body}");

    let (status, _) = get(addr, "/no/such/path");
    assert_eq!(status, 404);
    let (status, _) = post(addr, "/healthz", "");
    assert_eq!(status, 405);

    server.stop();
}

/// Shard row counts come from the request body, so their sum can pass
/// `u64::MAX`. Every such body is a 400 `bad_request` — never a panic
/// that takes a pool worker down — and the daemon keeps answering.
#[test]
fn shard_row_counts_summing_past_u64_max_are_rejected() {
    let server = boot(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let max = r#"{"n":18446744073709551615,"spectrum":[1]},{"n":2,"spectrum":[1]}"#;
    let half =
        r#"{"n":9223372036854775808,"spectrum":[1]},{"n":9223372036854775808,"spectrum":[1]}"#;
    for shards in [max, half] {
        for design in ["", r#","design":"wor""#, r#","design":"wr""#] {
            // Each body twice: once per pool worker.
            for _ in 0..2 {
                let body = format!(r#"{{"estimator":"GEE","shards":[{shards}]{design}}}"#);
                let (status, answer) = post(addr, "/v1/estimate", &body);
                assert_eq!(status, 400, "{body} → {answer}");
                assert!(answer.contains("\"code\":\"bad_request\""), "{answer}");
                assert!(answer.contains("2^64 - 1 rows"), "{answer}");
            }
        }
    }
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(
        addr,
        "/v1/estimate",
        r#"{"estimator":"GEE","shards":[{"n":5000,"spectrum":[20,15]},{"n":5000,"spectrum":[20,15]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn burst_sheds_cleanly_with_only_200_or_429() {
    // One slow worker + a 2-deep queue: a 12-client burst must be
    // answered entirely with 200s (served) and 429s (shed) — nothing
    // else, and nobody left hanging.
    let server = boot(ServeConfig {
        jobs: 1,
        queue_depth: 2,
        handle_delay: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let clients: Vec<_> = (0..12)
        .map(|_| {
            std::thread::spawn(move || {
                post(
                    addr,
                    "/v1/estimate",
                    r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#,
                )
            })
        })
        .collect();
    let statuses: Vec<u16> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").0)
        .collect();

    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 429),
        "burst produced non-200/429 statuses: {statuses:?}"
    );
    assert!(statuses.contains(&200), "nothing served: {statuses:?}");
    assert!(statuses.contains(&429), "nothing shed: {statuses:?}");

    // After the burst drains, the shed counter is visible in /metrics.
    let (status, prom) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let shed: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("serve_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("serve_shed_total sample present");
    let expected_shed = statuses.iter().filter(|&&s| s == 429).count() as u64;
    assert!(
        shed >= expected_shed,
        "shed counter {shed} < {expected_shed}"
    );

    server.stop();
}

#[test]
fn queued_past_deadline_gets_504() {
    // Worker sleeps 150 ms per request with a 100 ms handle deadline:
    // the first request is handled (dequeued immediately), requests
    // behind it exceed the deadline while queued and must get 504.
    let server = boot(ServeConfig {
        jobs: 1,
        queue_depth: 8,
        handle_delay: Duration::from_millis(150),
        handle_deadline: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let clients: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || get(addr, "/healthz").0))
        .collect();
    let statuses: Vec<u16> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 504),
        "{statuses:?}"
    );
    assert!(statuses.contains(&504), "no request expired: {statuses:?}");

    server.stop();
}

#[test]
fn slow_client_gets_408() {
    let server = boot(ServeConfig {
        jobs: 1,
        read_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send half a request and stall: the worker's read deadline fires.
    stream
        .write_all(b"POST /v1/estimate HTTP/1.1\r\nContent-Le")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 408 "), "{response:?}");

    server.stop();
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    let server = boot(ServeConfig {
        jobs: 1,
        queue_depth: 8,
        handle_delay: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let handle = server.handle.clone();

    // Three in-flight requests, then shutdown while they are queued.
    let clients: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || get(addr, "/healthz").0))
        .collect();
    std::thread::sleep(Duration::from_millis(80));
    handle.shutdown();

    for c in clients {
        assert_eq!(c.join().expect("client thread"), 200, "request dropped");
    }
    server.stop();
}

#[test]
fn analyze_save_and_stats_over_sockets() {
    let server = boot(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    // Miss before anything is saved.
    let (status, body) = get(addr, "/v1/stats/city");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("stats_not_found"), "{body}");

    let values: Vec<String> = (0..300).map(|i| format!("\"c{}\"", i % 40)).collect();
    let request = format!(
        "{{\"columns\":[{{\"name\":\"city\",\"values\":[{}]}}],\"estimator\":\"AE\",\"fraction\":0.25,\"seed\":11}}",
        values.join(",")
    );
    let (status, body) = post(addr, "/v1/analyze?save=true&table=city", &request);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"saved\":\"city\""), "{body}");

    // The saved run prints the catalog's view of the same analyze: minus
    // the additive member, byte-identical to the plain response.
    let (status, plain) = post(addr, "/v1/analyze", &request);
    assert_eq!(status, 200, "{plain}");
    assert_eq!(body.replace(",\"saved\":\"city\"", ""), plain);

    // The saved stats come back as canonical TableStats JSON: parseable,
    // and bit-identical under a parse → re-serialize round trip.
    let (status, stats) = get(addr, "/v1/stats/city");
    assert_eq!(status, 200, "{stats}");
    assert!(stats.starts_with("{\"table\":\"city\""), "{stats}");
    assert!(stats.contains("\"row_count\":300"), "{stats}");
    let parsed = distinct_values::storage::TableStats::from_json(&stats).expect("valid stats");
    assert_eq!(parsed.to_json(), stats, "round trip must be bit-identical");

    // save=true without a table name is a query error; wrong method on
    // the stats route is a 405.
    let (status, body) = post(addr, "/v1/analyze?save=true", &request);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_query"), "{body}");
    let (status, _) = post(addr, "/v1/stats/city", "");
    assert_eq!(status, 405);

    server.stop();
}

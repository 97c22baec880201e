//! End-to-end tests of the `dve` CLI binary: generate → estimate →
//! exact → sketch round trips through real process invocations.

use std::io::Write;
use std::process::{Command, Stdio};

fn dve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dve"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = dve()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // Best-effort: a child that rejects its arguments exits before
    // reading stdin, which surfaces here as EPIPE — that is fine.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn estimators_lists_registry() {
    let out = dve().arg("estimators").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["GEE", "AE", "HYBGEE", "HYBSKEW", "DUJ2A", "HYBVAR"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn generate_then_exact_roundtrip() {
    let out = dve()
        .args([
            "generate", "--rows", "10000", "--zipf", "0", "--dup", "10", "--seed", "3",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let column = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(column.lines().count(), 10_000);
    // Z=0 dup=10: exactly 1000 distinct.
    let (stdout, _, ok) = run_with_stdin(&["exact", "-"], &column);
    assert!(ok);
    assert!(stdout.contains("distinct: 1000"), "{stdout}");
}

#[test]
fn estimate_from_stdin_reports_interval() {
    // 2000 rows of 100 distinct values: easy at 20% sampling.
    let data: String = (0..2000).map(|i| format!("v{}\n", i % 100)).collect();
    let (stdout, _, ok) = run_with_stdin(
        &[
            "estimate",
            "--fraction",
            "0.2",
            "--estimator",
            "AE",
            "--seed",
            "1",
            "-",
        ],
        &data,
    );
    assert!(ok, "estimate failed: {stdout}");
    assert!(stdout.contains("rows:               2000"));
    assert!(stdout.contains("GEE interval"));
    // Parse the estimate line and sanity-check it.
    let est_line = stdout
        .lines()
        .find(|l| l.starts_with("estimate"))
        .expect("estimate line present");
    let est: f64 = est_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("numeric estimate");
    assert!(
        (est - 100.0).abs() < 30.0,
        "estimate {est} too far from 100"
    );
}

#[test]
fn sketch_from_stdin_estimates() {
    let data: String = (0..5000).map(|i| format!("k{}\n", i % 700)).collect();
    let (stdout, _, ok) = run_with_stdin(&["sketch", "--hll-p", "12", "-"], &data);
    assert!(ok);
    let est_line = stdout
        .lines()
        .find(|l| l.starts_with("estimate"))
        .expect("estimate line");
    let est: f64 = est_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .expect("numeric");
    assert!((est - 700.0).abs() / 700.0 < 0.1, "HLL estimate {est}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown estimator.
    let (_, stderr, ok) = run_with_stdin(&["estimate", "--estimator", "NOPE", "-"], "a\nb\n");
    assert!(!ok);
    assert!(stderr.contains("unknown estimator"));
    // Bad fraction.
    let (_, stderr, ok) = run_with_stdin(&["estimate", "--fraction", "2.0", "-"], "a\n");
    assert!(!ok);
    assert!(stderr.contains("fraction"));
    // rows not multiple of dup.
    let out = dve()
        .args(["generate", "--rows", "10", "--dup", "3"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    // Unknown command.
    let out = dve().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn import_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("dve_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let table_path = dir.join("t.dvet");
    let data: String = (0..5_000).map(|i| format!("u{}\n", i % 400)).collect();
    let (_, stderr, ok) = {
        let mut child = dve()
            .args(["import", "--out", table_path.to_str().unwrap(), "-"])
            .stdin(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let _ = child.stdin.as_mut().unwrap().write_all(data.as_bytes());
        let out = child.wait_with_output().unwrap();
        (
            String::new(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.success(),
        )
    };
    assert!(ok, "import failed: {stderr}");
    assert!(stderr.contains("400 distinct"), "{stderr}");

    let out = dve()
        .args([
            "analyze",
            table_path.to_str().unwrap(),
            "--fraction",
            "0.2",
            "--estimator",
            "AE",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("value"), "{text}");
    // Distinct estimate column should be near 400.
    let line = text.lines().nth(1).expect("stats row");
    let est: f64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
    assert!((est - 400.0).abs() < 60.0, "estimate {est}");
    std::fs::remove_file(&table_path).ok();
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = dve()
        .args(["analyze", "/nonexistent/nowhere.dvet"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load"));
}

#[test]
fn empty_input_is_an_error() {
    let (_, stderr, ok) = run_with_stdin(&["estimate", "-"], "");
    assert!(!ok);
    assert!(stderr.contains("empty"));
}

#[test]
fn estimate_with_metrics_json_emits_snapshot() {
    let data: String = (0..2000).map(|i| format!("v{}\n", i % 100)).collect();
    let (stdout, _, ok) = run_with_stdin(
        &[
            "estimate",
            "--fraction",
            "0.2",
            "--estimator",
            "AE",
            "--metrics",
            "json",
            "-",
        ],
        &data,
    );
    assert!(ok, "estimate failed: {stdout}");
    // The snapshot is the last stdout line: one JSON object.
    let json = stdout.lines().last().expect("snapshot line");
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not a JSON object: {json}"
    );
    for section in ["\"counters\":[", "\"gauges\":[", "\"histograms\":["] {
        assert!(json.contains(section), "missing {section} in {json}");
    }
    // Sampler latency, estimator latency percentiles, AE solver
    // iterations must all be populated by one instrumented run.
    for metric in [
        "\"name\":\"span.duration_ns\",\"label\":\"sample.build\"",
        "\"sample.rows_scanned\"",
        "\"core.estimate.calls\"",
        "\"core.estimate_ns\"",
        "\"core.ae.solve_iters\"",
    ] {
        assert!(json.contains(metric), "missing {metric} in {json}");
    }
    assert!(json.contains("\"p95\":"), "no percentiles in {json}");
    // Balanced-brace sanity check: hand-rolled JSON must nest cleanly.
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    assert_eq!(opens, closes, "unbalanced JSON: {json}");
    // The regular report must still precede the snapshot.
    assert!(stdout.contains("rows:               2000"));
}

#[test]
fn estimate_with_metrics_prom_emits_exposition() {
    let data: String = (0..2000).map(|i| format!("v{}\n", i % 100)).collect();
    let (stdout, _, ok) = run_with_stdin(
        &[
            "estimate",
            "--fraction",
            "0.2",
            "--estimator",
            "AE",
            "--metrics",
            "prom",
            "-",
        ],
        &data,
    );
    assert!(ok, "estimate failed: {stdout}");
    // The exposition follows the human-readable report; it starts at the
    // first `# TYPE` family header.
    let start = stdout
        .find("# TYPE")
        .expect("prometheus exposition present");
    let prom = &stdout[start..];

    // Counter families carry the _total suffix and typed headers.
    assert!(
        prom.contains("# TYPE core_estimate_calls_total counter"),
        "missing counter TYPE header:\n{prom}"
    );
    assert!(
        prom.contains("core_estimate_calls_total{label=\"AE\"} 1"),
        "missing labeled counter sample:\n{prom}"
    );
    // Histograms surface as summaries: quantiles plus _sum/_count.
    assert!(
        prom.contains("# TYPE core_estimate_ns summary"),
        "missing summary TYPE header:\n{prom}"
    );
    for piece in [
        "core_estimate_ns{label=\"AE\",quantile=\"0.5\"}",
        "core_estimate_ns{label=\"AE\",quantile=\"0.95\"}",
        "core_estimate_ns{label=\"AE\",quantile=\"0.99\"}",
        "core_estimate_ns_sum{label=\"AE\"}",
        "core_estimate_ns_count{label=\"AE\"} 1",
    ] {
        assert!(prom.contains(piece), "missing {piece}:\n{prom}");
    }
    // Exposition-format lint: every line is a comment or a
    // `name{labels} value` sample with a legal metric name.
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !name.starts_with(|c: char| c.is_ascii_digit()),
            "illegal metric name in: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in: {line}"
        );
    }
}

#[test]
fn stats_show_refresh_drop_flow() {
    let dir = std::env::temp_dir().join(format!("dve_cli_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table_path = dir.join("s.dvet");
    let path = table_path.to_str().unwrap();

    // Import 2000 rows over 50 distinct ints, then ANALYZE with --save.
    let data: String = (0..2000).map(|i| format!("{}\n", i % 50)).collect();
    let (_, stderr, ok) = run_with_stdin(&["import", "--out", path, "--type", "int64", "-"], &data);
    assert!(ok, "import failed: {stderr}");
    let out = dve()
        .args([
            "analyze",
            path,
            "--fraction",
            "0.5",
            "--seed",
            "9",
            "--save",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze --save failed");

    // `stats show` prints the persisted TableStats JSON; the catalog
    // name defaults to the file stem.
    let out = dve().args(["stats", "show", path]).output().unwrap();
    assert!(out.status.success());
    let shown = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(shown.starts_with("{\"table\":\"s\""), "{shown}");
    assert!(shown.contains("\"row_count\":2000"), "{shown}");
    assert!(shown.contains("\"increments\":0"), "{shown}");

    // Append 400 brand-new values — `--append` keeps the existing
    // column name and type — and refresh incrementally (400/2400 is
    // well under the 0.5 staleness threshold).
    let fresh_rows: String = (0..400).map(|i| format!("{}\n", 1_000_000 + i)).collect();
    let (_, stderr, ok) = run_with_stdin(&["import", "--out", path, "--append", "-"], &fresh_rows);
    assert!(ok, "append failed: {stderr}");
    assert!(stderr.contains("450 distinct"), "{stderr}");
    let out = dve().args(["stats", "refresh", path]).output().unwrap();
    assert!(out.status.success());
    let summary = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(summary.contains("incremental"), "{summary}");
    assert!(summary.contains("2400 rows"), "{summary}");

    let out = dve().args(["stats", "show", path]).output().unwrap();
    let shown = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(shown.contains("\"row_count\":2400"), "{shown}");
    assert!(shown.contains("\"increments\":1"), "{shown}");

    // No rows appended since: refresh is a no-op.
    let out = dve().args(["stats", "refresh", path]).output().unwrap();
    assert!(out.status.success());
    let summary = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(summary.contains("no new rows"), "{summary}");

    // Drop removes the sidecar; show and a second drop then fail.
    let out = dve().args(["stats", "drop", path]).output().unwrap();
    assert!(out.status.success());
    let out = dve().args(["stats", "show", path]).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot load statistics"),
        "unexpected stderr"
    );
    let out = dve().args(["stats", "drop", path]).output().unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_refresh_sidecars_are_identical_across_jobs() {
    // analyze --save → import --append → stats refresh, at --jobs 1 and
    // at --jobs 4. Both samples span several counting chunks, so at
    // --jobs 4 the full and the incremental count both fan out.
    let dir = std::env::temp_dir().join(format!("dve_cli_jobs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base: String = (0..20_000)
        .map(|i| format!("{}\n", (i * 31) % 4_999))
        .collect();
    let fresh: String = (0..10_000)
        .map(|i| format!("{}\n", 50_000 + i % 3_001))
        .collect();
    let sidecar = |jobs: &str| {
        let path = dir.join(format!("j{jobs}.dvet"));
        let path = path.to_str().unwrap();
        assert!(run_with_stdin(&["import", "--out", path, "--type", "int64", "-"], &base).2);
        let out = dve()
            .args(["--jobs", jobs, "analyze", path, "--save", "--table", "t"])
            .args(["--fraction", "0.5", "--seed", "5"])
            .output()
            .unwrap();
        assert!(out.status.success(), "analyze --save failed");
        assert!(run_with_stdin(&["import", "--out", path, "--append", "-"], &fresh).2);
        let out = dve()
            .args(["--jobs", jobs, "stats", "refresh", path])
            .output()
            .unwrap();
        let summary = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(summary.contains("incremental"), "{summary}");
        std::fs::read(format!("{path}.stats.json")).unwrap()
    };
    assert!(
        sidecar("1") == sidecar("4"),
        "--jobs 1 and --jobs 4 sidecars differ"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_flag_validation_fails_cleanly() {
    // --table without --save is a usage error.
    let out = dve()
        .args(["analyze", "/nonexistent.dvet", "--table", "x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("requires --save"),
        "unexpected stderr"
    );
    // Unknown stats subcommand.
    let out = dve()
        .args(["stats", "frobnicate", "x.dvet"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // --append with --type is a usage error (type comes from the table).
    let (_, stderr, ok) = run_with_stdin(
        &[
            "import",
            "--out",
            "/nonexistent.dvet",
            "--append",
            "--type",
            "int64",
            "-",
        ],
        "1\n",
    );
    assert!(!ok);
    assert!(stderr.contains("--append"), "{stderr}");
}

#[test]
fn metrics_pretty_and_off_modes() {
    let data: String = (0..500).map(|i| format!("x{}\n", i % 50)).collect();
    let (stdout, _, ok) = run_with_stdin(&["estimate", "--metrics", "pretty", "-"], &data);
    assert!(ok);
    assert!(
        stdout.contains("core.estimate.calls"),
        "pretty dump missing counters: {stdout}"
    );
    // DVE_METRICS=off suppresses recording: the snapshot is empty.
    let mut child = dve()
        .args(["estimate", "--metrics", "json", "-"])
        .env("DVE_METRICS", "off")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let _ = child.stdin.as_mut().unwrap().write_all(data.as_bytes());
    let out = child.wait_with_output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.lines().last().expect("snapshot line");
    // Instruments still register under the gate, but record nothing.
    assert!(
        json.contains("\"name\":\"core.estimate.calls\",\"label\":\"AE\",\"value\":0}"),
        "metrics recorded despite DVE_METRICS=off: {json}"
    );
    assert!(
        json.contains("\"name\":\"span.duration_ns\",\"label\":\"sample.build\",\"count\":0"),
        "sampler histogram recorded despite DVE_METRICS=off: {json}"
    );
}

/// One HTTP/1.1 exchange with a `Connection: close` daemon.
fn http(addr: &str, method: &str, path: &str, body: &str) -> String {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon accepts");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn serve_with_tracing_off_times_every_layer_in_metrics() {
    use std::io::BufRead;
    // Tracing is a process-global switch, so the daemon runs as its own
    // process. One worker makes the order deterministic: the estimate's
    // spans are all recorded before the /metrics request is handled.
    let mut child = dve()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--trace",
            "off",
            "--jobs",
            "1",
        ])
        .env("DVE_LOG", "pretty")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
            }
        }
    });
    let addr = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("daemon reports its address");

    let estimate = http(
        &addr,
        "POST",
        "/v1/estimate",
        r#"{"values":["a","b","a","c","d","d"],"fraction":0.5,"seed":7,"estimator":"GEE"}"#,
    );
    let metrics = http(&addr, "GET", "/metrics", "");
    let _ = child.kill();
    let _ = child.wait();

    assert!(estimate.starts_with("HTTP/1.1 200"), "{estimate}");
    for layer in [
        "serve.request",
        "serve.queue_wait",
        "serve.parse",
        "pipeline.estimate",
        "serve.serialize",
    ] {
        let prefix = format!("span_duration_ns_count{{label=\"{layer}\"}} ");
        let count: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("no {prefix}in /metrics:\n{metrics}"))
            .trim()
            .parse()
            .expect("integer count");
        assert!(count >= 1, "{layer}: count {count}");
    }
}

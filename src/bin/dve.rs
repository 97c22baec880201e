//! `dve` — distinct-value estimation from the command line.
//!
//! ```text
//! dve estimate [--estimator AE] [--fraction 0.01] [--seed 42]
//!              [--design wr|wor] [--format table|json]
//!              [--trace TRACE.json] [FILE]
//!     Estimate the number of distinct lines in FILE (or stdin) from a
//!     random sample, with GEE's [LOWER, UPPER] confidence interval.
//!     --format json emits the same Estimation JSON `dve serve` returns.
//!     The sampler draws without replacement; --design wor (default)
//!     tells design-aware estimators so, --design wr forces the paper's
//!     with-replacement model. --trace writes a Chrome trace-event
//!     profile of the run (Perfetto / chrome://tracing); `dve analyze`
//!     takes the same flag.
//!
//! dve serve [--addr 127.0.0.1:7171] [--queue 64] [--max-body BYTES]
//!           [--read-timeout-ms 5000] [--handle-timeout-ms 10000]
//!           [--trace on|off] [--shadow-sample-rate 0.01]
//!           [--cluster WORKER[,WORKER...]] [--cluster-retries 1]
//!     Run the estimation daemon: POST /v1/estimate, POST /v1/analyze,
//!     GET /metrics, GET /healthz, GET /v1/estimators, GET /v1/slo,
//!     GET /v1/traces[/{id}]. Bounded accept queue with 429 load
//!     shedding; graceful shutdown on SIGTERM. Every request is traced
//!     (accept → queue → parse → estimate → serialize); clients pick
//!     the trace id with an `X-Dve-Trace-Id` header and fetch the
//!     Chrome trace-event JSON from /v1/traces/{id}. A deterministic
//!     fraction of values-mode requests (--shadow-sample-rate) also
//!     computes the exact distinct count and feeds the observed error
//!     into the /v1/slo burn-rate tracker. With --cluster the daemon is
//!     also the coordinator for the listed `dve worker` daemons and
//!     `POST /v1/estimate` accepts `{"cluster": true}`.
//!
//! dve worker --segments FILE[,FILE...] [--addr 127.0.0.1:7272]
//!            [--io-timeout-ms 5000]
//!     Run a cluster worker daemon: load one segment per FILE (one
//!     value per line) and answer partial-spectrum requests from a
//!     coordinator over the versioned length-prefixed binary protocol.
//!     Raw values never leave the worker — only sparse spectra travel.
//!     Graceful shutdown on SIGTERM.
//!
//! dve slo-check URL [--max-burn-rate X] [--min-coverage Y]
//!               [--timeout-ms 5000]
//!     Fetch URL/v1/slo and exit non-zero when the error budget is
//!     burning, a burn rate exceeds --max-burn-rate, or 1h shadow
//!     coverage is below --min-coverage. The CI smoke test gates on it.
//!
//! dve trace-check TRACE.json|- [--min-spans N] [--min-threads N]
//!                 [--min-linked N]
//!     Validate a Chrome trace-event file: JSON shape, complete
//!     (ph=X) events, and causal parent links that resolve within
//!     their trace. The CI smoke test gates on this.
//!
//! dve exact [FILE]
//!     Exact distinct count (full scan, hash set).
//!
//! dve sketch [--hll-p 12] [FILE]
//!     Full-scan HyperLogLog estimate in bounded memory.
//!
//! dve generate --rows N [--zipf Z] [--dup K] [--seed S]
//!     Emit a synthetic column (one value per line) with the paper's
//!     generalized Zipfian generator.
//!
//! dve import --out TABLE.dvet [--column NAME] [--type str|int64]
//!            [--append] [FILE]
//!     Build a columnar .dvet table from one value per line. --append
//!     rewrites an existing table with the new rows after the old ones
//!     — the appended-segment shape `dve stats refresh` samples
//!     incrementally.
//!
//! dve analyze TABLE.dvet [--fraction 0.01] [--estimator AE] [--seed 42]
//!             [--format table|json] [--trace TRACE.json]
//!             [--save] [--table NAME]
//!     Sampled ANALYZE over every column of a .dvet table. --save also
//!     builds and persists optimizer statistics (MCVs, histogram,
//!     spectrum, HLL shadow) as TABLE.dvet.stats.json, bit-identical
//!     with what `POST /v1/analyze?save=true` produces for the same
//!     rows and knobs; --table overrides the catalog name (default:
//!     the file stem).
//!
//! dve stats show TABLE.dvet
//! dve stats refresh TABLE.dvet [--staleness 0.5] [--drift 0.25]
//!                   [--full] [--format table|json]
//! dve stats drop TABLE.dvet
//!     Statistics-catalog surface (DESIGN.md §14): print the saved
//!     stats JSON exactly as persisted, fold appended rows in (an
//!     incremental without-replacement merge, escalating to a full
//!     resample on the staleness or overlap-drift policy, or --full to
//!     force one), or delete the stats sidecar.
//!
//! dve audit [--grid full|quick] [--trials N] [--seed S] [--out PATH]
//!           [--check BASELINE.json] [--tolerance 0.25]
//!           [--coverage-tolerance 0.15] [--latency-factor 25]
//!           [--deterministic]
//!     Accuracy audit: sweep estimators × synthetic datasets × sampling
//!     fractions against a shadow ground truth, reporting per-cell
//!     mean/p95 ratio error, GEE interval coverage, and wall time.
//!     Without --check, writes the machine-readable report to --out
//!     (default BENCH_accuracy.json; `-` for stdout). With --check,
//!     compares against the committed baseline instead and exits
//!     non-zero on an accuracy/coverage/latency regression. With
//!     --deterministic, wall-time fields are zeroed so two runs of the
//!     same config (at any --jobs) write byte-identical files.
//!
//! dve estimators
//!     List every estimator the registry knows.
//! ```
//!
//! Global flags and environment:
//!
//! * `--jobs N` — worker threads for parallel paths (audit sweeps,
//!   ANALYZE). Estimation results are bit-identical for every `N`; only
//!   wall times change. Defaults to `DVE_JOBS` or the host parallelism.
//! * `--metrics json|pretty|prom` — dump the process metrics snapshot
//!   (sampler latency, per-estimator call counts and latency
//!   percentiles, AE solver iterations, ratio-error histograms, …) to
//!   stdout after the command; `prom` emits Prometheus text exposition
//!   format 0.0.4 for scraping or pushing to a gateway.
//! * `DVE_METRICS=off` — disable metric recording entirely.
//! * `DVE_JOBS=N` — default worker threads when `--jobs` is absent.
//! * `DVE_LOG` — event sink selection (`pretty`/`debug`/`jsonl`/
//!   `jsonl:PATH`/`off`); diagnostics go through it as structured
//!   events on stderr by default.

use distinct_values::core::registry;
use distinct_values::numeric::rng::Rng;
use distinct_values::obs::{trace, Event};
use distinct_values::sketch::{hll::HyperLogLog, DistinctSketch};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};

/// Emits a `cli.error` event and exits with `code`.
fn fail(code: i32, message: String) -> ! {
    Event::error("cli.error").message(message).emit();
    std::process::exit(code);
}

fn main() {
    if std::env::var("DVE_METRICS").as_deref() == Ok("off") {
        distinct_values::obs::set_enabled(false);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_mode = extract_metrics_flag(&mut args);
    extract_jobs_flag(&mut args);
    let Some(cmd) = args.first() else {
        usage_and_exit(2);
    };
    match cmd.as_str() {
        "estimate" => cmd_estimate(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "exact" => cmd_exact(&args[1..]),
        "sketch" => cmd_sketch(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "import" => cmd_import(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "worker" => cmd_worker(&args[1..]),
        "slo-check" => cmd_slo_check(&args[1..]),
        "trace-check" => cmd_trace_check(&args[1..]),
        "estimators" => {
            for name in registry::ALL_ESTIMATORS {
                println!("{name}");
            }
        }
        "--help" | "-h" | "help" => usage_and_exit(0),
        other => {
            Event::error("cli.error")
                .message(format!("unknown command: {other}"))
                .emit();
            usage_and_exit(2);
        }
    }
    // The windowed (sliding-window) instruments render alongside the
    // cumulative snapshot when any exist.
    let windows = distinct_values::obs::global_windows().snapshot();
    match metrics_mode {
        Some(MetricsMode::Json) => {
            println!("{}", distinct_values::obs::global().snapshot().to_json());
        }
        Some(MetricsMode::Pretty) => {
            print!("{}", distinct_values::obs::global().snapshot().to_pretty());
            if !windows.is_empty() {
                print!("{}", windows.to_pretty());
            }
        }
        Some(MetricsMode::Prom) => {
            print!(
                "{}",
                distinct_values::obs::global().snapshot().to_prometheus()
            );
            if !windows.is_empty() {
                print!("{}", windows.to_prometheus());
            }
        }
        None => {}
    }
}

#[derive(Clone, Copy)]
enum MetricsMode {
    Json,
    Pretty,
    Prom,
}

/// Pulls the global `--metrics json|pretty|prom` flag (valid for every
/// subcommand) out of `args`.
fn extract_metrics_flag(args: &mut Vec<String>) -> Option<MetricsMode> {
    let idx = args.iter().position(|a| a == "--metrics")?;
    if idx + 1 >= args.len() {
        fail(
            2,
            "--metrics requires a value (json|pretty|prom)".to_string(),
        );
    }
    let mode = match args[idx + 1].as_str() {
        "json" => MetricsMode::Json,
        "pretty" => MetricsMode::Pretty,
        "prom" => MetricsMode::Prom,
        other => fail(
            2,
            format!("invalid --metrics mode: {other} (json|pretty|prom)"),
        ),
    };
    args.drain(idx..idx + 2);
    Some(mode)
}

/// Pulls the global `--jobs N` flag (valid for every subcommand) out of
/// `args` and installs it as the process-wide default worker count.
fn extract_jobs_flag(args: &mut Vec<String>) {
    let Some(idx) = args.iter().position(|a| a == "--jobs") else {
        return;
    };
    if idx + 1 >= args.len() {
        fail(2, "--jobs requires a thread count".to_string());
    }
    let jobs: usize = args[idx + 1]
        .parse()
        .ok()
        .filter(|&j| j > 0)
        .unwrap_or_else(|| {
            fail(
                2,
                format!(
                    "invalid --jobs value: {} (want a positive integer)",
                    args[idx + 1]
                ),
            )
        });
    distinct_values::par::set_default_jobs(jobs);
    args.drain(idx..idx + 2);
}

/// Removes a bare boolean `--name` flag from `args`; returns whether it
/// was present. Must run before [`parse_flags`], which assumes every
/// `--flag` carries a value.
fn extract_bool_flag(args: &mut Vec<String>, name: &str) -> bool {
    let flag = format!("--{name}");
    match args.iter().position(|a| *a == flag) {
        Some(idx) => {
            args.remove(idx);
            true
        }
        None => false,
    }
}

/// Parses `--flag value` pairs; returns (flags, positional).
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .next()
                .unwrap_or_else(|| fail(2, format!("--{name} requires a value")));
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

fn flag_parse<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(2, format!("invalid value for --{name}: {v}"))),
    }
}

/// Arms the tracer when `--trace FILE` was given; returns the output
/// path so [`write_trace_file`] can finish the job.
fn arm_tracer(flags: &HashMap<String, String>) -> Option<String> {
    let path = flags.get("trace")?.clone();
    trace::set_tracing(true);
    Some(path)
}

/// Writes the Chrome trace-event JSON for `ctx`'s trace to `path`
/// (`-` for stdout). Call after the root span guard has been dropped so
/// the root itself is in the collector.
fn write_trace_file(path: &str, ctx: Option<trace::TraceContext>) {
    let Some(ctx) = ctx else { return };
    let spans = trace::spans_for(ctx.trace_id);
    let json = trace::export_chrome_trace(&spans);
    if path == "-" {
        println!("{json}");
        return;
    }
    std::fs::write(path, &json).unwrap_or_else(|e| fail(1, format!("cannot write {path}: {e}")));
    Event::info("cli.trace.written")
        .message(format!(
            "wrote {} spans of trace {} to {path} (load in Perfetto / chrome://tracing)",
            spans.len(),
            ctx.trace_id
        ))
        .field_u64("spans", spans.len() as u64)
        .emit();
}

fn read_lines(positional: &[String]) -> Vec<String> {
    let reader: Box<dyn Read> = match positional.first().map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdin()),
        Some(path) => Box::new(
            std::fs::File::open(path)
                .unwrap_or_else(|e| fail(1, format!("cannot open {path}: {e}"))),
        ),
    };
    BufReader::new(reader)
        .lines()
        .map(|l| l.expect("readable input"))
        .collect()
}

fn cmd_estimate(args: &[String]) {
    let (flags, positional) = parse_flags(args);
    let estimator_name: String = flag_parse(&flags, "estimator", "AE".to_string());
    let fraction: f64 = flag_parse(&flags, "fraction", 0.01);
    let seed: u64 = flag_parse(&flags, "seed", 42);
    let format: String = flag_parse(&flags, "format", "table".to_string());
    let design: String = flag_parse(&flags, "design", "wor".to_string());
    // The CLI samples without replacement, so "wor" (the default) tells
    // design-aware estimators the truth; "wr" forces the paper's
    // with-replacement model for faithful-to-publication numbers.
    let forced_design = match design.as_str() {
        "wor" => None,
        "wr" => Some(distinct_values::core::design::SampleDesign::WithReplacement),
        other => fail(2, format!("invalid --design {other} (wr|wor)")),
    };

    let trace_out = arm_tracer(&flags);

    let lines = read_lines(&positional);
    // The hash → sample → profile → estimate chain is shared with
    // `dve serve`'s `/v1/estimate`, so CLI and daemon results are
    // byte-identical for the same input.
    let (outcome, root_ctx) = {
        let root = trace::root_span("cli.estimate");
        let ctx = root.context();
        let outcome = distinct_values::serve::pipeline::estimate_values_with_design(
            &lines,
            &estimator_name,
            fraction,
            seed,
            forced_design,
        )
        .unwrap_or_else(|err| match err {
            distinct_values::serve::PipelineError::EmptyInput => fail(1, err.to_string()),
            distinct_values::serve::PipelineError::UnknownEstimator(_) => {
                fail(2, format!("{err} (see `dve estimators`)"))
            }
            _ => fail(2, err.to_string()),
        });
        (outcome, ctx)
    };
    if let Some(path) = trace_out {
        write_trace_file(&path, root_ctx);
    }
    let est = &outcome.estimation;
    match format.as_str() {
        "json" => println!("{}", outcome.to_json()),
        "table" => {
            println!("rows:               {}", est.n);
            println!("sampled:            {} ({:.2}%)", est.r, fraction * 100.0);
            println!("distinct in sample: {}", est.d);
            println!("estimate ({}):      {:.0}", est.estimator, est.estimate);
            println!(
                "GEE interval:       [{:.0}, {:.0}]",
                outcome.gee.lower, outcome.gee.upper
            );
        }
        other => fail(2, format!("invalid --format {other} (table|json)")),
    }
}

fn cmd_serve(args: &[String]) {
    use distinct_values::serve::{signal, ServeConfig, Server};
    let (flags, positional) = parse_flags(args);
    if let Some(extra) = positional.first() {
        fail(2, format!("serve takes no positional arguments: {extra}"));
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flag_parse(&flags, "addr", defaults.addr.clone()),
        jobs: 0, // resolved via the global --jobs / DVE_JOBS chain
        queue_depth: flag_parse(&flags, "queue", defaults.queue_depth),
        max_body_bytes: flag_parse(&flags, "max-body", defaults.max_body_bytes),
        read_timeout: std::time::Duration::from_millis(flag_parse(
            &flags,
            "read-timeout-ms",
            defaults.read_timeout.as_millis() as u64,
        )),
        handle_deadline: std::time::Duration::from_millis(flag_parse(
            &flags,
            "handle-timeout-ms",
            defaults.handle_deadline.as_millis() as u64,
        )),
        handle_delay: std::time::Duration::ZERO,
        trace: match flags.get("trace").map(String::as_str) {
            None | Some("on") => true,
            Some("off") => false,
            Some(other) => fail(2, format!("invalid --trace {other} (on|off)")),
        },
        shadow_sample_rate: flag_parse(&flags, "shadow-sample-rate", defaults.shadow_sample_rate),
        cluster: flags.get("cluster").map(|list| {
            let workers: Vec<String> = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if workers.is_empty() {
                fail(2, "--cluster requires WORKER[,WORKER...]".to_string());
            }
            let mut cluster = distinct_values::cluster::ClusterConfig::new(workers);
            cluster.retries = flag_parse(&flags, "cluster-retries", cluster.retries);
            cluster
        }),
    };
    if config.queue_depth == 0 {
        fail(2, "--queue must be at least 1".to_string());
    }
    if !(0.0..=1.0).contains(&config.shadow_sample_rate) {
        fail(
            2,
            format!(
                "invalid --shadow-sample-rate {} (want 0.0..=1.0)",
                config.shadow_sample_rate
            ),
        );
    }
    let cluster_workers = config.cluster.as_ref().map(|c| c.workers.len());
    let server =
        Server::bind(config).unwrap_or_else(|e| fail(1, format!("cannot bind listener: {e}")));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| fail(1, format!("cannot resolve listen address: {e}")));
    signal::install();
    Event::info("serve.listening")
        .message(match cluster_workers {
            Some(n) => format!(
                "listening on http://{addr}, coordinating {n} cluster worker(s) \
                 (SIGTERM/ctrl-c to stop)"
            ),
            None => format!("listening on http://{addr} (SIGTERM/ctrl-c to stop)"),
        })
        .emit();
    server
        .run()
        .unwrap_or_else(|e| fail(1, format!("serve failed: {e}")));
    Event::info("serve.stopped")
        .message("drained in-flight requests; bye".to_string())
        .emit();
}

/// `dve worker` — a cluster worker daemon: one [`Segment`] per
/// `--segments` file, served over the versioned binary protocol until
/// SIGTERM/SIGINT.
///
/// [`Segment`]: distinct_values::cluster::Segment
fn cmd_worker(args: &[String]) {
    use distinct_values::cluster::{Segment, Worker, WorkerConfig};
    use distinct_values::serve::signal;
    let (flags, positional) = parse_flags(args);
    if let Some(extra) = positional.first() {
        fail(2, format!("worker takes no positional arguments: {extra}"));
    }
    let Some(segment_list) = flags.get("segments") else {
        fail(2, "worker requires --segments FILE[,FILE...]".to_string());
    };
    let config = WorkerConfig {
        addr: flag_parse(&flags, "addr", "127.0.0.1:7272".to_string()),
        io_timeout: std::time::Duration::from_millis(flag_parse(&flags, "io-timeout-ms", 5_000)),
    };
    let mut segments = Vec::new();
    for path in segment_list.split(',').filter(|s| !s.is_empty()) {
        let lines = read_lines(&[path.to_string()]);
        // The file path is the segment name — it seeds the segment's
        // deterministic sampling stream, so re-serving the same files
        // reproduces the same partial spectra.
        segments.push(Segment::from_values(path, &lines));
    }
    if segments.is_empty() {
        fail(2, "worker requires --segments FILE[,FILE...]".to_string());
    }
    let worker = Worker::bind(config, segments)
        .unwrap_or_else(|e| fail(1, format!("cannot bind worker listener: {e}")));
    let addr = worker
        .local_addr()
        .unwrap_or_else(|e| fail(1, format!("cannot resolve listen address: {e}")));
    signal::install();
    // The worker loop polls its own shutdown flag; bridge the process
    // signals to it so SIGTERM drains the worker like it drains serve.
    let handle = worker.handle();
    std::thread::spawn(move || loop {
        if signal::requested() {
            handle.shutdown();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    Event::info("worker.listening")
        .message(format!(
            "worker on {addr}: {} segment(s), {} row(s) (SIGTERM/ctrl-c to stop)",
            worker.segments(),
            worker.rows(),
        ))
        .field_u64("rows", worker.rows())
        .emit();
    worker
        .run()
        .unwrap_or_else(|e| fail(1, format!("worker failed: {e}")));
    Event::info("worker.stopped")
        .message("drained connections; bye".to_string())
        .emit();
}

/// `dve slo-check URL` — fetch `/v1/slo` from a running daemon and gate
/// on its guarantee status: exit 1 when the error budget is burning,
/// any burn rate exceeds `--max-burn-rate`, or 1h shadow coverage sits
/// below `--min-coverage`.
fn cmd_slo_check(args: &[String]) {
    use distinct_values::obs::minijson::{self, JsonValue};
    let (flags, positional) = parse_flags(args);
    let Some(url) = positional.first() else {
        fail(
            2,
            "slo-check requires a daemon URL or ADDR:PORT".to_string(),
        );
    };
    let max_burn: f64 = flag_parse(&flags, "max-burn-rate", f64::INFINITY);
    let min_coverage: f64 = flag_parse(&flags, "min-coverage", 0.0);
    let timeout_ms: u64 = flag_parse(&flags, "timeout-ms", 5_000);
    let addr = url
        .strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/');
    let (status, body) = distinct_values::serve::http::fetch(
        addr,
        "/v1/slo",
        std::time::Duration::from_millis(timeout_ms),
    )
    .unwrap_or_else(|e| fail(1, format!("cannot fetch http://{addr}/v1/slo: {e}")));
    if status != 200 {
        // Every daemon error carries the {code, message, hint} envelope;
        // the code picks the exit status (2 caller-fixable, 3 capacity/
        // availability, 1 otherwise).
        let code = minijson::parse(&body).ok().and_then(|root| {
            root.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        });
        match code {
            Some(code) => fail(
                distinct_values::serve::api::exit_code_for(&code),
                format!("GET /v1/slo answered {status} ({code}): {body}"),
            ),
            None => fail(1, format!("GET /v1/slo answered {status}: {body}")),
        }
    }
    let root = minijson::parse(&body)
        .unwrap_or_else(|e| fail(1, format!("/v1/slo returned invalid JSON: {e}")));
    let alert = root
        .get("alert")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| fail(1, "/v1/slo is missing \"alert\"".to_string()));
    let burn = |window: &str| {
        root.get("burn_rate")
            .and_then(|b| b.get(window))
            .and_then(JsonValue::as_f64)
    };
    let coverage_1h = root
        .get("coverage")
        .and_then(|c| c.get("1h"))
        .and_then(JsonValue::as_f64);

    let mut violations = Vec::new();
    if alert == "burning" {
        violations.push("error budget is burning (multi-window burn-rate alert)".to_string());
    }
    for window in ["5m", "1h"] {
        if let Some(rate) = burn(window) {
            if rate > max_burn {
                violations.push(format!(
                    "{window} burn rate {rate:.3} exceeds --max-burn-rate {max_burn}"
                ));
            }
        }
    }
    if min_coverage > 0.0 {
        match coverage_1h {
            Some(c) if c < min_coverage => violations.push(format!(
                "1h shadow coverage {c:.3} below --min-coverage {min_coverage}"
            )),
            Some(_) => {}
            None => violations.push(format!(
                "no shadow samples in the last 1h (cannot attest --min-coverage {min_coverage})"
            )),
        }
    }

    if violations.is_empty() {
        println!(
            "slo ok: alert={alert} burn_5m={} burn_1h={} coverage_1h={}",
            burn("5m").map_or("n/a".to_string(), |v| format!("{v:.3}")),
            burn("1h").map_or("n/a".to_string(), |v| format!("{v:.3}")),
            coverage_1h.map_or("n/a".to_string(), |v| format!("{v:.3}")),
        );
        return;
    }
    for v in &violations {
        println!("SLO VIOLATION: {v}");
    }
    Event::error("cli.slo.violation")
        .message(format!("{} SLO violation(s) at {addr}", violations.len()))
        .field_u64("violations", violations.len() as u64)
        .emit();
    std::process::exit(1);
}

fn cmd_audit(args: &[String]) {
    use distinct_values::experiments::audit::{
        check_against, run_audit, AuditConfig, AuditReport, CheckTolerance,
    };
    let mut args = args.to_vec();
    let deterministic = extract_bool_flag(&mut args, "deterministic");
    let (flags, positional) = parse_flags(&args);
    if let Some(extra) = positional.first() {
        fail(2, format!("audit takes no positional arguments: {extra}"));
    }
    let mut config = match flags.get("grid").map(String::as_str) {
        None | Some("full") => AuditConfig::default_grid(),
        Some("quick") => AuditConfig::quick(),
        Some(other) => fail(2, format!("invalid --grid {other} (full|quick)")),
    };
    config.trials = flag_parse(&flags, "trials", config.trials);
    config.seed = flag_parse(&flags, "seed", config.seed);
    if config.trials == 0 {
        fail(2, "--trials must be at least 1".to_string());
    }

    let report = run_audit(&config);
    // --deterministic zeroes the one run-to-run-varying field so two
    // runs of the same config write byte-identical files — regardless
    // of --jobs.
    let report = if deterministic {
        report.without_walltime()
    } else {
        report
    };
    eprint!("{}", report.to_table());

    match flags.get("check") {
        Some(baseline_path) => {
            let tol = CheckTolerance {
                accuracy: flag_parse(&flags, "tolerance", CheckTolerance::default().accuracy),
                coverage: flag_parse(
                    &flags,
                    "coverage-tolerance",
                    CheckTolerance::default().coverage,
                ),
                latency_factor: flag_parse(
                    &flags,
                    "latency-factor",
                    CheckTolerance::default().latency_factor,
                ),
            };
            let text = std::fs::read_to_string(baseline_path)
                .unwrap_or_else(|e| fail(1, format!("cannot read {baseline_path}: {e}")));
            let baseline = AuditReport::from_json(&text)
                .unwrap_or_else(|e| fail(1, format!("cannot parse {baseline_path}: {e}")));
            let violations = check_against(&report, &baseline, tol);
            if violations.is_empty() {
                println!(
                    "audit check passed: {} baseline cells within tolerance",
                    baseline.cells.len()
                );
            } else {
                for v in &violations {
                    println!("REGRESSION: {v}");
                }
                Event::error("cli.audit.regression")
                    .message(format!(
                        "{} of {} baseline cells regressed",
                        violations.len(),
                        baseline.cells.len()
                    ))
                    .field_u64("violations", violations.len() as u64)
                    .emit();
                std::process::exit(1);
            }
        }
        None => {
            let out: String = flag_parse(&flags, "out", "BENCH_accuracy.json".to_string());
            if out == "-" {
                print!("{}", report.to_json());
            } else {
                std::fs::write(&out, report.to_json())
                    .unwrap_or_else(|e| fail(1, format!("cannot write {out}: {e}")));
                Event::info("cli.audit.done")
                    .message(format!("wrote {} audit cells to {out}", report.cells.len()))
                    .field_u64("cells", report.cells.len() as u64)
                    .emit();
            }
        }
    }
}

fn cmd_trace_check(args: &[String]) {
    let (flags, positional) = parse_flags(args);
    let Some(path) = positional.first() else {
        fail(
            2,
            "trace-check requires a TRACE.json path (or -)".to_string(),
        );
    };
    let min_spans: usize = flag_parse(&flags, "min-spans", 1);
    let min_threads: usize = flag_parse(&flags, "min-threads", 1);
    let min_linked: usize = flag_parse(&flags, "min-linked", 0);
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| fail(1, format!("cannot read stdin: {e}")));
        buf
    } else {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(1, format!("cannot read {path}: {e}")))
    };
    let check = trace::validate_chrome_trace(&text)
        .unwrap_or_else(|e| fail(1, format!("{path}: invalid trace: {e}")));
    if check.spans < min_spans {
        fail(
            1,
            format!(
                "{path}: {} spans, expected at least {min_spans}",
                check.spans
            ),
        );
    }
    if check.threads < min_threads {
        fail(
            1,
            format!(
                "{path}: spans cover {} thread(s), expected at least {min_threads}",
                check.threads
            ),
        );
    }
    if check.linked < min_linked {
        fail(
            1,
            format!(
                "{path}: {} causally linked span(s), expected at least {min_linked}",
                check.linked
            ),
        );
    }
    println!(
        "trace ok: {} spans across {} thread(s), {} root(s), {} causally linked",
        check.spans, check.threads, check.roots, check.linked
    );
}

fn cmd_exact(args: &[String]) {
    let (_, positional) = parse_flags(args);
    let lines = read_lines(&positional);
    let distinct: std::collections::HashSet<&str> = lines.iter().map(String::as_str).collect();
    println!("rows:     {}", lines.len());
    println!("distinct: {}", distinct.len());
}

fn cmd_sketch(args: &[String]) {
    let (flags, positional) = parse_flags(args);
    let p: u32 = flag_parse(&flags, "hll-p", 12);
    let lines = read_lines(&positional);
    let mut hll = HyperLogLog::new(p);
    for line in &lines {
        hll.insert(distinct_values::sketch::hash_bytes(line.as_bytes()));
    }
    println!("rows:      {}", lines.len());
    println!("estimate:  {:.0} (HLL p={p})", hll.estimate());
    println!("memory:    {} bytes", hll.memory_bytes());
    println!("expected RSE: {:.2}%", hll.expected_rse() * 100.0);
}

fn cmd_generate(args: &[String]) {
    let (flags, _) = parse_flags(args);
    let rows: u64 = flag_parse(&flags, "rows", 0);
    if rows == 0 {
        fail(2, "generate requires --rows N".to_string());
    }
    let z: f64 = flag_parse(&flags, "zipf", 0.0);
    let dup: u64 = flag_parse(&flags, "dup", 1);
    let seed: u64 = flag_parse(&flags, "seed", 42);
    if !rows.is_multiple_of(dup) {
        fail(2, "--rows must be a multiple of --dup".to_string());
    }
    let mut rng = Rng::seed_from_u64(seed);
    let (col, d) = distinct_values::datagen::paper_column(rows / dup, z, dup, &mut rng);
    Event::info("cli.generate.done")
        .message(format!(
            "generated {} rows, {} distinct (Z={z}, dup={dup})",
            col.len(),
            d
        ))
        .field_u64("rows", col.len() as u64)
        .field_u64("distinct", d)
        .emit();
    let stdout = std::io::stdout();
    let mut lock = std::io::BufWriter::new(stdout.lock());
    use std::io::Write;
    for v in col {
        writeln!(lock, "{v}").expect("writable stdout");
    }
}

fn cmd_import(args: &[String]) {
    let mut args = args.to_vec();
    let append = extract_bool_flag(&mut args, "append");
    let (flags, positional) = parse_flags(&args);
    let Some(out_path) = flags.get("out") else {
        fail(2, "import requires --out TABLE.dvet".to_string());
    };
    let column_name: String = flag_parse(&flags, "column", "value".to_string());
    let value_type: String = flag_parse(&flags, "type", "str".to_string());
    let lines = read_lines(&positional);
    if lines.is_empty() {
        fail(1, "input is empty".to_string());
    }
    // `--append` rewrites the table with the old rows first and the new
    // input after them — exactly the "rows appended since ANALYZE"
    // shape `dve stats refresh` samples incrementally. Column name and
    // type come from the existing table so appends can't fork the
    // schema.
    let (column_name, value_type, lines) = if append {
        if flags.contains_key("column") || flags.contains_key("type") {
            fail(
                2,
                "--append keeps the existing column name and type; drop --column/--type"
                    .to_string(),
            );
        }
        let old = distinct_values::storage::persist::load_table(std::path::Path::new(out_path))
            .unwrap_or_else(|e| fail(1, format!("cannot load {out_path} for --append: {e}")));
        let field = &old.schema().fields()[0];
        let value_type = match field.data_type {
            distinct_values::storage::DataType::Str => "str",
            distinct_values::storage::DataType::Int64 => "int64",
            other => fail(
                1,
                format!("--append supports str/int64 tables, not {other:?}"),
            ),
        };
        let col = old.column(0);
        let mut all: Vec<String> = (0..old.row_count())
            .map(|row| match col.get(row) {
                distinct_values::storage::Value::Str(s) => s,
                distinct_values::storage::Value::Int64(v) => v.to_string(),
                other => fail(1, format!("--append cannot render value {other:?}")),
            })
            .collect();
        all.extend(lines);
        (field.name.clone(), value_type.to_string(), all)
    } else {
        (column_name, value_type, lines)
    };
    // `--type int64` parses each line as an integer; sorted input then
    // lands on RLE chunks and low-cardinality input on dictionary
    // chunks, so imported tables exercise the same encodings (and
    // counting fast paths) as native ones.
    let (column, data_type) = match value_type.as_str() {
        "str" => (
            distinct_values::storage::Column::from_strs(&lines),
            distinct_values::storage::DataType::Str,
        ),
        "int64" => {
            let values: Vec<i64> = lines
                .iter()
                .enumerate()
                .map(|(i, line)| {
                    line.trim().parse().unwrap_or_else(|e| {
                        fail(1, format!("line {}: invalid int64 {line:?}: {e}", i + 1))
                    })
                })
                .collect();
            (
                distinct_values::storage::Column::from_i64(&values),
                distinct_values::storage::DataType::Int64,
            )
        }
        other => fail(2, format!("invalid --type {other} (str|int64)")),
    };
    let table = distinct_values::storage::Table::new(
        distinct_values::storage::Schema::new(vec![distinct_values::storage::Field::new(
            column_name,
            data_type,
        )]),
        vec![column],
    )
    .expect("single consistent column");
    distinct_values::storage::persist::save_table(&table, std::path::Path::new(out_path))
        .unwrap_or_else(|e| fail(1, format!("cannot write {out_path}: {e}")));
    let distinct = table.column(0).exact_distinct();
    Event::info("cli.import.done")
        .message(format!(
            "imported {} rows into {out_path} ({distinct} distinct)",
            table.row_count()
        ))
        .field_u64("rows", table.row_count() as u64)
        .field_u64("distinct", distinct as u64)
        .emit();
}

fn cmd_analyze(args: &[String]) {
    let mut args = args.to_vec();
    let save = extract_bool_flag(&mut args, "save");
    let (flags, positional) = parse_flags(&args);
    let Some(path) = positional.first() else {
        fail(2, "analyze requires a TABLE.dvet path".to_string());
    };
    let fraction: f64 = flag_parse(&flags, "fraction", 0.01);
    let estimator: String = flag_parse(&flags, "estimator", "AE".to_string());
    let seed: u64 = flag_parse(&flags, "seed", 42);
    let format: String = flag_parse(&flags, "format", "table".to_string());
    if format != "table" && format != "json" {
        fail(2, format!("invalid --format {format} (table|json)"));
    }
    if flags.contains_key("table") && !save {
        fail(
            2,
            "--table names the saved statistics; it requires --save".to_string(),
        );
    }
    let table_name: String = flag_parse(
        &flags,
        "table",
        std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table")
            .to_string(),
    );
    let trace_out = arm_tracer(&flags);
    let table = distinct_values::storage::persist::load_table(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(1, format!("cannot load {path}: {e}")));
    let options = distinct_values::storage::AnalyzeOptions {
        sampling_fraction: fraction,
        estimator,
    };
    fn fail_analyze(e: distinct_values::storage::analyze::AnalyzeError) -> ! {
        let code = match e {
            distinct_values::storage::analyze::AnalyzeError::UnknownEstimator(_) => 2,
            _ => 1,
        };
        fail(code, format!("analyze failed: {e}"))
    }
    let (stats, root_ctx) = {
        let root = trace::root_span("cli.analyze");
        let ctx = root.context();
        // `--save` goes through the catalog builder so the saved stats
        // (and this command's output) are bit-identical with what
        // `dve serve`'s `POST /v1/analyze?save=true` produces for the
        // same rows, knobs, and seed.
        let stats = if save {
            let built =
                distinct_values::storage::build_table_stats(&table, &table_name, &options, seed)
                    .unwrap_or_else(|e| fail_analyze(e));
            distinct_values::storage::save_table_stats(&built, std::path::Path::new(path))
                .unwrap_or_else(|e| fail(1, format!("cannot save statistics for {path}: {e}")));
            Event::info("cli.analyze.saved")
                .message(format!(
                    "saved statistics for table {table_name:?} next to {path}"
                ))
                .emit();
            built.column_statistics()
        } else {
            let mut rng = Rng::seed_from_u64(seed);
            distinct_values::storage::analyze_table(&table, &options, &mut rng)
                .unwrap_or_else(|e| fail_analyze(e))
        };
        (stats, ctx)
    };
    if let Some(out) = trace_out {
        write_trace_file(&out, root_ctx);
    }
    if format == "json" {
        // The same per-column encoding `dve serve`'s `/v1/analyze`
        // returns: ColumnStatistics → the shared Estimation contract.
        println!("{}", distinct_values::storage::analyze_json(&stats, None));
        return;
    }
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>24}",
        "column", "nulls~", "distinct~", "sampled", "GEE interval"
    );
    for s in &stats {
        println!(
            "{:>16} {:>10} {:>12.0} {:>10} [{:>9.0}, {:>10.0}]",
            s.column,
            s.null_count_estimate,
            s.distinct_estimate,
            s.sample_rows,
            s.interval.lower,
            s.interval.upper
        );
    }
}

/// `dve stats show|refresh|drop TABLE.dvet` — the CLI surface over the
/// statistics catalog (DESIGN.md §14). `show` prints the saved
/// [`TableStats`](distinct_values::storage::TableStats) JSON exactly as
/// persisted (byte-identical with `GET /v1/stats/{table}` for the same
/// build inputs); `refresh` folds
/// appended rows in incrementally or resamples per policy and saves the
/// result; `drop` deletes the sidecar.
fn cmd_stats(args: &[String]) {
    use distinct_values::storage::catalog::{full_resample, ResampleReason};
    use distinct_values::storage::{
        load_table_stats, refresh_table_stats, save_table_stats, stats_path_for, RefreshOutcome,
        RefreshPolicy,
    };
    let Some(sub) = args.first() else {
        fail(
            2,
            "stats requires a subcommand (show|refresh|drop)".to_string(),
        );
    };
    match sub.as_str() {
        "show" => {
            let (_flags, positional) = parse_flags(&args[1..]);
            let Some(path) = positional.first() else {
                fail(2, "stats show requires a TABLE.dvet path".to_string());
            };
            let stats = load_table_stats(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(1, format!("cannot load statistics for {path}: {e}")));
            println!("{}", stats.to_json());
        }
        "refresh" => {
            let mut rest = args[1..].to_vec();
            let full = extract_bool_flag(&mut rest, "full");
            let (flags, positional) = parse_flags(&rest);
            let Some(path) = positional.first() else {
                fail(2, "stats refresh requires a TABLE.dvet path".to_string());
            };
            let defaults = RefreshPolicy::default();
            let policy = RefreshPolicy {
                staleness_threshold: flag_parse(&flags, "staleness", defaults.staleness_threshold),
                overlap_drift_threshold: flag_parse(
                    &flags,
                    "drift",
                    defaults.overlap_drift_threshold,
                ),
            };
            let format: String = flag_parse(&flags, "format", "table".to_string());
            if format != "table" && format != "json" {
                fail(2, format!("invalid --format {format} (table|json)"));
            }
            let table = distinct_values::storage::persist::load_table(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(1, format!("cannot load {path}: {e}")));
            let stats = load_table_stats(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(1, format!("cannot load statistics for {path}: {e}")));
            let (refreshed, outcome) = if full {
                full_resample(&table, &stats, ResampleReason::Forced)
            } else {
                refresh_table_stats(&table, &stats, &policy)
            }
            .unwrap_or_else(|e| fail(1, format!("refresh failed: {e}")));
            save_table_stats(&refreshed, std::path::Path::new(path))
                .unwrap_or_else(|e| fail(1, format!("cannot save statistics for {path}: {e}")));
            if format == "json" {
                println!("{}", refreshed.to_json());
                return;
            }
            let what = match outcome {
                RefreshOutcome::NoNewRows => "no new rows; statistics unchanged".to_string(),
                RefreshOutcome::Incremental {
                    new_rows,
                    sampled_rows,
                } => format!("incremental: merged {new_rows} new rows ({sampled_rows} sampled)"),
                RefreshOutcome::FullResample(reason) => {
                    format!("full resample ({})", reason.label())
                }
            };
            println!("{what}; statistics now cover {} rows", refreshed.row_count);
        }
        "drop" => {
            let (_flags, positional) = parse_flags(&args[1..]);
            let Some(path) = positional.first() else {
                fail(2, "stats drop requires a TABLE.dvet path".to_string());
            };
            let stats_path = stats_path_for(std::path::Path::new(path));
            std::fs::remove_file(&stats_path)
                .unwrap_or_else(|e| fail(1, format!("cannot drop statistics for {path}: {e}")));
            Event::info("cli.stats.drop")
                .message(format!("dropped statistics at {}", stats_path.display()))
                .emit();
        }
        other => fail(
            2,
            format!("unknown stats subcommand: {other} (show|refresh|drop)"),
        ),
    }
}

fn usage_and_exit(code: i32) -> ! {
    println!(
        "dve — distinct-value estimation (PODS 2000 reproduction)\n\n\
         usage:\n  dve estimate [--estimator AE] [--fraction 0.01] [--seed 42] [--design wr|wor]\n               \
         [--format table|json] [--trace TRACE.json] [FILE|-]\n  \
         dve serve [--addr 127.0.0.1:7171] [--queue 64] [--max-body BYTES]\n            \
         [--read-timeout-ms 5000] [--handle-timeout-ms 10000] [--trace on|off]\n            \
         [--shadow-sample-rate 0.01] [--cluster WORKER[,WORKER...]]\n            \
         [--cluster-retries 1]\n  \
         dve worker --segments FILE[,FILE...] [--addr 127.0.0.1:7272]\n             \
         [--io-timeout-ms 5000]\n  \
         dve slo-check URL [--max-burn-rate X] [--min-coverage Y] [--timeout-ms 5000]\n  \
         dve exact [FILE|-]\n  \
         dve sketch [--hll-p 12] [FILE|-]\n  \
         dve generate --rows N [--zipf Z] [--dup K] [--seed S]\n  \
         dve import --out TABLE.dvet [--column NAME] [--type str|int64] [--append] [FILE|-]\n  \
         dve analyze TABLE.dvet [--fraction 0.01] [--estimator AE] [--seed 42]\n            \
         [--format table|json] [--trace TRACE.json] [--save] [--table NAME]\n  \
         dve stats show TABLE.dvet\n  \
         dve stats refresh TABLE.dvet [--staleness 0.5] [--drift 0.25] [--full]\n            \
         [--format table|json]\n  \
         dve stats drop TABLE.dvet\n  \
         dve audit [--grid full|quick] [--trials N] [--seed S] [--out PATH]\n            \
         [--check BASELINE.json] [--tolerance T] [--coverage-tolerance C]\n            \
         [--latency-factor L] [--deterministic]\n  \
         dve trace-check TRACE.json|- [--min-spans N] [--min-threads N] [--min-linked N]\n  \
         dve estimators\n\n\
         global: --jobs N                     worker threads (results identical for every N)\n        \
         --metrics json|pretty|prom   dump process metrics after the command\n\n\
         traces are Chrome trace-event JSON: open in Perfetto (ui.perfetto.dev) or\n\
         chrome://tracing; `dve serve` echoes X-Dve-Trace-Id and serves\n\
         GET /v1/traces/{{id}}"
    );
    std::process::exit(code);
}

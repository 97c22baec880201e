//! Wall-time benchmark for the parallel execution layer.
//!
//! Times the hot paths that [`dve_par`] drives — the audit sweep, table
//! ANALYZE, chunked spectrum construction, sliding-window histogram
//! ingest, full-table ingest → spectrum over a mixed-encoding table,
//! and a larger ANALYZE — once at `jobs = 1` and
//! once at `jobs = N`, checking on the way that the parallel results are
//! **bit-identical** to serial (that check is the part of the gate that
//! never depends on the host).
//!
//! The `ingest_rows_per_sec` scenario is the throughput gauge for the
//! counting hot path (wyhash-style hashing + open-addressing counters +
//! dictionary/RLE fast paths): it drives every row of an RLE, a
//! dictionary, a plain, and a `Str` column through
//! [`Column::count_sampled_rows`] and reports serial rows/second.
//!
//! The report is written to `BENCH_perf.json` with the same
//! hand-rolled-writer / [`minijson`]-reader discipline as
//! `BENCH_accuracy.json`, and [`check_against`] compares a fresh run to
//! the committed baseline:
//!
//! * determinism violations always fail, on any host;
//! * parallel wall time may not regress past `latency_factor` × baseline
//!   (a deliberately loose factor — it catches order-of-magnitude
//!   slowdowns, not scheduler noise);
//! * the speedup assertion (`speedup ≥ min_speedup`) only arms when the
//!   **current** host actually has `≥ 4` available cores — a pinned or
//!   single-core host cannot speed anything up, and honest numbers from
//!   it must not fail CI.

use crate::audit::{run_audit, AuditConfig};
use crate::minijson::{self, JsonValue};
use dve_core::spectrum::SpectrumBuilder;
use dve_numeric::rng::Rng;
use dve_obs::window::{ManualClock, WindowClock, WindowedHistogram, WINDOWS};
use dve_storage::{analyze_table_jobs, AnalyzeOptions, Column, Field, Schema, Table};
use std::time::Instant;

/// Schema version written to (and required from) `BENCH_perf.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// What to benchmark. Construct via [`PerfConfig::quick`] (the CI gate)
/// or [`PerfConfig::full`], then override fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// Worker threads for the parallel side (`0` = auto:
    /// `max(dve_par::default_jobs(), 4)`, so the parallel path is
    /// genuinely exercised — oversubscribed — even on a 1-core host).
    pub jobs: usize,
    /// Trials per audit cell (the audit scenario always uses the quick
    /// grid; trials scale its cost).
    pub audit_trials: u32,
    /// Rows in the synthetic ANALYZE table.
    pub analyze_rows: u64,
    /// Sampled values fed to the spectrum-merge scenario (chunked
    /// [`SpectrumBuilder`] ingest vs one-shot).
    pub merge_values: u64,
    /// Observations recorded per chunk in the windowed-histogram
    /// scenario (the monitoring hot path, under rotation pressure).
    pub window_records: u64,
    /// Rows per column in the mixed-encoding ingest scenario (every row
    /// of every column is counted, so total ingested rows is this times
    /// the column count).
    pub ingest_rows: u64,
    /// Rows in the `analyze_large` mixed-encoding table.
    pub analyze_large_rows: u64,
    /// Base RNG seed for all scenarios.
    pub seed: u64,
}

impl PerfConfig {
    /// The seconds-fast configuration the CI gate and the committed
    /// `BENCH_perf.json` baseline use.
    pub fn quick() -> Self {
        Self {
            jobs: 0,
            audit_trials: 8,
            analyze_rows: 60_000,
            merge_values: 2_000_000,
            window_records: 2_000_000,
            ingest_rows: 500_000,
            analyze_large_rows: 250_000,
            seed: 42,
        }
    }

    /// A heavier configuration for manual speedup measurements.
    pub fn full() -> Self {
        Self {
            audit_trials: 48,
            analyze_rows: 600_000,
            merge_values: 20_000_000,
            window_records: 20_000_000,
            ingest_rows: 5_000_000,
            analyze_large_rows: 2_000_000,
            ..Self::quick()
        }
    }
}

/// One benchmarked scenario: serial vs parallel wall time plus the
/// determinism verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfScenario {
    /// Scenario name (`"audit_quick"`, `"analyze"`, `"spectrum_merge"`,
    /// `"windowed_histogram"`, `"ingest_rows_per_sec"`,
    /// `"analyze_large"`).
    pub name: String,
    /// Wall time of the `jobs = 1` run, ns.
    pub serial_ns: u64,
    /// Wall time of the `jobs = N` run, ns.
    pub parallel_ns: u64,
    /// `serial_ns / parallel_ns` (≥ 1 means the pool helped).
    pub speedup: f64,
    /// Serial throughput gauge: rows processed per second at
    /// `jobs = 1`, or `0` for scenarios without a row notion. Informative
    /// only — never gated, since absolute throughput is host-bound.
    pub rows_per_sec: f64,
    /// Whether the parallel result was bit-identical to the serial one.
    pub deterministic: bool,
}

/// A complete benchmark run: host/config echo plus one row per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Schema version (see [`SCHEMA_VERSION`]).
    pub version: u64,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// readers (and [`check_against`]) need it to interpret `speedup`.
    pub host_parallelism: u64,
    /// Worker threads used for the parallel side.
    pub jobs: u64,
    /// Whether the speedup gate was armed on the measuring host (≥ 4
    /// cores). A baseline recorded with this `false` carries wall times
    /// from a box whose `speedup` numbers are noise, not signal.
    pub speedup_gate_armed: bool,
    /// All benchmarked scenarios.
    pub scenarios: Vec<PerfScenario>,
}

/// Tolerances for [`check_against`].
#[derive(Debug, Clone, Copy)]
pub struct PerfTolerance {
    /// Current parallel wall time may be at most this factor × baseline.
    pub latency_factor: f64,
    /// Required `speedup` when the current host has ≥ 4 cores.
    pub min_speedup: f64,
}

impl Default for PerfTolerance {
    fn default() -> Self {
        Self {
            latency_factor: 25.0,
            min_speedup: 1.5,
        }
    }
}

fn host_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|p| p.get() as u64)
        .unwrap_or(1)
}

/// Builds the synthetic ANALYZE table: three integer columns of
/// different skew over the same rows, via the paper's generator.
fn bench_table(rows: u64, seed: u64) -> Table {
    let mut columns = Vec::new();
    let mut fields = Vec::new();
    for (i, (name, z, dup)) in [("uniform", 0.0, 1), ("zipf1", 1.0, 1), ("dup100", 0.0, 100)]
        .into_iter()
        .enumerate()
    {
        let mut rng = Rng::seed_from_u64(seed ^ (i as u64 + 1));
        let (values, _) = dve_datagen::paper_column(rows / dup, z, dup, &mut rng);
        columns.push(Column::from_u64(&values));
        fields.push(Field::new(name, dve_storage::DataType::Int64));
    }
    Table::new(Schema::new(fields), columns).expect("bench columns share one length")
}

/// Builds the mixed-encoding ingest columns: one column per storage
/// fast path, so the ingest benchmark exercises the RLE run walk, the
/// dictionary dense-count path, plain adjacent coalescing, the `Str`
/// per-code path, and null-run skipping together.
fn mixed_columns(rows: u64) -> (Vec<Field>, Vec<Column>) {
    let rows = rows as usize;
    // Sorted duplicates → RLE chunks (runs of 64).
    let rle: Vec<i64> = (0..rows).map(|i| (i / 64) as i64).collect();
    // Unsorted low cardinality → dictionary chunks.
    let dict: Vec<i64> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 101) as i64)
        .collect();
    // Scrambled near-unique values → plain chunks.
    let plain: Vec<i64> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 3) as i64)
        .collect();
    // Categorical strings → the dictionary-coded `Str` path.
    let strs: Vec<String> = (0..rows).map(|i| format!("cat{:03}", i % 57)).collect();
    // Sorted duplicates with whole null runs → RLE + null-run skipping.
    let nullable: Vec<Option<i64>> = (0..rows)
        .map(|i| {
            if (i / 128) % 10 == 0 {
                None
            } else {
                Some((i / 64) as i64)
            }
        })
        .collect();
    let fields = vec![
        Field::new("rle_sorted", dve_storage::DataType::Int64),
        Field::new("dict_lowcard", dve_storage::DataType::Int64),
        Field::new("plain_unique", dve_storage::DataType::Int64),
        Field::new("str_categorical", dve_storage::DataType::Str),
        Field::nullable("rle_nullable", dve_storage::DataType::Int64),
    ];
    let columns = vec![
        Column::from_i64(&rle),
        Column::from_i64(&dict),
        Column::from_i64(&plain),
        Column::from_strs(&strs),
        Column::from_i64_opt(&nullable),
    ];
    (fields, columns)
}

/// Counts every row of every column into a per-column spectrum —
/// serially in one pass per column, or chunked with an [`absorb`] fold
/// when `jobs > 1`. The result (null count + spectrum per column) must
/// be bit-identical at any job count.
///
/// [`absorb`]: SpectrumBuilder::absorb
fn ingest_all_rows(
    columns: &[Column],
    rows: u64,
    jobs: usize,
) -> Vec<(u64, dve_core::spectrum::Spectrum)> {
    let row_ids: Vec<u64> = (0..rows).collect();
    columns
        .iter()
        .map(|column| {
            let hint = column.distinct_hint();
            let make_builder = |chunk_len: usize| match hint {
                Some(d) => SpectrumBuilder::with_capacity(d.min(chunk_len)),
                None => SpectrumBuilder::new(),
            };
            let (nulls, builder) = if jobs <= 1 {
                let mut builder = make_builder(row_ids.len());
                let nulls = column.count_sampled_rows(&row_ids, &mut builder);
                (nulls, builder)
            } else {
                let parts = dve_par::map_chunks_min(jobs, &row_ids, 4_096, |chunk| {
                    let mut builder = make_builder(chunk.len());
                    let nulls = column.count_sampled_rows(chunk, &mut builder);
                    (nulls, builder)
                });
                let mut nulls = 0;
                let mut acc = SpectrumBuilder::new();
                for (n, b) in parts {
                    nulls += n;
                    acc.absorb(b);
                }
                (nulls, acc)
            };
            let spectrum = builder
                .finish_with_table_rows(rows)
                .expect("ingest bench counts at least one row");
            (nulls, spectrum)
        })
        .collect()
}

/// Runs both scenarios serial-then-parallel and returns the report.
///
/// # Panics
///
/// Panics if ANALYZE fails on the synthetic table (harness bug).
pub fn run_bench(config: &PerfConfig) -> PerfReport {
    let jobs = if config.jobs > 0 {
        config.jobs
    } else {
        dve_par::default_jobs().max(4)
    };

    let mut scenarios = Vec::new();

    // Scenario 1: the audit sweep (quick grid), the harness hot path.
    let mut audit_cfg = AuditConfig::quick();
    audit_cfg.trials = config.audit_trials;
    audit_cfg.seed = config.seed;
    audit_cfg.jobs = 1;
    let t0 = Instant::now();
    let serial_report = run_audit(&audit_cfg);
    let serial_ns = t0.elapsed().as_nanos() as u64;
    audit_cfg.jobs = jobs;
    let t0 = Instant::now();
    let parallel_report = run_audit(&audit_cfg);
    let parallel_ns = t0.elapsed().as_nanos() as u64;
    scenarios.push(scenario(
        "audit_quick",
        serial_ns,
        parallel_ns,
        serial_report.without_walltime() == parallel_report.without_walltime(),
    ));

    // Scenario 2: ANALYZE over a multi-column table, the storage hot
    // path. Identical seeds → identical row samples on both sides.
    let table = bench_table(config.analyze_rows, config.seed);
    let options = AnalyzeOptions::default();
    let mut rng = Rng::seed_from_u64(config.seed);
    let t0 = Instant::now();
    let serial_stats =
        analyze_table_jobs(&table, &options, 1, &mut rng).expect("bench table analyzes");
    let serial_ns = t0.elapsed().as_nanos() as u64;
    let mut rng = Rng::seed_from_u64(config.seed);
    let t0 = Instant::now();
    let parallel_stats =
        analyze_table_jobs(&table, &options, jobs, &mut rng).expect("bench table analyzes");
    let parallel_ns = t0.elapsed().as_nanos() as u64;
    scenarios.push(scenario(
        "analyze",
        serial_ns,
        parallel_ns,
        serial_stats == parallel_stats,
    ));

    // Scenario 3: spectrum construction — chunked builder ingest with a
    // per-chunk merge vs one-shot counting over the same values. The
    // merge is value-level, so any chunking must be bit-identical.
    let values: Vec<u64> = (0..config.merge_values)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) % 65_536)
        .collect();
    let n = config.merge_values;
    let t0 = Instant::now();
    let serial_spectrum =
        dve_sample::profile_of_values(n, &values).expect("bench values are non-empty");
    let serial_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let parallel_spectrum = dve_sample::profile_of_values_chunked(n, &values, jobs)
        .expect("bench values are non-empty");
    let parallel_ns = t0.elapsed().as_nanos() as u64;
    scenarios.push(scenario(
        "spectrum_merge",
        serial_ns,
        parallel_ns,
        serial_spectrum == parallel_spectrum,
    ));

    // Scenario 4: sliding-window histogram ingest — the monitoring hot
    // path. Each chunk owns a recorder driven by a manual clock that
    // jumps every few thousand records, so the ring rotates (CAS-claim
    // slot resets) under load exactly as it does in a long-lived daemon.
    // Single-writer recorders are exactly reproducible, so the per-chunk
    // window stats must match bit-for-bit at any job count.
    const WINDOW_CHUNKS: usize = 8;
    let records = config.window_records;
    let seed = config.seed;
    let window_chunk = move |chunk: usize| {
        let clock = ManualClock::new();
        clock.set_ns(seed.wrapping_add(chunk as u64) % 1_000);
        let hist = WindowedHistogram::with_clock(WindowClock::Manual(clock.clone()));
        let step = (records / 720).max(1);
        let mut x = seed ^ ((chunk as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in 0..records {
            if i % step == 0 {
                clock.advance_secs(7);
            }
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            hist.record(x >> 40);
        }
        let s = hist.stats(WINDOWS[2].1);
        (s.count, s.sum, s.p50.to_bits(), s.p99.to_bits())
    };
    let t0 = Instant::now();
    let serial_windows = dve_par::run_indexed(1, WINDOW_CHUNKS, window_chunk);
    let serial_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let parallel_windows = dve_par::run_indexed(jobs, WINDOW_CHUNKS, window_chunk);
    let parallel_ns = t0.elapsed().as_nanos() as u64;
    scenarios.push(scenario(
        "windowed_histogram",
        serial_ns,
        parallel_ns,
        serial_windows == parallel_windows,
    ));

    // Scenario 5: full-table ingest → spectrum over a mixed-encoding
    // table (RLE, dictionary, plain, Str, nullable RLE). This is the
    // counting hot path the fast-hash / open-addressing / fast-path work
    // targets, so it also reports serial rows/second.
    let (_, ingest_columns) = mixed_columns(config.ingest_rows);
    let t0 = Instant::now();
    let serial_ingest = ingest_all_rows(&ingest_columns, config.ingest_rows, 1);
    let serial_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let parallel_ingest = ingest_all_rows(&ingest_columns, config.ingest_rows, jobs);
    let parallel_ns = t0.elapsed().as_nanos() as u64;
    let ingested_rows = config.ingest_rows * ingest_columns.len() as u64;
    let mut s = scenario(
        "ingest_rows_per_sec",
        serial_ns,
        parallel_ns,
        serial_ingest == parallel_ingest,
    );
    s.rows_per_sec = ingested_rows as f64 / (serial_ns.max(1) as f64 / 1e9);
    scenarios.push(s);

    // Scenario 6: ANALYZE end-to-end over a larger mixed-encoding table
    // — sampling, fast-path counting, chunk merge, and estimation
    // together, at a size where per-row costs dominate setup.
    let (fields, columns) = mixed_columns(config.analyze_large_rows);
    let large_table =
        Table::new(Schema::new(fields), columns).expect("mixed columns share one length");
    let options = AnalyzeOptions::default();
    let mut rng = Rng::seed_from_u64(config.seed);
    let t0 = Instant::now();
    let serial_stats =
        analyze_table_jobs(&large_table, &options, 1, &mut rng).expect("mixed table analyzes");
    let serial_ns = t0.elapsed().as_nanos() as u64;
    let mut rng = Rng::seed_from_u64(config.seed);
    let t0 = Instant::now();
    let parallel_stats =
        analyze_table_jobs(&large_table, &options, jobs, &mut rng).expect("mixed table analyzes");
    let parallel_ns = t0.elapsed().as_nanos() as u64;
    let mut s = scenario(
        "analyze_large",
        serial_ns,
        parallel_ns,
        serial_stats == parallel_stats,
    );
    s.rows_per_sec = config.analyze_large_rows as f64 * large_table.schema().fields().len() as f64
        / (serial_ns.max(1) as f64 / 1e9);
    scenarios.push(s);

    let report = PerfReport {
        version: SCHEMA_VERSION,
        host_parallelism: host_parallelism(),
        jobs: jobs as u64,
        speedup_gate_armed: host_parallelism() >= 4,
        scenarios,
    };
    for s in &report.scenarios {
        dve_obs::Event::info("bench.scenario.done")
            .message(format!(
                "{}: serial {:.1} ms, jobs={jobs} {:.1} ms ({:.2}x), deterministic={}",
                s.name,
                s.serial_ns as f64 / 1e6,
                s.parallel_ns as f64 / 1e6,
                s.speedup,
                s.deterministic
            ))
            .field_u64("serial_ns", s.serial_ns)
            .field_u64("parallel_ns", s.parallel_ns)
            .field_f64("speedup", s.speedup)
            .field_f64("rows_per_sec", s.rows_per_sec)
            .emit();
    }
    report
}

fn scenario(name: &str, serial_ns: u64, parallel_ns: u64, deterministic: bool) -> PerfScenario {
    PerfScenario {
        name: name.to_string(),
        serial_ns,
        parallel_ns,
        speedup: serial_ns as f64 / (parallel_ns.max(1)) as f64,
        rows_per_sec: 0.0,
        deterministic,
    }
}

/// Compares a fresh run against the committed baseline; returns
/// human-readable violations (empty = gate passes).
///
/// Determinism is gated unconditionally. Wall-time regressions are gated
/// against `tolerance.latency_factor`. The speedup assertion only arms
/// when the current host reports ≥ 4 available cores — see the module
/// docs for why.
pub fn check_against(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: PerfTolerance,
) -> Vec<String> {
    let mut violations = Vec::new();
    for base in &baseline.scenarios {
        let Some(cur) = current.scenarios.iter().find(|s| s.name == base.name) else {
            violations.push(format!("scenario {} missing from current run", base.name));
            continue;
        };
        if !cur.deterministic {
            violations.push(format!(
                "scenario {}: parallel result diverged from serial (jobs={})",
                cur.name, current.jobs
            ));
        }
        let limit = base.parallel_ns as f64 * tolerance.latency_factor;
        if base.parallel_ns > 0 && cur.parallel_ns as f64 > limit {
            violations.push(format!(
                "scenario {}: parallel wall time {:.1} ms exceeds {:.0}x baseline ({:.1} ms)",
                cur.name,
                cur.parallel_ns as f64 / 1e6,
                tolerance.latency_factor,
                base.parallel_ns as f64 / 1e6,
            ));
        }
        if current.host_parallelism >= 4 && cur.speedup < tolerance.min_speedup {
            violations.push(format!(
                "scenario {}: speedup {:.2}x below required {:.2}x on a {}-core host",
                cur.name, cur.speedup, tolerance.min_speedup, current.host_parallelism
            ));
        }
    }
    if current.host_parallelism < 4 {
        dve_obs::Event::info("bench.check.speedup_skipped")
            .message(format!(
                "speedup assertion skipped: host reports {} core(s)",
                current.host_parallelism
            ))
            .emit();
    }
    violations
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl PerfReport {
    /// Serializes to the `BENCH_perf.json` schema (hand-rolled; the
    /// inverse of [`PerfReport::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\n  \"version\": {},\n  \"host_parallelism\": {},\n  \"jobs\": {},\n  \
             \"speedup_gate_armed\": {},\n  \"scenarios\": [\n",
            self.version, self.host_parallelism, self.jobs, self.speedup_gate_armed
        ));
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\":\"{}\",\"serial_ns\":{},\"parallel_ns\":{},\
                 \"speedup\":{},\"rows_per_sec\":{},\"deterministic\":{}}}{}\n",
                s.name,
                s.serial_ns,
                s.parallel_ns,
                json_f64(s.speedup),
                json_f64(s.rows_per_sec),
                s.deterministic,
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by [`PerfReport::to_json`].
    /// Rejects unknown schema versions and structurally incomplete
    /// scenarios with a descriptive error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = minijson::parse(text)?;
        let field = |key: &str| -> Result<u64, String> {
            root.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing numeric {key:?}"))
        };
        let version = field("version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported baseline schema version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let scenarios_json = root
            .get("scenarios")
            .and_then(JsonValue::as_array)
            .ok_or("missing \"scenarios\" array")?;
        let mut scenarios = Vec::with_capacity(scenarios_json.len());
        for (i, s) in scenarios_json.iter().enumerate() {
            let ctx = |what: &str| format!("scenario {i}: missing {what}");
            scenarios.push(PerfScenario {
                name: s
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ctx("\"name\""))?
                    .to_string(),
                serial_ns: s
                    .get("serial_ns")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ctx("\"serial_ns\""))?,
                parallel_ns: s
                    .get("parallel_ns")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ctx("\"parallel_ns\""))?,
                speedup: s
                    .get("speedup")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| ctx("\"speedup\""))?,
                // Baselines written before the throughput gauge existed
                // simply lack the field; it is informative, not gated,
                // so zero is the lenient default.
                rows_per_sec: s
                    .get("rows_per_sec")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                deterministic: match s.get("deterministic") {
                    Some(JsonValue::Bool(b)) => *b,
                    _ => return Err(ctx("boolean \"deterministic\"")),
                },
            });
        }
        let host_parallelism = field("host_parallelism")?;
        Ok(Self {
            version,
            host_parallelism,
            jobs: field("jobs")?,
            // Baselines written before the field existed armed the gate
            // purely on core count, so that is the lenient default.
            speedup_gate_armed: match root.get("speedup_gate_armed") {
                Some(JsonValue::Bool(b)) => *b,
                _ => host_parallelism >= 4,
            },
            scenarios,
        })
    }

    /// Human-readable jobs=1 vs jobs=N wall-time table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "perf bench: jobs=1 vs jobs={} (host parallelism {})\n{:<20} {:>12} {:>12} {:>9} {:>12} {:>14}\n",
            self.jobs, self.host_parallelism, "scenario", "serial ms", "parallel ms", "speedup", "rows/s", "deterministic"
        );
        for s in &self.scenarios {
            let rows_per_sec = if s.rows_per_sec > 0.0 {
                format!("{:.3}M", s.rows_per_sec / 1e6)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<20} {:>12.1} {:>12.1} {:>8.2}x {:>12} {:>14}\n",
                s.name,
                s.serial_ns as f64 / 1e6,
                s.parallel_ns as f64 / 1e6,
                s.speedup,
                rows_per_sec,
                s.deterministic
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            jobs: 3,
            audit_trials: 2,
            analyze_rows: 4_000,
            merge_values: 50_000,
            window_records: 50_000,
            ingest_rows: 20_000,
            analyze_large_rows: 8_000,
            seed: 7,
        }
    }

    #[test]
    fn bench_scenarios_are_deterministic_and_complete() {
        let report = run_bench(&tiny_config());
        assert_eq!(report.jobs, 3);
        let names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "audit_quick",
                "analyze",
                "spectrum_merge",
                "windowed_histogram",
                "ingest_rows_per_sec",
                "analyze_large"
            ]
        );
        for s in &report.scenarios {
            assert!(s.deterministic, "{} diverged from serial", s.name);
            assert!(s.serial_ns > 0 && s.parallel_ns > 0, "{s:?}");
            assert!(s.speedup > 0.0, "{s:?}");
            let has_throughput = s.name == "ingest_rows_per_sec" || s.name == "analyze_large";
            assert_eq!(s.rows_per_sec > 0.0, has_throughput, "{s:?}");
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = run_bench(&tiny_config());
        let parsed = PerfReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, parsed);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(PerfReport::from_json("not json").is_err());
        assert!(PerfReport::from_json("{}").is_err());
        assert!(PerfReport::from_json(
            "{\"version\":999,\"host_parallelism\":1,\"jobs\":1,\"scenarios\":[]}"
        )
        .unwrap_err()
        .contains("version"));
        assert!(PerfReport::from_json(
            "{\"version\":1,\"host_parallelism\":1,\"jobs\":1,\"scenarios\":[{\"name\":\"x\"}]}"
        )
        .unwrap_err()
        .contains("scenario 0"));
    }

    #[test]
    fn speedup_gate_armed_defaults_from_core_count() {
        // Baselines written before the field existed stay parseable, with
        // the armed bit inferred the way check_against always has.
        let old = "{\"version\":1,\"host_parallelism\":8,\"jobs\":2,\"scenarios\":[]}";
        assert!(PerfReport::from_json(old).unwrap().speedup_gate_armed);
        let old = "{\"version\":1,\"host_parallelism\":1,\"jobs\":2,\"scenarios\":[]}";
        assert!(!PerfReport::from_json(old).unwrap().speedup_gate_armed);
    }

    #[test]
    fn rows_per_sec_defaults_to_zero_in_old_baselines() {
        let old = "{\"version\":1,\"host_parallelism\":1,\"jobs\":2,\"scenarios\":[\
                   {\"name\":\"analyze\",\"serial_ns\":5,\"parallel_ns\":4,\
                   \"speedup\":1.25,\"deterministic\":true}]}";
        let parsed = PerfReport::from_json(old).unwrap();
        assert_eq!(parsed.scenarios[0].rows_per_sec, 0.0);
    }

    #[test]
    fn check_gates_determinism_and_walltime() {
        let report = run_bench(&tiny_config());
        assert!(check_against(&report, &report, PerfTolerance::default()).is_empty());

        // A non-deterministic current run always fails, on any host.
        let mut broken = report.clone();
        broken.scenarios[0].deterministic = false;
        let violations = check_against(&broken, &report, PerfTolerance::default());
        assert!(violations.iter().any(|v| v.contains("diverged")));

        // A massive wall-time regression fails against the baseline.
        let mut slow = report.clone();
        for s in &mut slow.scenarios {
            s.parallel_ns = s.parallel_ns.saturating_mul(1_000);
        }
        let violations = check_against(&slow, &report, PerfTolerance::default());
        assert!(violations.iter().any(|v| v.contains("wall time")));

        // A baseline scenario the current run lacks is a violation.
        let mut missing = report.clone();
        missing.scenarios.pop();
        let violations = check_against(&missing, &report, PerfTolerance::default());
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn speedup_gate_arms_only_on_multicore_hosts() {
        let report = run_bench(&tiny_config());
        let mut slow = report.clone();
        for s in &mut slow.scenarios {
            s.speedup = 0.5;
        }
        slow.host_parallelism = 1;
        assert!(check_against(&slow, &report, PerfTolerance::default())
            .iter()
            .all(|v| !v.contains("speedup")));
        slow.host_parallelism = 8;
        assert!(check_against(&slow, &report, PerfTolerance::default())
            .iter()
            .any(|v| v.contains("speedup")));
    }

    #[test]
    fn table_mentions_every_scenario() {
        let report = run_bench(&tiny_config());
        let table = report.to_table();
        assert!(table.contains("audit_quick"));
        assert!(table.contains("analyze"));
        assert!(table.contains("spectrum_merge"));
        assert!(table.contains("windowed_histogram"));
        assert!(table.contains("ingest_rows_per_sec"));
        assert!(table.contains("analyze_large"));
        assert!(table.contains("speedup"));
        assert!(table.contains("rows/s"));
    }
}

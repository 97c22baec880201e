//! The accuracy-audit sweep behind `dve audit`.
//!
//! The paper's guarantees are stated in ratio error and GEE's
//! `[LOWER, UPPER]` interval; this module turns those into a
//! *continuously checkable* artifact. It sweeps estimators × data shapes
//! (Zipf skew × duplication factor) × sampling fractions, scores every
//! trial against a [`ShadowTruth`] ground truth (exact hash-set count,
//! degrading to HLL under a memory budget), and aggregates per-cell:
//!
//! * mean and p95 **ratio error** `max(D/D̂, D̂/D)`;
//! * GEE **coverage** (fraction of trials whose interval contained the
//!   truth) and mean relative interval width;
//! * mean per-trial **wall time**.
//!
//! The report serializes to the `BENCH_accuracy.json` schema (version 1)
//! through the [`crate::minijson`] writer and reader, and
//! [`check_against`] compares a fresh run to a committed baseline with
//! per-metric tolerances — the CI regression gate. Every trial also
//! feeds the global [`dve_obs`] registry through the [`dve_obs::audit`]
//! recorders, so a `--metrics prom|json` dump after a sweep carries the
//! full ratio-error histograms.

use crate::minijson::{self, JsonValue, Writer};
use crate::runner::trial_seed;
use dve_core::bounds::gee_confidence_interval;
use dve_core::design::SampleDesign;
use dve_core::error::ratio_error;
use dve_core::estimator::DistinctEstimator;
use dve_core::registry as estimators;
use dve_numeric::rng::Rng;
use dve_sample::{sample_profile, SamplingScheme};
use dve_sketch::shadow::ShadowTruth;
use dve_sketch::{hash_value, DistinctSketch};
use std::time::Instant;

/// Schema version written to (and required from) `BENCH_accuracy.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// What to sweep. Construct via [`AuditConfig::default_grid`] (the
/// committed-baseline grid) or [`AuditConfig::quick`] (a seconds-fast
/// smoke grid), then override fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Estimator registry names to audit.
    pub estimators: Vec<String>,
    /// Zipf skew parameters (paper §6: `Z ∈ 0..=4`).
    pub zipfs: Vec<f64>,
    /// Duplication factors (each base value repeated `dup` times).
    pub dups: Vec<u64>,
    /// Sampling fractions `r/n`.
    pub fractions: Vec<f64>,
    /// Base rows before duplication (`n = base_rows · dup`).
    pub base_rows: u64,
    /// Independent samples per cell.
    pub trials: u32,
    /// Base RNG seed; every cell and trial derives its own stream.
    pub seed: u64,
    /// Shadow-truth memory budget in bytes (exact under it, HLL above).
    pub shadow_budget_bytes: usize,
    /// Worker threads for the sweep (`0` = resolve via
    /// [`dve_par::default_jobs`]). Every estimation result is
    /// bit-identical across `jobs` values; only wall times vary.
    pub jobs: usize,
}

impl AuditConfig {
    /// The grid the committed `BENCH_accuracy.json` baseline uses: the
    /// paper's six headline estimators over low/medium/high skew, two
    /// duplication factors, and three sampling fractions. Runs in a few
    /// seconds in release mode.
    pub fn default_grid() -> Self {
        Self {
            estimators: estimators::PAPER_ESTIMATORS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            zipfs: vec![0.0, 1.0, 2.0],
            dups: vec![1, 100],
            fractions: vec![0.01, 0.05, 0.20],
            base_rows: 10_000,
            trials: 16,
            seed: 42,
            shadow_budget_bytes: 64 << 20,
            jobs: 0,
        }
    }

    /// A deliberately tiny grid for integration tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            estimators: vec!["GEE".to_string(), "AE".to_string()],
            zipfs: vec![0.0, 2.0],
            dups: vec![10],
            fractions: vec![0.05],
            base_rows: 2_000,
            trials: 5,
            seed: 42,
            shadow_budget_bytes: 64 << 20,
            jobs: 0,
        }
    }
}

/// One audited `(estimator, zipf, dup, fraction)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCell {
    /// Estimator registry name.
    pub estimator: String,
    /// Zipf skew of the audited column.
    pub zipf: f64,
    /// Duplication factor of the audited column.
    pub dup: u64,
    /// Sampling fraction `r/n`.
    pub fraction: f64,
    /// Shadow ground truth the cell was scored against.
    pub truth: f64,
    /// `"exact"` or `"hll"` — provenance of `truth`.
    pub truth_source: String,
    /// Mean ratio error over the trials (≥ 1).
    pub mean_ratio_error: f64,
    /// 95th-percentile ratio error over the trials.
    pub p95_ratio_error: f64,
    /// Fraction of trials whose GEE `[LOWER, UPPER]` contained `truth`.
    /// Identical across a dataset cell's estimator rows (the interval is
    /// estimator-independent); duplicated for schema flatness.
    pub coverage: f64,
    /// Mean `(UPPER − LOWER)/estimate` over the trials.
    pub mean_rel_width: f64,
    /// Mean wall time of one full trial (sample + every estimator), ns.
    pub mean_trial_ns: u64,
}

/// A complete audit run: config echo plus one row per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Schema version (see [`SCHEMA_VERSION`]).
    pub version: u64,
    /// Base rows before duplication.
    pub base_rows: u64,
    /// Trials per cell.
    pub trials: u32,
    /// Base seed.
    pub seed: u64,
    /// All audited cells, in sweep order.
    pub cells: Vec<AuditCell>,
}

/// Index of the p95 order statistic for `len` sorted samples
/// (nearest-rank definition, 1-indexed rank ⌈0.95·len⌉).
fn p95_index(len: usize) -> usize {
    ((0.95 * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// One generated `(zipf, dup)` dataset with its shadow ground truth.
struct AuditDataset {
    zipf: f64,
    dup: u64,
    dataset_seed: u64,
    column: Vec<u64>,
    truth: f64,
    truth_source: String,
}

/// What one audit trial measures; aggregated per cell in trial order.
struct TrialOutcome {
    covered: bool,
    rel_width: f64,
    /// Ratio error per estimator, in `config.estimators` order.
    errors: Vec<f64>,
    elapsed_ns: u128,
}

/// Runs the full sweep, fanned across `config.jobs` workers
/// (`0` = auto). Deterministic for a fixed config (modulo wall times)
/// **and for every `jobs` value**: cell columns and trial samples derive
/// from `config.seed` through position-independent [`trial_seed`]
/// streams, and per-cell aggregates are folded in trial order, so every
/// field except `mean_trial_ns` is bit-identical between `jobs = 1` and
/// `jobs = N`.
///
/// # Panics
///
/// Panics on an empty grid dimension, zero trials, or an unknown
/// estimator name — audit configuration is static and should fail loud.
pub fn run_audit(config: &AuditConfig) -> AuditReport {
    assert!(config.trials > 0, "audit needs at least one trial");
    assert!(
        !config.estimators.is_empty()
            && !config.zipfs.is_empty()
            && !config.dups.is_empty()
            && !config.fractions.is_empty(),
        "audit grid must be non-empty in every dimension"
    );
    let names: Vec<&str> = config.estimators.iter().map(String::as_str).collect();
    // Satellite of the parallel refactor: the estimator set is resolved
    // once per sweep and shared by every worker (estimators are
    // `Send + Sync`), never re-looked-up inside the trial loop.
    let ests = estimators::by_names_strict_instrumented(&names);
    let audit_ae_forms = names.iter().any(|n| n.eq_ignore_ascii_case("AE"));
    let jobs = dve_par::resolve_jobs((config.jobs > 0).then_some(config.jobs));

    // Phase 1 — generate one column per (zipf, dup) across the pool.
    // Each dataset's RNG stream depends only on its grid position.
    let dataset_grid: Vec<(usize, usize)> = (0..config.zipfs.len())
        .flat_map(|zi| (0..config.dups.len()).map(move |di| (zi, di)))
        .collect();
    let datasets: Vec<AuditDataset> = dve_par::run_indexed(jobs, dataset_grid.len(), |i| {
        let (zi, di) = dataset_grid[i];
        let (zipf, dup) = (config.zipfs[zi], config.dups[di]);
        let _span =
            dve_obs::trace::span("audit.dataset").detail(|| format!("zipf={zipf} dup={dup}"));
        let dataset_seed = trial_seed(config.seed, (zi * 101 + di) as u32);
        let mut rng = Rng::seed_from_u64(dataset_seed);
        let (column, claimed_d) = dve_datagen::paper_column(config.base_rows, zipf, dup, &mut rng);

        // Shadow ground truth: full scan under a memory budget.
        let mut shadow = ShadowTruth::with_memory_budget(config.shadow_budget_bytes);
        for &v in &column {
            shadow.insert(hash_value(v));
        }
        let truth = shadow.estimate().max(1.0);
        if shadow.is_exact() && shadow.exact_count() != Some(claimed_d) {
            // A generator/shadow mismatch is a harness bug, not an
            // estimation error — surface it immediately.
            panic!(
                "shadow truth {} disagrees with generator's claimed {claimed_d} \
                 (zipf={zipf}, dup={dup})",
                shadow.estimate()
            );
        }
        AuditDataset {
            zipf,
            dup,
            dataset_seed,
            column,
            truth,
            truth_source: shadow.source().label().to_string(),
        }
    });

    // Phase 2 — flatten the whole grid into (cell, trial) tasks and fan
    // them across the pool: trials of different cells run concurrently.
    let cell_grid: Vec<(usize, f64)> = (0..datasets.len())
        .flat_map(|dsi| config.fractions.iter().map(move |&f| (dsi, f)))
        .collect();
    let trials = config.trials as usize;
    let outcomes: Vec<TrialOutcome> =
        dve_par::run_indexed(jobs, cell_grid.len() * trials, |task| {
            let (dsi, fraction) = cell_grid[task / trials];
            let trial = (task % trials) as u32;
            let ds = &datasets[dsi];
            let _span = dve_obs::trace::span("audit.cell_trial")
                .detail(|| format!("zipf={} dup={} f={fraction} trial={trial}", ds.zipf, ds.dup));
            let n = ds.column.len() as u64;
            let r = ((n as f64 * fraction).round() as u64).clamp(1, n);

            let t0 = Instant::now();
            let mut trng = Rng::seed_from_u64(trial_seed(ds.dataset_seed ^ r, trial));
            let profile =
                sample_profile(&ds.column, r, SamplingScheme::WithoutReplacement, &mut trng)
                    .expect("audit columns are non-empty");

            let ci = gee_confidence_interval(&profile);
            let covered = ci.contains(ds.truth);
            dve_obs::audit::record_interval_outcome(ci.relative_width(), covered);

            let errors: Vec<f64> = ests
                .iter()
                .map(|est| {
                    // The audit samples without replacement, so tell
                    // design-aware estimators (AE) the true design.
                    let v = est.estimate_for(&profile, SampleDesign::wor(n)).max(1.0);
                    let err = ratio_error(v, ds.truth);
                    dve_obs::audit::record_ratio_error(est.name(), err);
                    err
                })
                .collect();
            if audit_ae_forms {
                dve_core::ae::audit_form_agreement(&profile);
            }
            TrialOutcome {
                covered,
                rel_width: ci.relative_width(),
                errors,
                elapsed_ns: t0.elapsed().as_nanos(),
            }
        });

    // Phase 3 — aggregate per cell, folding trials in index order so
    // every float lands exactly as the serial loop would have it.
    let mut cells = Vec::with_capacity(cell_grid.len() * ests.len());
    for (cell_idx, &(dsi, fraction)) in cell_grid.iter().enumerate() {
        let ds = &datasets[dsi];
        let cell_trials = &outcomes[cell_idx * trials..(cell_idx + 1) * trials];
        let mut errors: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); ests.len()];
        let mut covered = 0u32;
        let mut width_sum = 0.0f64;
        let mut elapsed_ns = 0u128;
        for outcome in cell_trials {
            covered += u32::from(outcome.covered);
            width_sum += outcome.rel_width;
            elapsed_ns += outcome.elapsed_ns;
            for (errs, &err) in errors.iter_mut().zip(&outcome.errors) {
                errs.push(err);
            }
        }

        let coverage = f64::from(covered) / f64::from(config.trials);
        let mean_rel_width = width_sum / f64::from(config.trials);
        let mean_trial_ns = (elapsed_ns / u128::from(config.trials)) as u64;
        for (est, mut errs) in ests.iter().zip(errors) {
            errs.sort_by(|a, b| a.total_cmp(b));
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            cells.push(AuditCell {
                estimator: est.name().to_string(),
                zipf: ds.zipf,
                dup: ds.dup,
                fraction,
                truth: ds.truth,
                truth_source: ds.truth_source.clone(),
                mean_ratio_error: mean,
                p95_ratio_error: errs[p95_index(errs.len())],
                coverage,
                mean_rel_width,
                mean_trial_ns,
            });
        }
        dve_obs::Event::debug("audit.cell.done")
            .field_f64("zipf", ds.zipf)
            .field_u64("dup", ds.dup)
            .field_f64("fraction", fraction)
            .field_f64("truth", ds.truth)
            .field_f64("coverage", coverage)
            .emit();
    }
    AuditReport {
        version: SCHEMA_VERSION,
        base_rows: config.base_rows,
        trials: config.trials,
        seed: config.seed,
        cells,
    }
}

impl AuditReport {
    /// A copy with every `mean_trial_ns` zeroed — the only field that
    /// varies between runs of the same config. Two reports of the same
    /// config (at any `jobs` values) compare equal after this, and their
    /// [`AuditReport::to_json`] output is byte-identical.
    #[must_use]
    pub fn without_walltime(&self) -> Self {
        let mut report = self.clone();
        for cell in &mut report.cells {
            cell.mean_trial_ns = 0;
        }
        report
    }

    /// Serializes to the `BENCH_accuracy.json` schema (hand-rolled; the
    /// inverse of [`AuditReport::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\n  \"version\": {},\n  \"base_rows\": {},\n  \"trials\": {},\n  \"seed\": {},\n  \"cells\": [\n",
            self.version, self.base_rows, self.trials, self.seed
        ));
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    ");
            Writer::new(&mut out)
                .begin_object()
                .field("estimator", &c.estimator)
                .field("zipf", c.zipf)
                .field("dup", c.dup)
                .field("fraction", c.fraction)
                .field("truth", c.truth)
                .field("truth_source", &c.truth_source)
                .field("mean_ratio_error", c.mean_ratio_error)
                .field("p95_ratio_error", c.p95_ratio_error)
                .field("coverage", c.coverage)
                .field("mean_rel_width", c.mean_rel_width)
                .field("mean_trial_ns", c.mean_trial_ns)
                .end_object();
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by
    /// [`AuditReport::to_json`]. Rejects unknown schema versions and
    /// structurally incomplete cells with a descriptive error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = minijson::parse(text)?;
        let version = root
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing numeric \"version\"")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported baseline schema version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let field = |key: &str| -> Result<u64, String> {
            root.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing numeric {key:?}"))
        };
        let cells_json = root
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("missing \"cells\" array")?;
        let mut cells = Vec::with_capacity(cells_json.len());
        for (i, c) in cells_json.iter().enumerate() {
            let err = |what: &str| format!("cell {i}: missing or mistyped {what:?}");
            let f = |key: &str| c.get(key).and_then(JsonValue::as_f64);
            cells.push(AuditCell {
                estimator: c
                    .get("estimator")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("estimator"))?
                    .to_string(),
                zipf: f("zipf").ok_or_else(|| err("zipf"))?,
                dup: c
                    .get("dup")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err("dup"))?,
                fraction: f("fraction").ok_or_else(|| err("fraction"))?,
                truth: f("truth").ok_or_else(|| err("truth"))?,
                truth_source: c
                    .get("truth_source")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("truth_source"))?
                    .to_string(),
                mean_ratio_error: f("mean_ratio_error").ok_or_else(|| err("mean_ratio_error"))?,
                p95_ratio_error: f("p95_ratio_error").ok_or_else(|| err("p95_ratio_error"))?,
                coverage: f("coverage").ok_or_else(|| err("coverage"))?,
                mean_rel_width: f("mean_rel_width").ok_or_else(|| err("mean_rel_width"))?,
                mean_trial_ns: c
                    .get("mean_trial_ns")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err("mean_trial_ns"))?,
            });
        }
        Ok(Self {
            version,
            base_rows: field("base_rows")?,
            trials: field("trials")? as u32,
            seed: field("seed")?,
            cells,
        })
    }

    /// An aligned, human-readable summary table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:>9} {:>5} {:>5} {:>9} {:>10} {:>10} {:>9} {:>9} {:>12}\n",
            "estimator",
            "zipf",
            "dup",
            "fraction",
            "mean_err",
            "p95_err",
            "coverage",
            "truth",
            "trial_ms"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:>9} {:>5} {:>5} {:>9} {:>10.4} {:>10.4} {:>9.2} {:>9.0} {:>12.3}\n",
                c.estimator,
                c.zipf,
                c.dup,
                c.fraction,
                c.mean_ratio_error,
                c.p95_ratio_error,
                c.coverage,
                c.truth,
                c.mean_trial_ns as f64 / 1e6,
            ));
        }
        out
    }
}

/// Per-metric tolerances for [`check_against`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckTolerance {
    /// Allowed relative growth of `mean_ratio_error` (`0.25` = +25%).
    /// `p95_ratio_error` gets twice this slack (order statistics over
    /// few trials are noisier).
    pub accuracy: f64,
    /// Allowed absolute drop in GEE coverage (`0.15` = −15 points).
    pub coverage: f64,
    /// Allowed multiplicative growth of `mean_trial_ns` — a coarse
    /// catastrophic-latency-regression trip wire, deliberately loose
    /// because wall time varies across machines.
    pub latency_factor: f64,
}

impl Default for CheckTolerance {
    fn default() -> Self {
        Self {
            // Accuracy numbers are deterministic for one binary, but the
            // committed baseline must survive RNG-stream differences
            // (a change to `dve_numeric::rng` re-keys every sample), so
            // the default absorbs sampling noise and trips on real
            // estimator regressions, which move these numbers by ×2+.
            accuracy: 0.25,
            coverage: 0.15,
            latency_factor: 25.0,
        }
    }
}

/// Compares a fresh run against a committed baseline. Returns one
/// human-readable violation per breached metric (empty = gate passes).
/// Baseline cells missing from `current` are violations; extra current
/// cells are ignored (growing the grid is not a regression).
pub fn check_against(
    current: &AuditReport,
    baseline: &AuditReport,
    tol: CheckTolerance,
) -> Vec<String> {
    let mut violations = Vec::new();
    for b in &baseline.cells {
        let key = format!(
            "{} zipf={} dup={} fraction={}",
            b.estimator, b.zipf, b.dup, b.fraction
        );
        let Some(c) = current.cells.iter().find(|c| {
            c.estimator == b.estimator
                && c.zipf == b.zipf
                && c.dup == b.dup
                && c.fraction == b.fraction
        }) else {
            violations.push(format!("{key}: cell missing from current run"));
            continue;
        };
        let mean_limit = b.mean_ratio_error * (1.0 + tol.accuracy);
        if c.mean_ratio_error > mean_limit {
            violations.push(format!(
                "{key}: mean ratio error {:.4} exceeds baseline {:.4} (+{:.0}% allowed)",
                c.mean_ratio_error,
                b.mean_ratio_error,
                tol.accuracy * 100.0
            ));
        }
        let p95_limit = b.p95_ratio_error * (1.0 + 2.0 * tol.accuracy);
        if c.p95_ratio_error > p95_limit {
            violations.push(format!(
                "{key}: p95 ratio error {:.4} exceeds baseline {:.4} (+{:.0}% allowed)",
                c.p95_ratio_error,
                b.p95_ratio_error,
                2.0 * tol.accuracy * 100.0
            ));
        }
        if c.coverage < b.coverage - tol.coverage {
            violations.push(format!(
                "{key}: coverage {:.2} fell below baseline {:.2} (−{:.2} allowed)",
                c.coverage, b.coverage, tol.coverage
            ));
        }
        if (c.mean_trial_ns as f64) > b.mean_trial_ns as f64 * tol.latency_factor {
            violations.push(format!(
                "{key}: mean trial time {:.2}ms exceeds baseline {:.2}ms ×{}",
                c.mean_trial_ns as f64 / 1e6,
                b.mean_trial_ns as f64 / 1e6,
                tol.latency_factor
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs_and_is_sane() {
        let report = run_audit(&AuditConfig::quick());
        // 2 estimators × 2 zipfs × 1 dup × 1 fraction.
        assert_eq!(report.cells.len(), 4);
        for c in &report.cells {
            assert!(c.mean_ratio_error >= 1.0, "{c:?}");
            assert!(c.p95_ratio_error >= 1.0, "{c:?}");
            assert!((0.0..=1.0).contains(&c.coverage), "{c:?}");
            assert!(c.truth >= 1.0, "{c:?}");
            assert_eq!(c.truth_source, "exact");
        }
        // GEE's interval is guaranteed to cover on exact-truth audits
        // with its certain lower bound.
        assert!(report.cells.iter().all(|c| c.coverage > 0.9));
    }

    #[test]
    fn audit_is_deterministic_modulo_walltime() {
        let a = run_audit(&AuditConfig::quick());
        let b = run_audit(&AuditConfig::quick());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.estimator, y.estimator);
            assert_eq!(x.mean_ratio_error, y.mean_ratio_error);
            assert_eq!(x.p95_ratio_error, y.p95_ratio_error);
            assert_eq!(x.coverage, y.coverage);
            assert_eq!(x.truth, y.truth);
        }
    }

    #[test]
    fn parallel_audit_is_bit_identical_to_serial() {
        let mut serial_cfg = AuditConfig::quick();
        serial_cfg.jobs = 1;
        let serial = run_audit(&serial_cfg).without_walltime();
        for jobs in [2, 4] {
            let mut cfg = AuditConfig::quick();
            cfg.jobs = jobs;
            let parallel = run_audit(&cfg).without_walltime();
            assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "jobs={jobs} JSON diverged from serial"
            );
        }
    }

    #[test]
    fn json_round_trip_preserves_everything_but_walltime_exactly() {
        let report = run_audit(&AuditConfig::quick());
        let parsed = AuditReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, parsed);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(AuditReport::from_json("not json").is_err());
        assert!(AuditReport::from_json("{}").is_err());
        assert!(AuditReport::from_json(
            "{\"version\":999,\"base_rows\":1,\"trials\":1,\"seed\":1,\"cells\":[]}"
        )
        .unwrap_err()
        .contains("version"));
        assert!(AuditReport::from_json(
            "{\"version\":1,\"base_rows\":1,\"trials\":1,\"seed\":1,\"cells\":[{\"estimator\":\"GEE\"}]}"
        )
        .unwrap_err()
        .contains("cell 0"));
    }

    #[test]
    fn check_passes_against_self_and_fails_against_poisoned_baseline() {
        let report = run_audit(&AuditConfig::quick());
        assert!(check_against(&report, &report, CheckTolerance::default()).is_empty());

        // Poison: baseline claims near-perfect accuracy everywhere.
        let mut poisoned = report.clone();
        for c in &mut poisoned.cells {
            c.mean_ratio_error = 1.000001;
            c.p95_ratio_error = 1.000001;
        }
        let violations = check_against(&report, &poisoned, CheckTolerance::default());
        assert!(
            !violations.is_empty(),
            "a worse-than-baseline run must be flagged"
        );
        assert!(violations[0].contains("ratio error"), "{violations:?}");

        // A baseline cell the current run lacks is a violation too.
        let mut extra = report.clone();
        extra.cells.push(AuditCell {
            estimator: "SHLOSSER".to_string(),
            ..report.cells[0].clone()
        });
        let violations = check_against(&report, &extra, CheckTolerance::default());
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn p95_index_nearest_rank() {
        assert_eq!(p95_index(1), 0);
        assert_eq!(p95_index(5), 4);
        assert_eq!(p95_index(16), 15);
        assert_eq!(p95_index(20), 18);
        assert_eq!(p95_index(100), 94);
    }

    #[test]
    fn table_mentions_every_estimator() {
        let report = run_audit(&AuditConfig::quick());
        let table = report.to_table();
        assert!(table.contains("GEE"));
        assert!(table.contains("AE"));
        assert!(table.contains("coverage"));
    }
}

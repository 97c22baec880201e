//! The live guarantee monitor: shadow-sampling decisions, per-estimator
//! windowed error recorders, and the SLO burn-rate tracker behind
//! `GET /v1/slo`.
//!
//! For a configurable fraction of `values`-mode requests the daemon
//! computes the exact distinct count alongside the estimate
//! ([`crate::pipeline::estimate_values_shadowed`]) and records what it
//! saw here: the observed ratio error into a sliding-window histogram,
//! interval coverage into windowed counters (both per estimator, in the
//! process-global [`dve_obs::window`] registry), and a good/bad event
//! into an [`SloTracker`] whose two-window burn rate drives the alert
//! state.
//!
//! The sampling coin is **deterministic**: SplitMix64 over the request's
//! trace id ([`dve_numeric::rng::splitmix64`]), so replaying a request
//! with the same `X-Dve-Trace-Id` reproduces the sampling decision. Requests
//! without a trace context fall back to a process-local nonce. With the
//! rate at `0.0` the decision is a single float compare — no trace
//! lookup, no allocation — which the counting-allocator test pins.
//!
//! A *good* event is a shadow sample whose truth landed inside the
//! served GEE interval **and** whose ratio error stayed within
//! [`DEFAULT_MAX_RATIO_ERROR`]; anything else burns the error budget.

use crate::pipeline::{EstimateOutcome, ShadowObservation};
use dve_numeric::rng::splitmix64;
use dve_obs::minijson::Writer;
use dve_obs::window::{self, Exemplar, WINDOWS};
use dve_obs::{audit, trace, SloConfig, SloTracker};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Default `--shadow-sample-rate`: 1% of values-mode requests.
pub const DEFAULT_SHADOW_SAMPLE_RATE: f64 = 0.01;

/// Good-event objective: at least this fraction of shadow samples must
/// be covered and within the ratio bound.
pub const DEFAULT_SLO_TARGET: f64 = 0.9;

/// Ratio errors above this mark a shadow sample bad even when the
/// interval covered the truth (wide intervals hide useless points).
pub const DEFAULT_MAX_RATIO_ERROR: f64 = 10.0;

/// The per-server guarantee monitor. Owns the sampling rate, the SLO
/// tracker, and the exemplar store; the per-estimator windowed
/// instruments live in [`window::global_windows`] so `--metrics pretty`
/// and the registry snapshot can see them too.
#[derive(Debug)]
pub struct Monitor {
    sample_rate: f64,
    max_ratio_error: f64,
    slo: SloTracker,
    estimators: RwLock<BTreeSet<String>>,
    exemplars: Mutex<BTreeMap<String, (String, u64)>>,
    nonce: AtomicU64,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Monitor {
    /// A monitor sampling at `rate` against the default objective.
    pub fn new(rate: f64) -> Self {
        Monitor {
            sample_rate: rate.clamp(0.0, 1.0),
            max_ratio_error: DEFAULT_MAX_RATIO_ERROR,
            slo: SloTracker::new(SloConfig {
                name: "serve.slo".to_string(),
                target: DEFAULT_SLO_TARGET,
                ..SloConfig::default()
            }),
            estimators: RwLock::new(BTreeSet::new()),
            exemplars: Mutex::new(BTreeMap::new()),
            nonce: AtomicU64::new(1),
        }
    }

    /// A monitor that never samples (unit tests, embedders).
    pub fn disabled() -> Self {
        Self::new(0.0)
    }

    /// The configured sampling rate.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The two-window burn tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Whether this request is shadow-sampled: a deterministic
    /// SplitMix64 coin keyed by the current trace id. Kept
    /// allocation-free when sampling is off — this runs on every
    /// values-mode request.
    #[inline]
    pub fn should_sample(&self) -> bool {
        if self.sample_rate <= 0.0 {
            return false;
        }
        if self.sample_rate >= 1.0 {
            return true;
        }
        let mut key = match trace::current() {
            Some(ctx) => ctx.trace_id.0,
            // No trace context (tracing off): an arbitrary but distinct
            // key per decision keeps the rate honest.
            None => self.nonce.fetch_add(1, Ordering::Relaxed) ^ 0xD1F5_71C7,
        };
        // Top 53 bits → uniform in [0, 1).
        (splitmix64(&mut key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.sample_rate
    }

    /// Records one shadow observation: windowed ratio error + coverage
    /// for the serving estimator, the SLO good/bad event, and the
    /// exemplar linking the metric to the sampled request's trace.
    pub fn observe(&self, out: &EstimateOutcome, obs: &ShadowObservation) {
        let estimator = out.estimation.estimator.as_str();
        let permille = audit::to_permille(obs.ratio_error);
        let windows = window::global_windows();
        windows
            .histogram("window.ratio_error_permille", estimator)
            .record(permille);
        windows.counter("window.shadow_samples", estimator).inc();
        if obs.covered {
            windows.counter("window.shadow_covered", estimator).inc();
        }
        dve_obs::global()
            .counter_labeled("slo.shadow_sampled", estimator)
            .inc();
        self.slo
            .record(obs.covered && obs.ratio_error <= self.max_ratio_error);
        self.estimators
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(estimator.to_string());
        if let Some(ctx) = trace::current() {
            self.exemplars
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(estimator.to_string(), (ctx.trace_id.to_string(), permille));
        }
    }

    /// The `GET /v1/slo` body: objective, burn/alert state, and
    /// per-estimator windowed quantiles + coverage.
    pub fn slo_json(&self) -> String {
        let cfg = self.slo.config();
        let mut body = String::with_capacity(512);
        let mut w = Writer::new(&mut body);
        w.begin_object()
            .field("shadow_sample_rate", self.sample_rate)
            .field("target", cfg.target)
            .field("max_ratio_error", self.max_ratio_error)
            .field("burn_threshold", cfg.burn_threshold)
            .field("alert", if self.slo.burning() { "burning" } else { "ok" })
            .key("burn_rate")
            .begin_object()
            .field("5m", self.slo.burn_rate(cfg.fast_window_ns))
            .field("1h", self.slo.burn_rate(cfg.slow_window_ns))
            .end_object()
            .field("budget_remaining", self.slo.budget_remaining());
        let windows = window::global_windows();
        let estimators = self
            .estimators
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let counts = |est: &str, ns: u64| {
            (
                windows.counter("window.shadow_samples", est).sum(ns),
                windows.counter("window.shadow_covered", est).sum(ns),
            )
        };
        let coverage =
            |(samples, covered): (u64, u64)| (samples > 0).then(|| covered as f64 / samples as f64);
        // Overall sample counts / coverage per window, summed over the
        // estimators this monitor has observed.
        let totals = WINDOWS.map(|(_, ns)| {
            estimators.iter().fold((0, 0), |(s, c), est| {
                let (samples, covered) = counts(est, ns);
                (s + samples, c + covered)
            })
        });
        w.key("samples").begin_object();
        for ((label, _), (samples, _)) in WINDOWS.iter().zip(totals) {
            w.field(label, samples);
        }
        w.end_object().key("coverage").begin_object();
        for ((label, _), total) in WINDOWS.iter().zip(totals) {
            w.field(label, coverage(total));
        }
        w.end_object().key("estimators").begin_array();
        for est in &estimators {
            w.begin_object()
                .field("estimator", est)
                .key("windows")
                .begin_array();
            let hist = windows.histogram("window.ratio_error_permille", est);
            for (label, ns) in WINDOWS {
                let stats = hist.stats(ns);
                let (samples, covered) = counts(est, ns);
                w.begin_object()
                    .field("window", label)
                    .field("samples", samples)
                    .field("covered", covered)
                    .field("coverage", coverage((samples, covered)))
                    .key("ratio_error_permille")
                    .begin_object()
                    .field("p50", stats.p50)
                    .field("p95", stats.p95)
                    .field("p99", stats.p99)
                    .field("max", stats.max.unwrap_or(0))
                    .end_object()
                    .end_object();
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
        body
    }

    /// The windowed + SLO series appended to `/metrics`: the windowed
    /// registry exposition (ratio-error summaries carrying trace-id
    /// exemplars) plus the `slo_*` gauges.
    pub fn prometheus(&self) -> String {
        let exemplars = self
            .exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut out = window::global_windows()
            .snapshot()
            .to_prometheus_with(&|name, label| {
                if name != "window.ratio_error_permille" {
                    return None;
                }
                exemplars.get(label).map(|(trace_id, permille)| Exemplar {
                    trace_id: trace_id.clone(),
                    value: *permille as f64,
                })
            });
        let cfg = self.slo.config();
        let burning = self.slo.burning();
        for (name, values) in [
            (
                "slo.burn_rate",
                vec![
                    ("5m", self.slo.burn_rate(cfg.fast_window_ns)),
                    ("1h", self.slo.burn_rate(cfg.slow_window_ns)),
                ],
            ),
            (
                "slo.good_rate",
                vec![
                    ("5m", self.slo.good_rate(cfg.fast_window_ns).unwrap_or(1.0)),
                    ("1h", self.slo.good_rate(cfg.slow_window_ns).unwrap_or(1.0)),
                ],
            ),
        ] {
            let family = dve_obs::prom::sanitize_metric_name(name);
            out.push_str(&format!(
                "# HELP {family} {}\n# TYPE {family} gauge\n",
                dve_obs::prom::escape_help_text(&dve_obs::prom::help_for(name))
            ));
            for (w, v) in values {
                out.push_str(&format!("{family}{{window=\"{w}\"}} {v}\n"));
            }
        }
        for (name, v) in [
            ("slo.budget_remaining", self.slo.budget_remaining()),
            ("slo.alert_state", if burning { 1.0 } else { 0.0 }),
        ] {
            let family = dve_obs::prom::sanitize_metric_name(name);
            out.push_str(&format!(
                "# HELP {family} {}\n# TYPE {family} gauge\n{family} {v}\n",
                dve_obs::prom::escape_help_text(&dve_obs::prom::help_for(name))
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;

    fn observed(estimator: &str, n_distinct: usize, fraction: f64) -> Monitor {
        let monitor = Monitor::new(1.0);
        let values: Vec<String> = (0..2_000).map(|i| format!("v{}", i % n_distinct)).collect();
        let (out, obs) =
            pipeline::estimate_values_shadowed(&values, estimator, fraction, 7, None).unwrap();
        monitor.observe(&out, &obs);
        monitor
    }

    #[test]
    fn coin_is_deterministic_in_the_key_and_respects_bounds() {
        let m = Monitor::new(0.0);
        assert!(!m.should_sample());
        let all = Monitor::new(1.0);
        assert!(all.should_sample());
        // At rate 0.5 over many nonce-keyed decisions, roughly half hit.
        let half = Monitor::new(0.5);
        let hits = (0..10_000).filter(|_| half.should_sample()).count();
        assert!((3_000..7_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn coin_at_a_fixed_trace_id_is_pinned() {
        // SplitMix64(0xabc123) >> 11 scaled to [0, 1) is 0.1750554622066…;
        // the two rates bracket it to 1e-10.
        let ctx = trace::TraceContext {
            trace_id: trace::TraceId(0xabc123),
            span_id: trace::SpanId(1),
        };
        let _adopted = trace::adopt(Some(ctx));
        assert!(!Monitor::new(0.175_055_462_2).should_sample());
        assert!(Monitor::new(0.175_055_462_3).should_sample());
    }

    #[test]
    fn observe_populates_windows_slo_and_json() {
        let m = observed("GEE", 101, 0.5);
        let json = m.slo_json();
        assert!(json.contains("\"estimator\":\"GEE\""), "{json}");
        assert!(
            json.contains("\"ratio_error_permille\":{\"p50\":"),
            "{json}"
        );
        assert!(json.contains("\"alert\":\"ok\""), "{json}");
        assert!(json.contains("\"burn_rate\":{\"5m\":"), "{json}");
        // A healthy estimator at a large fraction is covered → good.
        assert_eq!(m.slo().good_rate(WINDOWS[2].1), Some(1.0));
        let prom = m.prometheus();
        assert!(prom.contains("# TYPE slo_burn_rate gauge"), "{prom}");
        assert!(prom.contains("slo_alert_state 0"), "{prom}");
        assert!(
            prom.contains("window_ratio_error_permille{label=\"GEE\""),
            "{prom}"
        );
    }

    #[test]
    fn bad_estimator_burns_the_budget() {
        let m = Monitor::new(1.0);
        let values: Vec<String> = (0..2_000).map(|i| format!("w{i}")).collect();
        for seed in 0..5 {
            let (out, obs) =
                pipeline::estimate_values_shadowed(&values, "SAMPLE-D", 0.01, seed, None).unwrap();
            assert!(obs.ratio_error > DEFAULT_MAX_RATIO_ERROR);
            m.observe(&out, &obs);
        }
        assert!(m.slo().burning(), "all-bad stream must flip the alert");
        assert!(m.slo_json().contains("\"alert\":\"burning\""));
        assert!(m.prometheus().contains("slo_alert_state 1"));
    }
}

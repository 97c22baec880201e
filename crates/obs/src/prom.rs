//! Prometheus text-exposition rendering for [`MetricsSnapshot`].
//!
//! The registry's dotted metric names (`core.estimate.calls`) are mapped
//! to the Prometheus grammar (`core_estimate_calls`), counters gain the
//! conventional `_total` suffix, and histograms are exposed as summaries
//! (the registry already pre-computes `p50/p95/p99`, so quantile samples
//! are exact copies of the snapshot rather than re-derived buckets).
//! The free-form instrument label is exposed as a single `label="…"`
//! pair, escaped per the exposition format rules.
//!
//! Output follows the [text exposition format]: one `# HELP` and one
//! `# TYPE` comment per family followed by its samples, families
//! separated as they appear in the (sorted) snapshot. Help strings come
//! from a curated table for the workspace's known families
//! ([`help_for`]), with a generated fallback for everything else, and
//! are escaped per the format rules (`\` → `\\`, newline → `\n`).
//!
//! [text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::registry::MetricsSnapshot;

/// Maps a registry metric name onto the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`, and a
/// leading digit is prefixed with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// The help string for a *registry* metric name (the dotted name,
/// before sanitization). Known families get curated text; unknown ones
/// a generated line, so every exposed family carries a `# HELP`.
pub fn help_for(name: &str) -> String {
    let curated = match name {
        "serve.requests" => "Requests received, by route label.",
        "serve.responses" => "Responses written, by HTTP status.",
        "serve.shed" => "Requests shed with 429 because the queue was full.",
        "serve.queue_depth" => "Accepted requests currently waiting for a worker.",
        "span.duration_ns" => {
            "Duration of each timed layer, ns, by span name (serve.request runs from accept to response)."
        }
        "par.tasks_total" => "Tasks submitted to the worker pool.",
        "par.worker_busy_ns" => "Per-worker time inside task functions, ns.",
        "par.queue_wait_ns" => "Per-worker time outside task functions, ns.",
        "par.jobs" => "Worker count of the most recent pool run.",
        "trace.dropped_spans" => "Spans dropped because their collector shard ring was full.",
        "trace.shard_occupancy" => "Buffered spans per collector shard (label = shard index).",
        "window.ratio_error_permille" => {
            "Sliding-window shadow-truth ratio error, permille, by estimator and window."
        }
        "window.shadow_samples" => {
            "Shadow-sampled requests inside the sliding window, by estimator."
        }
        "window.shadow_covered" => {
            "Shadow samples whose exact count landed inside the reported interval, by estimator."
        }
        "slo.shadow_sampled" => "Shadow-sampled requests since process start, by estimator.",
        "slo.coverage" => "Shadow-truth interval coverage rate inside the window.",
        "slo.good_rate" => "Good-event (covered, ratio within bound) rate inside the window.",
        "slo.burn_rate" => "Error-budget burn rate inside the window (1 = spending on target).",
        "slo.budget_remaining" => "Fraction of the slow-window error budget still unspent.",
        "slo.alert_state" => "Two-window burn alert state (0 = ok, 1 = burning).",
        _ => "",
    };
    if curated.is_empty() {
        format!("Metric {name} (see the dve-obs registry).")
    } else {
        curated.to_string()
    }
}

/// Escapes a `# HELP` text per the exposition format: `\` → `\\`,
/// newline → `\n` (quotes are legal in help text).
pub fn escape_help_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value per the exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the `{label="…"}` (or `{label="…",quantile="…"}`) sample
/// suffix; empty labels produce no braces at all.
fn label_set(label: &str, quantile: Option<&str>) -> String {
    let mut pairs = Vec::new();
    if !label.is_empty() {
        pairs.push(format!("label=\"{}\"", escape_label_value(label)));
    }
    if let Some(q) = quantile {
        pairs.push(format!("quantile=\"{q}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Formats an `f64` sample value. Prometheus accepts `NaN`, `+Inf`, and
/// `-Inf` spelled exactly so.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), ready to serve from a `/metrics` endpoint or
    /// pipe into `promtool check metrics`.
    ///
    /// Every family leads with its `# HELP` and `# TYPE` comments:
    ///
    /// * counters → `<name>_total` with `# TYPE … counter`;
    /// * gauges → `# TYPE … gauge`;
    /// * histograms → summaries: `quantile="0.5|0.95|0.99"` samples plus
    ///   `_sum` and `_count` (values stay in the unit the histogram
    ///   records, nanoseconds for `*_ns` families).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut last_family = String::new();
        for c in &self.counters {
            let family = format!("{}_total", sanitize_metric_name(&c.name));
            if family != last_family {
                out.push_str(&format!(
                    "# HELP {family} {}\n# TYPE {family} counter\n",
                    escape_help_text(&help_for(&c.name))
                ));
                last_family.clone_from(&family);
            }
            out.push_str(&format!(
                "{family}{} {}\n",
                label_set(&c.label, None),
                c.value
            ));
        }
        for g in &self.gauges {
            let family = sanitize_metric_name(&g.name);
            if family != last_family {
                out.push_str(&format!(
                    "# HELP {family} {}\n# TYPE {family} gauge\n",
                    escape_help_text(&help_for(&g.name))
                ));
                last_family.clone_from(&family);
            }
            out.push_str(&format!(
                "{family}{} {}\n",
                label_set(&g.label, None),
                g.value
            ));
        }
        for h in &self.histograms {
            let family = sanitize_metric_name(&h.name);
            if family != last_family {
                out.push_str(&format!(
                    "# HELP {family} {}\n# TYPE {family} summary\n",
                    escape_help_text(&help_for(&h.name))
                ));
                last_family.clone_from(&family);
            }
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!(
                    "{family}{} {}\n",
                    label_set(&h.label, Some(q)),
                    format_f64(v)
                ));
            }
            out.push_str(&format!(
                "{family}_sum{} {}\n",
                label_set(&h.label, None),
                h.sum
            ));
            out.push_str(&format!(
                "{family}_count{} {}\n",
                label_set(&h.label, None),
                h.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn name_sanitization() {
        assert_eq!(
            sanitize_metric_name("core.estimate.calls"),
            "core_estimate_calls"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn counters_and_gauges_expose_with_types() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        r.counter_labeled("audit.rows", "AE").add(7);
        r.counter_labeled("audit.rows", "GEE").add(3);
        r.gauge("queue.depth").set(-2);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE audit_rows_total counter\n"));
        assert!(text.contains("audit_rows_total{label=\"AE\"} 7\n"));
        assert!(text.contains("audit_rows_total{label=\"GEE\"} 3\n"));
        // One HELP + TYPE pair per family, not per sample.
        assert_eq!(text.matches("# TYPE audit_rows_total").count(), 1);
        assert_eq!(text.matches("# HELP audit_rows_total").count(), 1);
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth -2\n"));
    }

    #[test]
    fn every_family_carries_help_and_type() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        r.counter_labeled("serve.requests", "estimate").inc();
        r.gauge("serve.queue_depth").set(3);
        r.histogram_labeled("span.duration_ns", "serve.request")
            .record(1000);
        r.counter("made.up.family").inc();
        let text = r.snapshot().to_prometheus();
        // Curated help for the known families, generated for the rest.
        assert!(text.contains("# HELP serve_requests_total Requests received, by route label.\n"));
        assert!(text.contains(
            "# HELP serve_queue_depth Accepted requests currently waiting for a worker.\n"
        ));
        assert!(text.contains("# HELP span_duration_ns Duration of each timed layer"));
        assert!(text.contains("# HELP made_up_family_total Metric made.up.family"));
        // Every TYPE line is immediately preceded by its HELP line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {family} ")),
                    "TYPE without preceding HELP: {line}"
                );
            }
        }
    }

    #[test]
    fn help_text_escaping() {
        assert_eq!(escape_help_text("plain \"quoted\""), "plain \"quoted\"");
        assert_eq!(escape_help_text("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn histograms_expose_as_summaries() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        let h = r.histogram_labeled("solve_ns", "AE");
        h.record(100);
        h.record(300);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE solve_ns summary\n"));
        assert!(text.contains("solve_ns{label=\"AE\",quantile=\"0.5\"} "));
        assert!(text.contains("solve_ns{label=\"AE\",quantile=\"0.95\"} "));
        assert!(text.contains("solve_ns{label=\"AE\",quantile=\"0.99\"} "));
        assert!(text.contains("solve_ns_sum{label=\"AE\"} 400\n"));
        assert!(text.contains("solve_ns_count{label=\"AE\"} 2\n"));
    }

    #[test]
    fn quoted_label_round_trips_escaped() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        r.counter_labeled("x", "scheme=\"u\"\\n").inc();
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("x_total{label=\"scheme=\\\"u\\\"\\\\n\"} 1\n"),
            "bad escaping: {text}"
        );
    }

    #[test]
    fn every_line_is_sample_or_comment() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        r.counter("a").inc();
        r.gauge("b").set(1);
        r.histogram("c").record(5);
        for line in r.snapshot().to_prometheus().lines() {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP ") || {
                    // `name{labels} value`: value parses as a number.
                    let v = line.rsplit(' ').next().unwrap();
                    v.parse::<f64>().is_ok() || v == "NaN" || v == "+Inf" || v == "-Inf"
                },
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn empty_snapshot_is_empty_exposition() {
        assert_eq!(Registry::new().snapshot().to_prometheus(), "");
    }
}

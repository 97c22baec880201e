//! The process-global metric [`Registry`] and its serializable
//! [`MetricsSnapshot`].
//!
//! Instruments are addressed by `(name, label)`; the empty label is the
//! unlabeled family member. Lookup takes a short `RwLock` write the
//! first time and a read afterwards — hot paths should cache the
//! returned `Arc` (see the crate docs) so steady-state recording never
//! touches the lock.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::minijson::Writer;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Instruments of one kind, keyed `name → label`. Nesting the maps (rather
/// than keying by a `(String, String)` pair) lets a lookup borrow both
/// `&str`s, so a warm lookup never allocates; iteration still visits
/// `(name, label)` in sorted order.
type Family<T> = BTreeMap<String, BTreeMap<String, Arc<T>>>;

/// A family of named, optionally labeled instruments.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<Family<Counter>>,
    gauges: RwLock<Family<Gauge>>,
    histograms: RwLock<Family<Histogram>>,
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn get_or_insert<T: Default>(map: &RwLock<Family<T>>, name: &str, label: &str) -> Arc<T> {
    if let Some(v) = map
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .and_then(|labels| labels.get(label))
    {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(
        w.entry(name.to_string())
            .or_default()
            .entry(label.to_string())
            .or_default(),
    )
}

/// Calls `f(name, label, instrument)` for every instrument in `map`, in
/// `(name, label)` order.
fn for_each<T>(map: &RwLock<Family<T>>, mut f: impl FnMut(&str, &str, &T)) {
    for (name, labels) in map.read().unwrap_or_else(|e| e.into_inner()).iter() {
        for (label, v) in labels {
            f(name, label, v);
        }
    }
}

impl Registry {
    /// An empty registry (the usual entry point is [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_labeled(name, "")
    }

    /// The counter `name{label}`.
    pub fn counter_labeled(&self, name: &str, label: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, label)
    }

    /// The unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, "")
    }

    /// The gauge `name{label}`.
    pub fn gauge_labeled(&self, name: &str, label: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, label)
    }

    /// The unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_labeled(name, "")
    }

    /// The histogram `name{label}`.
    pub fn histogram_labeled(&self, name: &str, label: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, label)
    }

    /// Zeroes every registered instrument in place. Cached `Arc` handles
    /// stay valid and keep recording into the same instruments.
    pub fn reset(&self) {
        for_each(&self.counters, |_, _, c| c.reset());
        for_each(&self.gauges, |_, _, g| g.reset());
        for_each(&self.histograms, |_, _, h| h.reset());
    }

    /// A point-in-time copy of every instrument, sorted by
    /// `(name, label)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for_each(&self.counters, |name, label, c| {
            snap.counters.push(CounterSample {
                name: name.to_string(),
                label: label.to_string(),
                value: c.get(),
            })
        });
        for_each(&self.gauges, |name, label, g| {
            snap.gauges.push(GaugeSample {
                name: name.to_string(),
                label: label.to_string(),
                value: g.get(),
            })
        });
        for_each(&self.histograms, |name, label, h| {
            snap.histograms.push(HistogramSample {
                name: name.to_string(),
                label: label.to_string(),
                count: h.count(),
                sum: h.sum(),
                min: h.min().unwrap_or(0),
                max: h.max().unwrap_or(0),
                mean: h.mean(),
                p50: h.percentile(0.50),
                p95: h.percentile(0.95),
                p99: h.percentile(0.99),
            })
        });
        snap
    }
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Label within the family (empty for the unlabeled member).
    pub label: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Label within the family (empty for the unlabeled member).
    pub label: String,
    /// Gauge value.
    pub value: i64,
}

/// One histogram's summary at snapshot time. Values are in the unit the
/// histogram records (nanoseconds for `*_ns` metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Label within the family (empty for the unlabeled member).
    pub label: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// A serializable point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by `(name, label)`.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by `(name, label)`.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSample>,
}

/// Renders `v` human-readably when the metric name marks it as
/// nanoseconds.
fn pretty_value(name: &str, v: f64) -> String {
    if !name.ends_with("_ns") {
        return if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.2}")
        };
    }
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}µs", v / 1e3)
    } else {
        format!("{v:.0}ns", v = v)
    }
}

impl MetricsSnapshot {
    /// JSON encoding:
    /// `{"counters":[...],"gauges":[...],"histograms":[...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut w = Writer::new(&mut out);
        w.begin_object().key("counters").begin_array();
        for c in &self.counters {
            w.begin_object()
                .field("name", &c.name)
                .field("label", &c.label);
            w.field("value", c.value).end_object();
        }
        w.end_array().key("gauges").begin_array();
        for g in &self.gauges {
            w.begin_object()
                .field("name", &g.name)
                .field("label", &g.label);
            w.field("value", g.value).end_object();
        }
        w.end_array().key("histograms").begin_array();
        for h in &self.histograms {
            w.begin_object()
                .field("name", &h.name)
                .field("label", &h.label);
            for (k, v) in [
                ("count", h.count),
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
            ] {
                w.field(k, v);
            }
            for (k, v) in [
                ("mean", h.mean),
                ("p50", h.p50),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                w.field(k, v);
            }
            w.end_object();
        }
        w.end_array().end_object();
        out
    }

    /// An aligned, human-readable rendering for terminal output.
    pub fn to_pretty(&self) -> String {
        fn display_name(name: &str, label: &str) -> String {
            if label.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{label}}}")
            }
        }
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|c| display_name(&c.name, &c.label).len())
                .max()
                .unwrap_or(0);
            for c in &self.counters {
                let n = display_name(&c.name, &c.label);
                out.push_str(&format!("  {n:<width$}  {}\n", c.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self
                .gauges
                .iter()
                .map(|g| display_name(&g.name, &g.label).len())
                .max()
                .unwrap_or(0);
            for g in &self.gauges {
                let n = display_name(&g.name, &g.label);
                out.push_str(&format!("  {n:<width$}  {}\n", g.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let width = self
                .histograms
                .iter()
                .map(|h| display_name(&h.name, &h.label).len())
                .max()
                .unwrap_or(0);
            for h in &self.histograms {
                let n = display_name(&h.name, &h.label);
                out.push_str(&format!(
                    "  {n:<width$}  count={} mean={} p50={} p95={} p99={} max={}\n",
                    h.count,
                    pretty_value(&h.name, h.mean),
                    pretty_value(&h.name, h.p50),
                    pretty_value(&h.name, h.p95),
                    pretty_value(&h.name, h.p99),
                    pretty_value(&h.name, h.max as f64),
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter_labeled("x", "l");
        let b = r.counter_labeled("x", "l");
        a.inc();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.get(), a.get());
        // Different label → different instrument.
        let c = r.counter_labeled("x", "other");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        r.counter_labeled("b.count", "").add(2);
        r.counter_labeled("a.count", "z").add(1);
        r.counter_labeled("a.count", "a").add(3);
        r.gauge("depth").set(-4);
        r.histogram_labeled("lat_ns", "AE").record(1_000);
        let s = r.snapshot();
        let keys: Vec<(&str, &str)> = s
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.label.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("a.count", "a"), ("a.count", "z"), ("b.count", "")]
        );
        assert_eq!(s.gauges[0].value, -4);
        assert_eq!(s.histograms[0].count, 1);
        assert_eq!(s.histograms[0].min, 1_000);
    }

    #[test]
    fn snapshot_orders_prefix_names_before_their_extensions() {
        // Nested maps must iterate exactly like `(name, label)` tuples:
        // "a" (every label) before "a.b", and "" before "x" within a name.
        let r = Registry::new();
        for (name, label) in [("a.b", "x"), ("a", "x"), ("a.b", ""), ("a", "")] {
            r.counter_labeled(name, label).inc();
            r.histogram_labeled(name, label).record(1);
        }
        let want = vec![("a", ""), ("a", "x"), ("a.b", ""), ("a.b", "x")];
        let s = r.snapshot();
        let counters: Vec<(&str, &str)> = s
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.label.as_str()))
            .collect();
        let histograms: Vec<(&str, &str)> = s
            .histograms
            .iter()
            .map(|h| (h.name.as_str(), h.label.as_str()))
            .collect();
        assert_eq!(counters, want);
        assert_eq!(histograms, want);
    }

    #[test]
    fn pretty_rendering_mentions_everything() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        r.counter_labeled("rows", "part=3").add(9);
        r.histogram("solve_ns").record(2_500);
        let text = r.snapshot().to_pretty();
        assert!(text.contains("rows{part=3}"));
        assert!(text.contains('9'));
        assert!(text.contains("solve_ns"));
        assert!(text.contains("µs"), "ns metrics pretty-print: {text}");
        assert_eq!(
            Registry::new().snapshot().to_pretty(),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("h");
        c.add(5);
        h.record(10);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(r.snapshot().counters[0].value, 1);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global().counter("obs.test.global_singleton");
        let b = global().counter("obs.test.global_singleton");
        assert!(Arc::ptr_eq(&a, &b));
    }
}

//! A name-keyed metrics registry with Prometheus text exposition.
//!
//! The registry is the rendezvous point between instrumented code and
//! scrapers: layers call [`Registry::counter`] /
//! [`Registry::histogram_with_label`] etc. to get-or-create a metric
//! handle (an `Arc` they cache and update lock-free), and the HTTP
//! endpoint calls [`Registry::render_prometheus`] /
//! [`Registry::healthz_json`] to snapshot everything. Registration is
//! idempotent — two callers asking for the same `(name, label)` get the
//! same underlying atomic — so client and server halves of a loopback
//! deployment can share one registry and their observations merge.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::JsonValue;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::Phase;

/// One labelled (or unlabelled) time series inside a family.
struct Series<T> {
    /// `(key, value)` pairs in registration order; empty for an
    /// unlabelled series. Most metrics carry zero or one label; the
    /// multi-label case exists for info-style gauges
    /// (`pps_build_info{version=...,magic=...}`).
    labels: Vec<(String, String)>,
    metric: Arc<T>,
}

enum FamilyKind {
    Counter(Vec<Series<Counter>>),
    Gauge(Vec<Series<Gauge>>),
    Histogram(Vec<Series<Histogram>>),
}

impl FamilyKind {
    fn type_name(&self) -> &'static str {
        match self {
            FamilyKind::Counter(_) => "counter",
            FamilyKind::Gauge(_) => "gauge",
            FamilyKind::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    kind: FamilyKind,
}

/// A registry of named metrics. Cheap to share (`Arc<Registry>`);
/// metric handles, once obtained, update without touching the registry
/// lock.
pub struct Registry {
    start: Instant,
    inner: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn find_or_insert<T: Default>(series: &mut Vec<Series<T>>, labels: &[(&str, &str)]) -> Arc<T> {
    if let Some(existing) = series.iter().find(|s| {
        s.labels.len() == labels.len()
            && s.labels
                .iter()
                .zip(labels)
                .all(|((k, v), (lk, lv))| k == lk && v == lv)
    }) {
        return Arc::clone(&existing.metric);
    }
    let metric = Arc::new(T::default());
    series.push(Series {
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        metric: Arc::clone(&metric),
    });
    metric
}

impl Registry {
    /// An empty registry; its uptime clock starts now.
    pub fn new() -> Self {
        Registry {
            start: Instant::now(),
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    fn series<T, F, G>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        wrap: F,
        unwrap: G,
    ) -> Arc<T>
    where
        T: Default,
        F: FnOnce() -> FamilyKind,
        G: FnOnce(&mut FamilyKind) -> Option<&mut Vec<Series<T>>>,
    {
        let mut map = self.inner.lock().expect("registry lock");
        let family = map.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: wrap(),
        });
        let type_name = family.kind.type_name();
        match unwrap(&mut family.kind) {
            Some(series) => find_or_insert(series, labels),
            None => panic!("metric {name} already registered as a {type_name}"),
        }
    }

    /// Get-or-create an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.series(
            name,
            help,
            labels,
            || FamilyKind::Counter(Vec::new()),
            |kind| match kind {
                FamilyKind::Counter(s) => Some(s),
                _ => None,
            },
        )
    }

    /// Get-or-create an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with_labels(name, help, &[])
    }

    /// Get-or-create a gauge with an arbitrary (low-cardinality!) label
    /// set — the shape of info-style metrics like `pps_build_info`.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.series(
            name,
            help,
            labels,
            || FamilyKind::Gauge(Vec::new()),
            |kind| match kind {
                FamilyKind::Gauge(s) => Some(s),
                _ => None,
            },
        )
    }

    /// Get-or-create an unlabelled duration histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get-or-create a duration histogram with one `key="value"` label.
    pub fn histogram_with_label(
        &self,
        name: &str,
        help: &str,
        key: &str,
        value: &str,
    ) -> Arc<Histogram> {
        self.histogram_with(name, help, &[(key, value)])
    }

    fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.series(
            name,
            help,
            labels,
            || FamilyKind::Histogram(Vec::new()),
            |kind| match kind {
                FamilyKind::Histogram(s) => Some(s),
                _ => None,
            },
        )
    }

    /// The per-phase duration histogram for `phase` — the one metric
    /// every layer shares, so it gets a dedicated accessor.
    pub fn phase_histogram(&self, phase: Phase) -> Arc<Histogram> {
        self.histogram_with_label(
            crate::names::PHASE_DURATION_SECONDS,
            "runtime of each protocol phase (the paper's four-component decomposition)",
            "phase",
            phase.label(),
        )
    }

    /// Seconds since the registry was created.
    pub fn uptime(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Renders every metric in Prometheus text exposition format 0.0.4.
    ///
    /// Histograms emit cumulative `_bucket` lines only for non-empty
    /// buckets plus the mandatory `le="+Inf"`, then `_sum` (seconds)
    /// and `_count`. Families and series render in deterministic order
    /// (names sorted, series by label value), so two scrapes of a quiet
    /// registry are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let map = self.inner.lock().expect("registry lock");
        let mut out = String::new();
        for (name, family) in map.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.type_name()));
            match &family.kind {
                FamilyKind::Counter(series) => {
                    for s in sorted(series) {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_block(&s.labels, None),
                            s.metric.get()
                        ));
                    }
                }
                FamilyKind::Gauge(series) => {
                    for s in sorted(series) {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_block(&s.labels, None),
                            s.metric.get()
                        ));
                    }
                }
                FamilyKind::Histogram(series) => {
                    for s in sorted(series) {
                        let snap = s.metric.snapshot();
                        for (upper_ns, cumulative) in snap.cumulative_buckets() {
                            if upper_ns == u64::MAX {
                                continue; // folded into +Inf below
                            }
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                label_block(&s.labels, Some(&le_seconds(upper_ns)))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            label_block(&s.labels, Some("+Inf")),
                            snap.count
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            label_block(&s.labels, None),
                            float(snap.sum_ns as f64 / 1e9)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            label_block(&s.labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// A JSON health snapshot: uptime plus every counter, gauge, and
    /// histogram summary (count, sum, p50/p95/p99). Served at
    /// `/healthz` but also useful directly in tests.
    pub fn healthz_json(&self) -> JsonValue {
        let map = self.inner.lock().expect("registry lock");
        let mut counters = JsonValue::object();
        let mut gauges = JsonValue::object();
        let mut histograms = JsonValue::object();
        for (name, family) in map.iter() {
            match &family.kind {
                FamilyKind::Counter(series) => {
                    for s in sorted(series) {
                        counters = counters.field(&series_key(name, &s.labels), s.metric.get());
                    }
                }
                FamilyKind::Gauge(series) => {
                    for s in sorted(series) {
                        gauges = gauges.field(&series_key(name, &s.labels), s.metric.get());
                    }
                }
                FamilyKind::Histogram(series) => {
                    for s in sorted(series) {
                        let snap = s.metric.snapshot();
                        histograms = histograms.field(
                            &series_key(name, &s.labels),
                            JsonValue::object()
                                .field("count", snap.count)
                                .field("sum_seconds", snap.sum_ns as f64 / 1e9)
                                .field("p50_seconds", snap.p50().as_secs_f64())
                                .field("p95_seconds", snap.p95().as_secs_f64())
                                .field("p99_seconds", snap.p99().as_secs_f64()),
                        );
                    }
                }
            }
        }
        JsonValue::object()
            .field("status", "ok")
            .field("uptime_seconds", self.uptime())
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
    }
}

/// Series sorted by labels for deterministic output.
fn sorted<T>(series: &[Series<T>]) -> Vec<&Series<T>> {
    let mut refs: Vec<&Series<T>> = series.iter().collect();
    refs.sort_by(|a, b| a.labels.cmp(&b.labels));
    refs
}

/// `{k1="v1",k2="v2",le="..."}` in registration order, or empty.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    let mut parts = Vec::new();
    for (k, v) in labels {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{name}{{{}}}", pairs.join(","))
    }
}

/// A histogram bound in seconds, shortest round-trip.
fn le_seconds(upper_ns: u64) -> String {
    float(upper_ns as f64 / 1e9)
}

fn float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E', 'n', 'i']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("pps_test_total", "test");
        let b = registry.counter("pps_test_total", "other help ignored");
        a.add(3);
        assert_eq!(b.get(), 3, "same underlying atomic");
        let la = registry.counter_with("pps_labelled_total", "h", &[("phase", "comm")]);
        let lb = registry.counter_with("pps_labelled_total", "h", &[("phase", "comm")]);
        let lc = registry.counter_with("pps_labelled_total", "h", &[("phase", "fold")]);
        la.inc();
        assert_eq!(lb.get(), 1);
        assert_eq!(lc.get(), 0, "different label, different series");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let registry = Registry::new();
        let _ = registry.counter("pps_conflict", "h");
        let _ = registry.gauge("pps_conflict", "h");
    }

    #[test]
    fn prometheus_render_has_help_type_and_series() {
        let registry = Registry::new();
        registry.counter("pps_b_total", "second").add(2);
        registry.gauge("pps_a_gauge", "first").set(-4);
        let text = registry.render_prometheus();
        let a = text.find("# HELP pps_a_gauge first").expect("gauge help");
        let b = text
            .find("# HELP pps_b_total second")
            .expect("counter help");
        assert!(a < b, "families sorted by name");
        assert!(text.contains("# TYPE pps_a_gauge gauge\npps_a_gauge -4\n"));
        assert!(text.contains("# TYPE pps_b_total counter\npps_b_total 2\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let registry = Registry::new();
        let h = registry.histogram_with_label("pps_h_seconds", "h", "phase", "comm");
        h.record_duration(Duration::from_micros(100));
        h.record_duration(Duration::from_micros(100));
        h.record_duration(Duration::from_millis(50));
        let text = registry.render_prometheus();
        assert!(text.contains(r#"pps_h_seconds_bucket{phase="comm",le="+Inf"} 3"#));
        assert!(text.contains(r#"pps_h_seconds_count{phase="comm"} 3"#));
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("pps_h_seconds_sum"))
            .expect("sum line");
        let sum: f64 = sum_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((sum - 0.0502).abs() < 1e-6, "sum in seconds: {sum}");
        // Buckets are cumulative and sorted ascending by le.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("pps_h_seconds_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bucket_counts.last().unwrap(), 3);
    }

    #[test]
    fn quiet_registry_scrapes_are_identical() {
        let registry = Registry::new();
        registry.counter("pps_x_total", "x").add(7);
        registry
            .phase_histogram(Phase::Comm)
            .record_duration(Duration::from_millis(1));
        assert_eq!(registry.render_prometheus(), registry.render_prometheus());
    }

    #[test]
    fn healthz_contains_all_families() {
        let registry = Registry::new();
        registry.counter("pps_c_total", "c").add(1);
        registry.gauge("pps_g", "g").set(2);
        registry
            .histogram("pps_d_seconds", "d")
            .record_duration(Duration::from_millis(3));
        let json = registry.healthz_json().render();
        assert!(json.contains(r#""status":"ok""#));
        assert!(json.contains(r#""pps_c_total":1"#));
        assert!(json.contains(r#""pps_g":2"#));
        assert!(json.contains(r#""pps_d_seconds":{"count":1"#));
    }

    #[test]
    fn multi_label_gauges_render_all_pairs() {
        let registry = Registry::new();
        let g = registry.gauge_with_labels(
            "pps_build_info",
            "build identity",
            &[("version", "0.1.0"), ("magic", "0x5054")],
        );
        g.set(1);
        let again = registry.gauge_with_labels(
            "pps_build_info",
            "build identity",
            &[("version", "0.1.0"), ("magic", "0x5054")],
        );
        assert_eq!(again.get(), 1, "same label set, same series");
        let text = registry.render_prometheus();
        assert!(
            text.contains(r#"pps_build_info{version="0.1.0",magic="0x5054"} 1"#),
            "labels in registration order: {text}"
        );
        let health = registry.healthz_json().render();
        assert!(health.contains(r#"pps_build_info{version=\"0.1.0\",magic=\"0x5054\"}"#));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with("pps_esc_total", "h", &[("k", "a\"b\\c")])
            .inc();
        let text = registry.render_prometheus();
        assert!(text.contains(r#"pps_esc_total{k="a\"b\\c"} 1"#));
    }
}

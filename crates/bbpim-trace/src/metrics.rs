//! The metrics registry: counters, gauges and histograms keyed by
//! name + sorted labels, with Prometheus-text and flat-JSON snapshot
//! exporters.
//!
//! Everything is deterministic: metrics live in `BTreeMap`s, labels
//! are sorted at insertion, and floats render through the same
//! deterministic formatter the trace exporters use — so a snapshot of
//! a deterministic simulation is byte-identical across runs.
//!
//! The JSON snapshot is deliberately flat
//! (`{"metrics": {"name{label=value}": number, …}}`) so the bench
//! gate's purpose-built flat scanner can read headline numbers
//! straight out of it without a JSON parser.

use std::collections::BTreeMap;

use crate::export::fmt_num;

/// A metric identity: name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`bbpim_host_bytes_total`…).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// Flat rendering: `name` or `name{k=v,k2=v2}` (no quotes — the
    /// snapshot keys stay greppable and flat-scanner friendly).
    pub fn flat(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }

    /// Prometheus rendering: `name` or `name{k="v",k2="v2"}`.
    pub fn prometheus(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

/// Fixed-bucket histogram (cumulative-bucket export, Prometheus
/// style). `counts[i]` counts observations `<= bounds[i]`; the last
/// slot is the +Inf overflow bucket.
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram { bounds, counts: vec![0; n + 1], sum: 0.0, count: 0 }
    }

    fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|b| v <= *b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// Default histogram bounds: three-per-decade from 1 µs to 10 s (in
/// nanoseconds) — wide enough for per-query latencies at every scale
/// factor the bench bins sweep.
pub fn default_bounds() -> Vec<f64> {
    let mut out = Vec::with_capacity(22);
    let mut decade = 1e3;
    while decade < 1e10 {
        out.push(decade);
        out.push(2.5 * decade);
        out.push(5.0 * decade);
        decade *= 10.0;
    }
    out.push(1e10);
    out
}

/// Counters, gauges and histograms in one deterministic registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, f64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `v` to a (monotonic) counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        *self.counters.entry(MetricKey::new(name, labels)).or_insert(0.0) += v;
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value (used for
    /// maxima like per-module required endurance).
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let slot = self.gauges.entry(MetricKey::new(name, labels)).or_insert(f64::NEG_INFINITY);
        if v > *slot {
            *slot = v;
        }
    }

    /// Observe `v` into a histogram with the [`default_bounds`].
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Histogram::new(default_bounds()))
            .observe(v);
    }

    /// Read a counter (`None` if never touched).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.counters.get(&MetricKey::new(name, labels)).copied()
    }

    /// Prometheus text exposition: `# TYPE` headers, one sample per
    /// line, histograms expanded into cumulative `_bucket` / `_sum` /
    /// `_count` series.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (k, v) in &self.counters {
            if k.name != last_name {
                out.push_str(&format!("# TYPE {} counter\n", k.name));
                last_name.clone_from(&k.name);
            }
            out.push_str(&format!("{} {}\n", k.prometheus(), fmt_num(*v)));
        }
        last_name.clear();
        for (k, v) in &self.gauges {
            if k.name != last_name {
                out.push_str(&format!("# TYPE {} gauge\n", k.name));
                last_name.clone_from(&k.name);
            }
            out.push_str(&format!("{} {}\n", k.prometheus(), fmt_num(*v)));
        }
        last_name.clear();
        for (k, h) in &self.histograms {
            if k.name != last_name {
                out.push_str(&format!("# TYPE {} histogram\n", k.name));
                last_name.clone_from(&k.name);
            }
            let mut cumulative = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = if i < h.bounds.len() { fmt_num(h.bounds[i]) } else { "+Inf".into() };
                let mut labels = k.labels.clone();
                labels.push(("le".into(), le));
                let bucket_key = MetricKey { name: format!("{}_bucket", k.name), labels };
                out.push_str(&format!("{} {}\n", bucket_key.prometheus(), cumulative));
            }
            let sum_key = MetricKey { name: format!("{}_sum", k.name), labels: k.labels.clone() };
            let cnt_key = MetricKey { name: format!("{}_count", k.name), labels: k.labels.clone() };
            out.push_str(&format!("{} {}\n", sum_key.prometheus(), fmt_num(h.sum)));
            out.push_str(&format!("{} {}\n", cnt_key.prometheus(), h.count));
        }
        out
    }

    /// Flat JSON snapshot: `{"metrics": {"flat-key": number, …}}`,
    /// sorted by key. Histograms contribute their `_sum` and `_count`
    /// (per-bucket detail stays in the Prometheus export). The shape
    /// matches the bench bins' snapshot files, so the bench gate's
    /// flat scanner reads it unmodified.
    pub fn snapshot_json(&self) -> String {
        let mut flat: BTreeMap<String, String> = BTreeMap::new();
        for (k, v) in &self.counters {
            flat.insert(k.flat(), fmt_num(*v));
        }
        for (k, v) in &self.gauges {
            flat.insert(k.flat(), fmt_num(*v));
        }
        for (k, h) in &self.histograms {
            let sum_key = MetricKey { name: format!("{}_sum", k.name), labels: k.labels.clone() };
            let cnt_key = MetricKey { name: format!("{}_count", k.name), labels: k.labels.clone() };
            flat.insert(sum_key.flat(), fmt_num(h.sum));
            flat.insert(cnt_key.flat(), h.count.to_string());
        }
        let mut out = String::from("{\n  \"metrics\": {\n");
        let n = flat.len();
        for (i, (k, v)) in flat.iter().enumerate() {
            let mut key = String::new();
            crate::export::escape_json(k, &mut key);
            out.push_str(&format!("    \"{}\": {}{}\n", key, v, if i + 1 < n { "," } else { "" }));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_labels_sort() {
        let mut r = MetricsRegistry::new();
        r.counter_add("bytes", &[("kind", "read"), ("run", "a")], 10.0);
        r.counter_add("bytes", &[("run", "a"), ("kind", "read")], 5.0);
        assert_eq!(r.counter("bytes", &[("kind", "read"), ("run", "a")]), Some(15.0));
        assert_eq!(r.counter("bytes", &[("kind", "write"), ("run", "a")]), None);
    }

    #[test]
    fn gauge_max_keeps_the_maximum() {
        let mut r = MetricsRegistry::new();
        r.gauge_max("wear", &[], 3.0);
        r.gauge_max("wear", &[], 1.0);
        r.gauge_max("wear", &[], 7.0);
        assert_eq!(r.gauges[&MetricKey::new("wear", &[])], 7.0);
    }

    #[test]
    fn histogram_buckets_and_totals() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", &[], 2e3); // <= 2.5e3
        r.observe("lat", &[], 1e12); // overflow
        let h = &r.histograms[&MetricKey::new("lat", &[])];
        assert_eq!(h.count, 2);
        assert!((h.sum - (2e3 + 1e12)).abs() < 1.0);
        assert_eq!(*h.counts.last().unwrap(), 1); // the +Inf bucket
    }

    #[test]
    fn prometheus_text_renders_all_types() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c_total", &[("k", "v")], 2.0);
        r.gauge_set("g", &[], 0.5);
        r.observe("h_ns", &[], 3e3);
        let p = r.prometheus_text();
        assert!(p.contains("# TYPE c_total counter\nc_total{k=\"v\"} 2\n"));
        assert!(p.contains("# TYPE g gauge\ng 0.5\n"));
        assert!(p.contains("# TYPE h_ns histogram\n"));
        assert!(p.contains("h_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(p.contains("h_ns_count 1\n"));
    }

    #[test]
    fn snapshot_is_flat_sorted_and_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.gauge_set("z", &[], 1.0);
            r.counter_add("a", &[("run", "x")], 2.0);
            r.observe("m", &[], 4e3);
            r
        };
        let s = build().snapshot_json();
        assert!(s.starts_with("{\n  \"metrics\": {\n"));
        let a = s.find("\"a{run=x}\": 2").unwrap();
        let m = s.find("\"m_count\": 1").unwrap();
        let z = s.find("\"z\": 1").unwrap();
        assert!(a < m && m < z, "keys are sorted");
        assert_eq!(s, build().snapshot_json());
    }
}

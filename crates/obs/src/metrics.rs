//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with Prometheus-style labels, exported as Prometheus text format or
//! as part of the `mpise-obs/v1` JSON snapshot.
//!
//! Handles are cheap `Arc`-backed atomics, so hot paths record
//! without touching the registry lock; the lock is only taken to
//! register a series or to render an export. A histogram keeps fixed
//! buckets plus its exact maximum, so its memory is bounded however
//! many observations it absorbs, and [`Histogram::quantile`] reads
//! percentiles straight from the buckets.
//!
//! # Examples
//!
//! ```
//! use mpise_obs::metrics::Registry;
//! let r = Registry::new();
//! let reqs = r.counter("requests_total", "Requests served", &[("kind", "validate")]);
//! reqs.add(3);
//! let depth = r.gauge("queue_depth", "Requests queued", &[]);
//! depth.set(7.0);
//! let text = r.render_prometheus();
//! assert!(text.contains("requests_total{kind=\"validate\"} 3"));
//! assert!(text.contains("queue_depth 7"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (an `f64` stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared state of one histogram series.
#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the buckets (ascending; an implicit `+Inf`
    /// bucket follows).
    bounds: Vec<f64>,
    /// Per-bucket observation counts (len = bounds.len() + 1).
    buckets: Vec<AtomicU64>,
    /// Sum of observations × 1000 (fixed-point, so the atomic stays
    /// integral; Prometheus sums are floats and 1/1000 resolution is
    /// ample for microsecond latencies).
    sum_milli: AtomicU64,
    count: AtomicU64,
    /// Largest observation so far, as `f64` bits (`-inf` when empty).
    max: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Latency buckets in microseconds: 1 µs to 2^26.75 µs ≈ 113 s, four
/// buckets per octave, so consecutive bounds differ by 2^(1/4) ≈ 19%
/// and a bucket bound overstates any value of at least 1 µs in its
/// bucket by less than that. Bounds on whole octaves are exact powers
/// of two.
pub const LATENCY_BUCKETS_US: [f64; 108] = quarter_octaves();

const fn quarter_octaves<const N: usize>() -> [f64; N] {
    const STEPS: [f64; 4] = [
        1.0,
        1.189_207_115_002_721,
        std::f64::consts::SQRT_2,
        1.681_792_830_507_429,
    ];
    let mut bounds = [0.0; N];
    let mut octave = 1.0;
    let mut i = 0;
    while i < N {
        bounds[i] = octave * STEPS[i % 4];
        if i % 4 == 3 {
            octave *= 2.0;
        }
        i += 1;
    }
    bounds
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner
            .sum_milli
            .fetch_add((v * 1000.0).max(0.0) as u64, Ordering::Relaxed);
        let _ = inner
            .max
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (v > f64::from_bits(cur)).then_some(v.to_bits())
            });
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// The largest observation (`None` before the first one).
    pub fn max(&self) -> Option<f64> {
        let max = f64::from_bits(self.0.max.load(Ordering::Relaxed));
        (max != f64::NEG_INFINITY).then_some(max)
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`) as the upper bound of
    /// the bucket holding that rank, capped at the exact maximum: never
    /// below the exact nearest-rank value, and above it by at most one
    /// bucket's width. `None` before the first observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let max = self.max()?;
        let buckets = &self.0.buckets;
        let total: u64 = buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut cumulative = 0;
        for (bucket, bound) in buckets.iter().zip(&self.0.bounds) {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(bound.min(max));
            }
        }
        Some(max)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Series keyed by their rendered label set (`{k="v",…}` or "").
    series: BTreeMap<String, Series>,
}

/// A thread-safe registry of metric families.
///
/// Clones share the same families, like the handles they hand out, so
/// a clone keeps reading a component's live metrics after the
/// component itself is gone.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    pairs.sort();
    format!("{{{}}}", pairs.join(","))
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().expect("metrics registry lock");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` already registered as a {}",
            family.kind.prometheus_type()
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, Kind::Counter, || {
            Series::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, Kind::Gauge, || {
            Series::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or retrieves) a histogram series with the given
    /// ascending bucket bounds.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.series(name, help, labels, Kind::Histogram, || {
            Series::Histogram(Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_milli: AtomicU64::new(0),
                count: AtomicU64::new(0),
                max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            })))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!(
                "# TYPE {name} {}\n",
                family.kind.prometheus_type()
            ));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", fmt_f64(g.get())));
                    }
                    Series::Histogram(h) => {
                        let inner = &h.0;
                        let base = labels.trim_start_matches('{').trim_end_matches('}');
                        let mut cumulative = 0u64;
                        for (i, bound) in inner.bounds.iter().enumerate() {
                            cumulative += inner.buckets[i].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                join_labels(base, &format!("le=\"{}\"", fmt_f64(*bound))),
                            ));
                        }
                        cumulative += inner.buckets[inner.bounds.len()].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{name}_bucket{} {cumulative}\n",
                            join_labels(base, "le=\"+Inf\""),
                        ));
                        out.push_str(&format!(
                            "{name}_sum{labels} {}\n",
                            fmt_f64(inner.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0)
                        ));
                        out.push_str(&format!(
                            "{name}_count{labels} {}\n",
                            inner.count.load(Ordering::Relaxed)
                        ));
                    }
                }
            }
        }
        out
    }

    /// The `"metrics"` JSON array of the `mpise-obs/v1` snapshot.
    pub fn metrics_json(&self) -> String {
        let families = self.families.lock().expect("metrics registry lock");
        let mut out = String::from("[");
        for (fi, (name, family)) in families.iter().enumerate() {
            if fi > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{name}\", \"type\": \"{}\", \"help\": \"{}\", \"series\": [",
                family.kind.prometheus_type(),
                family.help,
            ));
            for (si, (labels, series)) in family.series.iter().enumerate() {
                if si > 0 {
                    out.push_str(", ");
                }
                let labels_json = labels_to_json(labels);
                match series {
                    Series::Counter(c) => out.push_str(&format!(
                        "{{\"labels\": {labels_json}, \"value\": {}}}",
                        c.get()
                    )),
                    Series::Gauge(g) => out.push_str(&format!(
                        "{{\"labels\": {labels_json}, \"value\": {}}}",
                        fmt_f64(g.get())
                    )),
                    Series::Histogram(h) => {
                        let inner = &h.0;
                        let counts: Vec<String> = inner
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed).to_string())
                            .collect();
                        let bounds: Vec<String> =
                            inner.bounds.iter().map(|b| fmt_f64(*b)).collect();
                        out.push_str(&format!(
                            "{{\"labels\": {labels_json}, \"bounds\": [{}], \
                             \"buckets\": [{}], \"sum\": {}, \"count\": {}}}",
                            bounds.join(", "),
                            counts.join(", "),
                            fmt_f64(inner.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0),
                            inner.count.load(Ordering::Relaxed),
                        ));
                    }
                }
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

/// Joins a base label string (no braces, possibly empty) with one
/// extra label into a rendered `{...}` set.
fn join_labels(base: &str, extra: &str) -> String {
    if base.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{base},{extra}}}")
    }
}

/// Renders an f64 the way Prometheus expects: integral values without
/// a trailing `.0`.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parses a rendered label set back into a JSON object.
fn labels_to_json(labels: &str) -> String {
    if labels.is_empty() {
        return String::from("{}");
    }
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    let mut out = String::from("{");
    for (i, pair) in inner.split(',').enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match pair.split_once('=') {
            Some((k, v)) => out.push_str(&format!("\"{k}\": {v}")),
            None => out.push_str(&format!("\"{pair}\": \"\"")),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "requests", &[("kind", "keygen")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = r.gauge("depth", "queue depth", &[]);
        g.set(4.5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total{kind=\"keygen\"} 3"));
        assert!(text.contains("depth 4.5"));
    }

    #[test]
    fn same_series_shares_the_handle() {
        let r = Registry::new();
        let a = r.counter("c", "x", &[("w", "0")]);
        let b = r.counter("c", "x", &[("w", "0")]);
        a.inc();
        assert_eq!(b.get(), 1);
        // A different label set is a separate series.
        let other = r.counter("c", "x", &[("w", "1")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "x", &[]);
        let _ = r.gauge("m", "x", &[]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_prometheus() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency", &[], &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(500.0);
        assert_eq!(h.count(), 3);
        let text = r.render_prometheus();
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum 555"));
        assert!(text.contains("lat_us_count 3"));
    }

    /// Exact nearest-rank quantile of ascending-sorted samples.
    fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantile_is_within_one_bucket_of_nearest_rank() {
        let step = LATENCY_BUCKETS_US[1];
        let mut state = 0x5EED_u64;
        let mut splitmix = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Log-spread latencies from 1 µs to ~67 s.
        let random: Vec<u64> = (0..4000)
            .map(|_| {
                let r = splitmix();
                1 + (r >> (38 + r % 26))
            })
            .collect();
        let ramp: Vec<u64> = (1..=100).collect();
        for samples in [random, ramp] {
            let r = Registry::new();
            let h = r.histogram("lat_us", "latency", &[], &LATENCY_BUCKETS_US);
            assert_eq!(h.quantile(0.5), None, "an empty histogram has no quantile");
            for &s in &samples {
                h.observe(s as f64);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.99, 1.0] {
                let exact = nearest_rank(&sorted, q);
                let got = h.quantile(q).expect("non-empty");
                assert!(got >= exact, "q{q}: {got} below exact {exact}");
                assert!(
                    got <= exact * step,
                    "q{q}: {got} over a bucket above {exact}"
                );
            }
            let max = h.max().expect("non-empty");
            assert_eq!(max, *sorted.last().unwrap() as f64);
            assert_eq!(h.quantile(1.0), Some(max));
            assert!(h.quantile(0.5) <= h.quantile(0.99));
            assert!(h.quantile(0.99) <= Some(max));
            crate::prom::validate(&r.render_prometheus()).expect("bucket layout must parse");
        }
    }

    #[test]
    fn json_export_shape() {
        let r = Registry::new();
        r.counter("a_total", "a", &[("k", "v")]).inc();
        r.histogram("h", "h", &[], &[1.0]).observe(0.5);
        let json = r.metrics_json();
        assert!(json.contains("\"name\": \"a_total\""));
        assert!(json.contains("\"labels\": {\"k\": \"v\"}"));
        assert!(json.contains("\"bounds\": [1]"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn label_order_is_canonical() {
        assert_eq!(label_key(&[("b", "2"), ("a", "1")]), "{a=\"1\",b=\"2\"}");
        assert_eq!(label_key(&[]), "");
    }
}

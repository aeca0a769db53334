//! What one benchmark run hands back: named metrics, the attempted and
//! failed operation counts, and the reasons for every failure.

use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics plus the correctness ledger of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (requests, sessions' requests, actions).
    pub attempted: u64,
    /// Attempted operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed operation or failed self-check.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one attempted operation; `Err` marks it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.problems.push(why);
        }
    }

    /// A self-check that is not an operation of the workload (exact
    /// count repeats, span reconciliation). A failure makes the run
    /// incorrect without changing the operation counts.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(why());
        }
    }

    /// Folds in the ledger of a sub-measurement (its metrics are
    /// dropped).
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// Whether every operation and self-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON numbers; a metric that
                // could not be measured reads as `null` and fails the run.
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The outcome of one timed window of a workload.
#[derive(Debug, Default)]
pub struct Window {
    /// Workload operations completed (sessions, requests, action pairs).
    pub ops: u64,
    /// Wall seconds from the first submission to the last completion
    /// (for `sim-action`, the sum of the operations' host times).
    pub wall_s: f64,
    /// Latencies of (a sample of) the completed operations, in ms.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// Operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Median operation latency (ms).
    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.5)
    }

    /// 90th-percentile operation latency (ms).
    pub fn p90_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.9)
    }
}

/// Nearest-rank quantile (`q` in `(0, 1]`); NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the samples; the mean of the middle two for even counts.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A `Vm*` field of the kernel's status file for this process, in MB
/// (10^6 bytes); NaN where it is unavailable.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Peak resident memory of this process image so far, in MB. This is
/// `VmHWM`, which starts afresh at `exec`; `getrusage`'s `ru_maxrss`
/// would instead carry over the peak of the launcher (`cargo run`)
/// that forked it.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident memory of this process, in MB.
pub fn current_rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[3.0, 1.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.25, "s");
        r.op(Ok(()));
        r.op(Err("boom".into()));
        let line = r.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn memory_probes_read_something() {
        let (now, peak) = (current_rss_mb(), peak_rss_mb());
        assert!(now > 0.0 && peak >= now, "{now} MB now, {peak} MB peak");
    }
}

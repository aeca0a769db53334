//! Engine observability: the engine's own metrics registry, and the
//! [`EngineStats`] snapshot derived from it.

use crate::{EngineError, Outcome};
use mpise_obs::metrics::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use mpise_obs::{Registry, SpanTree};
use std::sync::Mutex;
use std::time::Instant;

/// The engine's metric handles, all registered in one per-engine
/// registry. Recording is a relaxed atomic update and the latency
/// histogram has fixed buckets, so memory stays flat however many
/// requests the engine serves.
pub(crate) struct StatsInner {
    started: Instant,
    registry: Registry,
    pub(crate) submitted: Counter,
    pub(crate) rejected: Counter,
    keygen: Counter,
    derive: Counter,
    validate: Counter,
    expired: Counter,
    cancelled: Counter,
    /// Jobs answered per worker, indexed by worker id.
    pub(crate) worker_completed: Vec<Counter>,
    latency_us: Histogram,
    queue_depth: Gauge,
    throughput_rps: Gauge,
    /// Telemetry span trees handed in by exiting workers (spans are
    /// thread-local, so each worker merges its tree here on shutdown).
    pub(crate) spans: Mutex<SpanTree>,
}

impl StatsInner {
    pub(crate) fn new(workers: usize) -> Self {
        let registry = Registry::new();
        let completed = |op| {
            registry.counter(
                "mpise_engine_requests_completed_total",
                "Requests answered, by operation",
                &[("op", op)],
            )
        };
        StatsInner {
            started: Instant::now(),
            submitted: registry.counter(
                "mpise_engine_requests_submitted_total",
                "Requests accepted into the queue",
                &[],
            ),
            rejected: registry.counter(
                "mpise_engine_requests_rejected_total",
                "Submissions refused",
                &[],
            ),
            keygen: completed("keygen"),
            derive: completed("derive"),
            validate: completed("validate"),
            expired: registry.counter(
                "mpise_engine_requests_expired_total",
                "Requests that missed their deadline",
                &[],
            ),
            cancelled: registry.counter(
                "mpise_engine_requests_cancelled_total",
                "Requests cancelled before execution",
                &[],
            ),
            worker_completed: (0..workers)
                .map(|worker| {
                    registry.counter(
                        "mpise_engine_worker_completed",
                        "Jobs answered, by worker",
                        &[("worker", &worker.to_string())],
                    )
                })
                .collect(),
            latency_us: registry.histogram(
                "mpise_engine_latency_us",
                "Submit-to-response latency (microseconds)",
                &[],
                &LATENCY_BUCKETS_US,
            ),
            queue_depth: registry.gauge(
                "mpise_engine_queue_depth",
                "Requests queued but not yet claimed",
                &[],
            ),
            throughput_rps: registry.gauge(
                "mpise_engine_throughput_rps",
                "Completed requests per second since start",
                &[],
            ),
            registry,
            spans: Mutex::new(SpanTree::default()),
        }
    }

    /// Counts a response by its result and records its latency.
    pub(crate) fn record(&self, result: &Result<Outcome, EngineError>, latency_us: u64) {
        match result {
            Ok(Outcome::Keypair { .. }) => self.keygen.inc(),
            Ok(Outcome::SharedSecret(_)) => self.derive.inc(),
            Ok(Outcome::Validated(_)) => self.validate.inc(),
            Err(EngineError::DeadlineExceeded) => self.expired.inc(),
            Err(EngineError::Cancelled) => self.cancelled.inc(),
            Err(_) => {}
        }
        self.latency_us.observe(latency_us as f64);
    }

    pub(crate) fn snapshot(&self, queue_depth: usize) -> EngineStats {
        let (keygen, derive, validate) =
            (self.keygen.get(), self.derive.get(), self.validate.get());
        let completed = keygen + derive + validate;
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        // Observations are whole microseconds and a quantile is never
        // below its exact value, so truncation cannot drop below it.
        let micros = |v: Option<f64>| v.map(|us| us as u64);
        EngineStats {
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed,
            keygen,
            derive,
            validate,
            expired: self.expired.get(),
            cancelled: self.cancelled.get(),
            worker_completed: self.worker_completed.iter().map(Counter::get).collect(),
            queue_depth,
            p50_us: micros(self.latency_us.quantile(0.5)),
            p99_us: micros(self.latency_us.quantile(0.99)),
            max_us: micros(self.latency_us.max()),
            elapsed_secs,
            throughput_rps: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
        }
    }

    /// The registry, with the queue-depth and throughput gauges set
    /// from a fresh snapshot.
    pub(crate) fn registry(&self, queue_depth: usize) -> &Registry {
        let s = self.snapshot(queue_depth);
        self.queue_depth.set(s.queue_depth as f64);
        self.throughput_rps.set(s.throughput_rps);
        &self.registry
    }
}

/// A point-in-time snapshot of the engine's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Submissions refused (queue closed or full on `try_submit`).
    pub rejected: u64,
    /// Requests answered with an outcome (`keygen + derive + validate`).
    pub completed: u64,
    /// Completed key generations.
    pub keygen: u64,
    /// Completed shared-secret derivations.
    pub derive: u64,
    /// Completed public-key validations.
    pub validate: u64,
    /// Requests that missed their deadline before a worker took them.
    pub expired: u64,
    /// Requests cancelled before a worker took them.
    pub cancelled: u64,
    /// Jobs answered per worker, indexed by worker id. Refusals count
    /// too, so the entries sum to `completed + expired + cancelled`.
    pub worker_completed: Vec<u64>,
    /// Requests queued but not yet claimed at snapshot time.
    pub queue_depth: usize,
    /// Median submit-to-response latency (microseconds); `None` until a
    /// first response exists.
    pub p50_us: Option<u64>,
    /// 99th-percentile submit-to-response latency (microseconds);
    /// `None` until a first response exists.
    pub p99_us: Option<u64>,
    /// Worst-case submit-to-response latency (microseconds); `None`
    /// until a first response exists.
    pub max_us: Option<u64>,
    /// Seconds since the engine started.
    pub elapsed_secs: f64,
    /// Completed requests per second since the engine started.
    pub throughput_rps: f64,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            out,
            "requests: {} submitted, {} completed ({} keygen, {} derive, {} validate)",
            self.submitted, self.completed, self.keygen, self.derive, self.validate
        )?;
        writeln!(
            out,
            "dropped:  {} rejected, {} expired, {} cancelled; queue depth {}",
            self.rejected, self.expired, self.cancelled, self.queue_depth
        )?;
        let ms = |v: Option<u64>| match v {
            Some(us) => format!("{:.3} ms", us as f64 / 1e3),
            None => "n/a".to_owned(),
        };
        write!(
            out,
            "latency:  p50 {}, p99 {}, max {}; throughput {:.2} req/s over {:.2} s",
            ms(self.p50_us),
            ms(self.p99_us),
            ms(self.max_us),
            self.throughput_rps,
            self.elapsed_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates() {
        let s = StatsInner::new(2);
        s.keygen.add(2);
        s.validate.add(3);
        s.latency_us.observe(1000.0);
        s.latency_us.observe(3000.0);
        let snap = s.snapshot(7);
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.queue_depth, 7);
        // p50 reads the upper bound of 1000's bucket; p99 is capped at
        // the exact maximum.
        let p50 = snap.p50_us.expect("two samples");
        assert!(p50 >= 1000 && (p50 as f64) < 1000.0 * LATENCY_BUCKETS_US[1]);
        assert_eq!(snap.p99_us, Some(3000));
        assert_eq!(snap.max_us, Some(3000));
        assert!(snap.throughput_rps > 0.0);
    }

    #[test]
    fn idle_engine_reports_no_latency() {
        // Regression: an idle engine used to report p50 = p99 = max = 0,
        // indistinguishable from real measurements of a fast engine.
        let s = StatsInner::new(2);
        let snap = s.snapshot(0);
        assert_eq!(snap.p50_us, None);
        assert_eq!(snap.p99_us, None);
        assert_eq!(snap.max_us, None);
        assert_eq!(snap.completed, 0);
        let text = snap.to_string();
        assert!(text.contains("p50 n/a"));
    }

    #[test]
    fn display_is_stable() {
        let s = StatsInner::new(1);
        let text = s.snapshot(0).to_string();
        assert!(text.contains("requests:"));
        assert!(text.contains("latency:"));
    }
}

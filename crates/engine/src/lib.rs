//! # mpise-engine — the multi-worker CSIDH-512 key-exchange service
//!
//! The paper (and the crates below this one) accelerate **one**
//! CSIDH-512 operation at a time. This crate is the serving layer the
//! ROADMAP's north star asks for: a multi-worker **service engine**
//! that turns the single-request primitives of `mpise-csidh` into a
//! throughput system.
//!
//! * [`Engine`] accepts [`Request::Keygen`],
//!   [`Request::DeriveSharedSecret`] and
//!   [`Request::ValidatePublicKey`] through a bounded submission
//!   queue ([`queue::Bounded`]) and executes them on a configurable
//!   worker pool — one field-backend instance per worker, generic
//!   over any [`Fp`] backend. Each worker pops one job at a time and
//!   serves it with the scalar `mpise-csidh` routine for its request.
//! * Every request carries a **deterministic seed**: outcomes depend
//!   only on `(seed, request)`, never on scheduling or worker count
//!   (the loadgen determinism test enforces this byte-for-byte).
//! * Requests may carry a **deadline** and can be **cancelled**
//!   through their [`Ticket`]; [`Engine::shutdown`] performs a
//!   graceful drain — everything already accepted completes, nothing
//!   is dropped, and later submissions fail with
//!   [`EngineError::ShutDown`].
//! * Every request is recorded as it happens into the engine's own
//!   `mpise-obs` registry ([`Engine::metrics`]), and
//!   [`Engine::stats`] derives an [`EngineStats`] snapshot (per-op
//!   counts, queue depth, p50/p99 latency, throughput) from it; the
//!   [`loadgen`] module drives N concurrent clients against the
//!   engine and writes a machine-readable `LOAD_<date>.json` report
//!   with a multi-worker throughput gate.

pub mod loadgen;
pub mod queue;
pub mod stats;

use mpise_csidh::{validate, CsidhKeypair, PrivateKey, PublicKey};
use mpise_fp::Fp;
use queue::{Bounded, TryPushError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::StatsInner;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

pub use stats::EngineStats;

/// A key-exchange request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Generate a key pair (exponents bounded by `bound`; CSIDH-512
    /// proper uses [`mpise_csidh::action::EXPONENT_BOUND`] = 5).
    Keygen {
        /// Private-exponent bound.
        bound: i8,
    },
    /// Derive the shared secret of `private` with `their_public`.
    DeriveSharedSecret {
        /// Our private key.
        private: PrivateKey,
        /// The peer's public key.
        their_public: PublicKey,
    },
    /// Check that a public key is a supersingular curve.
    ValidatePublicKey {
        /// The key to validate.
        key: PublicKey,
    },
}

/// A completed request's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The generated key pair.
    Keypair {
        /// The secret exponent vector.
        private: PrivateKey,
        /// The corresponding public curve.
        public: PublicKey,
    },
    /// The derived shared secret.
    SharedSecret(PublicKey),
    /// The validation verdict.
    Validated(bool),
}

impl Outcome {
    /// Canonical wire bytes of the outcome, used by the loadgen
    /// determinism digest: public keys and shared secrets serialize
    /// through the 64-byte little-endian format, verdicts as one
    /// byte, key pairs as public key then exponent vector.
    pub fn payload_bytes(&self) -> Vec<u8> {
        match self {
            Outcome::Keypair { private, public } => {
                let mut out = public.to_bytes().to_vec();
                out.extend(private.exponents.iter().map(|&e| e as u8));
                out
            }
            Outcome::SharedSecret(pk) => pk.to_bytes().to_vec(),
            Outcome::Validated(v) => vec![u8::from(*v)],
        }
    }
}

/// Why a request did not produce an [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The engine is shut down (or shutting down); nothing was queued.
    ShutDown,
    /// `try_submit` found the queue at capacity; nothing was queued.
    QueueFull,
    /// The deadline passed before a worker claimed the request.
    DeadlineExceeded,
    /// The ticket was cancelled before a worker claimed the request.
    Cancelled,
    /// The engine dropped the response channel (worker panic).
    Disconnected,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            EngineError::ShutDown => "engine is shut down",
            EngineError::QueueFull => "submission queue is full",
            EngineError::DeadlineExceeded => "deadline exceeded before execution",
            EngineError::Cancelled => "request cancelled",
            EngineError::Disconnected => "engine dropped the response channel",
        };
        write!(out, "{text}")
    }
}

impl std::error::Error for EngineError {}

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (each owns one backend instance).
    pub workers: usize,
    /// Bounded submission-queue capacity (back-pressure bound).
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 256,
        }
    }
}

/// A pending request's client-side handle.
///
/// Dropping the ticket abandons the response (the worker's send just
/// fails); [`Ticket::cancel`] additionally asks the engine not to
/// start the work if it has not begun.
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Result<Outcome, EngineError>>,
    cancelled: Arc<AtomicBool>,
}

impl Ticket {
    /// The engine-assigned request id (monotonic per engine).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation. Best-effort: a request already claimed
    /// by a worker still completes (and `wait` returns its outcome).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Blocks until the outcome (or the engine's refusal) arrives.
    ///
    /// # Errors
    ///
    /// Propagates the engine-side [`EngineError`] for this request.
    pub fn wait(self) -> Result<Outcome, EngineError> {
        self.rx.recv().unwrap_or(Err(EngineError::Disconnected))
    }
}

/// One queued unit of work.
struct Job {
    seed: u64,
    request: Request,
    deadline: Option<Instant>,
    submitted: Instant,
    cancelled: Arc<AtomicBool>,
    tx: mpsc::Sender<Result<Outcome, EngineError>>,
}

/// The multi-worker key-exchange service.
///
/// # Examples
///
/// ```
/// use mpise_engine::{Engine, EngineConfig, Outcome, Request};
/// use mpise_csidh::PublicKey;
/// use mpise_fp::FpFull;
///
/// let engine = Engine::start(EngineConfig { workers: 2, ..Default::default() }, FpFull::new);
/// let ticket = engine
///     .submit(7, Request::ValidatePublicKey { key: PublicKey::BASE }, None)
///     .unwrap();
/// assert_eq!(ticket.wait().unwrap(), Outcome::Validated(true));
/// engine.shutdown();
/// ```
pub struct Engine {
    queue: Arc<Bounded<Job>>,
    stats: Arc<StatsInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    config: EngineConfig,
}

impl Engine {
    /// Starts the worker pool. `backend` is called once inside each
    /// worker thread to build that worker's private field-backend
    /// instance (so backends need not be `Send`).
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero.
    pub fn start<F, B>(config: EngineConfig, backend: B) -> Engine
    where
        F: Fp,
        B: Fn() -> F + Send + Sync + 'static,
    {
        assert!(config.workers > 0, "need at least one worker");
        let queue = Arc::new(Bounded::new(config.queue_capacity));
        let stats = Arc::new(StatsInner::new(config.workers));
        let backend = Arc::new(backend);
        let workers = (0..config.workers)
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let backend = Arc::clone(&backend);
                std::thread::spawn(move || worker_loop(backend(), &queue, &stats, worker))
            })
            .collect();
        Engine {
            queue,
            stats,
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(0),
            config,
        }
    }

    fn make_job(&self, seed: u64, request: Request, deadline: Option<Duration>) -> (Job, Ticket) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let job = Job {
            seed,
            request,
            deadline: deadline.map(|d| Instant::now() + d),
            submitted: Instant::now(),
            cancelled: Arc::clone(&cancelled),
            tx,
        };
        (job, Ticket { id, rx, cancelled })
    }

    /// Submits a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShutDown`] after [`Engine::shutdown`] — the
    /// request is not queued.
    pub fn submit(
        &self,
        seed: u64,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket, EngineError> {
        let (job, ticket) = self.make_job(seed, request, deadline);
        match self.queue.push(job) {
            Ok(()) => {
                self.stats.submitted.inc();
                Ok(ticket)
            }
            Err(_) => {
                self.stats.rejected.inc();
                Err(EngineError::ShutDown)
            }
        }
    }

    /// Submits without blocking.
    ///
    /// # Errors
    ///
    /// [`EngineError::QueueFull`] at capacity, [`EngineError::ShutDown`]
    /// after shutdown; the request is not queued in either case.
    pub fn try_submit(
        &self,
        seed: u64,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket, EngineError> {
        let (job, ticket) = self.make_job(seed, request, deadline);
        match self.queue.try_push(job) {
            Ok(()) => {
                self.stats.submitted.inc();
                Ok(ticket)
            }
            Err(err) => {
                self.stats.rejected.inc();
                Err(match err {
                    TryPushError::Closed(_) => EngineError::ShutDown,
                    TryPushError::Full(_) => EngineError::QueueFull,
                })
            }
        }
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot(self.queue.len())
    }

    /// The configuration the engine was started with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The engine's own metrics registry, with the queue-depth and
    /// throughput gauges brought up to date: request counters by op,
    /// per-worker completion counters and the latency histogram that
    /// [`Engine::stats`] is derived from. Clone it to keep reading the
    /// final values after the engine is gone.
    pub fn metrics(&self) -> &mpise_obs::Registry {
        self.stats.registry(self.queue.len())
    }

    /// Graceful drain: refuses new submissions, lets the workers
    /// finish everything already queued, and joins them. Every
    /// accepted request receives its response before this returns.
    /// Idempotent; later [`Engine::submit`] calls return
    /// [`EngineError::ShutDown`] instead of panicking.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Whether [`Engine::shutdown`] has begun.
    pub fn is_shut_down(&self) -> bool {
        self.queue.is_closed()
    }

    /// Drains the telemetry span trees merged in by exited workers.
    /// Spans are thread-local, so workers contribute their trees when
    /// they exit — call this after [`Engine::shutdown`] for the
    /// complete forest (empty while telemetry is disabled).
    pub fn take_worker_spans(&self) -> mpise_obs::SpanTree {
        std::mem::take(&mut *self.stats.spans.lock().expect("span lock"))
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Responds to a job and records its latency and op counter.
fn respond(stats: &StatsInner, job: &Job, result: Result<Outcome, EngineError>) {
    stats.record(&result, job.submitted.elapsed().as_micros() as u64);
    // A dropped ticket makes the send fail; that is fine.
    let _ = job.tx.send(result);
}

/// Pre-execution refusals (cancellation, deadline), checked when a
/// worker claims the job.
fn refusal(job: &Job) -> Option<EngineError> {
    if job.cancelled.load(Ordering::Relaxed) {
        return Some(EngineError::Cancelled);
    }
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            return Some(EngineError::DeadlineExceeded);
        }
    }
    None
}

fn worker_loop<F: Fp>(f: F, queue: &Bounded<Job>, stats: &StatsInner, worker: usize) {
    while let Some(job) = queue.pop() {
        run_job(&f, job, stats);
        stats.worker_completed[worker].inc();
    }
    // Spans are thread-local; hand this worker's finished tree to the
    // engine before the thread exits.
    let spans = mpise_obs::take_spans();
    if !spans.is_empty() {
        stats.spans.lock().expect("span lock").merge(spans);
    }
}

fn run_job<F: Fp>(f: &F, job: Job, stats: &StatsInner) {
    if let Some(err) = refusal(&job) {
        respond(stats, &job, Err(err));
        return;
    }
    let mut rng = StdRng::seed_from_u64(job.seed);
    let outcome = match job.request {
        Request::Keygen { bound } => {
            let kp = CsidhKeypair::generate_with_bound(f, &mut rng, bound);
            Outcome::Keypair {
                private: kp.private,
                public: kp.public,
            }
        }
        Request::DeriveSharedSecret {
            private,
            their_public,
        } => Outcome::SharedSecret(private.shared_secret(f, &mut rng, &their_public)),
        Request::ValidatePublicKey { key } => Outcome::Validated(validate(f, &mut rng, &key)),
    };
    respond(stats, &job, Ok(outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_fp::FpFull;
    use mpise_mpi::U512;

    fn bogus_key() -> PublicKey {
        // A = 2 is singular: rejected without field arithmetic, so
        // these requests are near-instant — ideal for queue tests.
        PublicKey {
            a: U512::from_u64(2),
        }
    }

    #[test]
    fn outcomes_are_seed_deterministic() {
        let engine = Engine::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            FpFull::new,
        );
        // Bound 0 pins the exponent vector, so the outcome is fully
        // determined — any scheduling- or worker-dependence would show
        // up as payload divergence. (Seed-sensitivity of bound ≥ 1
        // keygen is a full group action, exercised by the release-mode
        // loadgen run instead of this debug-speed unit test.)
        let req = Request::Keygen { bound: 0 };
        let a = engine.submit(42, req, None).unwrap().wait().unwrap();
        let b = engine.submit(42, req, None).unwrap().wait().unwrap();
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(
            a.payload_bytes(),
            b.payload_bytes(),
            "payload bytes are reproducible"
        );
        engine.shutdown();
    }

    #[test]
    fn keygen_bound_zero_is_identity() {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                ..Default::default()
            },
            FpFull::new,
        );
        match engine
            .submit(1, Request::Keygen { bound: 0 }, None)
            .unwrap()
            .wait()
            .unwrap()
        {
            Outcome::Keypair { public, .. } => assert_eq!(public, PublicKey::BASE),
            other => panic!("expected a keypair, got {other:?}"),
        }
    }

    #[test]
    fn validations_answer_in_order() {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                ..Default::default()
            },
            FpFull::new,
        );
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                engine
                    .submit(i, Request::ValidatePublicKey { key: bogus_key() }, None)
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), Outcome::Validated(false));
        }
        assert_eq!(engine.stats().validate, 12);
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_is_reported() {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                ..Default::default()
            },
            FpFull::new,
        );
        let ticket = engine
            .submit(
                1,
                Request::ValidatePublicKey { key: bogus_key() },
                Some(Duration::ZERO),
            )
            .unwrap();
        // A zero deadline has passed by the time any worker claims it.
        assert_eq!(ticket.wait(), Err(EngineError::DeadlineExceeded));
        assert_eq!(engine.stats().expired, 1);
        engine.shutdown();
    }

    #[test]
    fn stats_snapshot_counts_latencies() {
        let engine = Engine::start(EngineConfig::default(), FpFull::new);
        for i in 0..5 {
            let _ = engine
                .submit(i, Request::ValidatePublicKey { key: bogus_key() }, None)
                .unwrap()
                .wait();
        }
        let stats = engine.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert!(stats.p50_us.is_some());
        assert!(stats.p50_us <= stats.p99_us);
        assert!(stats.p99_us <= stats.max_us);
        engine.shutdown();
    }

    #[test]
    fn worker_counters_cover_all_answered_jobs() {
        let engine = Engine::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            FpFull::new,
        );
        for i in 0..9 {
            let _ = engine
                .submit(i, Request::ValidatePublicKey { key: bogus_key() }, None)
                .unwrap()
                .wait();
        }
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.worker_completed.len(), 2);
        assert_eq!(
            stats.worker_completed.iter().sum::<u64>(),
            stats.completed + stats.expired + stats.cancelled
        );
    }

    #[test]
    fn metrics_exports_the_snapshot() {
        let engine = Engine::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            FpFull::new,
        );
        for i in 0..4 {
            let _ = engine
                .submit(i, Request::ValidatePublicKey { key: bogus_key() }, None)
                .unwrap()
                .wait();
        }
        // Reading the registry twice must not double-count: the engine
        // records each request once, as it happens.
        let _ = engine.metrics();
        let text = engine.metrics().render_prometheus();
        assert!(text.contains("mpise_engine_requests_submitted_total 4"));
        assert!(text.contains("mpise_engine_requests_completed_total{op=\"validate\"} 4"));
        assert!(text.contains("mpise_engine_worker_completed{worker=\"0\"}"));
        assert!(text.contains("mpise_engine_worker_completed{worker=\"1\"}"));
        assert!(text.contains("mpise_engine_latency_us_count 4"));
        mpise_obs::prom::validate(&text).expect("exported text must parse");
        engine.shutdown();
    }
}

//! `reject-flood`: malformed public keys pushed through [`Engine`] as
//! fast as it answers.
//!
//! Pipelined clients keep [`PIPELINE`] `ValidatePublicKey` requests
//! outstanding each, carrying non-canonical (`A ≥ p`) or singular
//! (`A = ±2`) keys that the engine answers `Validated(false)` before any
//! field arithmetic. A monitor polls [`Engine::stats`] every
//! [`POLL_INTERVAL`], as a metrics scraper would; it is one of the
//! `nproc` load threads, so `nproc − 1` threads are clients. The queue,
//! the response channels, the stats and the latency recording do all of
//! the work; the cryptography does none.

use crate::kex::start_engine;
use crate::report::{Report, Window};
use mpise_csidh::PublicKey;
use mpise_engine::{Engine, Outcome, Request, Ticket};
use mpise_fp::Csidh512;
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Malformed keys generated per set-up; clients cycle through them.
const FIXTURE_KEYS: usize = 1 << 16;

/// Requests each client keeps outstanding.
pub const PIPELINE: usize = 64;

/// Interval at which the monitor polls [`Engine::stats`].
pub const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// One request in this many has its latency recorded.
const LATENCY_SAMPLE_EVERY: u64 = 64;

/// A key the engine must refuse without field arithmetic: `A ≥ p`
/// (exactly `p`, or above `2^511`) or `A = ±2`.
pub fn malformed_key<R: Rng>(rng: &mut R) -> PublicKey {
    let c = Csidh512::get();
    let two = U512::from_u64(2);
    let a = match rng.gen_range(0..4u32) {
        0 => c.p,
        1 => U512::from_limbs(std::array::from_fn(|_| rng.gen())).or(&U512::ONE.shl(511)),
        2 => two,
        _ => c.p.wrapping_sub(&two),
    };
    PublicKey { a }
}

/// Set-up: the malformed-key fixture and a running engine.
pub struct Fixture {
    engine: Engine,
    keys: Vec<PublicKey>,
}

/// Generates the malformed keys from `seed` and starts the engine.
pub fn setup(seed: u64, nproc: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    Fixture {
        keys: (0..FIXTURE_KEYS).map(|_| malformed_key(&mut rng)).collect(),
        engine: start_engine(nproc),
    }
}

#[derive(Default)]
struct ClientLog {
    requests: u64,
    /// When the last answer arrived.
    end: Option<Instant>,
    latencies_ms: Vec<f64>,
    report: Report,
    spans: u64,
}

/// Floods for `seconds` with `nproc − 1` pipelined clients (at least
/// one) while this thread polls the engine's stats. Returns the window
/// and the stats-call durations in ms.
pub fn window(
    fx: &Fixture,
    nproc: usize,
    seconds: f64,
    traced: bool,
    rep: &mut Report,
) -> (Window, Vec<f64>) {
    let clients = nproc.saturating_sub(1).max(1);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut polls_ms = Vec::new();
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(fx, c, clients, deadline, traced)))
            .collect();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(POLL_INTERVAL.min(left));
            let t = Instant::now();
            let _ = std::hint::black_box(fx.engine.stats());
            polls_ms.push(crate::report::ms_since(t));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // The window ends with the last client's last answer, not with the
    // monitor's last poll.
    let end = logs.iter().filter_map(|log| log.end).max().unwrap_or(t0);
    let mut win = Window {
        wall_s: end.duration_since(t0).as_secs_f64(),
        ..Window::default()
    };
    for log in logs {
        win.ops += log.requests;
        win.latencies_ms.extend(log.latencies_ms);
        if traced {
            rep.check(log.spans == log.requests, || {
                format!("{} request spans for {} requests", log.spans, log.requests)
            });
        }
        rep.absorb(log.report);
    }
    (win, polls_ms)
}

fn client(fx: &Fixture, id: usize, clients: usize, deadline: Instant, traced: bool) -> ClientLog {
    let mut log = ClientLog::default();
    let mut pending: VecDeque<(Ticket, Instant, bool)> = VecDeque::with_capacity(PIPELINE);
    let mut next = id * fx.keys.len() / clients;
    let mut seed = id as u64;
    let mut submitted = 0u64;
    loop {
        let open = Instant::now() < deadline;
        if open && pending.len() < PIPELINE {
            let key = fx.keys[next % fx.keys.len()];
            next += 1;
            seed += clients as u64;
            submitted += 1;
            let _span = mpise_obs::span("perfbench.request");
            let t = Instant::now();
            match fx
                .engine
                .submit(seed, Request::ValidatePublicKey { key }, None)
            {
                Ok(ticket) => {
                    pending.push_back((ticket, t, submitted.is_multiple_of(LATENCY_SAMPLE_EVERY)))
                }
                Err(e) => log.report.op(Err(format!("submit: {e}"))),
            }
            continue;
        }
        let Some((ticket, t, sampled)) = pending.pop_front() else {
            log.end = Some(Instant::now());
            break;
        };
        let outcome = ticket.wait();
        if sampled {
            log.latencies_ms.push(crate::report::ms_since(t));
        }
        log.requests += 1;
        log.report.op(match outcome {
            Ok(Outcome::Validated(false)) => Ok(()),
            other => Err(format!("malformed key answered {other:?}")),
        });
    }
    if traced {
        log.spans = mpise_obs::take_spans()
            .child("perfbench.request")
            .map_or(0, |n| n.count);
    }
    log
}

/// Drains the engine.
pub fn finish(fx: Fixture) {
    fx.engine.shutdown();
}

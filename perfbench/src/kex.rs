//! `kex-sessions`: ephemeral CSIDH-512 key exchanges through [`Engine`]
//! on the host `FpFull` backend.
//!
//! `nproc` clients run a closed loop of sessions. A session submits
//! `Keygen{bound: 5}` and `ValidatePublicKey{peer}` together, then
//! `DeriveSharedSecret` once the peer's key is accepted. Peers come from
//! a pool of valid bound-5 key pairs generated at set-up; one session
//! in eight carries a random ordinary-curve key instead, which must be
//! rejected. The host `fp`/`mpi` arithmetic and the CSIDH action and
//! validation dominate; the engine's own overhead is under 1%.

use crate::report::{ms_since, Report, Window};
use mpise_csidh::{CsidhKeypair, PublicKey};
use mpise_engine::{Engine, EngineConfig, Outcome, Request};
use mpise_fp::{Csidh512, FpFull};
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Valid peer key pairs generated per set-up.
const PEERS: usize = 4;

/// Ordinary-curve peer keys generated per set-up.
const ORDINARY: usize = 16;

/// One session in this many carries an ordinary-curve peer key.
const ORDINARY_EVERY: u32 = 8;

/// One accepted session in this many has its shared secret recomputed
/// from the peer's side after the window.
const RECHECK_EVERY: u64 = 8;

/// Sessions an untraced window completes at least, so that at least ten
/// lie beyond the 90th percentile; a slow host runs past `--seconds`.
pub const MIN_SESSIONS: usize = 100;

/// A uniform residue below `p`.
pub fn random_residue<R: Rng>(rng: &mut R) -> U512 {
    let p = Csidh512::get().p;
    loop {
        let v = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if v < p {
            return v;
        }
    }
}

/// A random curve coefficient `A ∉ {±2}` below `p`: an ordinary curve
/// with overwhelming probability (a supersingular `A` is one of about
/// `√p` values).
pub fn ordinary_key<R: Rng>(rng: &mut R) -> PublicKey {
    let two = U512::from_u64(2);
    let minus_two = Csidh512::get().p.wrapping_sub(&two);
    loop {
        let a = random_residue(rng);
        if a != two && a != minus_two {
            return PublicKey { a };
        }
    }
}

/// Starts the engine the way every workload does: `nproc` workers, the
/// rest of the configuration at its defaults.
pub fn start_engine(workers: usize) -> Engine {
    Engine::start(
        EngineConfig {
            workers,
            ..Default::default()
        },
        FpFull::new,
    )
}

/// Set-up: the peer pool, the ordinary keys and a running engine.
pub struct Fixture {
    engine: Engine,
    peers: Vec<CsidhKeypair>,
    ordinary: Vec<PublicKey>,
    seed: u64,
}

/// Generates the peer fixtures from `seed` and starts the engine.
pub fn setup(seed: u64, nproc: usize) -> Fixture {
    let f = FpFull::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let peers = (0..PEERS)
        .map(|_| CsidhKeypair::generate_with_bound(&f, &mut rng, crate::sim_action::BOUND))
        .collect();
    let ordinary = (0..ORDINARY).map(|_| ordinary_key(&mut rng)).collect();
    Fixture {
        engine: start_engine(nproc),
        peers,
        ordinary,
        seed,
    }
}

/// A session whose shared secret is recomputed after the window.
struct Recheck {
    peer: usize,
    ours: PublicKey,
    secret: PublicKey,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    sessions: u64,
    latencies_ms: Vec<f64>,
    rechecks: Vec<Recheck>,
    report: Report,
    spans: u64,
}

/// Runs `nproc` closed-loop clients for `seconds` and at least
/// `min_sessions` sessions; sessions in flight at the deadline complete.
pub fn window(
    fx: &Fixture,
    nproc: usize,
    seconds: f64,
    min_sessions: usize,
    traced: bool,
    rep: &mut Report,
) -> Window {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..nproc)
            .map(|c| {
                let done = &done;
                s.spawn(move || client(fx, c as u64, deadline, done, min_sessions, traced))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut win = Window {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Window::default()
    };
    let mut rechecks = Vec::new();
    for log in logs {
        win.ops += log.sessions;
        win.latencies_ms.extend(log.latencies_ms);
        rechecks.extend(log.rechecks);
        if traced {
            rep.check(log.spans == log.sessions, || {
                format!("{} session spans for {} sessions", log.spans, log.sessions)
            });
        }
        rep.absorb(log.report);
    }
    // Outside the window: each sampled secret must equal the one the
    // peer derives from our public key.
    let f = FpFull::new();
    let mut rng = StdRng::seed_from_u64(fx.seed ^ 0x5EC2);
    for r in rechecks {
        let theirs = fx.peers[r.peer]
            .private
            .shared_secret(&f, &mut rng, &r.ours);
        rep.check(theirs == r.secret, || {
            format!("session with peer {}: shared secrets differ", r.peer)
        });
    }
    win
}

fn client(
    fx: &Fixture,
    id: u64,
    deadline: Instant,
    done: &AtomicUsize,
    min_sessions: usize,
    traced: bool,
) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(fx.seed.wrapping_add(0x9E37_79B9 * (id + 1)));
    let mut log = ClientLog::default();
    // `done` is a statistic only: it publishes no other data.
    while Instant::now() < deadline || done.load(Ordering::Relaxed) < min_sessions {
        let t = Instant::now();
        {
            let _span = mpise_obs::span("perfbench.session");
            session(fx, &mut rng, &mut log);
        }
        log.latencies_ms.push(ms_since(t));
        log.sessions += 1;
        done.fetch_add(1, Ordering::Relaxed);
    }
    if traced {
        log.spans = mpise_obs::take_spans()
            .child("perfbench.session")
            .map_or(0, |n| n.count);
    }
    log
}

fn session(fx: &Fixture, rng: &mut StdRng, log: &mut ClientLog) {
    let engine = &fx.engine;
    let ordinary = rng.gen_range(0..ORDINARY_EVERY) == 0;
    let (peer, key) = if ordinary {
        (None, fx.ordinary[rng.gen_range(0..fx.ordinary.len())])
    } else {
        let i = rng.gen_range(0..fx.peers.len());
        (Some(i), fx.peers[i].public)
    };
    let rep = &mut log.report;
    let keygen = engine.submit(
        rng.gen(),
        Request::Keygen {
            bound: crate::sim_action::BOUND,
        },
        None,
    );
    let validate = engine.submit(rng.gen(), Request::ValidatePublicKey { key }, None);
    let verdict = match validate.map(|t| t.wait()) {
        Ok(Ok(Outcome::Validated(v))) => {
            rep.op(if v == peer.is_some() {
                Ok(())
            } else {
                Err(format!(
                    "validate returned {v} for a key of known validity {}",
                    !v
                ))
            });
            v
        }
        other => {
            rep.op(Err(format!("validate: {other:?}")));
            false
        }
    };
    let ours = match keygen.map(|t| t.wait()) {
        Ok(Ok(Outcome::Keypair { private, public })) => {
            rep.op(Ok(()));
            Some((private, public))
        }
        other => {
            rep.op(Err(format!("keygen: {other:?}")));
            None
        }
    };
    let (Some(i), true, Some((private, public))) = (peer, verdict, ours) else {
        return;
    };
    let request = Request::DeriveSharedSecret {
        private,
        their_public: fx.peers[i].public,
    };
    match engine.submit(rng.gen(), request, None).map(|t| t.wait()) {
        Ok(Ok(Outcome::SharedSecret(secret))) => {
            rep.op(Ok(()));
            if log.sessions.is_multiple_of(RECHECK_EVERY) {
                log.rechecks.push(Recheck {
                    peer: i,
                    ours: public,
                    secret,
                });
            }
        }
        other => rep.op(Err(format!("derive: {other:?}"))),
    }
}

/// Drains the engine.
pub fn finish(fx: Fixture) {
    fx.engine.shutdown();
}

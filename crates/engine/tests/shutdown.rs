//! Queue-shutdown edge cases: graceful drain, post-shutdown
//! submissions, cancellation, and idempotence.

use mpise_csidh::PublicKey;
use mpise_engine::{Engine, EngineConfig, EngineError, Outcome, Request};
use mpise_fp::FpFull;
use mpise_mpi::U512;

/// A = 2 is singular, so validation rejects it before any field
/// arithmetic — near-instant even in debug builds.
fn bogus_key() -> PublicKey {
    PublicKey {
        a: U512::from_u64(2),
    }
}

#[test]
fn submit_after_shutdown_returns_error_without_panicking() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );
    engine.shutdown();
    assert!(engine.is_shut_down());

    let req = Request::ValidatePublicKey { key: bogus_key() };
    assert_eq!(
        engine.submit(1, req, None).map(|_| ()),
        Err(EngineError::ShutDown)
    );
    assert_eq!(
        engine.try_submit(2, req, None).map(|_| ()),
        Err(EngineError::ShutDown)
    );

    let stats = engine.stats();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.rejected, 2);
}

#[test]
fn inflight_requests_complete_during_drain() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );

    // One slow request (a genuine supersingular validation) keeps the
    // single worker busy while four cheap ones queue up behind it.
    let mut tickets = vec![engine
        .submit(
            0,
            Request::ValidatePublicKey {
                key: PublicKey::BASE,
            },
            None,
        )
        .unwrap()];
    for seed in 1..5 {
        tickets.push(
            engine
                .submit(seed, Request::ValidatePublicKey { key: bogus_key() }, None)
                .unwrap(),
        );
    }

    // Close-then-drain: shutdown refuses new work but every accepted
    // request must still be answered.
    engine.shutdown();

    let mut verdicts = Vec::new();
    for ticket in tickets {
        match ticket.wait() {
            Ok(Outcome::Validated(v)) => verdicts.push(v),
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    assert_eq!(verdicts, vec![true, false, false, false, false]);

    let stats = engine.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.queue_depth, 0, "drain leaves nothing queued");
}

#[test]
fn cancelled_ticket_is_refused_at_claim_time() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );

    // Occupy the worker with a slow validation, then cancel a queued
    // request before the worker can claim it.
    let busy = engine
        .submit(
            0,
            Request::ValidatePublicKey {
                key: PublicKey::BASE,
            },
            None,
        )
        .unwrap();
    let doomed = engine
        .submit(1, Request::ValidatePublicKey { key: bogus_key() }, None)
        .unwrap();
    doomed.cancel();

    assert_eq!(busy.wait(), Ok(Outcome::Validated(true)));
    assert_eq!(doomed.wait(), Err(EngineError::Cancelled));
    assert_eq!(engine.stats().cancelled, 1);
    engine.shutdown();
}

#[test]
fn shutdown_is_idempotent() {
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        FpFull::new,
    );
    engine.shutdown();
    engine.shutdown();
    assert!(engine.is_shut_down());
    // Drop runs shutdown a third time; it must not panic or hang.
}

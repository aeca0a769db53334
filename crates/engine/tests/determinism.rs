//! Engine determinism: two loadgen passes with the same seed must
//! produce byte-identical result payloads, regardless of worker count
//! or scheduling.

use mpise_csidh::{PrivateKey, PublicKey};
use mpise_engine::loadgen::{run_pass, Fixtures, LoadgenOptions};
use mpise_fp::params::NUM_PRIMES;
use mpise_mpi::U512;

/// Debug-speed fixtures: the base curve is a genuine supersingular
/// validation target, `a = 1` an ordinary reject, and a zero exponent
/// vector makes derivations the identity action (no isogenies).
fn fixtures() -> Fixtures {
    Fixtures {
        valid1: PublicKey::BASE,
        valid2: PublicKey::BASE,
        bogus: PublicKey { a: U512::ONE },
        sparse: PrivateKey {
            exponents: [0; NUM_PRIMES],
        },
    }
}

fn options() -> LoadgenOptions {
    LoadgenOptions {
        workers: 2,
        clients: 2,
        requests_per_client: 2,
        seed: 0xD00D,
        smoke: true,
        ..Default::default()
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let opts = options();
    let fixtures = fixtures();
    let first = run_pass(opts.workers, &opts, &fixtures);
    let second = run_pass(opts.workers, &opts, &fixtures);
    assert_eq!(first.errors, 0);
    assert_eq!(second.errors, 0);
    assert!(!first.payloads.is_empty(), "mix produced result payloads");
    assert_eq!(
        first.payloads, second.payloads,
        "same seed, same payload bytes"
    );
}

#[test]
fn worker_count_does_not_change_payloads() {
    let opts = options();
    let fixtures = fixtures();
    let single = run_pass(1, &opts, &fixtures);
    let multi = run_pass(opts.workers, &opts, &fixtures);
    assert_eq!(
        single.payloads, multi.payloads,
        "payloads depend only on (seed, request), never on scheduling"
    );
}

#[test]
fn different_seeds_change_the_request_stream() {
    let fixtures = fixtures();
    let opts_a = options();
    let opts_b = LoadgenOptions {
        seed: 0xBEEF,
        ..options()
    };
    let a = run_pass(1, &opts_a, &fixtures);
    let b = run_pass(1, &opts_b, &fixtures);
    // With every fixture pointing at only two distinct keys the
    // payloads can coincide, but the per-request seeds cannot: the
    // plan stream itself must differ.
    use mpise_engine::loadgen::plan_request;
    let seeds_a: Vec<u64> = (0..4)
        .map(|i| plan_request(opts_a.seed, 0, i, &fixtures, true).0)
        .collect();
    let seeds_b: Vec<u64> = (0..4)
        .map(|i| plan_request(opts_b.seed, 0, i, &fixtures, true).0)
        .collect();
    assert_ne!(seeds_a, seeds_b, "seed streams diverge");
    assert_eq!(a.errors + b.errors, 0);
}

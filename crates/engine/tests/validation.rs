//! Engine validation verdicts: every `ValidatePublicKey` answer must be
//! the verdict of a direct `mpise_csidh::validate` call seeded with the
//! request's seed, and must match the key's known validity.

use mpise_csidh::{validate, CsidhKeypair, PublicKey};
use mpise_engine::{Engine, EngineConfig, Outcome, Request};
use mpise_fp::{Csidh512, FpFull};
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniform residue `A ∉ {±2}`: an ordinary curve except with
/// negligible probability.
fn random_ordinary(rng: &mut StdRng) -> PublicKey {
    let p = Csidh512::get().p;
    let two = U512::from_u64(2);
    loop {
        let a = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if a < p && a != two && a != p.wrapping_sub(&two) {
            return PublicKey { a };
        }
    }
}

/// `(key, is_valid)` pairs covering accepts, ordinary rejects and the
/// keys refused before any field arithmetic.
fn cases() -> Vec<(PublicKey, bool)> {
    let f = FpFull::new();
    let mut rng = StdRng::seed_from_u64(0x7A11D);
    let p = Csidh512::get().p;
    let derived = CsidhKeypair::generate_with_bound(&f, &mut rng, 1).public;
    let mut cases = vec![(PublicKey::BASE, true), (derived, true)];
    cases.extend((0..16).map(|_| (random_ordinary(&mut rng), false)));
    cases.extend(
        [
            U512::from_u64(2),
            p.wrapping_sub(&U512::from_u64(2)),
            p,
            U512::ONE.shl(511),
        ]
        .map(|a| (PublicKey { a }, false)),
    );
    cases
}

#[test]
fn engine_verdicts_equal_direct_validation() {
    let cases = cases();
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        FpFull::new,
    );
    let tickets: Vec<_> = cases
        .iter()
        .enumerate()
        .map(|(i, &(key, _))| {
            let seed = 1000 + i as u64;
            let ticket = engine
                .submit(seed, Request::ValidatePublicKey { key }, None)
                .unwrap();
            (seed, ticket)
        })
        .collect();

    let f = FpFull::new();
    for ((seed, ticket), &(key, valid)) in tickets.into_iter().zip(&cases) {
        let direct = validate(&f, &mut StdRng::seed_from_u64(seed), &key);
        assert_eq!(
            ticket.wait().unwrap(),
            Outcome::Validated(direct),
            "engine and direct verdicts differ for A = {}",
            key.a
        );
        assert_eq!(direct, valid, "wrong verdict for A = {}", key.a);
    }
    engine.shutdown();
    assert_eq!(engine.stats().validate, cases.len() as u64);
}

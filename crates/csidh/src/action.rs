//! The CSIDH class group action, key exchange and validation.
//!
//! This is the original (Castryck–Lange–Martindale–Panny–Renes)
//! variable-time evaluation strategy, as in the authors' reference
//! software: sample a random x-coordinate, decide by a Legendre symbol
//! whether it lies on the curve or its twist, clear the cofactor, and
//! walk one ℓᵢ-isogeny per still-pending exponent of the matching
//! sign. The *field arithmetic* underneath is constant-time (§4); the
//! group action itself is randomized, exactly like the paper's
//! measured workload.

use crate::isogeny::isogeny;
use crate::mont::{is_infinity, normalize, rhs, xmul, Curve, Point};
use crate::scalar;
use mpise_fp::params::{Csidh512, NUM_PRIMES, PRIMES};
use mpise_fp::Fp;
use mpise_mpi::U512;
use rand::Rng;

/// The CSIDH-512 exponent bound: private exponents lie in `[-5, 5]`.
pub const EXPONENT_BOUND: i8 = 5;

/// A CSIDH-512 private key: one small exponent per prime `ℓᵢ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey {
    /// Exponents `eᵢ ∈ [-bound, bound]`.
    pub exponents: [i8; NUM_PRIMES],
}

/// A CSIDH-512 public key: the affine Montgomery coefficient `A` of a
/// supersingular curve (64 bytes — "extremely short keys", §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    /// The canonical coefficient in `[0, p − 1]`.
    pub a: U512,
}

impl PublicKey {
    /// The starting curve `E₀ : y² = x³ + x`.
    pub const BASE: PublicKey = PublicKey { a: U512::ZERO };

    /// Serializes to the 64-byte little-endian wire format.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.a.to_le_bytes().try_into().expect("64 bytes")
    }

    /// Parses the 64-byte wire format.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a canonical residue.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Self, String> {
        let a = U512::from_le_bytes(bytes)?;
        if a >= Csidh512::get().p {
            return Err("public key is not a canonical residue".to_owned());
        }
        Ok(PublicKey { a })
    }
}

impl PrivateKey {
    /// Samples a private key with exponents uniform in
    /// `[-EXPONENT_BOUND, EXPONENT_BOUND]`.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        Self::random_with_bound(rng, EXPONENT_BOUND)
    }

    /// Samples with a custom bound (small bounds make tests fast).
    pub fn random_with_bound<R: Rng>(rng: &mut R, bound: i8) -> Self {
        PrivateKey {
            exponents: std::array::from_fn(|_| rng.gen_range(-bound..=bound)),
        }
    }

    /// Derives the public key: the action of this ideal class on `E₀`.
    pub fn public_key<F: Fp, R: Rng>(&self, f: &F, rng: &mut R) -> PublicKey {
        group_action(f, rng, &PublicKey::BASE, self)
    }

    /// Derives the shared secret with a peer's public key.
    pub fn shared_secret<F: Fp, R: Rng>(
        &self,
        f: &F,
        rng: &mut R,
        their_public: &PublicKey,
    ) -> PublicKey {
        group_action(f, rng, their_public, self)
    }
}

/// A key pair.
#[derive(Debug, Clone, Copy)]
pub struct CsidhKeypair {
    /// The secret exponent vector.
    pub private: PrivateKey,
    /// The corresponding curve.
    pub public: PublicKey,
}

impl CsidhKeypair {
    /// Generates a CSIDH-512 key pair.
    pub fn generate<F: Fp, R: Rng>(f: &F, rng: &mut R) -> Self {
        let private = PrivateKey::random(rng);
        let public = private.public_key(f, rng);
        CsidhKeypair { private, public }
    }

    /// Generates with a custom exponent bound (for fast tests).
    pub fn generate_with_bound<F: Fp, R: Rng>(f: &F, rng: &mut R, bound: i8) -> Self {
        let private = PrivateKey::random_with_bound(rng, bound);
        let public = private.public_key(f, rng);
        CsidhKeypair { private, public }
    }
}

/// Samples a uniform field element (rejection from 512-bit strings).
fn random_fp<F: Fp, R: Rng>(f: &F, rng: &mut R) -> F::Elem {
    let p = &Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if cand < *p {
            return f.from_uint(&cand);
        }
    }
}

/// Evaluates the class group action `[𝔩₁^{e₁}⋯𝔩₇₄^{e₇₄}] ⋆ E_A`.
///
/// This is the operation whose cycle count dominates CSIDH (Table 4's
/// last row). The evaluation strategy matches the reference software:
/// per round, one random point serves every still-pending prime whose
/// exponent sign matches the point's curve/twist side.
pub fn group_action<F: Fp, R: Rng>(
    f: &F,
    rng: &mut R,
    start: &PublicKey,
    key: &PrivateKey,
) -> PublicKey {
    let _span = mpise_obs::span("csidh.action");
    let mut e = key.exponents;
    let mut curve = Curve::from_affine(f, f.from_uint(&start.a));

    while e.iter().any(|&x| x != 0) {
        // Sample a point and learn its side (curve vs. twist).
        let (x, sign, todo) = {
            let _s = mpise_obs::span("csidh.sample");
            let x = random_fp(f, rng);
            let r = rhs(f, &curve, &x);
            let s = f.legendre(&r);
            if s == 0 {
                continue;
            }
            let sign: i8 = if s == 1 { 1 } else { -1 };
            let todo: Vec<usize> = (0..NUM_PRIMES)
                .filter(|&i| (e[i] > 0 && sign == 1) || (e[i] < 0 && sign == -1))
                .collect();
            if todo.is_empty() {
                continue;
            }
            (x, sign, todo)
        };

        // Clear the cofactor: P has order dividing ∏_{i∈todo} ℓᵢ.
        let mut point = {
            let _s = mpise_obs::span("csidh.cofactor");
            let clear = scalar::four_times_product((0..NUM_PRIMES).filter(|i| !todo.contains(i)));
            let point = xmul(f, &curve, &Point { x, z: f.one() }, &clear);
            if is_infinity(f, &point) {
                continue;
            }
            point
        };

        // One ℓᵢ-isogeny per selected prime, largest first (walking the
        // big primes early keeps the remaining cofactor ladders short).
        {
            let _s = mpise_obs::span("csidh.isogeny");
            let mut remaining = todo.clone();
            for idx in (0..todo.len()).rev() {
                let i = todo[idx];
                let cof = scalar::product(remaining.iter().copied().filter(|&j| j != i));
                let kernel = xmul(f, &curve, &point, &cof);
                if !is_infinity(f, &kernel) {
                    let (new_curve, new_point) = isogeny(f, &curve, &point, &kernel, PRIMES[i]);
                    curve = new_curve;
                    point = new_point;
                    e[i] -= sign;
                }
                remaining.retain(|&j| j != i);
                if is_infinity(f, &point) {
                    break;
                }
            }
        }

        // Normalize to affine A (one inversion per round, as in the
        // reference code) so the next round's Legendre test is direct.
        let _s = mpise_obs::span("csidh.normalize");
        let a_affine = normalize(f, &curve);
        curve = Curve::from_affine(f, a_affine);
    }

    PublicKey {
        a: f.to_uint(&curve.a),
    }
}

/// Verifies that a public key is a supersingular Montgomery curve
/// (§2's implicit requirement; the reference software ships the same
/// check).
///
/// Finds a point of provably large order dividing `p + 1`: if a point
/// of order `d > 4√p` with `d | p + 1` exists, the group order is
/// exactly `p + 1` (Hasse), hence the curve is supersingular.
pub fn validate<F: Fp, R: Rng>(f: &F, rng: &mut R, key: &PublicKey) -> bool {
    let _span = mpise_obs::span("csidh.validate");
    let c = Csidh512::get();
    if key.a >= c.p {
        return false;
    }
    // A = ±2 gives a singular curve.
    let two = U512::from_u64(2);
    if key.a == two || key.a == c.p.wrapping_sub(&two) {
        return false;
    }
    let curve = Curve::from_affine(f, f.from_uint(&key.a));

    for _attempt in 0..3 {
        let x = random_fp(f, rng);
        let pt = Point { x, z: f.one() };
        // Clear the factor 4 once.
        let q4 = xmul(f, &curve, &pt, &U512::from_u64(4));
        if is_infinity(f, &q4) {
            continue;
        }
        // Accumulate proven order d.
        let mut proven = U512::ONE;
        for i in 0..NUM_PRIMES {
            let cof = scalar::product((0..NUM_PRIMES).filter(|&j| j != i));
            let q = xmul(f, &curve, &q4, &cof);
            if !is_infinity(f, &q) {
                // q must have order exactly ℓᵢ if the curve is
                // supersingular; otherwise the structure is wrong.
                if !is_infinity(f, &xmul(f, &curve, &q, &U512::from_u64(PRIMES[i]))) {
                    return false;
                }
                proven = scalar::mul_u64(&proven, PRIMES[i]);
                // d > 4√p once d ≥ 2^259 (p < 2^511 ⇒ 4√p < 2^257.5).
                if proven.bit_length() >= 259 {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_fp::{CountingFp, FpFull, FpRed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_action_is_identity() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(1);
        let key = PrivateKey {
            exponents: [0; NUM_PRIMES],
        };
        let out = group_action(&f, &mut rng, &PublicKey::BASE, &key);
        assert_eq!(out, PublicKey::BASE);
    }

    fn sparse_key(pairs: &[(usize, i8)]) -> PrivateKey {
        let mut exponents = [0i8; NUM_PRIMES];
        for &(i, e) in pairs {
            exponents[i] = e;
        }
        PrivateKey { exponents }
    }

    #[test]
    fn action_and_inverse_cancel() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(2);
        let key = sparse_key(&[(0, 1), (3, -2), (73, 1)]);
        let inv = PrivateKey {
            exponents: std::array::from_fn(|i| -key.exponents[i]),
        };
        let mid = group_action(&f, &mut rng, &PublicKey::BASE, &key);
        assert_ne!(mid, PublicKey::BASE);
        let back = group_action(&f, &mut rng, &mid, &inv);
        assert_eq!(back, PublicKey::BASE);
    }

    #[test]
    fn action_is_commutative() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(3);
        let k1 = sparse_key(&[(1, 1), (10, -1)]);
        let k2 = sparse_key(&[(5, -1), (20, 1)]);
        let e1 = group_action(&f, &mut rng, &PublicKey::BASE, &k1);
        let a12 = group_action(&f, &mut rng, &e1, &k2);
        let e2 = group_action(&f, &mut rng, &PublicKey::BASE, &k2);
        let a21 = group_action(&f, &mut rng, &e2, &k1);
        assert_eq!(a12, a21, "group action must be commutative");
    }

    #[test]
    fn action_is_deterministic_in_the_key() {
        // Different randomness, same key => same curve.
        let f = FpFull::new();
        let key = sparse_key(&[(2, 2), (30, -1)]);
        let mut rng1 = StdRng::seed_from_u64(100);
        let mut rng2 = StdRng::seed_from_u64(200);
        let a = group_action(&f, &mut rng1, &PublicKey::BASE, &key);
        let b = group_action(&f, &mut rng2, &PublicKey::BASE, &key);
        assert_eq!(a, b);
    }

    #[test]
    fn backends_agree_on_the_action() {
        let key = sparse_key(&[(0, -1), (40, 1), (73, -1)]);
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a_full = group_action(&FpFull::new(), &mut rng1, &PublicKey::BASE, &key);
        let a_red = group_action(&FpRed::new(), &mut rng2, &PublicKey::BASE, &key);
        assert_eq!(a_full, a_red);
    }

    #[test]
    fn key_exchange_small_bound() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(11);
        let alice = CsidhKeypair::generate_with_bound(&f, &mut rng, 1);
        let bob = CsidhKeypair::generate_with_bound(&f, &mut rng, 1);
        let s1 = alice.private.shared_secret(&f, &mut rng, &bob.public);
        let s2 = bob.private.shared_secret(&f, &mut rng, &alice.public);
        assert_eq!(s1, s2);
        assert_ne!(alice.public, bob.public);
    }

    #[test]
    fn validate_accepts_base_and_derived_curves() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(13);
        assert!(validate(&f, &mut rng, &PublicKey::BASE));
        let key = sparse_key(&[(0, 1), (7, -1)]);
        let pk = group_action(&f, &mut rng, &PublicKey::BASE, &key);
        assert!(validate(&f, &mut rng, &pk));
    }

    #[test]
    fn validate_rejects_garbage() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(17);
        // A = 1 is an ordinary (or at least non-CSIDH) curve with
        // overwhelming probability; the order test must fail.
        let bogus = PublicKey { a: U512::ONE };
        assert!(!validate(&f, &mut rng, &bogus));
        // Singular curves rejected outright.
        assert!(!validate(
            &f,
            &mut rng,
            &PublicKey {
                a: U512::from_u64(2)
            }
        ));
        // Non-canonical rejected.
        assert!(!validate(
            &f,
            &mut rng,
            &PublicKey {
                a: Csidh512::get().p
            }
        ));
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let pk = PublicKey {
            a: U512::from_u64(0x1234_5678),
        };
        let b = pk.to_bytes();
        assert_eq!(PublicKey::from_bytes(&b).unwrap(), pk);
        let bad = [0xffu8; 64];
        assert!(PublicKey::from_bytes(&bad).is_err());
    }

    #[test]
    fn action_emits_phase_spans() {
        mpise_obs::set_enabled(true);
        let _ = mpise_obs::take_spans(); // drop anything stale on this thread
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(31);
        let key = sparse_key(&[(0, 1), (5, -1)]);
        let _ = group_action(&f, &mut rng, &PublicKey::BASE, &key);
        mpise_obs::set_enabled(false);
        let tree = mpise_obs::take_spans();
        let action = tree.child("csidh.action").expect("action span recorded");
        for phase in [
            "csidh.sample",
            "csidh.cofactor",
            "csidh.isogeny",
            "csidh.normalize",
        ] {
            assert!(action.child(phase).is_some(), "missing phase span {phase}");
        }
    }

    #[test]
    fn op_counts_scale_with_exponents() {
        let f = CountingFp::new(FpFull::new());
        let mut rng = StdRng::seed_from_u64(23);
        let small = sparse_key(&[(0, 1)]);
        let _ = group_action(&f, &mut rng, &PublicKey::BASE, &small);
        let c_small = f.counts().total();
        f.reset();
        let big = sparse_key(&[(0, 1), (10, 2), (20, -2), (73, 1)]);
        let _ = group_action(&f, &mut rng, &PublicKey::BASE, &big);
        let c_big = f.counts().total();
        assert!(c_big > c_small, "{c_big} <= {c_small}");
    }
}

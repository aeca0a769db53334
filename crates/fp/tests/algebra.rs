//! Algebraic property tests for the host field backends.
//!
//! Three oracle-independent families:
//!
//! * **inverse laws** — `(a + b) − b = a`, `a + (−a) = 0`, `a − a = 0`
//!   on seeded random elements, both radices;
//! * **schoolbook cross-check** — Montgomery `mul`/`sqr` round-trips
//!   (import → multiply → export) must match a plain `u128`
//!   schoolbook product reduced mod `p`, a path that shares no code
//!   with the Montgomery contexts;
//! * **radix equality** — the full-radix and reduced-radix backends
//!   must agree, byte for byte, on 10 000 seeded random elements per
//!   radix-pair operation;
//! * **reduction edges** — both Montgomery contexts' `redc` on the
//!   products that stress its carries (`0`, `(p − 1)²` and
//!   `p·R − 1`, the largest valid input), and `sqr(a) = mul(a, a)` at
//!   `0`, `1`, `p − 1` and `R mod p`, checked against [`RefInt`].

use mpise_fp::params::Csidh512;
use mpise_fp::{Fp, FpFull, FpRed};
use mpise_mpi::reduced::MASK;
use mpise_mpi::reference::RefInt;
use mpise_mpi::{Reduced, Uint, U512};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_residue(rng: &mut StdRng) -> U512 {
    let p = Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if cand < p {
            return cand;
        }
    }
}

/// Schoolbook `a · b mod p` built from `u128` partial products — no
/// Montgomery arithmetic, no mpi multiply routines.
fn schoolbook_mulmod(a: &U512, b: &U512) -> U512 {
    let (al, bl) = (a.limbs(), b.limbs());
    let mut t = [0u64; 16];
    for i in 0..8 {
        let mut carry: u128 = 0;
        for j in 0..8 {
            let acc = t[i + j] as u128 + (al[i] as u128) * (bl[j] as u128) + carry;
            t[i + j] = acc as u64;
            carry = acc >> 64;
        }
        t[i + 8] = carry as u64;
    }
    let p = RefInt::from_limbs(Csidh512::get().p.limbs());
    let r = RefInt::from_limbs(&t).rem(&p);
    U512::from_limbs(r.to_limbs(8).try_into().expect("8 limbs"))
}

fn check_inverse_laws<F: Fp>(f: &F, seed: u64, iters: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let av = random_residue(&mut rng);
        let bv = random_residue(&mut rng);
        let a = f.from_uint(&av);
        let b = f.from_uint(&bv);
        // (a + b) − b = a
        assert_eq!(f.to_uint(&f.sub(&f.add(&a, &b), &b)), av);
        // a + (−a) = 0 and a − a = 0
        assert!(f.is_zero(&f.add(&a, &f.neg(&a))));
        assert!(f.is_zero(&f.sub(&a, &a)));
        // subtraction is addition of the negation
        assert_eq!(f.to_uint(&f.sub(&a, &b)), f.to_uint(&f.add(&a, &f.neg(&b))));
    }
}

#[test]
fn add_sub_inverse_laws_full_radix() {
    check_inverse_laws(&FpFull::new(), 0xA15E, 2_000);
}

#[test]
fn add_sub_inverse_laws_reduced_radix() {
    check_inverse_laws(&FpRed::new(), 0xA15E, 2_000);
}

fn check_schoolbook<F: Fp>(f: &F, seed: u64, iters: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let av = random_residue(&mut rng);
        let bv = random_residue(&mut rng);
        let a = f.from_uint(&av);
        let b = f.from_uint(&bv);
        // import → Montgomery multiply → export == schoolbook mod p
        assert_eq!(f.to_uint(&f.mul(&a, &b)), schoolbook_mulmod(&av, &bv));
        assert_eq!(f.to_uint(&f.sqr(&a)), schoolbook_mulmod(&av, &av));
    }
    // Edges: 0, 1, p−1 in every combination.
    let p = Csidh512::get().p;
    let edges = [U512::ZERO, U512::ONE, p.wrapping_sub(&U512::ONE)];
    for x in &edges {
        for y in &edges {
            let (a, b) = (f.from_uint(x), f.from_uint(y));
            assert_eq!(f.to_uint(&f.mul(&a, &b)), schoolbook_mulmod(x, y));
        }
    }
}

#[test]
fn montgomery_mul_matches_u128_schoolbook_full_radix() {
    check_schoolbook(&FpFull::new(), 0x5C00, 1_000);
}

#[test]
fn montgomery_mul_matches_u128_schoolbook_reduced_radix() {
    check_schoolbook(&FpRed::new(), 0x5C00, 1_000);
}

#[test]
fn full_and_reduced_radix_agree_on_10k_seeded_elements() {
    let full = FpFull::new();
    let red = FpRed::new();
    let mut rng = StdRng::seed_from_u64(0xE0_0A11);
    let mut prev = random_residue(&mut rng);
    for i in 0..10_000usize {
        let cur = random_residue(&mut rng);
        let (fa, fb) = (full.from_uint(&prev), full.from_uint(&cur));
        let (ra, rb) = (red.from_uint(&prev), red.from_uint(&cur));
        // One binary and one unary op per element keeps 10k affordable
        // while covering the whole op set over the run.
        let (gf, gr) = match i % 4 {
            0 => (full.add(&fa, &fb), red.add(&ra, &rb)),
            1 => (full.sub(&fa, &fb), red.sub(&ra, &rb)),
            2 => (full.mul(&fa, &fb), red.mul(&ra, &rb)),
            _ => (full.sqr(&fa), red.sqr(&ra)),
        };
        assert_eq!(
            full.to_uint(&gf).to_le_bytes(),
            red.to_uint(&gr).to_le_bytes(),
            "radix disagreement on element {i}"
        );
        prev = cur;
    }
}

/// `R = 2^(64·8)` for the full radix, `2^(57·9)` for the reduced one.
const R_BITS_FULL: usize = 512;
const R_BITS_RED: usize = 513;

fn ref_p() -> RefInt {
    RefInt::from_limbs(Csidh512::get().p.limbs())
}

/// The value of little-endian limbs of `bits` bits each.
fn ref_from_radix(limbs: &[u64], bits: usize) -> RefInt {
    limbs.iter().rev().fold(RefInt::zero(), |acc, &l| {
        acc.shl(bits).add(&RefInt::from_u64(l))
    })
}

/// `r` is `t·R^{-1} mod p` iff `r < p` and `r·R ≡ t (mod p)`.
fn assert_is_redc(r: &U512, t: &RefInt, r_bits: usize) {
    let p = ref_p();
    assert!(*r < Csidh512::get().p, "redc result {r} is not below p");
    assert_eq!(RefInt::from_limbs(r.limbs()).shl(r_bits).rem(&p), t.rem(&p));
}

fn full_redc_case(t: &RefInt) {
    let limbs = t.to_limbs(16);
    let lo = U512::from_limbs(limbs[..8].try_into().expect("8 limbs"));
    let hi = U512::from_limbs(limbs[8..].try_into().expect("8 limbs"));
    assert_is_redc(&Csidh512::get().mont.redc(&lo, &hi), t, R_BITS_FULL);
}

fn red_redc_case(t57: &[u64; 18]) {
    let r = Csidh512::get().mont57.redc(t57);
    assert!(r.is_canonical());
    assert_is_redc(&r.to_uint(), &ref_from_radix(t57, 57), R_BITS_RED);
}

/// 18 canonical 57-bit limbs of `t < 2^1026`.
fn to_radix57(t: &RefInt) -> [u64; 18] {
    let full = Uint::<16>::from_limbs(t.to_limbs(16).try_into().expect("16 limbs"));
    *Reduced::<18>::from_uint(&full).limbs()
}

#[test]
fn full_radix_redc_carry_edges() {
    let p = ref_p();
    let pm1 = p.sub(&RefInt::one());
    full_redc_case(&RefInt::zero());
    full_redc_case(&pm1.mul(&pm1));
    // t_hi = p − 1, t_lo = 2^512 − 1: t = p·R − 1.
    let t = p.shl(R_BITS_FULL).sub(&RefInt::one());
    assert_eq!(&t.to_limbs(16)[..8], &[u64::MAX; 8]);
    full_redc_case(&t);
}

#[test]
fn reduced_radix_redc_carry_edges() {
    let p = ref_p();
    let pm1 = p.sub(&RefInt::one());
    red_redc_case(&[0; 18]);
    red_redc_case(&to_radix57(&pm1.mul(&pm1)));
    // t_hi = p − 1, t_lo = 2^513 − 1 (every low limb 2^57 − 1).
    let mut t = [MASK; 18];
    t[9..].copy_from_slice(
        Reduced::<9>::from_uint(&Csidh512::get().p.wrapping_sub(&U512::ONE)).limbs(),
    );
    assert_eq!(
        ref_from_radix(&t, 57),
        p.shl(R_BITS_RED).sub(&RefInt::one())
    );
    red_redc_case(&t);
}

#[test]
fn sqr_equals_mul_self_at_edges() {
    let c = Csidh512::get();
    let pm1 = c.p.wrapping_sub(&U512::ONE);
    for a in [U512::ZERO, U512::ONE, pm1, *c.mont.one()] {
        let s = c.mont.sqr(&a);
        assert_eq!(s, c.mont.mul(&a, &a), "full radix, a = {a}");
        let ra = RefInt::from_limbs(a.limbs());
        assert_is_redc(&s, &ra.mul(&ra), R_BITS_FULL);
    }
    let red_pm1 = Reduced::from_uint(&pm1);
    for a in [Reduced::ZERO, Reduced::ONE, red_pm1, *c.mont57.one()] {
        let s = c.mont57.sqr(&a);
        assert_eq!(s, c.mont57.mul(&a, &a), "reduced radix, a = {a:?}");
        let ra = ref_from_radix(a.limbs(), 57);
        assert_is_redc(&s.to_uint(), &ra.mul(&ra), R_BITS_RED);
    }
}

//! Montgomery reduction and multiplication for the full-radix
//! representation (§3, "we implemented this operation through
//! Montgomery multiplication, which is a common choice for moduli that
//! do not have a special form").
//!
//! [`MontCtx::mul`] is the integrated (CIOS) form and the only host
//! Montgomery multiplication; [`MontCtx::sqr`] is `mul(a, a)`. The
//! separated form, product scanning followed by [`MontCtx::redc`],
//! stays reachable as `redc(mul_ps(a, b))` for the §3.1 comparison and
//! the per-layer benchmarks. Every routine here works on fixed-size
//! stack arrays, never allocates, and has no branch or loop bound that
//! depends on the operands.

use crate::fast::{fast_reduce_swap, mod_add};
use crate::uint::Uint;
use std::fmt;

/// Error returned by [`MontCtx::new`] for unusable moduli.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MontError {
    /// The modulus is even (Montgomery arithmetic needs `gcd(p, 2) = 1`).
    EvenModulus,
    /// The modulus uses the top bit of the top digit, which this
    /// implementation reserves so that `a + b` of two residues cannot
    /// overflow (fast-reduction requirement).
    TopBitSet,
    /// The modulus is zero or one.
    TooSmall,
}

impl fmt::Display for MontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MontError::EvenModulus => write!(f, "modulus must be odd"),
            MontError::TopBitSet => write!(f, "modulus must leave the top bit free"),
            MontError::TooSmall => write!(f, "modulus must be at least 2"),
        }
    }
}

impl std::error::Error for MontError {}

/// Precomputed Montgomery context for an odd modulus `p` with
/// `R = 2^(64·L)`.
///
/// Residues handled by this context are always kept in canonical form
/// `[0, p − 1]`.
///
/// # Examples
///
/// ```
/// use mpise_mpi::{MontCtx, Uint};
/// let p = Uint::<4>::from_u64(1000003);
/// let ctx = MontCtx::new(p).unwrap();
/// let a = ctx.to_mont(&Uint::from_u64(12345));
/// let b = ctx.to_mont(&Uint::from_u64(67890));
/// let c = ctx.mul(&a, &b);
/// assert_eq!(ctx.from_mont(&c), Uint::from_u64(12345 * 67890 % 1000003));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontCtx<const L: usize> {
    p: Uint<L>,
    p_inv: u64,
    r: Uint<L>,
    r2: Uint<L>,
}

/// Computes `-m^{-1} mod 2^64` for odd `m` by Newton iteration
/// (5 steps double the precision from 5 to 64+ bits).
pub fn neg_inv_u64(m: u64) -> u64 {
    debug_assert!(m & 1 == 1, "inverse needs an odd modulus");
    let mut inv = m; // correct to 5 bits (for odd m: m*m ≡ 1 mod 8... seed is fine)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    debug_assert_eq!(m.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

impl<const L: usize> MontCtx<L> {
    /// Builds a context for the odd modulus `p`.
    ///
    /// # Errors
    ///
    /// See [`MontError`].
    pub fn new(p: Uint<L>) -> Result<Self, MontError> {
        if !p.is_odd() {
            return Err(MontError::EvenModulus);
        }
        if p.bit(64 * L - 1) == 1 {
            return Err(MontError::TopBitSet);
        }
        if p <= Uint::ONE {
            return Err(MontError::TooSmall);
        }
        let p_inv = neg_inv_u64(p.limb(0));
        // r = 2^(64L) mod p by 64L modular doublings of 1;
        // r2 = 2^(128L) mod p by 64L more.
        let mut v = Uint::ONE;
        for _ in 0..64 * L {
            v = mod_add(&v, &v, &p);
        }
        let r = v;
        for _ in 0..64 * L {
            v = mod_add(&v, &v, &p);
        }
        let r2 = v;
        Ok(MontCtx { p, p_inv, r, r2 })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint<L> {
        &self.p
    }

    /// `-p^{-1} mod 2^64` — the per-digit reduction constant.
    pub fn p_inv(&self) -> u64 {
        self.p_inv
    }

    /// `R mod p`, i.e. the Montgomery form of 1.
    pub fn one(&self) -> &Uint<L> {
        &self.r
    }

    /// `R² mod p`, the to-Montgomery conversion constant.
    pub fn r2(&self) -> &Uint<L> {
        &self.r2
    }

    /// Montgomery reduction: given `t = t_hi·2^(64L) + t_lo < p·R`,
    /// returns `t·R^{-1} mod p` in `[0, p − 1]`. Constant time.
    ///
    /// This is the operation of the paper's "Montgomery reduction" row
    /// in Table 4, and with [`mul_ps`](crate::mul::mul_ps) the
    /// separated form of Montgomery multiplication.
    ///
    /// It works on two stack halves: the window `w` holds `t`'s `L`
    /// live words and `t_hi` supplies the rest. Each row adds `m·p`,
    /// drops the zero low word and shifts in the next word of `t_hi`.
    /// The one-bit overflow of the top word is carried to the next row
    /// instead of being propagated through the whole number.
    pub fn redc(&self, t_lo: &Uint<L>, t_hi: &Uint<L>) -> Uint<L> {
        let p = self.p.limbs();
        let mut w = *t_lo.limbs();
        let mut extra = 0u64; // the word above the window: 0 or 1
        for &hi in t_hi.limbs() {
            let m = w[0].wrapping_mul(self.p_inv);
            let wide = w[0] as u128 + m as u128 * p[0] as u128;
            let mut carry = (wide >> 64) as u64;
            for j in 1..L {
                let wide = w[j] as u128 + m as u128 * p[j] as u128 + carry as u128;
                w[j - 1] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            let wide = hi as u128 + carry as u128 + extra as u128;
            w[L - 1] = wide as u64;
            extra = (wide >> 64) as u64;
        }
        self.sub_p_once(&w, extra)
    }

    /// Montgomery multiplication `a·b·R^{-1} mod p` for residues in
    /// `[0, p − 1]`, in the Coarsely Integrated Operand Scanning (CIOS)
    /// form of Koç–Acar–Kaliski: each row adds `a·b[i]` and then one
    /// reduction step, so the running value never exceeds `L + 1`
    /// words. Constant time.
    ///
    /// §3.1 observes that with a large register file and full
    /// unrolling, the separated and integrated techniques "are very
    /// similar in performance"; the separated form is
    /// `redc(mul_ps(a, b))`, with identical results.
    pub fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let (a, p) = (a.limbs(), self.p.limbs());
        let mut t = [0u64; L];
        let mut extra = 0u64; // the word above t: 0 or 1 between rows
        for &bi in b.limbs() {
            // t += a·b[i]
            let mut carry = 0u64;
            for j in 0..L {
                let wide = t[j] as u128 + a[j] as u128 * bi as u128 + carry as u128;
                t[j] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            let (top, top_carry) = extra.overflowing_add(carry);

            // m = t[0]·p' mod 2^64; t = (t + m·p) / 2^64
            let m = t[0].wrapping_mul(self.p_inv);
            let wide = t[0] as u128 + m as u128 * p[0] as u128;
            let mut carry = (wide >> 64) as u64;
            for j in 1..L {
                let wide = t[j] as u128 + m as u128 * p[j] as u128 + carry as u128;
                t[j - 1] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            let wide = top as u128 + carry as u128;
            t[L - 1] = wide as u64;
            extra = top_carry as u64 + (wide >> 64) as u64;
        }
        self.sub_p_once(&t, extra)
    }

    /// Montgomery squaring: [`MontCtx::mul`] with both operands `a`.
    /// The dedicated product-scanning squaring followed by `redc`
    /// measures slower on the host than the integrated loop, so
    /// squaring shares it.
    pub fn sqr(&self, a: &Uint<L>) -> Uint<L> {
        self.mul(a, a)
    }

    /// Maps `extra·2^(64L) + t < 2p` into `[0, p − 1]` with one
    /// constant-time conditional subtraction.
    fn sub_p_once(&self, t: &[u64; L], extra: u64) -> Uint<L> {
        let r = Uint::from_limbs(*t);
        let (sub, borrow) = r.sbb(&self.p, 0);
        // If extra == 1 the true value is ≥ 2^(64L) > p: always subtract
        // (the borrow is "paid" by the extra bit). Otherwise subtract
        // only when no borrow occurred.
        let keep_sub = crate::ct::mask_from_bit(extra | (1 - borrow));
        let mut out = [0u64; L];
        crate::ct::select_limbs(keep_sub, sub.limbs(), r.limbs(), &mut out);
        Uint::from_limbs(out)
    }

    /// Converts into the Montgomery domain: `a·R mod p`.
    pub fn to_mont(&self, a: &Uint<L>) -> Uint<L> {
        // Reduce a first so the precondition a < p holds for any input.
        let a = fast_reduce_swap(&a.clone(), &self.p);
        self.mul(&a, &self.r2)
    }

    /// Converts out of the Montgomery domain: `a·R^{-1} mod p`.
    pub fn from_mont(&self, a: &Uint<L>) -> Uint<L> {
        self.redc(a, &Uint::ZERO)
    }

    /// Modular exponentiation of a Montgomery-form base by a plain
    /// exponent, returning Montgomery form. The sequence of operations
    /// depends only on `exp.bit_length()`, which is public for every
    /// use in this project (`p`-derived exponents).
    pub fn pow(&self, base_mont: &Uint<L>, exp: &Uint<L>) -> Uint<L> {
        let mut acc = self.r; // Montgomery 1
        let bits = exp.bit_length();
        for i in (0..bits as usize).rev() {
            acc = self.sqr(&acc);
            if exp.bit(i) == 1 {
                acc = self.mul(&acc, base_mont);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::{mul_ps, square_ps};
    use crate::reference::RefInt;

    type U256 = Uint<4>;

    fn p25519() -> U256 {
        U256::from_hex("0x7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap()
    }

    #[test]
    fn rejects_bad_moduli() {
        assert_eq!(
            MontCtx::new(U256::from_u64(4)).unwrap_err(),
            MontError::EvenModulus
        );
        assert_eq!(MontCtx::new(U256::ONE).unwrap_err(), MontError::TooSmall);
        assert_eq!(MontCtx::new(U256::MAX).unwrap_err(), MontError::TopBitSet);
    }

    #[test]
    fn neg_inv_is_correct_for_odd_values() {
        for m in [1u64, 3, 0xffff_ffff_ffff_ffff, 0x1b81_b905_33c6_c87b] {
            let ni = neg_inv_u64(m);
            assert_eq!(m.wrapping_mul(ni), 1u64.wrapping_neg());
        }
    }

    #[test]
    fn constants_match_reference() {
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let rp = RefInt::from_limbs(p.limbs());
        let r_ref = RefInt::one().shl(256).rem(&rp);
        assert_eq!(ctx.one().limbs().to_vec(), r_ref.to_limbs(4));
        let r2_ref = RefInt::one().shl(512).rem(&rp);
        assert_eq!(ctx.r2().limbs().to_vec(), r2_ref.to_limbs(4));
    }

    #[test]
    fn round_trip_to_from_mont() {
        let ctx = MontCtx::new(p25519()).unwrap();
        for v in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(0xdead_beef),
            p25519().wrapping_sub(&U256::ONE),
        ] {
            assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v);
        }
    }

    #[test]
    fn mul_matches_reference() {
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let rp = RefInt::from_limbs(p.limbs());
        let a =
            U256::from_hex("0x4fe1a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f")
                .unwrap();
        let b =
            U256::from_hex("0x123456789abcdef0fedcba9876543210deadbeefcafef00d0123456789abcdef")
                .unwrap();
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let got = ctx.from_mont(&ctx.mul(&am, &bm));
        let expect = RefInt::from_limbs(a.limbs()).mulmod(&RefInt::from_limbs(b.limbs()), &rp);
        assert_eq!(got.limbs().to_vec(), expect.to_limbs(4));
    }

    #[test]
    fn sqr_equals_mul_self() {
        let ctx = MontCtx::new(p25519()).unwrap();
        let a = ctx.to_mont(
            &U256::from_hex("0x3141592653589793238462643383279502884197169399375105820974944592")
                .unwrap(),
        );
        assert_eq!(ctx.sqr(&a), ctx.mul(&a, &a));
    }

    #[test]
    fn redc_handles_maximal_product() {
        // t = (p-1)^2 exercises the extra carry path.
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let pm1 = p.wrapping_sub(&U256::ONE);
        let m = ctx.mul(&pm1, &pm1);
        assert!(m < p);
        // (p-1)*(p-1)*R^{-1} mod p -- verify against reference.
        let rp = RefInt::from_limbs(p.limbs());
        // R^{-1} mod p = R^(p-2)? easier: redc(t) * R ≡ t (mod p).
        let lhs = RefInt::from_limbs(m.limbs()).mulmod(&RefInt::one().shl(256), &rp);
        let rhs = RefInt::from_limbs(pm1.limbs()).mulmod(&RefInt::from_limbs(pm1.limbs()), &rp);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_fermat_little_theorem() {
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let a = ctx.to_mont(&U256::from_u64(7));
        let e = p.wrapping_sub(&U256::ONE);
        let r = ctx.pow(&a, &e);
        assert_eq!(r, *ctx.one(), "a^(p-1) = 1 mod p");
    }

    #[test]
    fn pow_small_exponents() {
        let ctx = MontCtx::new(p25519()).unwrap();
        let a = ctx.to_mont(&U256::from_u64(3));
        assert_eq!(ctx.from_mont(&ctx.pow(&a, &U256::ZERO)), U256::ONE);
        assert_eq!(ctx.from_mont(&ctx.pow(&a, &U256::ONE)), U256::from_u64(3));
        assert_eq!(
            ctx.from_mont(&ctx.pow(&a, &U256::from_u64(5))),
            U256::from_u64(243)
        );
    }

    #[test]
    fn cios_equals_separated_form() {
        let ctx = MontCtx::new(p25519()).unwrap();
        let cases = [
            (U256::ZERO, U256::ZERO),
            (U256::ONE, U256::ONE),
            (
                ctx.to_mont(&U256::from_u64(12345)),
                ctx.to_mont(&U256::from_u64(67890)),
            ),
            (
                p25519().wrapping_sub(&U256::ONE),
                p25519().wrapping_sub(&U256::ONE),
            ),
        ];
        for (a, b) in cases {
            let (lo, hi) = mul_ps(&a, &b);
            assert_eq!(ctx.mul(&a, &b), ctx.redc(&lo, &hi), "a={a} b={b}");
        }
    }

    #[test]
    fn cios_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(31337);
        for _ in 0..100 {
            let a = crate::fast::fast_reduce_swap(
                &U256::from_limbs(std::array::from_fn(|_| rng.gen())).shr(1),
                &p,
            );
            let b = crate::fast::fast_reduce_swap(
                &U256::from_limbs(std::array::from_fn(|_| rng.gen())).shr(1),
                &p,
            );
            let (lo, hi) = mul_ps(&a, &b);
            assert_eq!(ctx.mul(&a, &b), ctx.redc(&lo, &hi));
            let (lo, hi) = square_ps(&a);
            assert_eq!(ctx.sqr(&a), ctx.redc(&lo, &hi));
        }
    }

    #[test]
    fn small_modulus_exhaustive() {
        // p = 251 in 1 limb: check all products exhaustively (sampled).
        let p = Uint::<1>::from_u64(251);
        let ctx = MontCtx::new(p).unwrap();
        for a in (0..251u64).step_by(7) {
            for b in (0..251u64).step_by(11) {
                let am = ctx.to_mont(&Uint::from_u64(a));
                let bm = ctx.to_mont(&Uint::from_u64(b));
                let got = ctx.from_mont(&ctx.mul(&am, &bm));
                assert_eq!(got.limb(0), a * b % 251);
            }
        }
    }
}

//! Reduced-radix (radix-2^57) representation and arithmetic (§3.1).
//!
//! A value is held as `N` limbs of nominally 57 bits each, stored in
//! 64-bit words. The seven spare bits per word let additions *delay*
//! carry propagation: limb values may temporarily grow past 2^57
//! ("lazy" form) and are brought back below 2^57 by a single
//! propagation pass ([`Reduced::propagate`]), which in the paper costs
//! `srai + add + and` per limb on the base ISA and `sraiadd + and` with
//! the `sraiadd` custom instruction.
//!
//! Subtractions produce limbs that are negative in two's complement;
//! propagation uses an *arithmetic* shift so borrows ripple correctly —
//! this is why the paper's carry-propagation instruction is
//! `sraiadd` (arithmetic) and not a logical-shift fusion.
//!
//! [`MontCtx57`] multiplies in the separated form: product scanning
//! into a `2N`-limb stack buffer, then [`MontCtx57::redc`] over a
//! stack window of `u128` column sums. Like the full-radix context it
//! never allocates and has no branch or loop bound that depends on the
//! operands.

use crate::ct::{mask_from_bit, select_limbs};
use crate::mont::MontError;
use crate::uint::Uint;
use mpise_core::intrinsics::{madd57hu, madd57lu, sraiadd};
use mpise_core::{REDUCED_RADIX_BITS, REDUCED_RADIX_MASK};
use std::fmt;

/// Limb width in bits (57).
pub const RADIX_BITS: u32 = REDUCED_RADIX_BITS;
/// Limb mask `2^57 − 1`.
pub const MASK: u64 = REDUCED_RADIX_MASK;

/// A reduced-radix integer of `N` limbs (57 bits per limb nominally).
///
/// # Examples
///
/// ```
/// use mpise_mpi::{Reduced, Uint};
/// let x = Uint::<2>::from_u64(u64::MAX);
/// let r: Reduced<3> = Reduced::from_uint(&x);
/// assert_eq!(r.to_uint::<2>(), x);
/// assert!(r.is_canonical());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reduced<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> Reduced<N> {
    /// The value 0.
    pub const ZERO: Self = Reduced { limbs: [0; N] };

    /// The value 1.
    pub const ONE: Self = {
        let mut limbs = [0; N];
        limbs[0] = 1;
        Reduced { limbs }
    };

    /// Total bit capacity in canonical form (`57 · N`).
    pub const BITS: u32 = RADIX_BITS * N as u32;

    /// Constructs from raw limbs (which may be lazy).
    pub const fn from_limbs(limbs: [u64; N]) -> Self {
        Reduced { limbs }
    }

    /// The raw limbs.
    pub const fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub const fn limb(&self, i: usize) -> u64 {
        self.limbs[i]
    }

    /// Whether every limb is strictly below 2^57 (canonical form).
    pub fn is_canonical(&self) -> bool {
        self.limbs.iter().all(|&l| l <= MASK)
    }

    /// Whether the value is zero (requires canonical form to be
    /// meaningful).
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Converts a full-radix integer into reduced radix (canonical).
    ///
    /// # Panics
    ///
    /// Panics if the value needs more than `57 · N` bits.
    pub fn from_uint<const L: usize>(a: &Uint<L>) -> Self {
        assert!(
            a.bit_length() <= Self::BITS,
            "value of {} bits does not fit {} reduced limbs",
            a.bit_length(),
            N
        );
        let mut limbs = [0u64; N];
        let src = a.limbs();
        for (k, limb) in limbs.iter_mut().enumerate() {
            let bit = RADIX_BITS as usize * k;
            let (word, off) = (bit / 64, bit % 64);
            if word >= L {
                break;
            }
            let mut v = src[word] >> off;
            if off > 64 - RADIX_BITS as usize && word + 1 < L {
                v |= src[word + 1] << (64 - off);
            }
            *limb = v & MASK;
        }
        Reduced { limbs }
    }

    /// Converts back to full radix.
    ///
    /// # Panics
    ///
    /// Panics if the value is not canonical or does not fit `L` digits.
    pub fn to_uint<const L: usize>(&self) -> Uint<L> {
        assert!(self.is_canonical(), "to_uint requires canonical form");
        let mut out = [0u64; L];
        for (k, &limb) in self.limbs.iter().enumerate() {
            let bit = RADIX_BITS as usize * k;
            let (word, off) = (bit / 64, bit % 64);
            if word < L {
                out[word] |= limb << off;
                let spill = if off == 0 { 0 } else { limb >> (64 - off) };
                if spill != 0 {
                    assert!(word + 1 < L, "value does not fit {L} digits");
                    out[word + 1] |= spill;
                }
            } else {
                assert_eq!(limb, 0, "value does not fit {L} digits");
            }
        }
        Uint::from_limbs(out)
    }

    /// Lazy addition: limb-wise, no carry handling. The caller is
    /// responsible for the headroom bookkeeping (each addition grows
    /// limbs by at most one bit).
    pub fn add_lazy(&self, other: &Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self.limbs[i].wrapping_add(other.limbs[i]);
        }
        Reduced { limbs: out }
    }

    /// Lazy subtraction: limb-wise two's complement; limbs may go
    /// negative and are fixed up by [`Reduced::propagate`]'s arithmetic
    /// shift.
    pub fn sub_lazy(&self, other: &Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self.limbs[i].wrapping_sub(other.limbs[i]);
        }
        Reduced { limbs: out }
    }

    /// One-time carry propagation (§3.2): for each limb, the bits above
    /// 57 — interpreted as a *signed* quantity — move into the next
    /// limb. The top limb keeps any overflow/sign; for values in the
    /// expected range it ends canonical (or all-ones-sign for negative
    /// values, which [`MontCtx57::reduce_once`] exploits).
    ///
    /// This is the `srai/add/and` chain of the paper; with the
    /// `sraiadd` ISE the per-limb cost drops from 3 to 2 instructions.
    pub fn propagate(&self) -> Self {
        let mut out = self.limbs;
        for i in 0..N - 1 {
            // sraiadd y, y, x, 57 ; and x, x, m
            out[i + 1] = sraiadd(out[i + 1], out[i], RADIX_BITS);
            out[i] &= MASK;
        }
        Reduced { limbs: out }
    }

    /// Whether the value is negative when the top limb is interpreted
    /// as signed (meaningful after [`Reduced::propagate`] of a lazy
    /// subtraction).
    pub fn is_negative(&self) -> bool {
        (self.limbs[N - 1] as i64) < 0
    }
}

impl<const N: usize> Default for Reduced<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> fmt::Debug for Reduced<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reduced<{N}>[")?;
        for (i, l) in self.limbs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l:#x}")?;
        }
        write!(f, "]")
    }
}

/// Product-scanning multiplication of canonical reduced-radix values on
/// slices, producing `a.len() + b.len()` canonical 57-bit limbs.
///
/// Written with the `madd57lu`/`madd57hu` intrinsics exactly as the
/// ISE-supported kernel (Listing 4): per partial product, the low 57
/// bits accumulate into `l` and bits 120…57 into `h`; at the end of a
/// column `l` flushes into the result and `h` (plus `l`'s overflow)
/// becomes the next column's `l`.
///
/// # Panics
///
/// Panics if an input limb exceeds 2^57 − 1 or
/// `out.len() != a.len() + b.len()`.
pub fn mul_ps_slices_57(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len());
    assert!(
        a.iter().chain(b).fold(0, |acc, &l| acc | l) <= MASK,
        "inputs must be canonical"
    );
    let (mut l, mut h) = (0u64, 0u64);
    for k in 0..out.len() - 1 {
        let lo = k.saturating_sub(b.len() - 1);
        let hi = k.min(a.len() - 1);
        for i in lo..=hi {
            // madd57hu h, a, b, h ; madd57lu l, a, b, l   (Listing 4)
            h = madd57hu(a[i], b[k - i], h);
            l = madd57lu(a[i], b[k - i], l);
        }
        out[k] = l & MASK;
        l = h.wrapping_add(l >> RADIX_BITS);
        h = 0;
    }
    out[a.len() + b.len() - 1] = l;
    debug_assert!(out[a.len() + b.len() - 1] <= MASK);
}

/// Reference ISA-only variant of [`mul_ps_slices_57`]: a 128-bit
/// `(h ‖ l)` accumulator fed by `mul`/`mulhu` MACs (Listing 2), aligned
/// at each column with the shift sequence of §3.1. Produces identical
/// results; exists so tests can pin the two instruction sequences to
/// the same function.
pub fn mul_ps_slices_57_isa(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len());
    assert!(
        a.iter().chain(b).all(|&l| l <= MASK),
        "inputs must be canonical"
    );
    let mut acc: u128 = 0;
    for k in 0..out.len() - 1 {
        let lo = k.saturating_sub(b.len() - 1);
        let hi = k.min(a.len() - 1);
        for i in lo..=hi {
            acc += a[i] as u128 * b[k - i] as u128;
        }
        out[k] = (acc as u64) & MASK;
        acc >>= RADIX_BITS;
    }
    out[a.len() + b.len() - 1] = acc as u64;
    debug_assert_eq!(acc >> RADIX_BITS, 0);
}

/// Product-scanning squaring in radix 2^57 (cross terms doubled).
///
/// # Panics
///
/// Panics if an input limb exceeds 2^57 − 1 or `out.len() != 2 * a.len()`.
pub fn square_ps_slices_57(a: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), 2 * a.len());
    assert!(
        a.iter().fold(0, |acc, &l| acc | l) <= MASK,
        "input must be canonical"
    );
    let n = a.len();
    let (mut l, mut h) = (0u64, 0u64);
    for k in 0..out.len() - 1 {
        let lo = k.saturating_sub(n - 1);
        let hi = k.min(n - 1);
        let mut i = lo;
        while i < k - i && i <= hi {
            // Double cross terms: two MAC pairs on the same inputs.
            h = madd57hu(a[i], a[k - i], h);
            l = madd57lu(a[i], a[k - i], l);
            h = madd57hu(a[i], a[k - i], h);
            l = madd57lu(a[i], a[k - i], l);
            i += 1;
        }
        if k % 2 == 0 {
            h = madd57hu(a[k / 2], a[k / 2], h);
            l = madd57lu(a[k / 2], a[k / 2], l);
        }
        out[k] = l & MASK;
        l = h.wrapping_add(l >> RADIX_BITS);
        h = 0;
    }
    out[2 * n - 1] = l;
}

/// Computes `-m^{-1} mod 2^57` for odd `m`.
pub fn neg_inv_57(m: u64) -> u64 {
    debug_assert!(m & 1 == 1);
    let mut inv = m;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    inv.wrapping_neg() & MASK
}

/// Montgomery context in reduced radix: `R = 2^(57·N)`.
///
/// The modulus must be odd, and must leave at least one full limb of
/// headroom (`p < 2^(57·(N−1) + 56)`) so that sums of two residues stay
/// canonical — for CSIDH-512, a 511-bit `p` in nine 57-bit limbs
/// (513 bits capacity) satisfies this.
///
/// # Examples
///
/// ```
/// use mpise_mpi::{reduced::MontCtx57, Reduced, Uint};
/// let p = Uint::<2>::from_hex("0x7fffffffffffffffffffffffffffff67").unwrap(); // 127-bit prime
/// let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
/// let a = ctx.to_mont(&Reduced::from_uint(&Uint::<2>::from_u64(1234567)));
/// let b = ctx.to_mont(&Reduced::from_uint(&Uint::<2>::from_u64(89)));
/// let c = ctx.from_mont(&ctx.mul(&a, &b));
/// assert_eq!(c.to_uint::<2>(), Uint::from_u64(1234567 * 89));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontCtx57<const N: usize> {
    p: Reduced<N>,
    p_inv: u64,
    r: Reduced<N>,
    r2: Reduced<N>,
}

impl<const N: usize> MontCtx57<N> {
    /// Builds a context for the odd canonical modulus `p`.
    ///
    /// # Errors
    ///
    /// [`MontError::EvenModulus`] for even moduli,
    /// [`MontError::TopBitSet`] when the top limb leaves no headroom,
    /// [`MontError::TooSmall`] for 0/1.
    pub fn new(p: Reduced<N>) -> Result<Self, MontError> {
        if p.limb(0) & 1 == 0 {
            return Err(MontError::EvenModulus);
        }
        if !p.is_canonical() || p.limb(N - 1) >> (RADIX_BITS - 1) != 0 {
            return Err(MontError::TopBitSet);
        }
        if p.limbs().iter().all(|&l| l <= 1)
            && p.limb(0) <= 1
            && !p.limbs()[1..].iter().any(|&l| l != 0)
        {
            return Err(MontError::TooSmall);
        }
        let p_inv = neg_inv_57(p.limb(0));
        let mut v = Reduced::ONE;
        let mut ctx = MontCtx57 {
            p,
            p_inv,
            r: Reduced::ZERO,
            r2: Reduced::ZERO,
        };
        for _ in 0..RADIX_BITS as usize * N {
            v = ctx.add(&v, &v);
        }
        ctx.r = v;
        for _ in 0..RADIX_BITS as usize * N {
            v = ctx.add(&v, &v);
        }
        ctx.r2 = v;
        Ok(ctx)
    }

    /// The modulus.
    pub fn modulus(&self) -> &Reduced<N> {
        &self.p
    }

    /// `-p^{-1} mod 2^57`.
    pub fn p_inv(&self) -> u64 {
        self.p_inv
    }

    /// Montgomery form of 1 (`R mod p`).
    pub fn one(&self) -> &Reduced<N> {
        &self.r
    }

    /// `R² mod p`.
    pub fn r2(&self) -> &Reduced<N> {
        &self.r2
    }

    /// Modular addition with fast reduction: result canonical in
    /// `[0, p − 1]`. Constant time.
    pub fn add(&self, a: &Reduced<N>, b: &Reduced<N>) -> Reduced<N> {
        debug_assert!(a.is_canonical() && b.is_canonical());
        let s = a.add_lazy(b).propagate();
        self.reduce_once(&s)
    }

    /// Modular subtraction: result canonical in `[0, p − 1]`.
    /// Constant time (Algorithm-1 variant with `T ← A − B`).
    pub fn sub(&self, a: &Reduced<N>, b: &Reduced<N>) -> Reduced<N> {
        let t = a.sub_lazy(b).propagate();
        let m = mask_from_bit((t.limb(N - 1) >> 63) & 1);
        let fix = Reduced::from_limbs(std::array::from_fn(|i| self.p.limb(i) & m));
        t.add_lazy(&fix).propagate()
    }

    /// Modular negation.
    pub fn neg(&self, a: &Reduced<N>) -> Reduced<N> {
        self.sub(&Reduced::ZERO, a)
    }

    /// Fast reduction of a canonical value in `[0, 2p − 1]` to
    /// `[0, p − 1]` — the reduced-radix realization of Algorithm 2
    /// (swap-based; the select replaces the conditional swap).
    pub fn reduce_once(&self, a: &Reduced<N>) -> Reduced<N> {
        debug_assert!(a.is_canonical());
        let t = a.sub_lazy(&self.p).propagate();
        // Negative iff a < p.
        let m = mask_from_bit((t.limb(N - 1) >> 63) & 1);
        let mut out = [0u64; N];
        select_limbs(m, a.limbs(), t.limbs(), &mut out);
        Reduced::from_limbs(out)
    }

    /// Montgomery reduction of a `2N`-limb canonical product (57-bit
    /// limbs): returns `t·R^{-1} mod p` canonical in `[0, p − 1]`.
    /// Constant time.
    ///
    /// The window `w` holds `t`'s `N` live limbs as `u128` column sums,
    /// so the `m·p` rows accumulate without carrying. Each row clears
    /// the low limb, moves its carry into the next one and shifts in
    /// the next limb of the upper half; one pass at the end brings the
    /// window back to 57-bit limbs.
    ///
    /// # Panics
    ///
    /// Panics if `t.len() != 2 * N`.
    pub fn redc(&self, t: &[u64]) -> Reduced<N> {
        assert_eq!(t.len(), 2 * N);
        let mut w: [u128; N] = std::array::from_fn(|i| t[i] as u128);
        for &next in &t[N..] {
            let m = (w[0] as u64).wrapping_mul(self.p_inv) & MASK;
            for j in 0..N {
                w[j] += m as u128 * self.p.limb(j) as u128;
            }
            // Column 0 is now zero mod 2^57: drop it, carry upward.
            debug_assert_eq!((w[0] as u64) & MASK, 0);
            let c = w[0] >> RADIX_BITS;
            w.copy_within(1.., 0);
            w[0] += c;
            w[N - 1] = next as u128;
        }
        // Normalize the window into 57-bit limbs.
        let mut out = [0u64; N];
        let mut carry: u128 = 0;
        for k in 0..N {
            let v = w[k] + carry;
            out[k] = (v as u64) & MASK;
            carry = v >> RADIX_BITS;
        }
        debug_assert_eq!(carry, 0, "redc result exceeds 2p");
        self.reduce_once(&Reduced::from_limbs(out))
    }

    /// Montgomery multiplication. Constant time.
    pub fn mul(&self, a: &Reduced<N>, b: &Reduced<N>) -> Reduced<N> {
        let mut t = [[0u64; N]; 2];
        mul_ps_slices_57(a.limbs(), b.limbs(), t.as_flattened_mut());
        self.redc(t.as_flattened())
    }

    /// Montgomery squaring. Constant time.
    pub fn sqr(&self, a: &Reduced<N>) -> Reduced<N> {
        let mut t = [[0u64; N]; 2];
        square_ps_slices_57(a.limbs(), t.as_flattened_mut());
        self.redc(t.as_flattened())
    }

    /// Converts to Montgomery form.
    pub fn to_mont(&self, a: &Reduced<N>) -> Reduced<N> {
        let a = self.reduce_once(a);
        self.mul(&a, &self.r2)
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &Reduced<N>) -> Reduced<N> {
        self.redc([*a.limbs(), [0; N]].as_flattened())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefInt;

    type U128x = Uint<2>;

    fn p127() -> U128x {
        // 2^127 - 1 is prime (Mersenne).
        U128x::from_hex("0x7fffffffffffffffffffffffffffffff").unwrap()
    }

    #[test]
    fn uint_round_trip() {
        for hex in [
            "0x0",
            "0x1",
            "0xffffffffffffffff",
            "0x123456789abcdef0aabbccdd",
        ] {
            let u = U128x::from_hex(hex).unwrap();
            let r: Reduced<3> = Reduced::from_uint(&u);
            assert!(r.is_canonical());
            assert_eq!(r.to_uint::<2>(), u);
        }
    }

    #[test]
    fn lazy_add_then_propagate() {
        let a: Reduced<3> =
            Reduced::from_uint(&U128x::from_hex("0xffffffffffffffffffffffffffffffff").unwrap());
        let s = a.add_lazy(&a);
        assert!(!s.is_canonical());
        let prop = s.propagate();
        // 2a needs 129 bits, fits 3*57 = 171 bits.
        assert!(prop.is_canonical());
        let expect = RefInt::from_limbs(a.to_uint::<2>().limbs()).shl(1);
        let got: Uint<3> = prop.to_uint();
        assert_eq!(got.limbs().to_vec(), expect.to_limbs(3));
    }

    #[test]
    fn sub_lazy_propagates_borrows_arithmetically() {
        let a: Reduced<3> = Reduced::from_uint(&U128x::from_u64(5));
        let b: Reduced<3> = Reduced::from_uint(&U128x::from_u64(7));
        let t = a.sub_lazy(&b).propagate();
        assert!(t.is_negative());
        let t2 = b.sub_lazy(&a).propagate();
        assert!(!t2.is_negative());
        assert_eq!(t2.to_uint::<2>(), U128x::from_u64(2));
    }

    #[test]
    fn mul57_matches_reference_and_isa_variant() {
        let a = U128x::from_hex("0x7edcba9876543210fedcba9876543210").unwrap();
        let b = U128x::from_hex("0x7123456789abcdef0123456789abcdef").unwrap();
        let ra: Reduced<3> = Reduced::from_uint(&a);
        let rb: Reduced<3> = Reduced::from_uint(&b);
        let mut out_ise = [0u64; 6];
        let mut out_isa = [0u64; 6];
        mul_ps_slices_57(ra.limbs(), rb.limbs(), &mut out_ise);
        mul_ps_slices_57_isa(ra.limbs(), rb.limbs(), &mut out_isa);
        assert_eq!(out_ise, out_isa);
        // Cross-check the value against the schoolbook reference.
        let prod: Uint<6> = Reduced::<6>::from_limbs(out_ise).to_uint();
        let expect = RefInt::from_limbs(a.limbs()).mul(&RefInt::from_limbs(b.limbs()));
        assert_eq!(prod.limbs().to_vec(), expect.to_limbs(6));
    }

    #[test]
    fn square57_matches_mul() {
        let a = U128x::from_hex("0x3243f6a8885a308d313198a2e0370734").unwrap();
        let ra: Reduced<3> = Reduced::from_uint(&a);
        let mut sq = [0u64; 6];
        let mut ml = [0u64; 6];
        square_ps_slices_57(ra.limbs(), &mut sq);
        mul_ps_slices_57(ra.limbs(), ra.limbs(), &mut ml);
        assert_eq!(sq, ml);
    }

    #[test]
    fn neg_inv_57_correct() {
        for m in [1u64, 3, MASK, 0x0012_3456_789a_bcdf_u64 | 1] {
            let ni = neg_inv_57(m & MASK | 1);
            let m = m & MASK | 1;
            assert_eq!(m.wrapping_mul(ni) & MASK, MASK, "m={m:#x}");
        }
    }

    #[test]
    fn mont_mul_matches_reference() {
        let p = p127();
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
        let rp = RefInt::from_limbs(p.limbs());
        let a = U128x::from_hex("0x48d159e26af37bc048d159e26af37bc0").unwrap();
        let b = U128x::from_hex("0x159e26af37bc048d159e26af37bc048d").unwrap();
        let am = ctx.to_mont(&Reduced::from_uint(&a));
        let bm = ctx.to_mont(&Reduced::from_uint(&b));
        let got = ctx.from_mont(&ctx.mul(&am, &bm));
        let expect = RefInt::from_limbs(a.limbs()).mulmod(&RefInt::from_limbs(b.limbs()), &rp);
        assert_eq!(got.to_uint::<2>().limbs().to_vec(), expect.to_limbs(2));
    }

    #[test]
    fn add_sub_round_trip_mod_p() {
        let p = p127();
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
        let a: Reduced<3> =
            Reduced::from_uint(&U128x::from_hex("0x7000000000000000000000000000dead").unwrap());
        let b: Reduced<3> = Reduced::from_uint(&U128x::from_u64(12345));
        let s = ctx.add(&a, &b);
        assert!(s.is_canonical());
        let d = ctx.sub(&s, &b);
        assert_eq!(d.to_uint::<2>(), a.to_uint::<2>());
        // a + (p - a) == 0
        let n = ctx.neg(&a);
        assert!(ctx.add(&a, &n).is_zero());
    }

    #[test]
    fn reduce_once_edges() {
        let p = p127();
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
        let pr: Reduced<3> = Reduced::from_uint(&p);
        assert!(ctx.reduce_once(&pr).is_zero());
        let pm1: Reduced<3> = Reduced::from_uint(&p.wrapping_sub(&U128x::ONE));
        assert_eq!(ctx.reduce_once(&pm1), pm1);
        // 2p - 1 reduces to p - 1.
        let two_p_m1 = pr.add_lazy(&pm1).propagate();
        assert_eq!(ctx.reduce_once(&two_p_m1), pm1);
    }

    #[test]
    fn from_mont_of_r_is_one() {
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p127())).unwrap();
        assert_eq!(ctx.from_mont(ctx.one()).to_uint::<2>(), U128x::ONE);
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontCtx57::<3>::new(Reduced::from_uint(&U128x::from_u64(4))).is_err());
        // Non-canonical limbs rejected via TopBitSet/canonical check.
        let bad = Reduced::<3>::from_limbs([u64::MAX, 0, 1]);
        assert!(MontCtx57::<3>::new(bad).is_err());
    }
}

//! MPI multiplication and squaring: operand scanning, product scanning
//! and Karatsuba (§3.1, "High-level techniques").
//!
//! The paper found product scanning more efficient than Karatsuba on
//! RV64GC and used it everywhere; all three are implemented here so the
//! claim can be re-checked (see the `bench` crate's ablations).
//!
//! The central building block is the Multiply-and-ACcumulate (MAC)
//! operation `S ← S + a·b` on a 192-bit accumulator `(e ‖ h ‖ l)` —
//! [`Acc192`] mirrors Listing 1 word for word.

use crate::uint::Uint;

/// The 192-bit accumulator `(e ‖ h ‖ l)` of the full-radix MAC
/// (Listing 1).
///
/// # Examples
///
/// ```
/// use mpise_mpi::mul::Acc192;
/// let mut s = Acc192::ZERO;
/// s.mac(u64::MAX, u64::MAX); // accumulate (2^64-1)^2
/// s.mac(u64::MAX, u64::MAX);
/// let (l, h, e) = (s.l, s.h, s.e);
/// // 2 * (2^64-1)^2 = 2^129 - 2^66 + 2
/// assert_eq!((e, h, l), (1, 0xffff_ffff_ffff_fffc, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc192 {
    /// Low word.
    pub l: u64,
    /// Middle word.
    pub h: u64,
    /// High (overflow) word.
    pub e: u64,
}

impl Acc192 {
    /// The zero accumulator.
    pub const ZERO: Self = Acc192 { l: 0, h: 0, e: 0 };

    /// `S ← S + a·b`, computed exactly like Listing 1:
    /// `mulhu`/`mul`/`add`/`sltu`/`add`/`add`/`sltu`/`add`.
    #[inline]
    pub fn mac(&mut self, a: u64, b: u64) {
        let z = ((a as u128 * b as u128) >> 64) as u64; // mulhu z, a, b
        let y = a.wrapping_mul(b); // mul y, a, b
        let l = self.l.wrapping_add(y); // add l, l, y
        let y = (l < y) as u64; // sltu y, l, y
        let z = z.wrapping_add(y); // add z, z, y  (cannot overflow)
        let h = self.h.wrapping_add(z); // add h, h, z
        let z = (h < z) as u64; // sltu z, h, z
        let e = self.e.wrapping_add(z); // add e, e, z
        *self = Acc192 { l, h, e };
    }

    /// Shifts the accumulator right by one word, returning the low word
    /// — the per-column step of product scanning (`r_k ← l; l ← h;
    /// h ← e; e ← 0`).
    #[inline]
    pub fn shift_out(&mut self) -> u64 {
        let out = self.l;
        self.l = self.h;
        self.h = self.e;
        self.e = 0;
        out
    }
}

/// Product-scanning (column-wise / Comba) multiplication on slices:
/// `out[..a.len()+b.len()] ← a · b`.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn mul_ps_slices(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len());
    let mut acc = Acc192::ZERO;
    for k in 0..out.len() {
        let lo = k.saturating_sub(b.len() - 1);
        let hi = k.min(a.len() - 1);
        let mut i = lo;
        while i <= hi {
            acc.mac(a[i], b[k - i]);
            i += 1;
        }
        out[k] = acc.shift_out();
    }
}

/// Operand-scanning (row-wise / schoolbook) multiplication on slices.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn mul_os_slices(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len());
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry as u128;
            out[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        out[i + b.len()] = carry;
    }
}

/// Product-scanning squaring on slices, with the usual halving of the
/// cross-product count: each `a_i·a_j` (i<j) is accumulated twice and
/// each `a_i²` once.
///
/// # Panics
///
/// Panics if `out.len() != 2 * a.len()`.
pub fn square_ps_slices(a: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), 2 * a.len());
    let n = a.len();
    let mut acc = Acc192::ZERO;
    for k in 0..out.len() {
        let lo = k.saturating_sub(n - 1);
        let hi = k.min(n - 1);
        let mut i = lo;
        // Cross terms (i < k-i): accumulate twice.
        while i < k - i && i <= hi {
            acc.mac(a[i], a[k - i]);
            acc.mac(a[i], a[k - i]);
            i += 1;
        }
        // Diagonal term when k is even.
        if k % 2 == 0 && k / 2 < n {
            acc.mac(a[k / 2], a[k / 2]);
        }
        out[k] = acc.shift_out();
    }
}

/// One-level Karatsuba multiplication on slices (equal, even lengths).
///
/// Splits each operand in half, computes three half-size
/// product-scanning multiplications, and combines them. The paper
/// measured this against plain product scanning and found product
/// scanning faster on RV64GC for 512-bit operands (§4).
///
/// # Panics
///
/// Panics if the operand lengths differ, are odd, or
/// `out.len() != a.len() + b.len()`.
pub fn mul_karatsuba_slices(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len() % 2, 0, "Karatsuba needs an even digit count");
    assert_eq!(out.len(), a.len() + b.len());
    let n = a.len();
    let h = n / 2;
    let (a0, a1) = a.split_at(h);
    let (b0, b1) = b.split_at(h);

    // z0 = a0*b0, z2 = a1*b1.
    let mut z0 = vec![0u64; n];
    let mut z2 = vec![0u64; n];
    mul_ps_slices(a0, b0, &mut z0);
    mul_ps_slices(a1, b1, &mut z2);

    // (a0+a1) and (b0+b1), each h digits + carry bit.
    let mut sa = vec![0u64; h];
    let mut sb = vec![0u64; h];
    let mut ca = 0u64;
    let mut cb = 0u64;
    for i in 0..h {
        let (s, c) = crate::ct::adc(a0[i], a1[i], ca);
        sa[i] = s;
        ca = c;
        let (s, c) = crate::ct::adc(b0[i], b1[i], cb);
        sb[i] = s;
        cb = c;
    }

    // z1 = (a0+a1)(b0+b1): (h+1)-digit operands handled as h-digit
    // product plus the carry cross terms.
    let mut z1 = vec![0u64; 2 * h + 2];
    {
        let mut base = vec![0u64; n];
        mul_ps_slices(&sa, &sb, &mut base);
        z1[..n].copy_from_slice(&base);
        // + ca * sb << (64h) and + cb * sa << (64h) and + ca*cb << (128h)
        let mut carry = 0u64;
        if ca == 1 {
            for i in 0..h {
                let t = z1[h + i] as u128 + sb[i] as u128 + carry as u128;
                z1[h + i] = t as u64;
                carry = (t >> 64) as u64;
            }
        }
        let mut carry2 = 0u64;
        if cb == 1 {
            for i in 0..h {
                let t = z1[h + i] as u128 + sa[i] as u128 + carry2 as u128;
                z1[h + i] = t as u64;
                carry2 = (t >> 64) as u64;
            }
        }
        let top = z1[2 * h] as u128 + carry as u128 + carry2 as u128 + (ca * cb) as u128;
        z1[2 * h] = top as u64;
        z1[2 * h + 1] = (top >> 64) as u64;
    }

    // z1 -= z0 + z2 (never underflows).
    let mut borrow = 0u64;
    for i in 0..n {
        let (d, b1) = crate::ct::sbb(z1[i], z0[i], borrow);
        let (d, b2) = crate::ct::sbb(d, z2[i], 0);
        z1[i] = d;
        borrow = b1 + b2;
    }
    for i in n..2 * h + 2 {
        let (d, b1) = crate::ct::sbb(z1[i], borrow, 0);
        z1[i] = d;
        borrow = b1;
    }
    debug_assert_eq!(borrow, 0);

    // out = z0 + z1 << (64h) + z2 << (128h).
    out[..n].copy_from_slice(&z0);
    out[n..].copy_from_slice(&z2);
    let mut carry = 0u64;
    for (i, &z) in z1.iter().enumerate() {
        if h + i >= out.len() {
            debug_assert_eq!(z + carry, 0);
            break;
        }
        let t = out[h + i] as u128 + z as u128 + carry as u128;
        out[h + i] = t as u64;
        carry = (t >> 64) as u64;
    }
    if carry > 0 {
        let mut i = h + z1.len();
        while carry > 0 && i < out.len() {
            let t = out[i] as u128 + carry as u128;
            out[i] = t as u64;
            carry = (t >> 64) as u64;
            i += 1;
        }
        debug_assert_eq!(carry, 0);
    }
}

/// Product-scanning multiplication: returns `(low, high)` halves of the
/// `2L`-digit product.
pub fn mul_ps<const L: usize>(a: &Uint<L>, b: &Uint<L>) -> (Uint<L>, Uint<L>) {
    split_product(|out| mul_ps_slices(a.limbs(), b.limbs(), out))
}

/// Operand-scanning multiplication: returns `(low, high)`.
pub fn mul_os<const L: usize>(a: &Uint<L>, b: &Uint<L>) -> (Uint<L>, Uint<L>) {
    split_product(|out| mul_os_slices(a.limbs(), b.limbs(), out))
}

/// One-level Karatsuba multiplication: returns `(low, high)`.
///
/// # Panics
///
/// Panics if `L` is odd.
pub fn mul_karatsuba<const L: usize>(a: &Uint<L>, b: &Uint<L>) -> (Uint<L>, Uint<L>) {
    split_product(|out| mul_karatsuba_slices(a.limbs(), b.limbs(), out))
}

/// Product-scanning squaring: returns `(low, high)`.
pub fn square_ps<const L: usize>(a: &Uint<L>) -> (Uint<L>, Uint<L>) {
    split_product(|out| square_ps_slices(a.limbs(), out))
}

/// Runs a slice routine on a `2L`-digit stack buffer and returns its
/// `(low, high)` halves.
#[inline]
fn split_product<const L: usize>(f: impl FnOnce(&mut [u64])) -> (Uint<L>, Uint<L>) {
    let mut out = [[0u64; L]; 2];
    f(out.as_flattened_mut());
    (Uint::from_limbs(out[0]), Uint::from_limbs(out[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefInt;

    type U256 = Uint<4>;

    fn check_against_reference(a: U256, b: U256) {
        let ra = RefInt::from_limbs(a.limbs());
        let rb = RefInt::from_limbs(b.limbs());
        let expect = ra.mul(&rb).to_limbs(8);

        for f in [mul_ps::<4>, mul_os::<4>, mul_karatsuba::<4>] {
            let (lo, hi) = f(&a, &b);
            let mut got = lo.limbs().to_vec();
            got.extend_from_slice(hi.limbs());
            assert_eq!(got, expect, "a={a} b={b}");
        }
    }

    #[test]
    fn small_products() {
        check_against_reference(U256::from_u64(6), U256::from_u64(7));
        check_against_reference(U256::ZERO, U256::MAX);
        check_against_reference(U256::ONE, U256::MAX);
    }

    #[test]
    fn max_times_max() {
        check_against_reference(U256::MAX, U256::MAX);
    }

    #[test]
    fn mixed_patterns() {
        let a =
            U256::from_hex("0xdeadbeefcafef00d_0123456789abcdef_fedcba9876543210_ffffffffffffffff")
                .unwrap();
        let b = U256::from_hex("0x1_0000000000000000_ffffffffffffffff_8000000000000000").unwrap();
        check_against_reference(a, b);
        check_against_reference(b, a);
    }

    #[test]
    fn squaring_matches_multiplication() {
        for hex in [
            "0x3",
            "0xffffffffffffffff",
            "0xdeadbeefcafef00d_0123456789abcdef_fedcba9876543210_ffffffffffffffff",
        ] {
            let a = U256::from_hex(hex).unwrap();
            assert_eq!(square_ps(&a), mul_ps(&a, &a), "a={a}");
        }
    }

    #[test]
    fn acc192_tracks_wide_sum() {
        let mut acc = Acc192::ZERO;
        // 100 accumulations of the max partial product exercise e.
        for _ in 0..100 {
            acc.mac(u64::MAX, u64::MAX);
        }
        // Reference with 256-bit arithmetic via RefInt.
        let p = RefInt::from_limbs(&[1, u64::MAX - 1]); // (2^64-1)^2
        let mut total = RefInt::zero();
        for _ in 0..100 {
            total = total.add(&p);
        }
        let limbs = total.to_limbs(3);
        assert_eq!((acc.l, acc.h, acc.e), (limbs[0], limbs[1], limbs[2]));
    }

    #[test]
    fn mac_instruction_count_is_eight() {
        // Listing 1 uses exactly 8 instructions; Acc192::mac mirrors it
        // 1:1. This is verified against the generated kernels in
        // mpise-fp; here we pin the arithmetic identity S' = S + a*b.
        let mut acc = Acc192 { l: 5, h: 6, e: 7 };
        acc.mac(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
        let s0 = 7u128 << 64 | 6u128; // e||h
        let p = 0x1234_5678_9abc_def0u128 * 0x0fed_cba9_8765_4321u128;
        let l = 5u128 + (p & u64::MAX as u128);
        let hi = s0 + (p >> 64) + (l >> 64);
        assert_eq!(acc.l, l as u64);
        assert_eq!(acc.h, hi as u64);
        assert_eq!(acc.e, (hi >> 64) as u64);
    }

    #[test]
    fn asymmetric_slice_lengths() {
        let a = [u64::MAX, u64::MAX, u64::MAX];
        let b = [u64::MAX];
        let mut out_ps = [0u64; 4];
        let mut out_os = [0u64; 4];
        mul_ps_slices(&a, &b, &mut out_ps);
        mul_os_slices(&a, &b, &mut out_os);
        assert_eq!(out_ps, out_os);
        let ra = RefInt::from_limbs(&a).mul(&RefInt::from_limbs(&b));
        assert_eq!(out_ps.to_vec(), ra.to_limbs(4));
    }

    #[test]
    fn karatsuba_eight_limbs() {
        let a = Uint::<8>::from_hex("0x8f40e1c9a3b5d7f0_1122334455667788_99aabbccddeeff00_deadbeefcafef00d_0123456789abcdef_fedcba9876543210_aaaaaaaaaaaaaaaa_5555555555555555").unwrap();
        let b = Uint::<8>::MAX;
        assert_eq!(mul_karatsuba(&a, &b), mul_ps(&a, &b));
    }
}

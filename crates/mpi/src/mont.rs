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
//!
//! `mul` has two bodies with identical results. For 512-bit operands
//! (`L = 8`) on an x86-64 CPU with BMI2 and ADX it runs an unrolled
//! `mulx`/`adcx`/`adox` kernel: the host's own fused multiply and
//! dual-carry instructions, the counterpart of the paper's ISEs that
//! halve the instructions of a multiply-accumulate (§3, Listings 1
//! and 3). Everywhere else it runs the portable `u128` CIOS loop, which
//! is also the reference the kernel is tested against. The CPU is
//! probed once, in [`MontCtx::new`]; no option selects the path.

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
    /// Whether `mul` runs the x86-64 `mulx`/`adcx`/`adox` kernel:
    /// `L == 8` and the CPU reports BMI2 and ADX.
    carry_ise: bool,
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
        let carry_ise = L == 8 && has_carry_ise();
        Ok(MontCtx {
            p,
            p_inv,
            r,
            r2,
            carry_ise,
        })
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

    /// Montgomery multiplication `a·b·R^{-1} mod p`, returned in
    /// `[0, p − 1]`, in the Coarsely Integrated Operand Scanning (CIOS)
    /// form of Koç–Acar–Kaliski: each row adds `a·b[i]` and then one
    /// reduction step. Constant time.
    ///
    /// Operands: `b < p` and `a < R − p`. That covers two canonical
    /// residues, and `to_mont`'s `mul(fold(v), r2)`, whose once-folded
    /// `a` is below `max(p, R − p) = R − p`. Under it the running value
    /// after row `i`, `(a·(b mod 2^(64i)) + M·p) / 2^(64i)` with
    /// `M < 2^(64i)`, stays below `a + p < R`: it fits `L` words between
    /// rows, each row's sums fit `L + 1`, and the last row leaves it
    /// below `a·b/R + p < 2p`, which one conditional subtraction makes
    /// canonical. (`MontCtx::new` keeps `p < R/2`, so `R − p > p`.)
    ///
    /// On an x86-64 CPU with BMI2 and ADX and `L = 8` this runs an
    /// unrolled `mulx`/`adcx`/`adox` kernel; elsewhere the portable
    /// `u128` loop. Both return the same value for every operand pair
    /// in the contract.
    ///
    /// §3.1 observes that with a large register file and full
    /// unrolling, the separated and integrated techniques "are very
    /// similar in performance"; the separated form is
    /// `redc(mul_ps(a, b))`, with identical results.
    pub fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(*b < self.p, "mul needs b < p");
        debug_assert!(a.adc(&self.p, 0).1 == 0, "mul needs a < R - p");
        #[cfg(target_arch = "x86_64")]
        if self.carry_ise {
            // `carry_ise` implies L == 8: each chunk is the whole array.
            // SAFETY: `carry_ise` is set only after `new` detected BMI2
            // and ADX on this CPU.
            let r = unsafe {
                mul_512_adx(
                    a.limbs().first_chunk().expect("L == 8"),
                    b.limbs().first_chunk().expect("L == 8"),
                    self.p.limbs().first_chunk().expect("L == 8"),
                    self.p_inv,
                )
            };
            return Uint::from_limbs(std::array::from_fn(|i| r[i]));
        }
        self.mul_portable(a, b)
    }

    /// The portable CIOS body of [`MontCtx::mul`], on `u128` products;
    /// the only path off x86-64 and the reference for the kernel.
    fn mul_portable(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
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

/// Whether this CPU has the x86-64 carry ISE of the `mul` kernel:
/// BMI2 (`mulx`) and ADX (`adcx`/`adox`).
fn has_carry_ise() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("adx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One multiply-accumulate of the kernel: `mulx` forms `rdx·[src + off]`
/// in `r15:rbp`, `adcx` adds the low word into `lo` on the CF chain and
/// `adox` the high word into `hi` on the OF chain.
#[cfg(target_arch = "x86_64")]
#[rustfmt::skip]
macro_rules! mac {
    ($src:literal, $off:literal, $lo:literal, $hi:literal) => {
        concat!(
            "mulx r15, rbp, qword ptr [", $src, " + ", $off, "]\n",
            "adcx ", $lo, ", rbp\n",
            "adox ", $hi, ", r15\n",
        )
    };
}

/// The reduction half of a CIOS row: `m = t[0]·p'` (`p'` at `[rsp]`),
/// then `t += m·p` (`p` at `r13`) on two carry chains. `$t0..$t8` hold
/// `t < 2^576`, and `t + m·p` stays below `2^576`, so the OF chain ends
/// without a carry and `adc` folds the CF chain's last carry into `$t8`
/// without overflow. `$t0` ends at zero: the next row takes `$t1..$t8`
/// as its value and `$t0` as its ninth word.
#[cfg(target_arch = "x86_64")]
#[rustfmt::skip]
macro_rules! reduce {
    ($t0:literal $t1:literal $t2:literal $t3:literal $t4:literal
     $t5:literal $t6:literal $t7:literal $t8:literal) => {
        concat!(
            "mov rdx, ", $t0, "\n",
            "imul rdx, qword ptr [rsp]\n",
            "xor ebp, ebp\n",
            mac!("r13", "0", $t0, $t1),
            mac!("r13", "8", $t1, $t2),
            mac!("r13", "16", $t2, $t3),
            mac!("r13", "24", $t3, $t4),
            mac!("r13", "32", $t4, $t5),
            mac!("r13", "40", $t5, $t6),
            mac!("r13", "48", $t6, $t7),
            mac!("r13", "56", $t7, $t8),
            "adc ", $t8, ", 0\n",
        )
    };
}

/// The first CIOS row: `t = a·b[0]` (`a` at `r12`, `b` at `r14`) on one
/// carry chain, as `t` starts at zero, then the reduction half.
#[cfg(target_arch = "x86_64")]
#[rustfmt::skip]
macro_rules! first_row {
    ($t0:literal $t1:literal $t2:literal $t3:literal $t4:literal
     $t5:literal $t6:literal $t7:literal $t8:literal) => {
        concat!(
            "mov rdx, qword ptr [r14]\n",
            "xor ebp, ebp\n",
            "mulx ", $t1, ", ", $t0, ", qword ptr [r12]\n",
            "mulx ", $t2, ", rbp, qword ptr [r12 + 8]\n",
            "adcx ", $t1, ", rbp\n",
            "mulx ", $t3, ", rbp, qword ptr [r12 + 16]\n",
            "adcx ", $t2, ", rbp\n",
            "mulx ", $t4, ", rbp, qword ptr [r12 + 24]\n",
            "adcx ", $t3, ", rbp\n",
            "mulx ", $t5, ", rbp, qword ptr [r12 + 32]\n",
            "adcx ", $t4, ", rbp\n",
            "mulx ", $t6, ", rbp, qword ptr [r12 + 40]\n",
            "adcx ", $t5, ", rbp\n",
            "mulx ", $t7, ", rbp, qword ptr [r12 + 48]\n",
            "adcx ", $t6, ", rbp\n",
            "mulx ", $t8, ", rbp, qword ptr [r12 + 56]\n",
            "adcx ", $t7, ", rbp\n",
            "adc ", $t8, ", 0\n",
            reduce!($t0 $t1 $t2 $t3 $t4 $t5 $t6 $t7 $t8),
        )
    };
}

/// A later CIOS row, for the word of `b` at byte offset `$b`:
/// `t += a·b[i]` on two carry chains into the zeroed ninth word `$t8`
/// (again below `2^576`, with the same carry argument), then the
/// reduction half.
#[cfg(target_arch = "x86_64")]
#[rustfmt::skip]
macro_rules! row {
    ($b:literal: $t0:literal $t1:literal $t2:literal $t3:literal $t4:literal
     $t5:literal $t6:literal $t7:literal $t8:literal) => {
        concat!(
            "mov rdx, qword ptr [r14 + ", $b, "]\n",
            "xor ", $t8, ", ", $t8, "\n",
            mac!("r12", "0", $t0, $t1),
            mac!("r12", "8", $t1, $t2),
            mac!("r12", "16", $t2, $t3),
            mac!("r12", "24", $t3, $t4),
            mac!("r12", "32", $t4, $t5),
            mac!("r12", "40", $t5, $t6),
            mac!("r12", "48", $t6, $t7),
            mac!("r12", "56", $t7, $t8),
            "adc ", $t8, ", 0\n",
            reduce!($t0 $t1 $t2 $t3 $t4 $t5 $t6 $t7 $t8),
        )
    };
}

/// `a·b·2^(-512) mod p` under the operand contract of [`MontCtx::mul`]:
/// the CIOS loop unrolled into 8 rows of `mulx`/`adcx`/`adox`, with the
/// running value in 9 rotating registers, then a `sub`/`sbb` of `p`
/// undone by `cmov` on borrow. No branch, and every address is a fixed
/// offset from an operand pointer or the stack pointer.
///
/// # Safety
///
/// The CPU must support BMI2 and ADX.
#[cfg(target_arch = "x86_64")]
unsafe fn mul_512_adx(a: &[u64; 8], b: &[u64; 8], p: &[u64; 8], p_inv: u64) -> [u64; 8] {
    let mut r = [0u64; 8];
    // SAFETY: the caller guarantees BMI2 (`mulx`) and ADX (`adcx`,
    // `adox`). The block reads only the 8 limbs of `a` (r12), `b` (r14)
    // and `p` (r13), at fixed offsets, and writes the 8 result limbs to
    // registers only. On the stack it keeps rbx and rbp, which it uses
    // as scratch, `p'` and two limbs of `t`, and it frees all of it
    // before it ends. Every other register it writes is declared.
    // Operands outside `mul`'s contract give a wrong value, never a
    // different access: no address depends on limb values.
    unsafe {
        core::arch::asm!(
            "push rbx",
            "push rbp",
            "push rdx",
            first_row!("rax" "rcx" "rsi" "rdi" "r8" "r9" "r10" "r11" "rbx"),
            row!("8": "rcx" "rsi" "rdi" "r8" "r9" "r10" "r11" "rbx" "rax"),
            row!("16": "rsi" "rdi" "r8" "r9" "r10" "r11" "rbx" "rax" "rcx"),
            row!("24": "rdi" "r8" "r9" "r10" "r11" "rbx" "rax" "rcx" "rsi"),
            row!("32": "r8" "r9" "r10" "r11" "rbx" "rax" "rcx" "rsi" "rdi"),
            row!("40": "r9" "r10" "r11" "rbx" "rax" "rcx" "rsi" "rdi" "r8"),
            row!("48": "r10" "r11" "rbx" "rax" "rcx" "rsi" "rdi" "r8" "r9"),
            row!("56": "r11" "rbx" "rax" "rcx" "rsi" "rdi" "r8" "r9" "r10"),
            // t = rbx:rax:rcx:rsi:rdi:r8:r9:r10 (low word first) < 2p.
            // s = t − p: the low six limbs into free registers, the top
            // two in place with their t limbs saved on the stack.
            "push r9",
            "push r10",
            "mov rdx, rbx",
            "sub rdx, qword ptr [r13]",
            "mov r11, rax",
            "sbb r11, qword ptr [r13 + 8]",
            "mov r12, rcx",
            "sbb r12, qword ptr [r13 + 16]",
            "mov r14, rsi",
            "sbb r14, qword ptr [r13 + 24]",
            "mov r15, rdi",
            "sbb r15, qword ptr [r13 + 32]",
            "mov rbp, r8",
            "sbb rbp, qword ptr [r13 + 40]",
            "sbb r9, qword ptr [r13 + 48]",
            "sbb r10, qword ptr [r13 + 56]",
            // Borrow (CF): t < p, keep t; otherwise take s.
            "cmovnc rbx, rdx",
            "cmovnc rax, r11",
            "cmovnc rcx, r12",
            "cmovnc rsi, r14",
            "cmovnc rdi, r15",
            "cmovnc r8, rbp",
            "cmovc r10, qword ptr [rsp]",
            "cmovc r9, qword ptr [rsp + 8]",
            "mov r11, rbx",
            "add rsp, 24",
            "pop rbp",
            "pop rbx",
            inout("r12") a.as_ptr() => _,
            inout("r14") b.as_ptr() => _,
            in("r13") p.as_ptr(),
            inout("rdx") p_inv => _,
            out("r15") _,
            lateout("r11") r[0],
            lateout("rax") r[1],
            lateout("rcx") r[2],
            lateout("rsi") r[3],
            lateout("rdi") r[4],
            lateout("r8") r[5],
            lateout("r9") r[6],
            lateout("r10") r[7],
        );
    }
    r
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

    /// The CSIDH-512 prime, the 512-bit modulus of the x86-64 kernel.
    fn p512() -> Uint<8> {
        Uint::from_limbs([
            0x1b81b90533c6c87b,
            0xc2721bf457aca835,
            0x516730cc1f0b4f25,
            0xa7aac6c567f35507,
            0x5afbfcc69322c9cd,
            0xb42d083aedc88c42,
            0xfc8ab0d15e3e4c4a,
            0x65b48e8f740f89bf,
        ])
    }

    #[test]
    fn carry_ise_kernel_matches_portable_cios() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = p512();
        let ctx = MontCtx::new(p).unwrap();
        assert_eq!(
            ctx.carry_ise,
            has_carry_ise(),
            "L = 8 runs the kernel iff the CPU has it"
        );
        // Portable half, on every host: CIOS equals the separated form.
        // Kernel half, where the CPU has BMI2 + ADX: `mul`/`sqr` (the
        // kernel) equal the portable CIOS bit for bit.
        let check = |a: &Uint<8>, b: &Uint<8>| {
            let (lo, hi) = mul_ps(a, b);
            let want = ctx.mul_portable(a, b);
            assert_eq!(want, ctx.redc(&lo, &hi), "portable a={a} b={b}");
            if ctx.carry_ise {
                assert_eq!(ctx.mul(a, b), want, "kernel a={a} b={b}");
            }
        };
        let check_sqr = |a: &Uint<8>| {
            let (lo, hi) = square_ps(a);
            let want = ctx.mul_portable(a, a);
            assert_eq!(want, ctx.redc(&lo, &hi), "portable a={a}");
            if ctx.carry_ise {
                assert_eq!(ctx.sqr(a), want, "kernel a={a}");
            }
        };

        let one = Uint::ONE;
        let mut edges = vec![Uint::ZERO, one, p.wrapping_sub(&one), *ctx.one(), *ctx.r2()];
        // All-ones limbs below p: the low k limbs, and all but a top limb
        // of p[7] − 1.
        for k in 1..8 {
            edges.push(Uint::from_limbs(std::array::from_fn(|i| {
                if i < k {
                    u64::MAX
                } else {
                    0
                }
            })));
        }
        let mut top = [u64::MAX; 8];
        top[7] = p.limb(7) - 1;
        edges.push(Uint::from_limbs(top));
        for a in &edges {
            assert!(*a < p);
            check_sqr(a);
            for b in &edges {
                check(a, b);
            }
        }
        // The largest `a` that `to_mont` passes after its fold, R − p − 1,
        // times r2, and times every edge.
        let a_max = Uint::ZERO.wrapping_sub(&p).wrapping_sub(&one);
        assert_eq!(
            fast_reduce_swap(&Uint::from_limbs([u64::MAX; 8]), &p),
            a_max
        );
        for b in &edges {
            check(&a_max, b);
        }

        let mut rng = StdRng::seed_from_u64(0x5eed_adc5);
        let n = 100_000;
        for _ in 0..n {
            let wide = Uint::from_limbs(std::array::from_fn(|_| rng.gen()));
            let a = fast_reduce_swap(&wide, &p); // below R − p
            let b = fast_reduce_swap(
                &Uint::from_limbs(std::array::from_fn(|_| rng.gen())).shr(1),
                &p,
            );
            check(&a, &b);
            check_sqr(&b);
        }
        eprintln!(
            "portable CIOS: ran ({} edge pairs, {n} random mul + sqr); mulx/adcx/adox kernel: {}",
            edges.len() * (edges.len() + 1),
            if ctx.carry_ise {
                "ran, same cases"
            } else {
                "skipped, CPU lacks BMI2 or ADX"
            }
        );
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

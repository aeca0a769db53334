//! Property-based tests over the whole stack (proptest).

use mpise::fp::{Fp, FpFull, FpRed};
use mpise::isa::intrinsics;
use mpise::mpi::fast::{fast_reduce_add, fast_reduce_swap, mod_add, mod_sub};
use mpise::mpi::mul::{mul_karatsuba, mul_os, mul_ps, square_ps};
use mpise::mpi::reference::RefInt;
use mpise::mpi::{Reduced, U512};
use mpise::sim::decode::decode;
use mpise::sim::encode::encode;
use mpise::sim::ext::IsaExtension;
use mpise::sim::inst::{AluImmOp, AluOp, Inst};
use mpise::sim::Reg;
use proptest::prelude::*;

fn arb_u512() -> impl Strategy<Value = U512> {
    prop::array::uniform8(any::<u64>()).prop_map(U512::from_limbs)
}

fn arb_residue() -> impl Strategy<Value = U512> {
    arb_u512().prop_map(|v| {
        let p = mpise::fp::params::Csidh512::get().p;
        // Fold into [0, p): value mod p via the reference.
        let r = RefInt::from_limbs(v.limbs()).rem(&RefInt::from_limbs(p.limbs()));
        U512::from_limbs(r.to_limbs(8).try_into().expect("8 limbs"))
    })
}

/// Non-canonical residues in `[p, 2p)`: every value a correct
/// reduction step must fold, and a range the plain `arb_residue`
/// generator can never emit. `2p < 2^512`, so the addition is exact.
fn arb_noncanonical() -> impl Strategy<Value = U512> {
    arb_residue().prop_map(|v| {
        let p = mpise::fp::params::Csidh512::get().p;
        v.wrapping_add(&p)
    })
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|n| Reg::from_number(n).expect("in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multiplication_techniques_agree(a in arb_u512(), b in arb_u512()) {
        let ps = mul_ps(&a, &b);
        prop_assert_eq!(ps, mul_os(&a, &b));
        prop_assert_eq!(ps, mul_karatsuba(&a, &b));
        prop_assert_eq!(square_ps(&a), mul_ps(&a, &a));
    }

    #[test]
    fn fast_reduction_algorithms_agree(a in arb_residue(), extra in any::<bool>()) {
        let p = mpise::fp::params::Csidh512::get().p;
        // Input range [0, 2p): a or a + p.
        let x = if extra { a.wrapping_add(&p) } else { a };
        let r1 = fast_reduce_add(&x, &p);
        let r2 = fast_reduce_swap(&x, &p);
        prop_assert_eq!(r1, r2);
        prop_assert!(r1 < p);
    }

    #[test]
    fn modular_add_sub_invert(a in arb_residue(), b in arb_residue()) {
        let p = mpise::fp::params::Csidh512::get().p;
        let s = mod_add(&a, &b, &p);
        prop_assert!(s < p);
        prop_assert_eq!(mod_sub(&s, &b, &p), a);
    }

    #[test]
    fn noncanonical_imports_fold_modulo_p(x in arb_noncanonical()) {
        // Pinned behavior: `Fp::from_uint` reduces modulo p, so an
        // import from [p, 2p) is indistinguishable from its canonical
        // twin x − p, and the export is always canonical.
        let p = mpise::fp::params::Csidh512::get().p;
        let canon = x.wrapping_sub(&p);
        let ff = FpFull::new();
        prop_assert_eq!(ff.from_uint(&x), ff.from_uint(&canon));
        prop_assert!(ff.to_uint(&ff.from_uint(&x)) < p);
        let fr = FpRed::new();
        prop_assert_eq!(fr.from_uint(&x), fr.from_uint(&canon));
        prop_assert!(fr.to_uint(&fr.from_uint(&x)) < p);
    }

    #[test]
    fn fast_reduce_is_exact_on_noncanonical_inputs(x in arb_noncanonical()) {
        // Pinned behavior: on [p, 2p) both single-subtraction
        // reductions return exactly x − p (not merely "something
        // canonical"), and on [0, p) they are the identity.
        let p = mpise::fp::params::Csidh512::get().p;
        let folded = x.wrapping_sub(&p);
        prop_assert_eq!(fast_reduce_add(&x, &p), folded);
        prop_assert_eq!(fast_reduce_swap(&x, &p), folded);
        prop_assert_eq!(fast_reduce_add(&folded, &p), folded);
        prop_assert_eq!(fast_reduce_swap(&folded, &p), folded);
    }

    #[test]
    fn backends_agree_on_noncanonical_inputs(x in arb_noncanonical(), b in arb_residue()) {
        // Mixed canonical/non-canonical operands must not split the
        // radices apart: this was the adversarial-edge gap — the old
        // generators folded everything into [0, p) first.
        let ff = FpFull::new();
        let fr = FpRed::new();
        let m1 = ff.to_uint(&ff.mul(&ff.from_uint(&x), &ff.from_uint(&b)));
        let m2 = fr.to_uint(&fr.mul(&fr.from_uint(&x), &fr.from_uint(&b)));
        prop_assert_eq!(m1, m2);
        let s1 = ff.to_uint(&ff.add(&ff.from_uint(&x), &ff.from_uint(&b)));
        let s2 = fr.to_uint(&fr.add(&fr.from_uint(&x), &fr.from_uint(&b)));
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn reduced_radix_conversion_preserves_noncanonical_values(x in arb_noncanonical()) {
        // Pinned behavior: radix conversion is NOT reduction — a
        // 512-bit value in [p, 2p) survives the 9 × 57-bit round trip
        // bit-exactly (9 · 57 = 513 bits ≥ 512). Folding happens at
        // the field boundary, never inside the digit converter.
        let r: Reduced<9> = Reduced::from_uint(&x);
        prop_assert!(r.is_canonical());
        prop_assert_eq!(r.to_uint::<8>(), x);
    }

    #[test]
    fn field_axioms_full_radix(a in arb_residue(), b in arb_residue(), c in arb_residue()) {
        field_axioms(&FpFull::new(), a, b, c)?;
    }

    #[test]
    fn field_axioms_reduced_radix(a in arb_residue(), b in arb_residue(), c in arb_residue()) {
        field_axioms(&FpRed::new(), a, b, c)?;
    }

    #[test]
    fn backends_agree(a in arb_residue(), b in arb_residue()) {
        let ff = FpFull::new();
        let fr = FpRed::new();
        let m1 = ff.to_uint(&ff.mul(&ff.from_uint(&a), &ff.from_uint(&b)));
        let m2 = fr.to_uint(&fr.mul(&fr.from_uint(&a), &fr.from_uint(&b)));
        prop_assert_eq!(m1, m2);
    }

    #[test]
    fn reduced_radix_round_trip(a in arb_u512()) {
        let a = a.shr(1); // 511 bits fit 9 limbs of 57 bits
        let r: Reduced<9> = Reduced::from_uint(&a);
        prop_assert!(r.is_canonical());
        prop_assert_eq!(r.to_uint::<8>(), a);
    }

    #[test]
    fn madd_pairs_reassemble(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        let full = (x as u128) * (y as u128) + z as u128;
        let lo = intrinsics::maddlu(x, y, z) as u128;
        let hi = intrinsics::maddhu(x, y, z) as u128;
        prop_assert_eq!(full, (hi << 64) | lo);
        let p = (x as u128) * (y as u128);
        prop_assert_eq!(intrinsics::madd57lu(x, y, 0) as u128, p & ((1 << 57) - 1));
        prop_assert_eq!(intrinsics::madd57hu(x, y, 0) as u128, (p >> 57) & ((1u128 << 64) - 1));
    }

    #[test]
    fn instruction_encode_decode_round_trip(
        rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg(),
        imm in -2048i32..=2047, shamt in 0i32..64,
    ) {
        let ext = IsaExtension::new("none");
        let insts = [
            Inst::Op { op: AluOp::Add, rd, rs1, rs2 },
            Inst::Op { op: AluOp::Mulhu, rd, rs1, rs2 },
            Inst::Op { op: AluOp::Sltu, rd, rs1, rs2 },
            Inst::OpImm { op: AluImmOp::Addi, rd, rs1, imm },
            Inst::OpImm { op: AluImmOp::Srai, rd, rs1, imm: shamt },
            Inst::Load { op: mpise::sim::inst::LoadOp::Ld, rd, rs1, offset: imm },
            Inst::Store { op: mpise::sim::inst::StoreOp::Sd, rs1, rs2, offset: imm },
        ];
        for inst in insts {
            let raw = encode(&inst, &ext).expect("encodes");
            prop_assert_eq!(decode(raw, &ext).expect("decodes"), inst);
        }
    }

    #[test]
    fn ise_encode_decode_round_trip(
        rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg(), rs3 in arb_reg(),
        imm in 0u8..64,
    ) {
        for ext in [mpise::isa::full_radix_ext(), mpise::isa::reduced_radix_ext()] {
            for def in ext.defs().to_vec() {
                let inst = if def.format.has_rs3() {
                    Inst::Custom { id: def.id, rd, rs1, rs2, rs3, imm: 0 }
                } else {
                    Inst::Custom { id: def.id, rd, rs1, rs2, rs3: Reg::Zero, imm }
                };
                let raw = encode(&inst, &ext).expect("encodes");
                prop_assert_eq!(decode(raw, &ext).expect("decodes"), inst);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn division_invariant(a in arb_u512(), d in arb_u512()) {
        prop_assume!(!d.is_zero());
        let (q, r) = mpise::mpi::div::div_rem(&a, &d);
        prop_assert!(r < d);
        // a == q*d + r via the reference integers.
        let back = RefInt::from_limbs(q.limbs())
            .mul(&RefInt::from_limbs(d.limbs()))
            .add(&RefInt::from_limbs(r.limbs()));
        prop_assert_eq!(back, RefInt::from_limbs(a.limbs()));
    }

    #[test]
    fn binary_gcd_inverse_matches_fermat(a in arb_residue()) {
        prop_assume!(!a.is_zero());
        let p = mpise::fp::params::Csidh512::get().p;
        let by_gcd = mpise::mpi::div::modinv(&a, &p).expect("p prime, a nonzero");
        let f = FpFull::new();
        let by_fermat = f.to_uint(&f.inv(&f.from_uint(&a)));
        prop_assert_eq!(by_gcd, by_fermat);
    }

    #[test]
    fn sqrt_round_trip(a in arb_residue()) {
        let f = FpRed::new();
        let x = f.from_uint(&a);
        let sq = f.sqr(&x);
        let r = f.sqrt(&sq).expect("squares have roots");
        prop_assert!(f.sqr(&r) == sq);
    }

    #[test]
    fn disassemble_reparse_round_trip(
        ops in prop::collection::vec((arb_reg(), arb_reg(), arb_reg(), 0u8..4), 1..20)
    ) {
        // Random straight-line programs survive disassemble -> parse.
        let ext = mpise::isa::full_radix_ext();
        let mut asm = mpise::sim::Assembler::new();
        for (rd, rs1, rs2, kind) in ops {
            match kind {
                0 => asm.add(rd, rs1, rs2),
                1 => asm.mulhu(rd, rs1, rs2),
                2 => asm.sltu(rd, rs1, rs2),
                _ => asm.custom_r4(mpise::isa::full_radix::MADDLU, rd, rs1, rs2, rs2),
            }
        }
        asm.ebreak();
        let p = asm.finish();
        let text: String = p
            .disassemble(&ext)
            .lines()
            .map(|l| l.split(": ").nth(1).unwrap().to_owned() + "\n")
            .collect();
        let p2 = mpise::sim::asm::parse_program(&text, &ext).expect("reparses");
        prop_assert_eq!(p, p2);
    }

    #[test]
    fn cios_matches_separated_montgomery(a in arb_residue(), b in arb_residue()) {
        let ctx = &mpise::fp::params::Csidh512::get().mont;
        let (lo, hi) = mul_ps(&a, &b);
        prop_assert_eq!(ctx.mul(&a, &b), ctx.redc(&lo, &hi));
        let (lo, hi) = square_ps(&a);
        prop_assert_eq!(ctx.sqr(&a), ctx.redc(&lo, &hi));
    }
}

fn field_axioms<F: Fp>(f: &F, a: U512, b: U512, c: U512) -> Result<(), TestCaseError> {
    let (ea, eb, ec) = (f.from_uint(&a), f.from_uint(&b), f.from_uint(&c));
    // Commutativity.
    prop_assert_eq!(f.to_uint(&f.mul(&ea, &eb)), f.to_uint(&f.mul(&eb, &ea)));
    prop_assert_eq!(f.to_uint(&f.add(&ea, &eb)), f.to_uint(&f.add(&eb, &ea)));
    // Associativity.
    let l = f.mul(&f.mul(&ea, &eb), &ec);
    let r = f.mul(&ea, &f.mul(&eb, &ec));
    prop_assert_eq!(f.to_uint(&l), f.to_uint(&r));
    // Distributivity.
    let l = f.mul(&ea, &f.add(&eb, &ec));
    let r = f.add(&f.mul(&ea, &eb), &f.mul(&ea, &ec));
    prop_assert_eq!(f.to_uint(&l), f.to_uint(&r));
    // Identities.
    prop_assert_eq!(f.to_uint(&f.mul(&ea, &f.one())), f.to_uint(&ea));
    prop_assert_eq!(f.to_uint(&f.add(&ea, &f.zero())), f.to_uint(&ea));
    // Inverses (multiplicative, when nonzero).
    if !f.is_zero(&ea) {
        prop_assert_eq!(f.to_uint(&f.mul(&ea, &f.inv(&ea))), U512::ONE);
    }
    prop_assert!(f.is_zero(&f.add(&ea, &f.neg(&ea))));
    Ok(())
}

//! Cross-backend kernel difftest.
//!
//! Two layers of comparison, both against oracles that share no code
//! with the implementations under test:
//!
//! 1. **Kernel layer** — every Table 4 kernel in every configuration
//!    (4 configs × 8 ops = 32 combinations) runs on the simulator and
//!    is checked against a [`RefInt`] schoolbook oracle reimplemented
//!    here, on shared seeded random inputs *plus* adversarial edges:
//!    0, 1, p−1, p, 2p−1 and limb-boundary carry patterns.
//! 2. **Field layer** — `FpFull`, `FpRed` and the four `SimFp`
//!    configurations all evaluate the same operations, and their
//!    **canonical byte encodings** (`to_uint().to_le_bytes()`) are
//!    diffed pairwise.

use mpise_fp::kernels::{Config, OpKind, Radix};
use mpise_fp::measure::KernelRunner;
use mpise_fp::params::{Csidh512, FULL_LIMBS, RED_LIMBS};
use mpise_fp::simfp::SimFp;
use mpise_fp::{Fp, FpFull, FpRed};
use mpise_mpi::reference::RefInt;
use mpise_mpi::{mul as mpi_mul, Reduced, U512};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of the kernel + field difftest pass.
#[derive(Debug, Clone, Default)]
pub struct KernelDiffOutcome {
    /// Kernel × configuration combinations exercised (must be 32).
    pub combos: u64,
    /// Total input cases diffed across both layers.
    pub cases: u64,
    /// Human-readable divergence descriptions (empty on success).
    pub failures: Vec<String>,
}

impl KernelDiffOutcome {
    /// Whether every comparison agreed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn ref_p() -> RefInt {
    RefInt::from_limbs(Csidh512::get().p.limbs())
}

fn words_to_int(words: &[u64], radix: Radix) -> RefInt {
    match radix {
        Radix::Full => RefInt::from_limbs(words),
        Radix::Reduced => {
            let mut acc = RefInt::zero();
            for (i, &w) in words.iter().enumerate() {
                acc = acc.add(&RefInt::from_limbs(&[w]).shl(57 * i));
            }
            acc
        }
    }
}

/// Encodes a canonical value (`< 2^512`) in the element word layout.
fn int_to_words(v: &RefInt, radix: Radix) -> Vec<u64> {
    match radix {
        Radix::Full => v.to_limbs(FULL_LIMBS),
        Radix::Reduced => {
            let u = U512::from_limbs(v.to_limbs(FULL_LIMBS).try_into().expect("8 limbs"));
            Reduced::<RED_LIMBS>::from_uint(&u).limbs().to_vec()
        }
    }
}

/// Adversarial canonical residues: identities, the top of the range and
/// limb-boundary carry patterns (all limbs saturated, the 57-bit radix
/// boundary, a single bit straddling limb 4).
fn edge_residues() -> Vec<U512> {
    let p = Csidh512::get().p;
    let pm1 = p.wrapping_sub(&U512::ONE);
    let mut low_ones = [0u64; FULL_LIMBS];
    for l in low_ones.iter_mut().take(FULL_LIMBS / 2) {
        *l = u64::MAX;
    }
    let mask57 = (1u64 << 57) - 1;
    vec![
        U512::ZERO,
        U512::ONE,
        pm1,
        U512::from_limbs(low_ones),
        U512::from_limbs([mask57; FULL_LIMBS]),
        U512::ONE.shl(57),
        U512::ONE.shl(57 * 4),
        U512::ONE.shl(256).wrapping_sub(&U512::ONE),
    ]
}

fn random_residue(rng: &mut StdRng) -> U512 {
    let p = Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if cand < p {
            return cand;
        }
    }
}

/// Expected result of `op` (value, compare-mod) from the schoolbook
/// oracle. `MontRedc` kernels may return any representative in
/// `[0, 2p)`, so those compare mod `p` with a range check.
fn oracle(op: OpKind, radix: Radix, inputs: &[&[u64]]) -> (RefInt, Option<RefInt>) {
    let rp = ref_p();
    let r_bits = match radix {
        Radix::Full => 64 * FULL_LIMBS,
        Radix::Reduced => 57 * RED_LIMBS,
    };
    let r_inv = || {
        let pm2 = RefInt::from_limbs(Csidh512::get().p_minus_2.limbs());
        RefInt::one().shl(r_bits).powmod(&pm2, &rp)
    };
    let a = words_to_int(inputs[0], radix);
    match op {
        OpKind::IntMul => (a.mul(&words_to_int(inputs[1], radix)), None),
        OpKind::IntSqr => (a.mul(&a), None),
        OpKind::MontRedc => (a.mulmod(&r_inv(), &rp), Some(rp)),
        OpKind::FastReduce => (a.rem(&rp), None),
        OpKind::FpAdd => (a.add(&words_to_int(inputs[1], radix)).rem(&rp), None),
        OpKind::FpSub => (
            a.add(&rp).sub(&words_to_int(inputs[1], radix)).rem(&rp),
            None,
        ),
        OpKind::FpMul => (
            a.mulmod(&words_to_int(inputs[1], radix), &rp)
                .mulmod(&r_inv(), &rp),
            None,
        ),
        OpKind::FpSqr => (a.mulmod(&a, &rp).mulmod(&r_inv(), &rp), None),
    }
}

/// Builds the input case list for one op: per-op adversarial edges
/// first, then seeded random cases up to `cases` total.
fn build_cases(op: OpKind, radix: Radix, cases: usize, rng: &mut StdRng) -> Vec<Vec<Vec<u64>>> {
    let p = ref_p();
    let edges = edge_residues();
    let residue_pairs: Vec<(U512, U512)> = {
        let mut v: Vec<(U512, U512)> = edges
            .iter()
            .map(|&e| (e, *edges.last().expect("non-empty")))
            .collect();
        v.extend(edges.iter().map(|&e| (e, e)));
        v
    };
    let to_words = |v: &U512| int_to_words(&RefInt::from_limbs(v.limbs()), radix);
    let mut out: Vec<Vec<Vec<u64>>> = Vec::new();
    match op {
        OpKind::IntMul | OpKind::FpAdd | OpKind::FpSub | OpKind::FpMul => {
            for (a, b) in &residue_pairs {
                out.push(vec![to_words(a), to_words(b)]);
            }
            while out.len() < cases {
                out.push(vec![
                    to_words(&random_residue(rng)),
                    to_words(&random_residue(rng)),
                ]);
            }
        }
        OpKind::IntSqr | OpKind::FpSqr => {
            for e in &edges {
                out.push(vec![to_words(e)]);
            }
            while out.len() < cases {
                out.push(vec![to_words(&random_residue(rng))]);
            }
        }
        OpKind::FastReduce => {
            // Inputs range over [0, 2p): include the boundary values p
            // and 2p−1 that no canonical-residue generator produces.
            let two_p_m1 = p.add(&p).sub(&RefInt::one());
            for v in [
                RefInt::zero(),
                RefInt::one(),
                p.sub(&RefInt::one()),
                p.clone(),
                p.add(&RefInt::one()),
                two_p_m1,
            ] {
                out.push(vec![int_to_words(&v, radix)]);
            }
            while out.len() < cases {
                let r = RefInt::from_limbs(random_residue(rng).limbs());
                let v = if rng.gen::<bool>() { r.add(&p) } else { r };
                out.push(vec![int_to_words(&v, radix)]);
            }
        }
        OpKind::MontRedc => {
            // Double-length products, including products of the edges
            // (0·0, 1·(p−1), (p−1)·(p−1), saturated-limb patterns).
            let mut pairs: Vec<(U512, U512)> = residue_pairs;
            while pairs.len() < cases {
                pairs.push((random_residue(rng), random_residue(rng)));
            }
            for (a, b) in pairs.into_iter().take(cases.max(1)) {
                let t = match radix {
                    Radix::Full => {
                        let (lo, hi) = mpi_mul::mul_ps(&a, &b);
                        let mut t = lo.limbs().to_vec();
                        t.extend_from_slice(hi.limbs());
                        t
                    }
                    Radix::Reduced => {
                        let ra = Reduced::<RED_LIMBS>::from_uint(&a);
                        let rb = Reduced::<RED_LIMBS>::from_uint(&b);
                        let mut t = vec![0u64; 2 * RED_LIMBS];
                        mpise_mpi::reduced::mul_ps_slices_57(ra.limbs(), rb.limbs(), &mut t);
                        t
                    }
                };
                out.push(vec![t]);
            }
        }
    }
    out
}

/// Runs all 32 kernel × configuration combinations against the
/// schoolbook oracle.
pub fn run_kernel_layer(cases_per_combo: usize, seed: u64) -> KernelDiffOutcome {
    let mut outcome = KernelDiffOutcome::default();
    for (ci, &config) in Config::ALL.iter().enumerate() {
        let mut runner = KernelRunner::new(config);
        for (oi, &op) in OpKind::ALL.iter().enumerate() {
            outcome.combos += 1;
            let mut rng = StdRng::seed_from_u64(seed ^ ((ci as u64) << 32) ^ ((oi as u64) << 16));
            let cases = build_cases(op, config.radix, cases_per_combo, &mut rng);
            for (case_idx, inputs) in cases.iter().enumerate() {
                outcome.cases += 1;
                let refs: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
                let (out, _cycles) = runner.run(op, &refs);
                let got = words_to_int(&out, config.radix);
                let (want, modulus) = oracle(op, config.radix, &refs);
                let ok = match &modulus {
                    None => got == want,
                    Some(m) => {
                        got.rem(m) == want.rem(m)
                            && got.cmp_ref(&m.add(m)) == std::cmp::Ordering::Less
                    }
                };
                if !ok {
                    outcome.failures.push(format!(
                        "{config}: {op:?} diverges from schoolbook oracle on case {case_idx}"
                    ));
                    break;
                }
            }
        }
    }
    outcome
}

/// Byte-level agreement of one operation across two backends.
fn diff_bytes<F1: Fp, F2: Fp>(
    label1: &str,
    f1: &F1,
    label2: &str,
    f2: &F2,
    a: &U512,
    b: &U512,
    failures: &mut Vec<String>,
) -> u64 {
    let (a1, b1) = (f1.from_uint(a), f1.from_uint(b));
    let (a2, b2) = (f2.from_uint(a), f2.from_uint(b));
    let ops: [(&str, U512, U512); 4] = [
        (
            "add",
            f1.to_uint(&f1.add(&a1, &b1)),
            f2.to_uint(&f2.add(&a2, &b2)),
        ),
        (
            "sub",
            f1.to_uint(&f1.sub(&a1, &b1)),
            f2.to_uint(&f2.sub(&a2, &b2)),
        ),
        (
            "mul",
            f1.to_uint(&f1.mul(&a1, &b1)),
            f2.to_uint(&f2.mul(&a2, &b2)),
        ),
        ("sqr", f1.to_uint(&f1.sqr(&a1)), f2.to_uint(&f2.sqr(&a2))),
    ];
    for (name, r1, r2) in &ops {
        if r1.to_le_bytes() != r2.to_le_bytes() {
            failures.push(format!(
                "field {name}: {label1} {} != {label2} {}",
                r1.to_hex(),
                r2.to_hex()
            ));
        }
    }
    ops.len() as u64
}

/// Field-layer difftest: host backends against each other and against
/// the four simulator configurations.
///
/// `sim_cases` bounds the (slow) simulator comparisons; host
/// comparisons always cover the full case list.
pub fn run_field_layer(cases: usize, sim_cases: usize, seed: u64) -> KernelDiffOutcome {
    let mut outcome = KernelDiffOutcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let p = Csidh512::get().p;
    let mut inputs: Vec<(U512, U512)> = Vec::new();
    let edges = edge_residues();
    // Non-canonical imports too: from_uint documents reduction mod p.
    let mut import_edges = edges.clone();
    import_edges.push(p);
    import_edges.push(p.wrapping_add(&U512::ONE));
    for (i, &e) in import_edges.iter().enumerate() {
        inputs.push((e, import_edges[(i + 1) % import_edges.len()]));
    }
    while inputs.len() < cases {
        inputs.push((random_residue(&mut rng), random_residue(&mut rng)));
    }

    let full = FpFull::new();
    let red = FpRed::new();
    for (a, b) in &inputs {
        outcome.cases += diff_bytes("FpFull", &full, "FpRed", &red, a, b, &mut outcome.failures);
    }

    // Simulator backends: every configuration against the host oracle.
    for config in Config::ALL {
        let sim = SimFp::new(config);
        for (a, b) in inputs.iter().take(sim_cases) {
            outcome.cases += diff_bytes(
                "FpFull",
                &full,
                &format!("SimFp[{config}]"),
                &sim,
                a,
                b,
                &mut outcome.failures,
            );
        }
    }

    outcome
}

/// Merges two outcomes (kernel layer + field layer) into one.
pub fn merge(a: KernelDiffOutcome, b: KernelDiffOutcome) -> KernelDiffOutcome {
    KernelDiffOutcome {
        combos: a.combos + b.combos,
        cases: a.cases + b.cases,
        failures: a.failures.into_iter().chain(b.failures).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_layer_covers_all_32_combos() {
        let out = run_kernel_layer(3, 0xD1FF);
        assert_eq!(out.combos, 32);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn field_layer_agrees_across_backends() {
        let out = run_field_layer(12, 1, 0xD1FF);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn oracle_matches_known_small_values() {
        // 3 · 5 = 15 through the IntMul oracle in both radices.
        for radix in [Radix::Full, Radix::Reduced] {
            let a = int_to_words(&RefInt::from_u64(3), radix);
            let b = int_to_words(&RefInt::from_u64(5), radix);
            let (want, m) = oracle(OpKind::IntMul, radix, &[&a, &b]);
            assert!(m.is_none());
            assert_eq!(want, RefInt::from_u64(15));
        }
    }

    #[test]
    fn edge_residues_are_canonical() {
        let p = Csidh512::get().p;
        for e in edge_residues() {
            assert!(e < p);
        }
    }
}

//! The layer ledger: direct, timed calls into each layer's public API,
//! from `mpi` up to the engine, in both of the repository's clocks
//! (simulated Rocket cycles and host wall time).
//!
//! Every traced run appends the same ledger, whatever its workload, so
//! each per-layer metric is reported on every workload. Its inputs are
//! pinned to `bench`'s seed, like `sim-action`'s: the simulated cycles
//! and the `CountingFp` op counts it reports must repeat bit for bit on
//! every run, and the run fails when two independent routes to the same
//! count disagree.

use crate::flood::{malformed_key, PIPELINE};
use crate::kex::{ordinary_key, random_residue, start_engine};
use crate::report::{current_rss_mb, median, ms_since, Report};
use crate::sim_action::{
    host_reference, pinned_key, weighted, BOUND, FULL_ISA, PINNED_SEED, RED_ISE,
};
use mpise_bench::{PAPER_ACTION_MCYCLES, PAPER_TABLE4};
use mpise_csidh::isogeny::isogeny;
use mpise_csidh::mont::{is_infinity, rhs, xmul, Curve, Point};
use mpise_csidh::scalar::four_times_product;
use mpise_csidh::{group_action, validate, CsidhKeypair, PublicKey};
use mpise_engine::{Outcome, Request, Ticket};
use mpise_fp::kernels::{Config, OpKind, Radix};
use mpise_fp::measure::{measure_config, KernelRunner, OpMeasurement};
use mpise_fp::params::{NUM_PRIMES, PRIMES, RED_LIMBS};
use mpise_fp::simfp::SimFp;
use mpise_fp::{CountingFp, Csidh512, Fp, FpFull, FpRed, OpCounts};
use mpise_mpi::mul::mul_ps;
use mpise_mpi::reduced::mul_ps_slices_57;
use mpise_mpi::{Reduced, U512};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Metric name of each configuration, in [`Config::ALL`] order.
const CONFIG_NAMES: [&str; 4] = ["full_isa", "full_ise", "red_isa", "red_ise"];

/// Timed samples per host micro-measurement; the median is reported.
const SAMPLES: usize = 7;

fn config_name(config: Config) -> &'static str {
    let i = Config::ALL.iter().position(|&c| c == config);
    CONFIG_NAMES[i.expect("a Table 4 configuration")]
}

fn op_name(op: OpKind) -> &'static str {
    match op {
        OpKind::IntMul => "int_mul",
        OpKind::IntSqr => "int_sqr",
        OpKind::MontRedc => "mont_redc",
        OpKind::FastReduce => "fast_reduce",
        OpKind::FpAdd => "fp_add",
        OpKind::FpSub => "fp_sub",
        OpKind::FpMul => "fp_mul",
        OpKind::FpSqr => "fp_sqr",
    }
}

/// Median over [`SAMPLES`] runs of `iters` calls, in ns per call.
fn ns_per_call(iters: u32, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                call();
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .collect();
    median(&samples)
}

fn pct_err(measured: f64, paper: f64) -> f64 {
    (measured - paper) / paper * 100.0
}

/// Appends every per-layer metric to `rep`.
pub fn run(nproc: usize, rep: &mut Report) {
    let t = Instant::now();
    mpi(rep);
    fp_host(rep);
    let kernels = kernels(rep);
    sim(rep);
    let counts = csidh(rep);
    action(&kernels, &counts, rep);
    engine(nproc, rep);
    eprintln!("ledger: {:.1} s", t.elapsed().as_secs_f64());
}

/// `mpi`: product-scanning multiply and Montgomery reduction, both
/// radices.
fn mpi(rep: &mut Report) {
    let c = Csidh512::get();
    let mut rng = StdRng::seed_from_u64(PINNED_SEED);
    let (a, b) = (random_residue(&mut rng), random_residue(&mut rng));
    rep.put(
        "mpi.mul_ps.ns",
        ns_per_call(20_000, || {
            black_box(mul_ps(black_box(&a), black_box(&b)));
        }),
        "ns",
    );
    let (lo, hi) = mul_ps(&a, &b);
    rep.put(
        "mpi.redc.full.ns",
        ns_per_call(20_000, || {
            black_box(c.mont.redc(black_box(&lo), black_box(&hi)));
        }),
        "ns",
    );
    let (ra, rb) = (
        Reduced::<RED_LIMBS>::from_uint(&a),
        Reduced::<RED_LIMBS>::from_uint(&b),
    );
    let mut t = [0u64; 2 * RED_LIMBS];
    mul_ps_slices_57(ra.limbs(), rb.limbs(), &mut t);
    rep.put(
        "mpi.redc.red.ns",
        ns_per_call(20_000, || {
            black_box(c.mont57.redc(black_box(&t)));
        }),
        "ns",
    );
}

/// `fp` host backends: one chained op per call.
fn fp_host(rep: &mut Report) {
    fp_backend("full", &FpFull::new(), rep);
    fp_backend("red", &FpRed::new(), rep);
}

fn fp_backend<F: Fp>(radix: &str, f: &F, rep: &mut Report) {
    let mut rng = StdRng::seed_from_u64(PINNED_SEED);
    let a = f.from_uint(&random_residue(&mut rng));
    let b = f.from_uint(&random_residue(&mut rng));
    let mut acc = a;
    let mut time_op = |op: &str, iters: u32, g: &dyn Fn(&F::Elem) -> F::Elem| {
        let ns = ns_per_call(iters, || acc = g(black_box(&acc)));
        rep.put(format!("fp.{radix}.{op}.ns"), ns, "ns");
    };
    time_op("mul", 20_000, &|x| f.mul(x, &b));
    time_op("sqr", 20_000, &|x| f.sqr(x));
    time_op("add", 50_000, &|x| f.add(x, &b));
    time_op("sub", 50_000, &|x| f.sub(x, &b));
    let inv_us = ns_per_call(30, || acc = f.inv(black_box(&a))) / 1e3;
    black_box(&acc);
    rep.put(format!("fp.{radix}.inv.us"), inv_us, "us");
}

/// `fp` kernels on the simulated core: cycles of every Table 4 op in
/// every configuration, validated against the host arithmetic.
fn kernels(rep: &mut Report) -> Vec<(Config, Vec<OpMeasurement>)> {
    let matrix: Vec<(Config, Vec<OpMeasurement>)> = Config::ALL
        .iter()
        .map(|&config| (config, measure_config(config, 1)))
        .collect();
    for (col, (config, ops)) in matrix.iter().enumerate() {
        let cfg = config_name(*config);
        for m in ops {
            rep.put(
                format!("kern.{cfg}.{}.cycles", op_name(m.op)),
                m.cycles as f64,
                "cycles",
            );
        }
        for op in [OpKind::FpMul, OpKind::FpSqr] {
            let measured = kernel(&matrix, *config, op).cycles;
            let paper = PAPER_TABLE4
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, v)| v[col])
                .expect("paper row");
            rep.put(
                format!("kern.{cfg}.{}.paper_err_pct", op_name(op)),
                pct_err(measured as f64, paper as f64),
                "%",
            );
        }
    }
    matrix
}

fn kernel(matrix: &[(Config, Vec<OpMeasurement>)], config: Config, op: OpKind) -> &OpMeasurement {
    matrix
        .iter()
        .find(|(c, _)| *c == config)
        .and_then(|(_, ms)| ms.iter().find(|m| m.op == op))
        .expect("matrix covers every config and op")
}

/// `sim`: interpreter speed on back-to-back Fp-multiplication kernels.
fn sim(rep: &mut Report) {
    let mut rng = StdRng::seed_from_u64(PINNED_SEED);
    let (a, b) = (random_residue(&mut rng), random_residue(&mut rng));
    for config in Config::ALL {
        let words = |v: &U512| match config.radix {
            Radix::Full => v.limbs().to_vec(),
            Radix::Reduced => Reduced::<RED_LIMBS>::from_uint(v).limbs().to_vec(),
        };
        let (wa, wb) = (words(&a), words(&b));
        let mut runner = KernelRunner::new(config);
        let inputs: [&[u64]; 2] = [&wa, &wb];
        let _ = runner.run_full(OpKind::FpMul, &inputs);
        let mut mips = Vec::new();
        let mut call_ns = Vec::new();
        for _ in 0..SAMPLES {
            let (mut calls, mut instret) = (0u64, 0u64);
            let t = Instant::now();
            while calls < 500 || t.elapsed() < Duration::from_millis(40) {
                let (_, stats) = runner.run_full(OpKind::FpMul, &inputs);
                instret += stats.instret;
                calls += 1;
            }
            let secs = t.elapsed().as_secs_f64();
            mips.push(instret as f64 / secs / 1e6);
            call_ns.push(secs * 1e9 / calls as f64);
        }
        let cfg = config_name(config);
        rep.put(format!("sim.{cfg}.mips"), median(&mips), "Minst/s");
        rep.put(format!("sim.{cfg}.fp_mul.call_ns"), median(&call_ns), "ns");
    }
}

/// Median ms of `reps` runs of `call`.
fn ms_per_call<T>(reps: usize, mut call: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(call());
            ms_since(t)
        })
        .collect();
    median(&samples)
}

/// A point of exact order `PRIMES[i]` on `curve`, and the point it was
/// cleared from.
fn order_l_point(
    f: &FpFull,
    curve: &Curve<U512>,
    i: usize,
    rng: &mut StdRng,
) -> (Point<U512>, Point<U512>) {
    let cofactor = four_times_product((0..NUM_PRIMES).filter(|&j| j != i));
    loop {
        let x = f.from_uint(&random_residue(rng));
        if f.legendre(&rhs(f, curve, &x)) != 1 {
            continue;
        }
        let p = Point { x, z: f.one() };
        let k = xmul(f, curve, &p, &cofactor);
        if !is_infinity(f, &k) {
            return (p, k);
        }
    }
}

/// `csidh`: curve, isogeny, action and validation costs on `FpFull`,
/// exact op counts through `CountingFp`, and the phase split of the
/// action from its telemetry spans.
fn csidh(rep: &mut Report) -> OpCounts {
    let f = FpFull::new();
    let mut rng = StdRng::seed_from_u64(PINNED_SEED);
    let base = Curve::from_affine(&f, f.zero());

    let x = Point {
        x: f.from_uint(&random_residue(&mut rng)),
        z: f.one(),
    };
    let k511 = random_residue(&mut rng).or(&U512::ONE.shl(510));
    rep.put(
        "csidh.xmul511.ms",
        ms_per_call(SAMPLES, || xmul(&f, &base, &x, &k511)),
        "ms",
    );
    let (p3, k3) = order_l_point(&f, &base, 0, &mut rng);
    rep.put(
        "csidh.isogeny.l3.us",
        ns_per_call(2_000, || {
            black_box(isogeny(&f, &base, &p3, &k3, PRIMES[0]));
        }) / 1e3,
        "us",
    );
    let last = NUM_PRIMES - 1;
    let (p587, k587) = order_l_point(&f, &base, last, &mut rng);
    rep.put(
        "csidh.isogeny.l587.ms",
        ms_per_call(SAMPLES, || isogeny(&f, &base, &p587, &k587, PRIMES[last])),
        "ms",
    );

    let (key, _) = pinned_key();
    rep.put(
        "csidh.action_b5.ms",
        ms_per_call(5, || {
            let (_, mut rng) = pinned_key();
            group_action(&f, &mut rng, &PublicKey::BASE, &key)
        }),
        "ms",
    );
    let good = host_reference();
    let bad = ordinary_key(&mut rng);
    for (name, pk, expect) in [("ok", good, true), ("bad", bad, false)] {
        let mut verdicts = Vec::new();
        let ms = ms_per_call(5, || {
            let mut rng = StdRng::seed_from_u64(PINNED_SEED);
            verdicts.push(validate(&f, &mut rng, &pk));
        });
        rep.put(format!("csidh.validate.{name}.ms"), ms, "ms");
        rep.check(verdicts.iter().all(|&v| v == expect), || {
            format!("validate of a known {name} key returned {verdicts:?}")
        });
    }

    let count_action = || {
        let counting = CountingFp::new(FpFull::new());
        let (key, mut rng) = pinned_key();
        let pk = group_action(&counting, &mut rng, &PublicKey::BASE, &key);
        (counting.counts(), pk)
    };
    let (counts, pk) = count_action();
    let (again, _) = count_action();
    rep.check(counts == again && pk == good, || {
        format!("counted actions disagree: {counts:?} vs {again:?}")
    });
    for (op, n) in [
        ("mul", counts.mul),
        ("sqr", counts.sqr),
        ("add", counts.add),
        ("sub", counts.sub),
    ] {
        rep.put(format!("csidh.action_b5.{op}"), n as f64, "count");
    }
    let counting = CountingFp::new(FpFull::new());
    let ok = validate(&counting, &mut StdRng::seed_from_u64(PINNED_SEED), &good);
    rep.check(ok, || "counted validate rejected a valid key".to_owned());
    let vc = counting.counts();
    rep.put("csidh.validate.ok.mul", vc.mul as f64, "count");
    rep.put("csidh.validate.ok.sqr", vc.sqr as f64, "count");
    counts
}

/// The Table 4 bottom row: the pinned action simulated on the baseline
/// and the ISE configuration, with its phase split, CPI and the
/// model's error against the paper.
fn action(kernels: &[(Config, Vec<OpMeasurement>)], counts: &OpCounts, rep: &mut Report) {
    let reference = host_reference();
    let was_enabled = mpise_obs::enabled();
    mpise_obs::set_enabled(true);
    let mut mcycles = [0.0; 2];
    for (i, config) in [FULL_ISA, RED_ISE].into_iter().enumerate() {
        let cfg = config_name(config);
        let sim = SimFp::new(config);
        let (key, mut rng) = pinned_key();
        let _ = mpise_obs::take_spans();
        let t = Instant::now();
        let pk = group_action(&sim, &mut rng, &PublicKey::BASE, &key);
        let host_s = t.elapsed().as_secs_f64();
        let spans = mpise_obs::take_spans();
        let cycles = sim.cycles();
        let modelled = weighted(counts, |op| kernel(kernels, config, op).cycles);
        rep.check(pk == reference, || {
            format!("{cfg}: simulated action disagrees with FpFull")
        });
        rep.check(cycles == modelled, || {
            format!("{cfg}: simulated {cycles} cycles, op counts x kernel cycles give {modelled}")
        });
        let Some(node) = spans.child("csidh.action") else {
            rep.check(false, || format!("{cfg}: no csidh.action span"));
            continue;
        };
        rep.check(node.total_cycles() == cycles, || {
            format!(
                "{cfg}: spans hold {} cycles of {cycles}",
                node.total_cycles()
            )
        });
        let instret = weighted(counts, |op| kernel(kernels, config, op).instret);
        mcycles[i] = cycles as f64 / 1e6;
        rep.put(format!("action_mcycles.{cfg}"), mcycles[i], "Mcycles");
        let paper =
            PAPER_ACTION_MCYCLES[Config::ALL.iter().position(|&c| c == config).unwrap_or(0)];
        rep.put(
            format!("action_mcycles.{cfg}.paper_err_pct"),
            pct_err(mcycles[i], paper),
            "%",
        );
        rep.put(format!("sim.{cfg}.action_host_s"), host_s, "s");
        rep.put(
            format!("sim.{cfg}.action_cpi"),
            cycles as f64 / instret as f64,
            "cycles/inst",
        );
        if config == FULL_ISA {
            let total = node.total_cycles() as f64;
            for phase in ["sample", "cofactor", "isogeny", "normalize"] {
                let share = node
                    .child(&format!("csidh.{phase}"))
                    .map_or(0.0, |n| n.total_cycles() as f64 / total * 100.0);
                rep.put(format!("csidh.phase.{phase}.pct"), share, "%");
            }
            let count = |name: &str| node.child(name).map_or(0, |n| n.count) as f64;
            rep.put(
                "csidh.action.round_yield",
                count("csidh.isogeny") / count("csidh.sample"),
                "ratio",
            );
        }
    }
    mpise_obs::set_enabled(was_enabled);
    let speedup = mcycles[0] / mcycles[1];
    rep.put("ise_speedup", speedup, "x");
    rep.put(
        "ise_speedup.paper_err_pct",
        pct_err(speedup, PAPER_ACTION_MCYCLES[0] / PAPER_ACTION_MCYCLES[3]),
        "%",
    );
}

/// Sessions each mini key-exchange client runs.
const PROBE_SESSIONS: usize = 3;

/// Requests of the mini flood.
const PROBE_FLOOD: u64 = 200_000;

/// `Engine::stats()` scrapes during the mini flood. The engine reports
/// whole microseconds, so the server-side percentiles are the mean over
/// the scrapes.
const PROBE_SCRAPES: u64 = 4;

/// `engine`: a mini key exchange (client-observed latency per op and
/// its queue wait: client latency minus the direct-call time of the
/// same request) and a mini flood of malformed keys (server-side
/// latency, submit cost, stats-call cost, memory growth).
fn engine(nproc: usize, rep: &mut Report) {
    let f = FpFull::new();
    let mut rng = StdRng::seed_from_u64(PINNED_SEED);
    let peers: Vec<CsidhKeypair> = (0..nproc)
        .map(|_| CsidhKeypair::generate_with_bound(&f, &mut rng, BOUND))
        .collect();

    // Mini key exchange: one closed-loop client per worker.
    let engine = start_engine(nproc);
    let calls: Vec<(Request, u64, f64, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = peers
            .iter()
            .enumerate()
            .map(|(c, peer)| {
                let engine = &engine;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut rng = StdRng::seed_from_u64(PINNED_SEED + 1 + c as u64);
                    // Like a kex session: keygen and validate in flight
                    // together, validate awaited first, then derive.
                    let mut send = |requests: &[Request], out: &mut Vec<_>| {
                        let sent: Vec<_> = requests
                            .iter()
                            .map(|&request| {
                                let seed: u64 = rng.gen();
                                let t = Instant::now();
                                (request, seed, t, engine.submit(seed, request, None))
                            })
                            .collect();
                        for (request, seed, t, ticket) in sent.into_iter().rev() {
                            if let Ok(Ok(outcome)) = ticket.map(Ticket::wait) {
                                out.push((request, seed, ms_since(t), outcome));
                            }
                        }
                    };
                    for _ in 0..PROBE_SESSIONS {
                        let validate = Request::ValidatePublicKey { key: peer.public };
                        send(&[Request::Keygen { bound: BOUND }, validate], &mut out);
                        let keypair = out.iter().rev().find_map(|call| match call.3 {
                            Outcome::Keypair { private, .. } => Some(private),
                            _ => None,
                        });
                        if let Some(private) = keypair {
                            let derive = Request::DeriveSharedSecret {
                                private,
                                their_public: peer.public,
                            };
                            send(&[derive], &mut out);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe client"))
            .collect()
    });
    engine.shutdown();
    rep.check(calls.len() == nproc * PROBE_SESSIONS * 3, || {
        format!(
            "engine probe completed {} of {} calls",
            calls.len(),
            nproc * PROBE_SESSIONS * 3
        )
    });

    let mut latency: [Vec<f64>; 3] = Default::default();
    let mut waits = Vec::new();
    for &(request, seed, ms, outcome) in &calls {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        let (slot, direct) = match request {
            Request::Keygen { bound } => {
                let kp = CsidhKeypair::generate_with_bound(&f, &mut rng, bound);
                (
                    0,
                    Outcome::Keypair {
                        private: kp.private,
                        public: kp.public,
                    },
                )
            }
            Request::ValidatePublicKey { key } => {
                (1, Outcome::Validated(validate(&f, &mut rng, &key)))
            }
            Request::DeriveSharedSecret {
                private,
                their_public,
            } => (
                2,
                Outcome::SharedSecret(private.shared_secret(&f, &mut rng, &their_public)),
            ),
        };
        let direct_ms = ms_since(t);
        rep.check(direct == outcome, || {
            format!("engine answered {outcome:?}, the direct call {direct:?}")
        });
        latency[slot].push(ms);
        waits.push(ms - direct_ms);
    }
    for (slot, op) in ["keygen", "validate", "derive"].iter().enumerate() {
        rep.put(
            format!("engine.{op}.client_p50.ms"),
            median(&latency[slot]),
            "ms",
        );
    }
    rep.put("engine.queue_wait.ms", median(&waits), "ms");

    // Mini flood on a fresh engine.
    let engine = start_engine(nproc);
    let keys: Vec<PublicKey> = (0..1024).map(|_| malformed_key(&mut rng)).collect();
    let rss_before = current_rss_mb();
    let mut pending: VecDeque<Ticket> = VecDeque::new();
    let mut submit_s = 0.0;
    let (mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new());
    let answered = |ticket: Ticket, rep: &mut Report| {
        let outcome = ticket.wait();
        rep.check(outcome == Ok(Outcome::Validated(false)), || {
            format!("malformed key answered {outcome:?}")
        });
    };
    for i in 0..PROBE_FLOOD {
        if pending.len() == PIPELINE {
            answered(pending.pop_front().expect("pending request"), rep);
        }
        let key = keys[i as usize % keys.len()];
        let t = Instant::now();
        let ticket = engine.submit(i, Request::ValidatePublicKey { key }, None);
        submit_s += t.elapsed().as_secs_f64();
        match ticket {
            Ok(t) => pending.push_back(t),
            Err(e) => rep.check(false, || format!("submit: {e}")),
        }
        if (i + 1) % (PROBE_FLOOD / PROBE_SCRAPES) == 0 {
            let stats = engine.stats();
            let ms = |v: Option<u64>| v.map_or(f64::NAN, |us| us as f64 / 1e3);
            p50_ms.push(ms(stats.p50_us));
            p99_ms.push(ms(stats.p99_us));
        }
    }
    for ticket in pending {
        answered(ticket, rep);
    }
    let stats_ms = ms_per_call(SAMPLES, || engine.stats());
    let rss_growth = current_rss_mb() - rss_before;
    engine.shutdown();
    rep.put(
        "engine.submit_block.us",
        submit_s * 1e6 / PROBE_FLOOD as f64,
        "us",
    );
    rep.put("engine.stats_call.ms", stats_ms, "ms");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    rep.put("engine.server_p50.ms", mean(&p50_ms), "ms");
    rep.put("engine.server_p99.ms", mean(&p99_ms), "ms");
    rep.put(
        "engine.rss_growth.mb",
        rss_growth / PROBE_FLOOD as f64 * 1e6,
        "MB/Mreq",
    );
}

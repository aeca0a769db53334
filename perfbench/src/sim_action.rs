//! `sim-action`: the paper's headline workload.
//!
//! One operation is a Table 4 comparison: the same bound-5 CSIDH-512
//! group action with every field operation run kernel by kernel on
//! [`SimFp`], first on the full-radix ISA-only baseline and then on the
//! reduced-radix ISE configuration. The simulator and the simulated
//! kernels do all of the work; the host field backends and the engine
//! do none. The two configurations drive the interpreter through
//! different instruction mixes: base `mul`/`mulhu`/`sltu` chains versus
//! the custom-instruction executor.
//!
//! The key and the action's random stream are pinned to `bench`'s seed
//! (`0xC51D`) rather than taken from `--seed`, so the simulated cycle
//! counts are exact and equal what `bench` reports; key sampling alone
//! moves the action's cost by ±15%.
//!
//! The host time of an action is summed per field operation. On a
//! shared host, co-tenants slow the interpreter by up to 1.7× for
//! stretches of one to more than ten seconds; over ten runs on a 2-vCPU
//! host, the pair's wall time spread 30–34% (interquartile range over
//! median). Each operation kind's per-call time is therefore taken as
//! the 5th percentile of its 100k+ calls in the action: the undisturbed
//! cost, whose spread on the same host was 5–11% (see [`TimedSim`]).
//! Host time outside the field operations (well under 1%) counts as
//! measured.

use crate::report::{median, Report, Window};
use mpise_csidh::{group_action, PrivateKey, PublicKey};
use mpise_fp::kernels::{Config, OpKind};
use mpise_fp::measure::measure_config;
use mpise_fp::simfp::{SimElem, SimFp};
use mpise_fp::{CountingFp, Fp, FpFull, OpCounts};
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// `bench`'s seed: the pinned key and action stream of this workload.
pub const PINNED_SEED: u64 = 0xC51D;

/// Private-exponent bound of every key in the benchmark (CSIDH-512).
pub const BOUND: i8 = 5;

/// The full-radix, ISA-only baseline (Table 4, first column).
pub const FULL_ISA: Config = Config::ALL[0];

/// The reduced-radix, ISE-supported configuration (Table 4, last column).
pub const RED_ISE: Config = Config::ALL[3];

/// The pinned key and the random stream its action continues with,
/// exactly as `bench` draws them.
pub fn pinned_key() -> (PrivateKey, StdRng) {
    let mut rng = StdRng::seed_from_u64(PINNED_SEED);
    let key = PrivateKey::random_with_bound(&mut rng, BOUND);
    (key, rng)
}

/// The pinned action on the host `FpFull` backend: the reference public
/// key every simulated action must reproduce.
pub fn host_reference() -> PublicKey {
    let (key, mut rng) = pinned_key();
    group_action(&FpFull::new(), &mut rng, &PublicKey::BASE, &key)
}

/// Σ op-count × per-op cost over the four field operations an action
/// issues.
pub fn weighted(counts: &OpCounts, per_op: impl Fn(OpKind) -> u64) -> u64 {
    counts.mul * per_op(OpKind::FpMul)
        + counts.sqr * per_op(OpKind::FpSqr)
        + counts.add * per_op(OpKind::FpAdd)
        + counts.sub * per_op(OpKind::FpSub)
}

/// Σ op-count × per-op kernel cycles: the pinned action's simulated
/// cost derived independently of [`SimFp`]'s own counter.
pub fn modelled_cycles(counts: &OpCounts, config: Config) -> u64 {
    let kernels = measure_config(config, 1);
    weighted(counts, |op| {
        kernels
            .iter()
            .find(|m| m.op == op)
            .map(|m| m.cycles)
            .expect("every Table 4 op is measured")
    })
}

/// Field-operation counts of the pinned action.
pub fn pinned_counts() -> OpCounts {
    let counting = CountingFp::new(FpFull::new());
    let (key, mut rng) = pinned_key();
    let _ = group_action(&counting, &mut rng, &PublicKey::BASE, &key);
    counting.counts()
}

/// Quantile of an operation kind's per-call host times taken as its
/// undisturbed cost (see the module docs).
const UNDISTURBED_QUANTILE: f64 = 0.05;

/// [`SimFp`] with every `add`, `sub`, `mul` and `sqr` timed on the host
/// clock (two clock reads per call of 2–30 µs). Only the required
/// [`Fp`] methods are forwarded: `pow`, `inv` and `legendre` run as the
/// trait's defaults over the timed operations, exactly as on `SimFp`.
pub struct TimedSim<'a> {
    sim: &'a SimFp,
    /// Per-call host nanoseconds, indexed add, sub, mul, sqr.
    ns: RefCell<[Vec<u32>; 4]>,
}

impl<'a> TimedSim<'a> {
    fn new(sim: &'a SimFp) -> Self {
        TimedSim {
            sim,
            ns: RefCell::default(),
        }
    }

    fn timed(&self, kind: usize, op: impl FnOnce() -> SimElem) -> SimElem {
        let t = Instant::now();
        let out = op();
        let ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.ns.borrow_mut()[kind].push(ns);
        out
    }

    /// Host seconds of the timed calls: as measured, and with each
    /// operation kind's calls costed at [`UNDISTURBED_QUANTILE`] of that
    /// kind's per-call times. Consumes the recorded times.
    fn call_seconds(&self) -> (f64, f64) {
        let mut ns = self.ns.borrow_mut();
        let raw: f64 = ns.iter().flatten().map(|&t| f64::from(t)).sum();
        let undisturbed: f64 = ns
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| {
                // Nearest rank, as `report::quantile`.
                let n = v.len();
                let rank = ((UNDISTURBED_QUANTILE * n as f64).ceil() as usize).clamp(1, n);
                let (_, &mut q, _) = v.select_nth_unstable(rank - 1);
                n as f64 * f64::from(q)
            })
            .sum();
        (raw / 1e9, undisturbed / 1e9)
    }
}

impl Fp for TimedSim<'_> {
    type Elem = SimElem;

    fn zero(&self) -> SimElem {
        self.sim.zero()
    }

    fn one(&self) -> SimElem {
        self.sim.one()
    }

    fn from_uint(&self, v: &U512) -> SimElem {
        self.sim.from_uint(v)
    }

    fn to_uint(&self, a: &SimElem) -> U512 {
        self.sim.to_uint(a)
    }

    fn add(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.timed(0, || self.sim.add(a, b))
    }

    fn sub(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.timed(1, || self.sim.sub(a, b))
    }

    fn mul(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.timed(2, || self.sim.mul(a, b))
    }

    fn sqr(&self, a: &SimElem) -> SimElem {
        self.timed(3, || self.sim.sqr(a))
    }

    fn is_zero(&self, a: &SimElem) -> bool {
        self.sim.is_zero(a)
    }

    fn select(&self, mask: u64, a: &SimElem, b: &SimElem) -> SimElem {
        self.sim.select(mask, a, b)
    }
}

/// Set-up: the kernel runners of the two configurations.
pub struct Fixture {
    sims: [(Config, SimFp); 2],
}

/// Builds the simulated backends (kernel generation, assembly and the
/// loaded machines).
pub fn setup() -> Fixture {
    Fixture {
        sims: [
            (FULL_ISA, SimFp::new(FULL_ISA)),
            (RED_ISE, SimFp::new(RED_ISE)),
        ],
    }
}

/// Simulated cycles and host seconds of every action of a window, per
/// configuration.
#[derive(Debug, Default)]
pub struct SimStats {
    /// Simulated cycles of the first action, per configuration.
    pub cycles: [u64; 2],
    /// Wall seconds of each action, per configuration.
    pub wall_s: [Vec<f64>; 2],
    /// Host seconds of each action with interference filtered out (see
    /// the module docs), per configuration.
    pub host_s: [Vec<f64>; 2],
    /// The public key of each action, per configuration.
    pub keys: [Vec<PublicKey>; 2],
}

/// Runs action pairs until `seconds` have passed (at least one pair).
/// An operation's latency is the pair's host time with co-tenant
/// interference filtered out (see the module docs). With `traced`,
/// telemetry spans are on and every action's span tree must account
/// for exactly the cycles [`SimFp`] counted.
pub fn window(fx: &Fixture, seconds: f64, traced: bool, rep: &mut Report) -> (Window, SimStats) {
    let mut win = Window::default();
    let mut stats = SimStats::default();
    let t0 = Instant::now();
    while win.ops == 0 || t0.elapsed() < Duration::from_secs_f64(seconds) {
        let mut pair_s = 0.0;
        for (i, (config, sim)) in fx.sims.iter().enumerate() {
            sim.reset();
            let timed = TimedSim::new(sim);
            let (key, mut rng) = pinned_key();
            if traced {
                let _ = mpise_obs::take_spans();
            }
            let t = Instant::now();
            let pk = {
                let _span = mpise_obs::span("perfbench.sim_action");
                group_action(&timed, &mut rng, &PublicKey::BASE, &key)
            };
            let wall = t.elapsed().as_secs_f64();
            let (raw, undisturbed) = timed.call_seconds();
            let host = undisturbed + (wall - raw).max(0.0);
            stats.wall_s[i].push(wall);
            stats.host_s[i].push(host);
            pair_s += host;
            stats.keys[i].push(pk);
            let cycles = sim.cycles();
            if win.ops == 0 {
                stats.cycles[i] = cycles;
            }
            rep.check(cycles == stats.cycles[i], || {
                format!(
                    "{config}: action cycles changed between repeats ({} then {cycles})",
                    stats.cycles[i]
                )
            });
            if traced {
                let spans = mpise_obs::take_spans();
                let span_cycles = spans
                    .child("perfbench.sim_action")
                    .map_or(0, |n| n.total_cycles());
                rep.check(span_cycles == cycles, || {
                    format!("{config}: spans hold {span_cycles} cycles, SimFp counted {cycles}")
                });
            }
        }
        win.latencies_ms.push(pair_s * 1e3);
        win.ops += 1;
    }
    // One client, closed loop: the pairs run back to back.
    win.wall_s = win.latencies_ms.iter().sum::<f64>() / 1e3;
    (win, stats)
}

/// Post-window checks: every simulated public key must equal the host
/// `FpFull` action's, and the simulated cycles must equal the op-count ×
/// kernel-cycle model exactly.
pub fn finish(stats: &SimStats, rep: &mut Report) {
    let reference = host_reference();
    let counts = pinned_counts();
    for (i, config) in [FULL_ISA, RED_ISE].into_iter().enumerate() {
        for pk in &stats.keys[i] {
            rep.op(if *pk == reference {
                Ok(())
            } else {
                Err(format!(
                    "{config}: simulated public key differs from FpFull's"
                ))
            });
        }
        let model = modelled_cycles(&counts, config);
        rep.check(model == stats.cycles[i], || {
            format!(
                "{config}: simulated {} cycles, op counts x kernel cycles give {model}",
                stats.cycles[i]
            )
        });
    }
    eprintln!(
        "sim-action: {:.1} / {:.1} Mcycles, {:.2} / {:.2} s per action, {:.2} / {:.2} s wall \
         (full ISA / reduced ISE)",
        stats.cycles[0] as f64 / 1e6,
        stats.cycles[1] as f64 / 1e6,
        median(&stats.host_s[0]),
        median(&stats.host_s[1]),
        median(&stats.wall_s[0]),
        median(&stats.wall_s[1]),
    );
}

//! `perfbench` — the repository's two-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-action|kex-sessions|reject-flood> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one workload against the public APIs of
//! `mpise-sim`, `mpise-mpi`, `mpise-fp`, `mpise-csidh` and
//! `mpise-engine`, checks every output, and prints as its last line
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the workload with telemetry off and reports
//!   the end-to-end metrics: `setup_s`, `ok_frac`, `ops_per_s`,
//!   `op_p50_ms`, `op_p90_ms` and `peak_rss_mb`.
//! * `--trace 1` measures the workload once with telemetry off and once
//!   with it on (the program's `mpise-obs` spans plus one benchmark span
//!   per operation), reports the difference as `trace.overhead.*`, and
//!   appends the layer ledger ([`ledger`]): every per-layer metric.
//!
//! Load model: closed loop. Every client waits for its reply before it
//! sends dependent work; there are at most `nproc` load threads and the
//! engine runs `nproc` workers. `--seed` generates the workload's inputs
//! (the program only ever sees those); `sim-action` and the ledger pin
//! theirs to `bench`'s seed so their simulated counts are exact. The run
//! exits non-zero when any operation or output check fails.

mod flood;
mod kex;
mod ledger;
mod report;
mod sim_action;

use report::{median, peak_rss_mb, Report, Window};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <sim-action|kex-sessions|reject-flood> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed per untraced measurement; the median is reported. A
/// traced run, which reports no set-up time, sets up once.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimAction,
    KexSessions,
    RejectFlood,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "sim-action" => Workload::SimAction,
                    "kex-sessions" => Workload::KexSessions,
                    "reject-flood" => Workload::RejectFlood,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `setup` `reps` times and keeps the last fixture; the earlier
/// ones are dropped outside the timed region.
fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let t = Instant::now();
        let fixture = setup();
        times.push(t.elapsed().as_secs_f64());
        drop(kept.replace(fixture));
    }
    (median(&times), kept.expect("at least one set-up"))
}

/// Set-up, one timed window, and the post-window output checks.
fn measure(args: &Args, nproc: usize, traced: bool, rep: &mut Report) -> (f64, Window) {
    let secs = args.seconds;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let with_tracing = |on: bool| mpise_obs::set_enabled(on && traced);
    match args.workload {
        Workload::SimAction => {
            let (setup_s, fx) = timed_setup(reps, sim_action::setup);
            with_tracing(true);
            let (win, stats) = sim_action::window(&fx, secs, traced, rep);
            with_tracing(false);
            sim_action::finish(&stats, rep);
            (setup_s, win)
        }
        Workload::KexSessions => {
            let (setup_s, fx) = timed_setup(reps, || kex::setup(args.seed, nproc));
            with_tracing(true);
            // The traced run only compares its two windows: no minimum.
            let min_sessions = if args.trace { 0 } else { kex::MIN_SESSIONS };
            let win = kex::window(&fx, nproc, secs, min_sessions, traced, rep);
            with_tracing(false);
            kex::finish(fx);
            (setup_s, win)
        }
        Workload::RejectFlood => {
            let (setup_s, fx) = timed_setup(reps, || flood::setup(args.seed, nproc));
            with_tracing(true);
            let (win, polls_ms) = flood::window(&fx, nproc, secs, traced, rep);
            with_tracing(false);
            flood::finish(fx);
            eprintln!(
                "reject-flood: {} stats() polls, median {:.2} ms",
                polls_ms.len(),
                median(&polls_ms)
            );
            (setup_s, win)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("perfbench: {args:?}, nproc = {nproc}");

    let mut rep = Report::default();
    let (setup_s, plain) = measure(&args, nproc, false, &mut rep);
    eprintln!(
        "untraced: {} ops in {:.2} s, {:.3} ops/s, p50 {:.3} ms, p90 {:.3} ms, set-up {:.4} s",
        plain.ops,
        plain.wall_s,
        plain.ops_per_s(),
        plain.p50_ms(),
        plain.p90_ms(),
        setup_s
    );
    if args.trace {
        let (_, traced) = measure(&args, nproc, true, &mut rep);
        // Cost of tracing in percent: positive when tracing slows the
        // workload down.
        let overhead = |t: f64, u: f64| (t - u) / u * 100.0;
        rep.put(
            "trace.overhead.ops_per_s.pct",
            -overhead(traced.ops_per_s(), plain.ops_per_s()),
            "%",
        );
        rep.put(
            "trace.overhead.op_p50_ms.pct",
            overhead(traced.p50_ms(), plain.p50_ms()),
            "%",
        );
        rep.put(
            "trace.overhead.op_p90_ms.pct",
            overhead(traced.p90_ms(), plain.p90_ms()),
            "%",
        );
        ledger::run(nproc, &mut rep);
    } else {
        let ok_frac = (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64;
        rep.put("setup_s", setup_s, "s");
        rep.put("ok_frac", ok_frac, "frac");
        rep.put("ops_per_s", plain.ops_per_s(), "1/s");
        rep.put("op_p50_ms", plain.p50_ms(), "ms");
        rep.put("op_p90_ms", plain.p90_ms(), "ms");
        rep.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let unmeasured: Vec<String> = rep
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} was not measured", m.name))
        .collect();
    rep.problems.extend(unmeasured);
    for why in rep.problems.iter().take(20) {
        eprintln!("perfbench: FAIL {why}");
    }
    println!("{}", rep.json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload kex-sessions --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::KexSessions);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim-action --seed x --seconds 1 --trace 0",
            "--workload sim-action --seed 1 --seconds 0 --trace 0",
            "--workload sim-action --seed 1 --seconds 1 --trace 2",
            "--workload sim-action --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}

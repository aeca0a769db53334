//! `loadgen` — drives concurrent clients against the engine and gates
//! multi-worker throughput.
//!
//! One binary (`cargo run --release --bin loadgen`) runs the same
//! deterministic request mix through two engine instances — a
//! single-worker baseline and the multi-worker configuration under
//! test — and writes a machine-readable `LOAD_<date>.json` report
//! (schema in DESIGN.md §10). The run doubles as two gates:
//!
//! * **throughput** — the multi-worker pass must beat the baseline by
//!   a sanity margin. With ≥ 3 effective cores the requirement is the
//!   full **2×**; CPU-bound field arithmetic cannot parallelise on
//!   fewer cores, so the requirement degrades smoothly to a
//!   no-regression margin (`clamp(0.75 · min(workers, cores), 0.75,
//!   2.0)`) instead of demanding physically impossible speedups on
//!   small hosts. The baseline/loaded pair runs [`GATE_PAIRS`] times,
//!   the order alternating, and the gate takes the median of the pair
//!   ratios, so one pass slowed by a co-tenant cannot decide it;
//! * **determinism** — every pass must produce byte-identical result
//!   payloads (shared secrets, public keys, verdicts): outcomes
//!   depend only on per-request seeds, never on worker count or
//!   scheduling.
//!
//! All request seeds derive from one base seed via SplitMix64, so two
//! runs with the same options are byte-identical end to end (the
//! `tests/determinism.rs` golden test mirrors the bench pipeline's
//! golden serialization test).

use crate::{Engine, EngineConfig, EngineError, EngineStats, Request, Ticket};
use mpise_csidh::{group_action, PrivateKey, PublicKey};
use mpise_fp::params::NUM_PRIMES;
use mpise_fp::FpFull;
use mpise_mpi::U512;
use mpise_obs::time::utc_date_string;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Baseline/loaded pass pairs per run. The throughput gate takes the
/// median of their ratios; an odd count makes the median one pair's.
pub const GATE_PAIRS: usize = 5;

/// Default base seed ("load" + a suffix picked so the default full
/// mix draws all three request kinds *and* the smoke mix includes
/// invalid-key rejections).
pub const LOADGEN_SEED: u64 = 0x10AD2;

/// What to run and where to put the report.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Worker count of the pass under test.
    pub workers: usize,
    /// Worker count of the baseline pass.
    pub baseline_workers: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Base seed for the deterministic request mix.
    pub seed: u64,
    /// CI-sized run: smaller mix, no expensive keygen requests.
    pub smoke: bool,
    /// Output path; `None` = `LOAD_<utc-date>.json`.
    pub out: Option<String>,
    /// Where to dump the Prometheus text exposition; setting this (or
    /// `obs_out`, or `MPISE_OBS=1`) enables telemetry for the run.
    pub metrics_out: Option<String>,
    /// Where to dump the `mpise-obs/v1` JSON snapshot (metrics plus the
    /// worker span forest).
    pub obs_out: Option<String>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            workers: 4,
            baseline_workers: 1,
            clients: 4,
            requests_per_client: 6,
            seed: LOADGEN_SEED,
            smoke: false,
            out: None,
            metrics_out: None,
            obs_out: None,
        }
    }
}

impl LoadgenOptions {
    /// The CI-sized configuration.
    pub fn smoke() -> Self {
        LoadgenOptions {
            requests_per_client: 3,
            smoke: true,
            ..Default::default()
        }
    }
}

/// Deterministic fixture keys shared by every request mix.
#[derive(Debug, Clone, Copy)]
pub struct Fixtures {
    /// A valid derived curve.
    pub valid1: PublicKey,
    /// A second valid derived curve.
    pub valid2: PublicKey,
    /// An ordinary (invalid) curve.
    pub bogus: PublicKey,
    /// A sparse private key for cheap shared-secret derivations.
    pub sparse: PrivateKey,
}

impl Fixtures {
    /// Builds the fixtures on the host full-radix backend (two sparse
    /// group actions; deterministic in `seed`).
    pub fn generate(seed: u64) -> Self {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e1 = [0i8; NUM_PRIMES];
        e1[0] = 1;
        let mut e2 = [0i8; NUM_PRIMES];
        e2[1] = -1;
        let mut es = [0i8; NUM_PRIMES];
        es[2] = 1;
        Fixtures {
            valid1: group_action(
                &f,
                &mut rng,
                &PublicKey::BASE,
                &PrivateKey { exponents: e1 },
            ),
            valid2: group_action(
                &f,
                &mut rng,
                &PublicKey::BASE,
                &PrivateKey { exponents: e2 },
            ),
            bogus: PublicKey { a: U512::ONE },
            sparse: PrivateKey { exponents: es },
        }
    }
}

/// SplitMix64 — the per-request seed stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic request plan for one `(client, index)` slot:
/// validation-heavy, with a derivation stripe and — outside smoke mode — an occasional keygen.
pub fn plan_request(
    base_seed: u64,
    client: usize,
    index: usize,
    fixtures: &Fixtures,
    smoke: bool,
) -> (u64, Request) {
    let slot = splitmix64(base_seed ^ ((client as u64) << 32) ^ index as u64);
    let seed = splitmix64(slot);
    let request = match slot % 8 {
        0..=2 => Request::ValidatePublicKey {
            key: fixtures.valid1,
        },
        3..=4 => Request::ValidatePublicKey {
            key: fixtures.valid2,
        },
        5 => Request::ValidatePublicKey {
            key: fixtures.bogus,
        },
        6 => Request::DeriveSharedSecret {
            private: fixtures.sparse,
            their_public: fixtures.valid1,
        },
        _ if smoke => Request::ValidatePublicKey {
            key: fixtures.valid1,
        },
        _ => Request::Keygen { bound: 1 },
    };
    (seed, request)
}

/// One pass's measurements.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Worker count of this pass.
    pub workers: usize,
    /// Requests submitted.
    pub requests: usize,
    /// Requests that produced an outcome.
    pub ok: usize,
    /// Requests that failed engine-side.
    pub errors: usize,
    /// Wall-clock seconds from first submission to last response.
    pub elapsed_secs: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Engine stats snapshot at the end of the pass.
    pub stats: EngineStats,
    /// Result payloads concatenated in `(client, index)` order.
    pub payloads: Vec<u8>,
    /// Worker span forest (empty unless telemetry was enabled).
    pub spans: mpise_obs::SpanTree,
    /// The pass engine's metrics registry.
    pub metrics: mpise_obs::Registry,
}

/// Runs one pass: `clients` threads submit the deterministic mix and
/// wait for every response; the engine is drained and joined before
/// the result is returned.
pub fn run_pass(workers: usize, opts: &LoadgenOptions, fixtures: &Fixtures) -> PassResult {
    let engine = Engine::start(
        EngineConfig {
            workers,
            queue_capacity: (opts.clients * opts.requests_per_client).max(16),
        },
        FpFull::new,
    );

    let t0 = Instant::now();
    let mut client_payloads: Vec<Vec<u8>> = Vec::with_capacity(opts.clients);
    let mut ok = 0usize;
    let mut errors = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let engine = &engine;
                scope.spawn(move || {
                    // Submit the whole window, then collect in order —
                    // the submission pattern of a pipelined client.
                    let tickets: Vec<Result<Ticket, EngineError>> = (0..opts.requests_per_client)
                        .map(|index| {
                            let (seed, request) =
                                plan_request(opts.seed, client, index, fixtures, opts.smoke);
                            engine.submit(seed, request, None)
                        })
                        .collect();
                    let mut payload = Vec::new();
                    let mut ok = 0usize;
                    let mut errors = 0usize;
                    for ticket in tickets {
                        match ticket.and_then(Ticket::wait) {
                            Ok(outcome) => {
                                ok += 1;
                                payload.extend(outcome.payload_bytes());
                            }
                            Err(_) => {
                                errors += 1;
                                payload.push(0xFF);
                            }
                        }
                    }
                    (payload, ok, errors)
                })
            })
            .collect();
        for handle in handles {
            let (payload, client_ok, client_errors) = handle.join().expect("client thread");
            client_payloads.push(payload);
            ok += client_ok;
            errors += client_errors;
        }
    });
    let elapsed_secs = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    let metrics = engine.metrics().clone();
    engine.shutdown();
    let spans = engine.take_worker_spans();

    PassResult {
        workers,
        requests: opts.clients * opts.requests_per_client,
        ok,
        errors,
        elapsed_secs,
        requests_per_sec: if elapsed_secs > 0.0 {
            ok as f64 / elapsed_secs
        } else {
            0.0
        },
        stats,
        payloads: client_payloads.concat(),
        spans,
        metrics,
    }
}

/// The throughput-gate verdict.
#[derive(Debug, Clone, Copy)]
pub struct GateResult {
    /// Median baseline requests/sec over the pairs.
    pub baseline_rps: f64,
    /// Median multi-worker requests/sec over the pairs.
    pub loaded_rps: f64,
    /// Median over the pairs of `loaded / baseline` within a pair.
    pub ratio: f64,
    /// `min(workers, host cores)` — what parallelism can physically
    /// deliver on this host.
    pub effective_parallelism: usize,
    /// The ratio the gate demands on this host.
    pub required_ratio: f64,
    /// Whether the throughput and determinism conditions hold and no
    /// pass had errors.
    pub pass: bool,
}

/// The ratio the throughput gate requires for a given worker count on
/// this host: the full 2× of the acceptance criterion whenever ≥ 3
/// cores are available to back it, degrading to a 0.75× no-regression
/// sanity margin on hosts where CPU-bound arithmetic cannot
/// parallelise.
pub fn required_ratio(workers: usize) -> (f64, usize) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let effective = workers.min(cores).max(1);
    ((0.75 * effective as f64).clamp(0.75, 2.0), effective)
}

/// Everything one loadgen run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Options the run used.
    pub options: LoadgenOptions,
    /// The [`GATE_PAIRS`] pairs, each `[baseline, loaded]`. Pair `k`
    /// ran its baseline first when `k` is even, its loaded pass first
    /// otherwise.
    pub pairs: Vec<[PassResult; 2]>,
    /// Whether every pass produced byte-identical payloads.
    pub payloads_identical: bool,
    /// FNV-1a 64 digest of the loaded pass's payload bytes.
    pub payload_digest: u64,
    /// The throughput-gate verdict.
    pub gate: GateResult,
}

/// FNV-1a 64-bit digest (no external hashing crates).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The median of `v`: its middle element, or the upper middle of an
/// even count.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs [`GATE_PAIRS`] baseline/loaded pairs, alternating which pass
/// of a pair goes first, and evaluates the gate on their medians.
pub fn run(opts: &LoadgenOptions) -> LoadReport {
    let fixtures = Fixtures::generate(opts.seed);
    eprintln!(
        "loadgen: {GATE_PAIRS} pairs of a baseline pass ({} worker(s)) and a loaded pass \
         ({} worker(s)), {} clients x {} requests each ...",
        opts.baseline_workers, opts.workers, opts.clients, opts.requests_per_client
    );
    let pairs: Vec<[PassResult; 2]> = (0..GATE_PAIRS)
        .map(|k| {
            if k % 2 == 0 {
                let baseline = run_pass(opts.baseline_workers, opts, &fixtures);
                [baseline, run_pass(opts.workers, opts, &fixtures)]
            } else {
                let loaded = run_pass(opts.workers, opts, &fixtures);
                [run_pass(opts.baseline_workers, opts, &fixtures), loaded]
            }
        })
        .collect();

    let first = &pairs[0][1].payloads;
    let payloads_identical = pairs.iter().flatten().all(|p| p.payloads == *first);
    let payload_digest = fnv1a64(first);
    let errors = pairs.iter().flatten().any(|p| p.errors > 0);
    let (required, effective) = required_ratio(opts.workers);
    let pair_ratio = |[baseline, loaded]: &[PassResult; 2]| {
        if baseline.requests_per_sec > 0.0 {
            loaded.requests_per_sec / baseline.requests_per_sec
        } else {
            0.0
        }
    };
    let ratio = median(pairs.iter().map(pair_ratio).collect());
    let gate = GateResult {
        baseline_rps: median(pairs.iter().map(|p| p[0].requests_per_sec).collect()),
        loaded_rps: median(pairs.iter().map(|p| p[1].requests_per_sec).collect()),
        ratio,
        effective_parallelism: effective,
        required_ratio: required,
        pass: ratio >= required && payloads_identical && !errors,
    };
    LoadReport {
        options: opts.clone(),
        pairs,
        payloads_identical,
        payload_digest,
        gate,
    }
}

/// Every pass of `report` in run order, tagged `"baseline"` or
/// `"loaded"`.
fn passes_in_run_order(report: &LoadReport) -> impl Iterator<Item = (&'static str, &PassResult)> {
    report
        .pairs
        .iter()
        .enumerate()
        .flat_map(|(k, [baseline, loaded])| {
            let (b, l) = (("baseline", baseline), ("loaded", loaded));
            if k % 2 == 0 {
                [b, l]
            } else {
                [l, b]
            }
        })
}

/// `Option` latency fields serialize as JSON `null` when absent
/// (an idle pass measured nothing; `0` would read as a measurement).
fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |x| x.to_string())
}

fn pass_json(role: &str, pass: &PassResult) -> String {
    format!(
        "    {{\"role\": \"{}\", \"workers\": {}, \"requests\": {}, \"ok\": {}, \"errors\": {}, \
         \"elapsed_secs\": {:.4}, \"requests_per_sec\": {:.4}, \
         \"keygen\": {}, \"derive\": {}, \"validate\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
         \"worker_completed\": [{}]}}",
        role,
        pass.workers,
        pass.requests,
        pass.ok,
        pass.errors,
        pass.elapsed_secs,
        pass.requests_per_sec,
        pass.stats.keygen,
        pass.stats.derive,
        pass.stats.validate,
        json_opt_u64(pass.stats.p50_us),
        json_opt_u64(pass.stats.p99_us),
        json_opt_u64(pass.stats.max_us),
        pass.stats
            .worker_completed
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// Serializes the whole report (see DESIGN.md §10 for the schema).
pub fn report_json(report: &LoadReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"mpise-loadgen/v1\",\n");
    out.push_str(&format!("  \"date\": \"{}\",\n", utc_date_string()));
    out.push_str(&format!(
        "  \"provenance\": {},\n",
        mpise_obs::Provenance::collect().json()
    ));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if report.options.smoke {
            "smoke"
        } else {
            "full"
        }
    ));
    out.push_str(&format!(
        "  \"seed\": {},\n  \"clients\": {},\n  \"requests_per_client\": {},\n  \
         \"host_parallelism\": {},\n",
        report.options.seed,
        report.options.clients,
        report.options.requests_per_client,
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    ));
    let passes: Vec<String> = passes_in_run_order(report)
        .map(|(role, pass)| pass_json(role, pass))
        .collect();
    out.push_str("  \"passes\": [\n");
    out.push_str(&passes.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"payloads\": {{\"digest_fnv1a64\": \"{:#018x}\", \"bytes\": {}, \
         \"identical_across_passes\": {}}},\n",
        report.payload_digest,
        report.pairs[0][1].payloads.len(),
        report.payloads_identical,
    ));
    out.push_str(&format!(
        "  \"gate\": {{\"baseline_workers\": {}, \"loaded_workers\": {}, \"pairs\": {}, \
         \"baseline_rps\": {:.4}, \"loaded_rps\": {:.4}, \"ratio\": {:.4}, \
         \"effective_parallelism\": {}, \"required_ratio\": {:.2}, \"pass\": {}}}\n",
        report.options.baseline_workers,
        report.options.workers,
        report.pairs.len(),
        report.gate.baseline_rps,
        report.gate.loaded_rps,
        report.gate.ratio,
        report.gate.effective_parallelism,
        report.gate.required_ratio,
        report.gate.pass,
    ));
    out.push_str("}\n");
    out
}

fn print_summary(report: &LoadReport) {
    for (role, pass) in passes_in_run_order(report) {
        println!(
            "{role} pass with {} worker(s): {:.2} req/s ({} ok / {} requests, {:.2}s)",
            pass.workers, pass.requests_per_sec, pass.ok, pass.requests, pass.elapsed_secs
        );
    }
    println!("last pair's loaded pass:\n{}", last_loaded(report).stats);
    println!(
        "payloads: {} bytes, digest {:#018x}, identical across passes: {}",
        report.pairs[0][1].payloads.len(),
        report.payload_digest,
        report.payloads_identical
    );
    println!(
        "gate: {:.2}x measured (median of {} pairs) vs {:.2}x required (effective parallelism {})",
        report.gate.ratio,
        report.pairs.len(),
        report.gate.required_ratio,
        report.gate.effective_parallelism
    );
}

/// The last pair's loaded pass, whose registry the run exports.
fn last_loaded(report: &LoadReport) -> &PassResult {
    &report.pairs.last().expect("GATE_PAIRS > 0")[1]
}

/// Command-line entry point of the `loadgen` binaries; returns the
/// process exit code (0 = gate passed).
pub fn run_cli(args: &[String]) -> i32 {
    let mut opts = LoadgenOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut parse_usize = |name: &str| -> Result<usize, i32> {
            iter.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                eprintln!("loadgen: {name} requires a positive integer");
                2
            })
        };
        match arg.as_str() {
            "--smoke" => {
                let keep = (
                    opts.out.take(),
                    opts.metrics_out.take(),
                    opts.obs_out.take(),
                );
                opts = LoadgenOptions::smoke();
                (opts.out, opts.metrics_out, opts.obs_out) = keep;
            }
            "--workers" => match parse_usize("--workers") {
                Ok(v) => opts.workers = v.max(1),
                Err(code) => return code,
            },
            "--baseline-workers" => match parse_usize("--baseline-workers") {
                Ok(v) => opts.baseline_workers = v.max(1),
                Err(code) => return code,
            },
            "--clients" => match parse_usize("--clients") {
                Ok(v) => opts.clients = v.max(1),
                Err(code) => return code,
            },
            "--requests" => match parse_usize("--requests") {
                Ok(v) => opts.requests_per_client = v.max(1),
                Err(code) => return code,
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => {
                    eprintln!("loadgen: --seed requires an integer");
                    return 2;
                }
            },
            "--out" => match iter.next() {
                Some(path) => opts.out = Some(path.clone()),
                None => {
                    eprintln!("loadgen: --out requires a path");
                    return 2;
                }
            },
            "--metrics-out" => match iter.next() {
                Some(path) => opts.metrics_out = Some(path.clone()),
                None => {
                    eprintln!("loadgen: --metrics-out requires a path");
                    return 2;
                }
            },
            "--obs-out" => match iter.next() {
                Some(path) => opts.obs_out = Some(path.clone()),
                None => {
                    eprintln!("loadgen: --obs-out requires a path");
                    return 2;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--smoke] [--workers N] [--baseline-workers N] \
                     [--clients N] [--requests N] [--seed N] [--out PATH] \
                     [--metrics-out PATH] [--obs-out PATH]\n\
                     \n\
                     Runs the deterministic client mix through 5 pairs of a 1-worker\n\
                     baseline and an N-worker engine, writes LOAD_<utc-date>.json, and\n\
                     exits non-zero when the median multi-worker throughput ratio\n\
                     misses the gate or any pass's payloads differ.\n\
                     --metrics-out / --obs-out (or MPISE_OBS=1) enable telemetry and\n\
                     dump the Prometheus text / mpise-obs/v1 JSON snapshot."
                );
                return 0;
            }
            other => {
                eprintln!("loadgen: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }

    // Telemetry is opt-in: either output flag turns it on, and the
    // MPISE_OBS environment switch works even without a dump path.
    mpise_obs::enable_from_env();
    if opts.metrics_out.is_some() || opts.obs_out.is_some() {
        mpise_obs::set_enabled(true);
    }

    let report = run(&opts);
    print_summary(&report);

    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("LOAD_{}.json", utc_date_string()));
    if let Err(e) = std::fs::write(&path, report_json(&report)) {
        eprintln!("loadgen: failed to write {path}: {e}");
        return 2;
    }
    println!("\nwrote {path}");

    // The exported metrics describe the last pair's loaded pass.
    let metrics = &last_loaded(&report).metrics;
    if mpise_obs::enabled() {
        if let Some(path) = &opts.metrics_out {
            if let Err(e) = std::fs::write(path, metrics.render_prometheus()) {
                eprintln!("loadgen: failed to write {path}: {e}");
                return 2;
            }
            println!("wrote {path} (Prometheus text)");
        }
        if let Some(path) = &opts.obs_out {
            let mut spans = mpise_obs::SpanTree::default();
            for pass in report.pairs.iter().flatten() {
                spans.merge(pass.spans.clone());
            }
            let snapshot = mpise_obs::Snapshot::capture_with_spans(metrics, spans);
            if let Err(e) = std::fs::write(path, snapshot.to_json()) {
                eprintln!("loadgen: failed to write {path}: {e}");
                return 2;
            }
            println!("wrote {path} (mpise-obs/v1 snapshot)");
        }
    }

    if report.gate.pass {
        println!("gate: multi-worker throughput and payload determinism — PASS");
        0
    } else {
        println!(
            "gate: FAIL — ratio {:.2} (required {:.2}), payloads identical: {}",
            report.gate.ratio, report.gate.required_ratio, report.payloads_identical
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_is_stable() {
        // Pin the SplitMix64 stream: the request mix (and therefore
        // the golden payload digests) depends on it.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn plan_covers_every_request_kind() {
        let fixtures = Fixtures {
            valid1: PublicKey::BASE,
            valid2: PublicKey::BASE,
            bogus: PublicKey { a: U512::ONE },
            sparse: PrivateKey {
                exponents: [0; NUM_PRIMES],
            },
        };
        let mut kinds = [false; 3];
        for i in 0..64 {
            match plan_request(LOADGEN_SEED, 0, i, &fixtures, false).1 {
                Request::ValidatePublicKey { .. } => kinds[0] = true,
                Request::DeriveSharedSecret { .. } => kinds[1] = true,
                Request::Keygen { .. } => kinds[2] = true,
            }
        }
        assert_eq!(kinds, [true; 3], "mix exercises all request kinds");
        // Smoke mode avoids keygen.
        for i in 0..64 {
            assert!(!matches!(
                plan_request(LOADGEN_SEED, 0, i, &fixtures, true).1,
                Request::Keygen { .. }
            ));
        }
    }

    #[test]
    fn required_ratio_scales_with_parallelism() {
        let (r, eff) = required_ratio(1);
        assert_eq!(eff, 1);
        assert!((r - 0.75).abs() < 1e-9);
        let (r4, eff4) = required_ratio(4);
        assert!(eff4 >= 1);
        assert!((0.75..=2.0).contains(&r4));
    }

    #[test]
    fn median_is_the_middle_pair() {
        assert_eq!(median(vec![1.9, 0.4, 1.6, 1.5, 2.8]), 1.6);
        assert_eq!(median(vec![2.0]), 2.0);
    }

    #[test]
    fn fnv_digest_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}

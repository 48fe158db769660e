//! `perfbench` — one end-to-end benchmark of the default DELRec serving path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--fit-seed <n>]
//! ```
//!
//! Served workloads fit the default DELRec model once per run (Home &
//! Kitchen at smoke scale, SASRec teacher, the `DelRecConfig` default
//! backbone) and drive it through the serving runtime from one open-loop
//! generator thread:
//!
//! * `score_open` — the paper's 15-way protocol served at 600 req/s to new
//!   users carrying their full prefix (p99 limit 25 ms);
//! * `session_wal` — 400 req/s of scoring from 2,000 returning users whose
//!   sessions persist to a write-ahead log, with two live model publishes
//!   and a timed recovery at the end (p99 limit 25 ms).
//!
//! `catalog_scan` serves no model: one caller retrieves the top 100 of a
//! 32,768 × 64 index for blocks of 32 queries (p99 limit 50 ms).
//!
//! With `--trace 0` a run sets up several times (the median is `setup_s`),
//! measures a fixed-rate phase of `--seconds` (a closed loop for
//! `catalog_scan`), searches the `slo_rps` ladder, runs the correctness
//! checks and quality probes, and prints every end-to-end metric. Every
//! metric means the same on every workload (see README.md). With `--trace 1` it sets up once, measures an
//! untraced half-length phase and a traced full-length phase, and prints the
//! per-layer metrics. Any failed check exits with code 1 before a number is
//! printed. The last stdout line is the result object; the line before it
//! carries the run's metadata (host, seeds, per-phase request ledger).

mod catalog;
mod ladder;
mod layers;
mod model;
mod quality;
mod reference;
mod served;
mod stats;
mod stream;

use catalog::Catalog;
use delrec_eval::json::Json;
use ladder::LadderResult;
use layers::{layer_percentile, ratio, Trace};
use model::Fitted;
use served::{Phase, PhaseSpec, Served};
use stats::{mean, median, percentile};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stream::{Shape, Stream};

/// Full set-ups per untraced served run; `setup_s` is their median.
const SERVED_SETUPS: usize = 3;
/// Full set-ups per untraced `catalog_scan` run: one takes about 16 ms, so
/// many are cheap, and page-fault noise moves a median of few.
const CATALOG_SETUPS: usize = 31;
/// A run whose generator started p99 of its requests later than this after
/// their due instant is flagged in its metadata.
const GEN_LAG_BOUND_MS: f64 = 5.0;
/// Ladder rungs probed per run at most: from a workload's start rung the
/// gallop and bisection bracket any answer within a factor of four, and a
/// search that has not bracketed by then fails the run.
const MAX_PROBES: usize = 10;
/// A ladder probe lasts at least this long (four latency windows at
/// 1,000 req/s, so one stall cannot fail a rung on its own)…
const PROBE_MIN_S: f64 = 4.0;
/// …and sends at least one latency window, so its p99 is reportable.
const PROBE_MIN_REQUESTS: f64 = stats::LATENCY_WINDOW as f64;
/// A traced served phase sends at least this many requests, so the layer
/// percentiles over batches (one per flush, and requests coalesce) still
/// have 1,000 samples.
const TRACED_MIN_REQUESTS: usize = 2_500;
/// `catalog_scan` measures at least this many calls, so its p99 is
/// reportable, even if that takes longer than `--seconds`.
const CATALOG_MIN_CALLS: usize = 1_000;
/// Per-query p99 limit of `catalog_scan` for `slo_rps`.
const CATALOG_LIMIT_MS: f64 = 50.0;
/// First ladder rung of `catalog_scan` (2,786 queries/s, where the answer
/// sat on a 2-core host).
const CATALOG_START_RUNG: i32 = 48;

/// A served workload.
struct ServedSpec {
    name: &'static str,
    shape: Shape,
    /// Fixed offered rate, req/s.
    rate: f64,
    /// p99 limit of the `slo_rps` ladder, ms.
    limit_ms: f64,
    /// First ladder rung: where the answer sat on a 2-core host. On a
    /// monotone pass/fail curve it only decides how many probes the search
    /// takes, never its answer.
    start_rung: i32,
}

const SERVED: &[ServedSpec] = &[
    ServedSpec {
        name: "score_open",
        shape: Shape::ScoreOpen,
        rate: 600.0,
        limit_ms: 25.0,
        start_rung: 41,
    },
    ServedSpec {
        name: "session_wal",
        shape: Shape::SessionWal,
        rate: 400.0,
        limit_ms: 25.0,
        start_rung: 40,
    },
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fit_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fit_seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--fit-seed" => args.fit_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One run's output.
struct Report {
    /// Metric name → (value, unit), in print order.
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    meta: Vec<(&'static str, Json)>,
}

impl Report {
    fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: perfbench --workload score_open|session_wal|catalog_scan \
             --seed N --seconds S --trace 0|1 [--fit-seed N]"
        );
        std::process::exit(2);
    });
    // Pin the delrec-par pool to every core before anything touches it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("DELREC_THREADS", nproc.to_string());
    let lanes = delrec_par::global().lanes();

    let outcome = if args.workload == "catalog_scan" {
        run_catalog(&args, process_start)
    } else if let Some(spec) = SERVED.iter().find(|s| s.name == args.workload) {
        let scratch = Path::new(".bench_build").join(format!("perfbench-{}", std::process::id()));
        let outcome = run_served(spec, &args, process_start, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        outcome
    } else {
        eprintln!("error: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(errors) => {
            for e in &errors {
                eprintln!("check failed: {e}");
            }
            std::process::exit(1);
        }
    };
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            eprintln!("check failed: metric {name} is not finite ({value})");
            std::process::exit(1);
        }
    }
    let mut meta = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("trace", Json::Bool(args.trace)),
        ("workload_seed", Json::from(args.seed as f64)),
        ("fit_seed", Json::from(args.fit_seed as f64)),
        ("seconds", Json::from(args.seconds)),
        ("git_rev", Json::from(git_rev())),
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu_model())),
        ("pool_lanes", Json::from(lanes)),
    ];
    meta.append(&mut report.meta);
    println!("{}", Json::obj([("meta", Json::obj(meta))]));
    println!("{}", report.result_line());
}

/// The commit the run measured: read from `.git` when the checkout is a
/// repository, "unknown" otherwise.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .into()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".into(), |m| m.trim().into())
}

/// Cumulative `(steal, total)` CPU time of the host from `/proc/stat`.
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0.0), fields.iter().sum())
}

/// Share of CPU time the hypervisor took from this machine since `since`
/// (a [`cpu_times`] reading), in percent: the run-validity signal for
/// tail latency on a shared host.
fn steal_pct(since: (f64, f64)) -> f64 {
    let now = cpu_times();
    100.0 * ratio(now.0 - since.0, now.1 - since.1)
}

/// Reset the process's peak-RSS mark (`VmHWM`) to its current resident
/// size, so a later [`peak_rss_mb`] covers only what ran after set-up.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))
}

/// Peak resident memory of the process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn phase_meta(p: &Phase) -> Json {
    let mut fields = vec![
        ("phase", Json::from(p.label.as_str())),
        ("offered_rps", Json::from(p.rate)),
        ("sent", Json::from(p.sent)),
        ("succeeded", Json::from(p.answered)),
        ("failed", Json::from(p.failed)),
        ("seconds", Json::from(p.wall_s)),
    ];
    if let Ok(p50) = p.latency(0.5) {
        fields.push(("p50_ms", Json::from(p50)));
    }
    if let Ok(p99) = p.latency(0.99) {
        fields.push(("p99_ms", Json::from(p99)));
    }
    Json::obj(fields)
}

/// The model, its prepared publish copies and the request stream of one
/// set-up.
struct Setup {
    fitted: Fitted,
    copies: Vec<Arc<model::Timed>>,
    stream: Stream,
}

impl Setup {
    fn new(spec: &ServedSpec, args: &Args) -> Self {
        let fitted = Fitted::fit(args.fit_seed);
        // Each publishing phase publishes two cold copies of its own (the
        // traced run's reference and traced phases are two such phases).
        let phases = if args.trace { 2 } else { 1 };
        let copies = if spec.shape == Shape::SessionWal {
            (0..2 * phases).map(|_| fitted.reloaded_copy()).collect()
        } else {
            Vec::new()
        };
        let stream = Stream::new(spec.shape, &fitted.ctx.dataset, args.seed);
        Setup {
            fitted,
            copies,
            stream,
        }
    }

    /// The served workload for publishing phase `p` (its two copies follow
    /// generation 0), or for a phase that publishes nothing.
    fn served<'a>(&'a self, p: Option<usize>, wal_root: &'a Path, seed: u64) -> Served<'a> {
        let mut gens = vec![Arc::clone(&self.fitted.model)];
        if let Some(p) = p {
            gens.extend(self.copies.iter().skip(2 * p).take(2).cloned());
        }
        Served {
            stream: &self.stream,
            gens,
            wal_root,
            seed,
        }
    }
}

fn run_served(
    spec: &ServedSpec,
    args: &Args,
    process_start: Instant,
    scratch: &Path,
) -> Result<Report, Vec<String>> {
    let wal = spec.shape == Shape::SessionWal;
    let fixed_n = (spec.rate * args.seconds).round() as usize;
    let phase_spec =
        |label: &str, n: usize, first: usize, publishes: bool, checked: bool| PhaseSpec {
            label: label.into(),
            rate: spec.rate,
            n,
            first,
            publish_at: if publishes {
                vec![n / 3, 2 * n / 3]
            } else {
                Vec::new()
            },
            sample: checked,
            recover: checked && wal,
        };
    let publishing = |p: usize| wal.then_some(p);
    let reps = if args.trace { 1 } else { SERVED_SETUPS };
    // An untraced run measures the fixed-rate phase in one segment after
    // each set-up, so its windows sample the host across the run rather than
    // in one stretch that a co-tenant's burst can cover.
    let segment_n = fixed_n / reps;
    let mut setup_s = Vec::new();
    let mut export_ms = 0.0;
    let mut segments: Vec<Phase> = Vec::new();
    let mut rss_mb = Vec::new();
    let mut errors = Vec::new();
    let cpu = cpu_times();
    let mut kept = None;
    for rep in 0..reps {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let window = args.trace.then(Trace::begin);
        let setup = Setup::new(spec, args);
        if let Some(before) = window {
            export_ms = Trace::end(before).total_ns("retrieval.export") / 1e6;
        }
        let label = if args.trace {
            "reference".to_string()
        } else {
            format!("fixed{rep}")
        };
        let server = setup.served(Some(0), scratch, args.seed).start(&label);
        setup_s.push(t.elapsed().as_secs_f64());
        if args.trace {
            kept = Some((setup, Some(server)));
            continue;
        }
        if let Err(e) = reset_peak_rss() {
            errors.push(e);
        }
        let served = setup.served(publishing(0), scratch, args.seed);
        let first = rep * segment_n;
        let segment = served.run(server, &phase_spec(&label, segment_n, first, wal, true));
        rss_mb.push(peak_rss_mb());
        errors.extend(served.check(&segment));
        segments.push(segment);
        kept = Some((setup, None));
    }
    let steal = steal_pct(cpu);
    let (setup, server) = kept.expect("at least one set-up");
    if let Err(e) = stream::check_identity(spec.shape, &setup.fitted.ctx.dataset, args.seed) {
        errors.push(e);
    }

    let report = if !args.trace {
        let plain = setup.served(None, scratch, args.seed);
        let mut next = reps * segment_n;
        let mut probes: Vec<Phase> = Vec::new();
        let ladder = slo_ladder(spec.start_rung, &mut errors, |rate, n| {
            let label = format!("ladder{}", probes.len());
            let probe = plain.run(plain.start(&label), &PhaseSpec::plain(label, rate, n, next));
            next += n;
            let pass = probe.meets_slo(spec.limit_ms);
            eprintln!(
                "[ladder] {rate:.0} req/s: {} (p99 {:?} ms, {} failed)",
                if pass { "pass" } else { "fail" },
                probe.latency(0.99).ok(),
                probe.failed
            );
            probes.push(probe);
            pass
        });
        for p in &probes {
            errors.extend(plain.check(p));
        }
        let (hr, ndcg) = quality::fifteen_way(&setup.fitted);
        let recall = Catalog::build(args.fit_seed).recall_at_100();
        let lags: Vec<f64> = segments.iter().flat_map(|s| s.gen_lag_ms.clone()).collect();
        let (p50, p99, gen_lag) = match (
            fastest_median(&segments),
            pooled_latency(&segments, 0.99),
            percentile(&lags, 0.99),
        ) {
            (Ok(a), Ok(b), Ok(c)) => (a, b, c),
            (a, b, c) => {
                errors.extend([a.err(), b.err(), c.err()].into_iter().flatten());
                (0.0, 0.0, 0.0)
            }
        };
        if !errors.is_empty() {
            return Err(errors);
        }
        let behind = gen_lag > GEN_LAG_BOUND_MS;
        if behind {
            eprintln!(
                "[warn] generator fell behind: due → submit p99 {gen_lag:.3} ms > {GEN_LAG_BOUND_MS} ms"
            );
        }
        let sum = |f: fn(&Phase) -> f64| segments.iter().map(f).sum::<f64>();
        let mut phases: Vec<Json> = segments.iter().map(phase_meta).collect();
        phases.extend(probes.iter().map(phase_meta));
        Report {
            metrics: end_to_end(EndToEnd {
                setup_s: median(&setup_s),
                p50_ms: p50,
                slo_rps: ladder.slo_rps(),
                throughput_qps: sum(|s| s.answered as f64) / sum(|s| s.wall_s),
                rss_mb: median(&rss_mb),
                hr_ndcg: (hr, ndcg),
                recall_at_100: recall,
            }),
            attempted: segments.iter().map(|s| s.sent).sum(),
            failed: segments.iter().map(|s| s.failed).sum(),
            meta: vec![
                ("dataset", Json::from(model::PROFILE.name())),
                ("scale", Json::from(model::SCALE.to_string())),
                ("preset", Json::from(format!("{:?}", setup.fitted.preset))),
                ("teacher", Json::from(model::TEACHER.name())),
                ("setup_s", Json::arr(setup_s.iter().map(|&s| Json::from(s)))),
                ("rss_mb", Json::arr(rss_mb.iter().map(|&m| Json::from(m)))),
                // Reported, not gated: its run-to-run spread on a shared
                // host exceeds any bound the record allows.
                ("p99_ms", Json::from(p99)),
                ("gen_lag_p99_ms", Json::from(gen_lag)),
                ("generator_behind", Json::Bool(behind)),
                ("host_steal_pct", Json::from(steal)),
                ("phases", Json::Arr(phases)),
                ("ladder", ladder_meta(spec.start_rung, &ladder)),
            ],
        }
    } else {
        // Untraced reference at half length (its p50 is all the overhead
        // estimate needs), then the traced phase at full length.
        let reference_n = fixed_n / 2;
        let served = setup.served(publishing(0), scratch, args.seed);
        let server = server.expect("the traced run keeps its server");
        let reference = served.run(server, &phase_spec("reference", reference_n, 0, wal, false));
        errors.extend(served.check(&reference));
        let served = setup.served(publishing(1), scratch, args.seed);
        let server = served.start("traced");
        std::mem::take(&mut *setup.fitted.log.lock().unwrap());
        let cpu = cpu_times();
        let window = Trace::begin();
        let traced_n = fixed_n.max(TRACED_MIN_REQUESTS);
        let traced = served.run(
            server,
            &phase_spec("traced", traced_n, reference_n, wal, true),
        );
        let trace = Trace::end(window);
        let steal = steal_pct(cpu);
        errors.extend(served.check(&traced));
        let log = std::mem::take(&mut *setup.fitted.log.lock().unwrap());
        let coverage = trace.coverage_pct(&["bench.core.score_batch"]);
        match coverage {
            Some(c) if c >= 90.0 => {}
            c => errors.push(format!(
                "traced spans cover {c:?}% of served service time (need ≥ 90%)"
            )),
        }
        let sensitivity = quality::order_sensitivity(&setup.fitted);

        let mut m = trace.common(
            traced.answered as f64,
            trace.at_end("retrieval.index.bytes"),
        );
        let p99 = traced.latency(0.99).unwrap_or_else(|e| {
            errors.push(e);
            0.0
        });
        let mut pct = |name: &str, samples: &[f64], q: f64| match layer_percentile(name, samples, q)
        {
            Ok(v) => v,
            Err(e) => {
                errors.push(e);
                0.0
            }
        };
        let snap = &traced.snapshot;
        let sent = traced.sent as f64;
        let layer = [
            (
                "serve.submit_us.p50",
                pct("serve.submit_us", &traced.submit_us, 0.5),
            ),
            (
                "serve.submit_us.p99",
                pct("serve.submit_us", &traced.submit_us, 0.99),
            ),
            (
                "serve.queue_wait_ms.p50",
                pct("serve.queue_wait_ms", &traced.queue_wait_ms, 0.5),
            ),
            (
                "serve.queue_wait_ms.p99",
                pct("serve.queue_wait_ms", &traced.queue_wait_ms, 0.99),
            ),
            (
                "serve.service_ms.p50",
                pct("serve.service_ms", &traced.service_ms, 0.5),
            ),
            (
                "serve.service_ms.p99",
                pct("serve.service_ms", &traced.service_ms, 0.99),
            ),
            ("serve.batch_size.mean", snap.mean_batch_size),
            (
                "serve.rejected",
                (snap.rejected_queue_full + snap.rejected_deadline) as f64,
            ),
            ("serve.shed", snap.shed_expired as f64),
            ("serve.timed_out", snap.timed_out as f64),
            ("serve.publish_us", mean(&traced.publish_us)),
            (
                "serve.post_publish_ms.p99",
                pct("serve.post_publish_ms", &traced.post_publish_ms, 0.99),
            ),
            (
                "serve.wal.appends_per_req",
                trace.delta("serve.wal.appends") / sent,
            ),
            (
                "serve.wal.bytes_per_req",
                trace.delta("serve.wal.append_bytes") / sent,
            ),
            ("serve.wal.snapshots", trace.delta("serve.wal.snapshots")),
            (
                "serve.wal.recover_ms",
                traced.recovery.as_ref().map_or(0.0, |r| r.ms),
            ),
            (
                "serve.wal.records_recovered",
                trace.delta("serve.wal.records_recovered"),
            ),
            ("failed_frac", traced.failed as f64 / sent),
            ("p99_ms", p99),
            (
                "core.score_batch_ms.p50",
                pct("core.score_batch_ms", &log.score_ms, 0.5),
            ),
            (
                "core.score_batch_ms.p99",
                pct("core.score_batch_ms", &log.score_ms, 0.99),
            ),
            ("core.score_batch_rows.mean", mean(&log.score_rows)),
            ("retrieval.export_ms", export_ms),
            ("eval.order_sensitivity", sensitivity),
            (
                "bench.gen_lag_p99_ms",
                pct("bench.gen_lag", &traced.gen_lag_ms, 0.99),
            ),
            (
                "bench.trace_overhead_pct",
                overhead_pct(reference.latency(0.5), traced.latency(0.5), &mut errors),
            ),
            ("bench.span_coverage_pct", coverage.unwrap_or(0.0)),
        ];
        m.extend(layer.into_iter().map(|(k, v)| (k.to_string(), v)));
        if !errors.is_empty() {
            return Err(errors);
        }
        Report {
            metrics: per_layer(m),
            attempted: reference.sent + traced.sent,
            failed: reference.failed + traced.failed,
            meta: vec![
                ("dataset", Json::from(model::PROFILE.name())),
                ("scale", Json::from(model::SCALE.to_string())),
                ("preset", Json::from(format!("{:?}", setup.fitted.preset))),
                ("teacher", Json::from(model::TEACHER.name())),
                ("host_steal_pct", Json::from(steal)),
                (
                    "phases",
                    Json::arr([phase_meta(&reference), phase_meta(&traced)]),
                ),
            ],
        }
    };
    Ok(report)
}

/// Traced p50 over untraced p50, as a percentage increase.
fn overhead_pct(
    untraced: Result<f64, String>,
    traced: Result<f64, String>,
    errors: &mut Vec<String>,
) -> f64 {
    match (untraced, traced) {
        (Ok(u), Ok(t)) => 100.0 * (t / u - 1.0),
        (u, t) => {
            errors.extend([u.err(), t.err()].into_iter().flatten());
            0.0
        }
    }
}

/// The end-to-end metrics of an untraced run.
struct EndToEnd {
    setup_s: f64,
    p50_ms: f64,
    slo_rps: f64,
    throughput_qps: f64,
    rss_mb: f64,
    /// HR@10 and NDCG@10 of the default fitted model.
    hr_ndcg: (f64, f64),
    recall_at_100: f64,
}

/// The end-to-end metrics by name with their units, as the record lists
/// them.
fn end_to_end(m: EndToEnd) -> Vec<(String, f64, &'static str)> {
    [
        ("setup_s", m.setup_s, "s"),
        ("p50_ms", m.p50_ms, "ms"),
        ("slo_rps", m.slo_rps, "req/s"),
        ("throughput_qps", m.throughput_qps, "queries/s"),
        ("rss_mb", m.rss_mb, "MiB"),
        ("hr_at_10", m.hr_ndcg.0, "ratio"),
        ("ndcg_at_10", m.hr_ndcg.1, "ratio"),
        ("recall_at_100", m.recall_at_100, "ratio"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .collect()
}

/// `p50_ms` of a served run: the median latency of its fastest segment.
/// On a shared host co-tenants slow whole stretches of a run — in one run
/// with 0.5% steal, six 3-second stretches at 600 req/s measured 3.1–3.2 ms
/// but one 5.2 ms — and the fastest of three segments, spread over the
/// set-ups, is the one they touched least. Every segment's median is in the
/// run's metadata.
fn fastest_median(segments: &[Phase]) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for s in segments {
        best = best.min(s.latency(0.5)?);
    }
    Ok(best)
}

/// Percentile `q` of the due-based latency pooled over a phase split into
/// segments: the median of every segment's window percentiles.
fn pooled_latency(segments: &[Phase], q: f64) -> Result<f64, String> {
    let mut values = Vec::new();
    for s in segments {
        values.extend(
            stats::window_percentiles(&s.latency_ms, q)
                .map_err(|e| format!("{}: latency {e}", s.label))?,
        );
    }
    Ok(median(&values))
}

/// Search the `slo_rps` ladder from `start`. `probe(rate, n)` offers `n`
/// requests open loop at `rate` per second and answers whether the ladder's
/// conditions held. A rung passes when one of two probes does: on a shared
/// host a co-tenant's burst, not the program, can fail one probe. A search
/// that does not bracket its answer within [`MAX_PROBES`] rungs is recorded
/// in `errors`.
fn slo_ladder(
    start: i32,
    errors: &mut Vec<String>,
    mut probe: impl FnMut(f64, usize) -> bool,
) -> LadderResult {
    let found = ladder::search(start, MAX_PROBES, |k| {
        let rate = ladder::rate(k);
        let n = (rate * PROBE_MIN_S).max(PROBE_MIN_REQUESTS).ceil() as usize;
        probe(rate, n) || probe(rate, n)
    });
    found.unwrap_or_else(|e| {
        errors.push(e);
        LadderResult::default()
    })
}

fn ladder_meta(start: i32, ladder: &LadderResult) -> Json {
    Json::obj([
        ("start_rung", Json::from(start as f64)),
        (
            "probes",
            Json::arr(ladder.probes.iter().map(|&(k, pass)| {
                Json::obj([
                    ("rung", Json::from(k as f64)),
                    ("rps", Json::from(ladder::rate(k))),
                    ("pass", Json::Bool(pass)),
                ])
            })),
        ),
    ])
}

/// Order a per-layer map as the record lists it; every listed metric is
/// present (0 when the layer did not run) and nothing unlisted slips in.
fn per_layer(mut m: BTreeMap<String, f64>) -> Vec<(String, f64, &'static str)> {
    let out = layers::METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), m.remove(name).unwrap_or(0.0), unit))
        .collect();
    assert!(
        m.is_empty(),
        "per-layer metrics missing from the record: {:?}",
        m.keys()
    );
    out
}

fn run_catalog(args: &Args, process_start: Instant) -> Result<Report, Vec<String>> {
    let reps = if args.trace { 1 } else { CATALOG_SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let catalog = Catalog::build(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(catalog);
    }
    let catalog = kept.expect("at least one set-up");
    let mut errors = catalog.check();
    let measure = |seconds: f64, min_calls: usize| {
        let mut lp = catalog.closed_loop(seconds);
        while lp.call_ms.len() < min_calls {
            let more = catalog.closed_loop(0.5);
            lp.call_ms.extend(more.call_ms);
            lp.queries += more.queries;
            lp.failed += more.failed;
            lp.wall_s += more.wall_s;
        }
        lp
    };
    let queries_meta = |label: &str, lp: &catalog::ClosedLoop| {
        Json::obj([
            ("phase", Json::from(label)),
            ("sent", Json::from(lp.queries)),
            ("succeeded", Json::from(lp.queries - lp.failed)),
            ("failed", Json::from(lp.failed)),
            ("calls", Json::from(lp.call_ms.len())),
            ("seconds", Json::from(lp.wall_s)),
        ])
    };
    let meta_base = || {
        vec![
            (
                "dataset",
                Json::from(format!(
                    "synthetic catalog {}x{}",
                    catalog::N_ITEMS,
                    catalog::DIM
                )),
            ),
            ("block", Json::from(catalog::BLOCK)),
            ("depth", Json::from(catalog::DEPTH)),
        ]
    };
    if !args.trace {
        if let Err(e) = reset_peak_rss() {
            errors.push(e);
        }
        let cpu = cpu_times();
        let lp = measure(args.seconds, CATALOG_MIN_CALLS);
        let steal = steal_pct(cpu);
        let rss_mb = peak_rss_mb();
        let mut next = 0;
        let mut probes = Vec::new();
        let ladder = slo_ladder(CATALOG_START_RUNG, &mut errors, |rate, n| {
            let probe = catalog.open_loop(rate, n, next);
            next += n;
            let pass = ladder::meets_slo(
                &probe.latency_ms,
                probe.sent,
                probe.failed,
                CATALOG_LIMIT_MS,
            );
            let p99 = stats::windowed_percentile(&probe.latency_ms, 0.99).ok();
            eprintln!(
                "[ladder] {rate:.0} queries/s: {} (p99 {p99:?} ms, {} failed)",
                if pass { "pass" } else { "fail" },
                probe.failed
            );
            probes.push(Json::obj([
                ("phase", Json::from(format!("ladder{}", probes.len()))),
                ("offered_rps", Json::from(rate)),
                ("sent", Json::from(probe.sent)),
                ("succeeded", Json::from(probe.sent - probe.failed)),
                ("failed", Json::from(probe.failed)),
                ("calls", Json::from(probe.calls)),
                ("p99_ms", p99.map_or(Json::Null, Json::from)),
            ]));
            pass
        });
        // The model-quality probes of every workload: the default fitted
        // model and the fit-seed catalog, so they mean the same here as on
        // the served workloads.
        let fitted = Fitted::fit(args.fit_seed);
        let hr_ndcg = quality::fifteen_way(&fitted);
        let recall = Catalog::build(args.fit_seed).recall_at_100();
        let (p50, p99) = match (percentile(&lp.call_ms, 0.5), percentile(&lp.call_ms, 0.99)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                errors.extend([a.err(), b.err()].into_iter().flatten());
                (0.0, 0.0)
            }
        };
        if !errors.is_empty() {
            return Err(errors);
        }
        let mut meta = meta_base();
        meta.push(("setup_s", Json::arr(setup_s.iter().map(|&s| Json::from(s)))));
        meta.push(("host_steal_pct", Json::from(steal)));
        meta.push(("p99_ms", Json::from(p99)));
        let mut phases = vec![queries_meta("closed_loop", &lp)];
        phases.extend(probes);
        meta.push(("phases", Json::Arr(phases)));
        meta.push(("ladder", ladder_meta(CATALOG_START_RUNG, &ladder)));
        Ok(Report {
            metrics: end_to_end(EndToEnd {
                setup_s: median(&setup_s),
                p50_ms: p50,
                slo_rps: ladder.slo_rps(),
                throughput_qps: lp.queries as f64 / lp.wall_s,
                rss_mb,
                hr_ndcg,
                recall_at_100: recall,
            }),
            attempted: lp.queries,
            failed: lp.failed,
            meta,
        })
    } else {
        let reference = measure(args.seconds / 2.0, 20);
        let cpu = cpu_times();
        let window = Trace::begin();
        let traced = measure(args.seconds, CATALOG_MIN_CALLS);
        let trace = Trace::end(window);
        let steal = steal_pct(cpu);
        let coverage = trace.coverage_pct(&["bench.retrieval.call"]);
        match coverage {
            Some(c) if c >= 90.0 => {}
            c => errors.push(format!(
                "traced spans cover {c:?}% of call time (need ≥ 90%)"
            )),
        }
        let overhead = overhead_pct(
            percentile(&reference.call_ms, 0.5),
            percentile(&traced.call_ms, 0.5),
            &mut errors,
        );
        if !errors.is_empty() {
            return Err(errors);
        }
        let mut m = trace.common(
            traced.queries as f64,
            catalog.retriever().index().bytes() as f64,
        );
        m.insert(
            "failed_frac".into(),
            traced.failed as f64 / traced.queries as f64,
        );
        match percentile(&traced.call_ms, 0.99) {
            Ok(p99) => m.insert("p99_ms".into(), p99),
            Err(e) => return Err(vec![e]),
        };
        m.insert("eval.order_sensitivity".into(), catalog.order_sensitivity());
        m.insert("bench.trace_overhead_pct".into(), overhead);
        m.insert("bench.span_coverage_pct".into(), coverage.unwrap_or(0.0));
        let mut meta = meta_base();
        meta.push(("host_steal_pct", Json::from(steal)));
        meta.push((
            "phases",
            Json::arr([
                queries_meta("reference", &reference),
                queries_meta("traced", &traced),
            ]),
        ));
        Ok(Report {
            metrics: per_layer(m),
            attempted: reference.queries + traced.queries,
            failed: reference.failed + traced.failed,
            meta,
        })
    }
}

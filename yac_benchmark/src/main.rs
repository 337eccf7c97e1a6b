//! `yac_benchmark` — one harness for both product paths: the batch
//! studies behind Tables 2–6 and the sweep service behind `yac-serve`.
//!
//! ```text
//! yac_benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//!               [--spans FILE] [--out FILE]
//! yac_benchmark compare A.json... -- B.json...
//! ```
//!
//! A run executes one workload in this process, prints every metric by
//! name with its unit (latencies with their sample counts), checks the
//! outputs, and ends its standard output with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. It exits 1
//! when any check fails or any operation fails, 2 on a usage error.
//! `--trace 0` reports the end-to-end metrics, scaled to a reference
//! host's speed by the gauge in `gauge.rs`; `--trace 1` replays a
//! fixed subset of the work through each layer's public calls under the
//! benchmark's span recorder and reports the per-layer metrics instead
//! (`--spans FILE` also writes the spans as NDJSON). `--out FILE` saves
//! the result with its workload and seed for `compare`. See README.md.

mod batch;
mod compare;
mod gauge;
mod json;
mod serve;
mod spans;
mod stats;

use gauge::{Gauge, Stopwatch, Timing};
use spans::Recorder;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Pool and executor workers, and concurrent clients: the load is sized
/// for a two-core machine, a constant rather than detected, so every
/// machine runs the same work.
pub const WORKERS: usize = 2;

/// The seed the goldens were captured with.
pub const DEFAULT_SEED: u64 = 2006;

/// Rounds per run. Each round sets the workload up from scratch and then
/// measures for an equal share of `--seconds`; `setup_s` is the median of
/// the rounds' set-ups. Spreading the set-ups over the run keeps one slow
/// spell of a shared host from deciding their median.
pub const ROUNDS: usize = 5;

/// The length of the timed phase when `--seconds` is not given, the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 30;

const WORKLOADS: [&str; 3] = ["table6_cpi", "yield_study", "serve_mixed"];

/// End-to-end metrics and units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("ops_per_s", "1/s")];

/// Per-layer metrics and units, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("variation.sample_us_per_chip", "us"),
    ("circuit.eval_us_per_chip", "us"),
    ("analysis.study_tail_ms", "ms"),
    ("executor.run_supervised_ms", "ms"),
    ("executor.parallel_efficiency", "frac"),
    ("workload.gen_ns_per_uop", "ns"),
    ("cache.access_ns", "ns"),
    ("cache.l1d_miss_ratio", "frac"),
    ("pipeline.uops_per_s", "uops/s"),
    ("pipeline.run_s", "s"),
    ("pipeline.sim_cycles", "count"),
    ("pipeline.committed_uops", "count"),
    ("perf.suite_wall_s", "s"),
    ("perf.suite_parallel_efficiency", "frac"),
    ("service.query_hit_us", "us"),
    ("service.query_miss_ms", "ms"),
    ("service.miss_population_ms", "ms"),
    ("service.cache_get_us", "us"),
    ("service.cache_insert_us", "us"),
    ("service.fingerprint_us", "us"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("wire.request_codec_us", "us"),
    ("wire.reply_codec_us", "us"),
    ("wire.frame_roundtrip_us", "us"),
    ("wire.fresh_conn_rtt_ms", "ms"),
    ("wire.persistent_rtt_us", "us"),
    ("wire.persistent_hit_us", "us"),
    ("wire.persistent_miss_ms", "ms"),
    ("wire.accept_wait_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
];

const USAGE: &str = "usage: yac_benchmark --workload table6_cpi|yield_study|serve_mixed \
[--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--out FILE]\n       \
yac_benchmark compare A.json... -- B.json...";

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (transport errors, refusals, errors).
    pub failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    /// Records a metric and prints it with its unit.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        println!("{name} = {value} {}", unit_of(name).unwrap_or("?"));
        self.metrics.push((name, value));
    }

    /// Records the nearest-rank percentile `p` of `samples` (scaled by
    /// `scale`) as `name`, printing the sample count and flagging a tail
    /// with fewer than ten samples beyond it.
    pub fn percentile(&mut self, name: &'static str, samples: &[f64], p: f64, scale: f64) {
        let unit = unit_of(name).unwrap_or("?");
        match print_percentile(name, unit, samples, p, scale) {
            Some(value) => self.metrics.push((name, value)),
            None => self.error(format!("{name}: no samples")),
        }
    }

    /// Records a correctness failure.
    pub fn error(&mut self, msg: String) {
        eprintln!("error: {msg}");
        self.errors.push(msg);
    }

    /// Records `what` as a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.error(what());
        }
    }

    /// 0 when every check passed and no operation failed, else 1.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        u8::from(!(self.errors.is_empty() && self.failed == 0))
    }

    /// Flags any metric of `expected` that is missing or not finite, and
    /// any extra one.
    fn validate(&mut self, expected: &[(&str, &str)]) {
        for (name, _) in expected {
            match self.metrics.iter().find(|(n, _)| n == name) {
                None => self.error(format!("metric {name} was not produced")),
                Some((_, v)) if !v.is_finite() => self.error(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !expected.iter().any(|(e, _)| e == n))
            .collect();
        self.check(extra.is_empty(), || format!("unexpected metrics {extra:?}"));
    }

    /// The result object, metrics in the order of `expected`.
    fn to_json(&self, expected: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = expected
            .iter()
            .filter_map(|(name, unit)| {
                let (_, v) = self
                    .metrics
                    .iter()
                    .find(|(n, v)| n == name && v.is_finite())?;
                Some(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Prints the nearest-rank percentile `p` of `samples` (scaled by
/// `scale`) with its sample count, flagging a tail with fewer than ten
/// samples beyond it, and returns it; `None` without samples.
pub fn print_percentile(
    name: &str,
    unit: &str,
    samples: &[f64],
    p: f64,
    scale: f64,
) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let value = stats::percentile(&stats::sorted(samples), p) * scale;
    let beyond = stats::samples_beyond(n, p);
    let warn = if p > 50.0 && !stats::tail_resolved(n, p) {
        " — fewer than ten samples beyond it"
    } else {
        ""
    };
    println!("{name} = {value} {unit} (p{p}, n={n}, {beyond} beyond){warn}");
    Some(value)
}

/// Compares `actual` with a golden file's content at the default seed;
/// at any other seed prints its digest so two commits can be compared.
pub fn golden_check(out: &mut Outcome, seed: u64, file: &str, golden: &str, actual: &str) {
    if seed == DEFAULT_SEED {
        out.check(golden.trim_end() == actual.trim_end(), || {
            format!("output differs from golden/{file}; this run produced:\n{actual}")
        });
    } else {
        println!(
            "{file} digest {:016x} (seed {seed}; goldens hold seed {DEFAULT_SEED})",
            stats::digest(actual.as_bytes())
        );
    }
}

/// Set-up and timed-phase timings of a run's rounds, and the gauge
/// sampled through them.
pub struct Rounds {
    /// Each round's set-up.
    pub setups: Vec<Timing>,
    /// The rounds' timed phases, summed.
    pub measured: Timing,
    /// The host-speed gauge, sampled after every set-up and by the timed
    /// phases of the batch workloads.
    pub gauge: Gauge,
}

/// Runs `ROUNDS` rounds of `setup` then `measure`, each measuring for an
/// equal share of `seconds`, with a gauge sample after each set-up (all
/// set-ups are CPU-bound; a serving workload's timed phase is not).
/// `measure` gets the set-up's product, the round's deadline and the
/// gauge, and returns the timing of its timed phase (gauge samples and
/// checks it runs are not part of it).
pub fn run_rounds<S>(
    seconds: Duration,
    mut setup: impl FnMut() -> S,
    mut measure: impl FnMut(S, Instant, &mut Gauge) -> Timing,
) -> Rounds {
    let share = seconds / ROUNDS as u32;
    let mut gauge = Gauge::new();
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut measured = Timing::default();
    for _ in 0..ROUNDS {
        let watch = Stopwatch::start();
        let state = setup();
        setups.push(watch.stop());
        gauge.sample();
        measured += measure(state, Instant::now() + share, &mut gauge);
    }
    Rounds {
        setups,
        measured,
        gauge,
    }
}

/// Calls `op` back to back, at least once, until `deadline` has passed
/// and `latencies` holds at least `min_ops` entries, appending each
/// call's wall latency in milliseconds, and returns the calls' summed
/// timing. Between calls the gauge samples when due. `op` gets the
/// call's index over the whole run.
pub fn ops_until(
    deadline: Instant,
    min_ops: usize,
    latencies: &mut Vec<f64>,
    gauge: &mut Gauge,
    mut op: impl FnMut(usize),
) -> Timing {
    let mut timed = Timing::default();
    loop {
        let watch = Stopwatch::start();
        op(latencies.len());
        let t = watch.stop();
        timed += t;
        latencies.push(t.wall * 1e3);
        if latencies.len() >= min_ops && Instant::now() >= deadline {
            return timed;
        }
        gauge.sample_when_due();
    }
}

/// Records the end-to-end metrics of a run at the reference host's speed
/// (see `gauge`) — median set-up time, median operation latency and
/// completed operations per second of timed phase — and prints the p90
/// latency, the measured values behind the scaled ones, and peak memory.
pub fn end_to_end(out: &mut Outcome, rounds: &Rounds, latencies_ms: &[f64], completed: usize) {
    let speed = rounds.gauge.speed();
    let mut setup = Timing::default();
    for t in &rounds.setups {
        setup += *t;
    }
    let setup_scale = gauge::scale(setup.cpu_share(), speed);
    let op_scale = gauge::scale(rounds.measured.cpu_share(), speed);
    let setup_s: Vec<f64> = rounds.setups.iter().map(|t| t.wall).collect();
    out.metric("setup_s", stats::median(&setup_s) * setup_scale);
    out.percentile("op_p50_ms", latencies_ms, 50.0, op_scale);
    print_percentile("op_p90_ms", "ms", latencies_ms, 90.0, op_scale);
    let ops_per_s = completed as f64 / rounds.measured.wall;
    out.metric("ops_per_s", ops_per_s / op_scale);
    println!(
        "host speed {speed} of the reference ({} gauge samples, median {} ms against {} ms)",
        rounds.gauge.samples(),
        rounds.gauge.median_ms(),
        gauge::REFERENCE_MS
    );
    let raw_p50 = match latencies_ms {
        [] => "-".to_owned(),
        _ => stats::percentile(&stats::sorted(latencies_ms), 50.0).to_string(),
    };
    println!(
        "  measured: set-ups {setup_s:?} s (CPU share {}, scale {setup_scale}); \
         op p50 {raw_p50} ms, {ops_per_s} ops/s (CPU share {}, scale {op_scale})",
        setup.cpu_share(),
        rounds.measured.cpu_share()
    );
    match yac_obs::peak_rss_bytes() {
        Some(bytes) => println!("peak_rss_mb = {} MB", bytes as f64 / (1024.0 * 1024.0)),
        None => println!("peak_rss_mb unavailable (no VmHWM in /proc/self/status)"),
    }
}

#[derive(Debug)]
struct Options {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&opts.seconds) {
                    return Err("--seconds must be 1..=3600".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--spans" => opts.spans = Some(value()?.clone()),
            "--out" => opts.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.spans.is_some() && !opts.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(opts)
}

type Replays = (
    Result<batch::PipelineReplay, String>,
    Result<batch::YieldReplay, String>,
    Result<serve::ServiceReplay, String>,
);

/// Replays the three layer subsets under `rec`: each at full size on the
/// workload that exercises it and at a small size elsewhere, so every
/// per-layer metric exists on every workload. Returns the replays and
/// their summed wall time.
fn replay_all(rec: &Recorder, opts: &Options) -> (Replays, Duration) {
    let studies = if opts.workload == "yield_study" {
        batch::TRACED_STUDIES
    } else {
        batch::PRESENCE_STUDIES
    };
    let scale = if opts.workload.starts_with("serve") {
        serve::FULL
    } else {
        serve::PRESENCE
    };
    let pipeline = batch::replay_pipeline(rec, opts.seed);
    let studies = batch::replay_yield(rec, opts.seed, studies);
    let service = serve::replay_service(rec, opts.seed, scale);
    let wall = [
        pipeline.as_ref().map(|r| r.wall),
        studies.as_ref().map(|r| r.wall),
        service.as_ref().map(|r| r.wall),
    ]
    .into_iter()
    .flatten()
    .sum();
    ((pipeline, studies, service), wall)
}

/// The traced run: the replays once with the recorder off and once on,
/// so their wall-time ratio is the tracing overhead; the per-layer
/// metrics come from the recorded pass.
fn traced(opts: &Options) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let ((p, y, s), wall_off) = replay_all(&Recorder::new(false), opts);
    for e in [p.err(), y.err(), s.err()].into_iter().flatten() {
        fail(&mut out, format!("unrecorded pass: {e}"));
    }
    let recorder = Recorder::new(true);
    let ((pipeline, studies, service), wall_on) = replay_all(&recorder, opts);
    match pipeline {
        Ok(p) => {
            out.attempted += p.ops;
            batch::pipeline_metrics(&recorder, &p, &mut out);
            batch::check_table6_row(opts.seed, &p, &mut out);
        }
        Err(e) => fail(&mut out, e),
    }
    match studies {
        Ok(y) => {
            out.attempted += y.ops;
            batch::yield_metrics(&recorder, &y, &mut out);
        }
        Err(e) => fail(&mut out, e),
    }
    match service {
        Ok(s) => {
            out.attempted += s.ops;
            serve::service_metrics(&recorder, &s, &mut out);
        }
        Err(e) => fail(&mut out, e),
    }
    out.metric(
        "bench.trace_overhead_frac",
        wall_on.as_secs_f64() / wall_off.as_secs_f64() - 1.0,
    );
    (out, recorder)
}

fn fail(out: &mut Outcome, e: String) {
    out.attempted += 1;
    out.failed += 1;
    out.error(e);
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("yac_benchmark compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("yac_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (workers {WORKERS}, clients {WORKERS})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let seconds = Duration::from_secs(opts.seconds);
    let (mut out, expected) = if opts.trace {
        let (mut out, recorder) = traced(&opts);
        if let Some(path) = &opts.spans {
            if let Err(e) = write_file(path, &recorder.to_ndjson()) {
                out.error(e);
            }
        }
        (out, &PER_LAYER[..])
    } else {
        let out = match opts.workload {
            "table6_cpi" => batch::table6_cpi(opts.seed, seconds),
            "yield_study" => batch::yield_study(opts.seed, seconds),
            _ => serve::run(opts.seed, seconds),
        };
        (out, &END_TO_END[..])
    };
    out.validate(expected);
    let json = out.to_json(expected);
    if let Some(path) = &opts.out {
        // The result object with the run's identity spliced in front.
        let saved = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{}\n",
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            &json[1..]
        );
        if let Err(e) = write_file(path, &saved) {
            out.error(e);
        }
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", out.to_json(expected));
    ExitCode::from(out.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_golden_fails_the_run() {
        let mut out = Outcome::default();
        golden_check(&mut out, DEFAULT_SEED, "t.txt", "right\n", "right");
        assert_eq!(out.exit_code(), 0);
        golden_check(
            &mut out,
            DEFAULT_SEED,
            "t.txt",
            "deliberately wrong\n",
            "right",
        );
        assert_eq!(out.exit_code(), 1);
        assert!(out.to_json(&[]).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn other_seeds_skip_the_golden() {
        let mut out = Outcome::default();
        golden_check(&mut out, DEFAULT_SEED + 1, "t.txt", "anything", "right");
        assert_eq!(out.exit_code(), 0);
    }

    #[test]
    fn failed_operations_fail_the_run() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        assert_eq!(out.exit_code(), 1);
        out.failed = 0;
        assert_eq!(out.exit_code(), 0);
    }

    #[test]
    fn missing_metrics_are_errors() {
        let mut out = Outcome::default();
        out.metric("setup_s", 0.5);
        out.validate(&END_TO_END);
        assert_eq!(out.exit_code(), 1);
        let json = json::Json::parse(&out.to_json(&END_TO_END)).unwrap();
        let metrics = json.get("metrics").and_then(json::Json::as_object).unwrap();
        assert_eq!(metrics.len(), 1);
    }

    #[test]
    fn options_parse_the_run_interface() {
        let args: Vec<String> = "--workload serve_mixed --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            ("serve_mixed", 7, 3, true)
        );
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload serve_mixed --trace 2",
        ] {
            let args: Vec<String> = bad.split(' ').map(str::to_owned).collect();
            assert!(parse_options(&args).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(json::Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(json::Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(json::Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Json::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            spec.get("run_seconds").and_then(json::Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}

//! `sweep_study` — the multi-study sweep orchestrator CLI, and CI's
//! `chaos-smoke` crash/resume gate.
//!
//! Runs a grid of studies (seed × constraint × scheme set) through
//! `yac_core::run_sweep` with a crash-safe journal: kill the process at
//! any point, re-run the same command, and the sweep resumes where it
//! left off — completed studies are replayed from their journal records,
//! the interrupted one from its shard-granular checkpoint.
//!
//! ```text
//! sweep_study [--chips N] [--seeds 1,2,...] [--constraints nominal,relaxed,strict]
//!             [--schemes regular|horizontal|both] [--workers N] [--studies K]
//!             [--checkpoint-every N] [--cpi WARMUP,MEASURE]
//!             [--journal PATH] [--summary PATH] [--trace PATH] [--progress]
//! ```
//!
//! `--summary PATH` writes a deterministic result digest (loss tables
//! plus every interval and CPI as 16-hex-digit f64 bit images): two runs
//! of the same grid — uninterrupted, or killed and resumed any number of
//! times — must produce byte-identical summaries, which is exactly what
//! CI diffs.
//!
//! When the `YAC_CHAOS` environment variable is set (see
//! `yac_core::chaos`), the named fault/crash plan is installed before the
//! sweep runs — this is how CI kills the process mid-write.

#![deny(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use yac_core::sweep::CpiOptions;
use yac_core::{
    chaos, render_loss_table, ChaosPlan, ConstraintSpec, ExecutorConfig, PowerDownKind, StudyError,
    StudyStatus, SweepConfig, SweepGrid, SweepOutcome,
};
use yac_obs::progress::{ProgressConfig, ProgressReporter};

/// Exit code for a journal/checkpoint grid-fingerprint mismatch: the
/// on-disk state belongs to a different grid, so rerunning the same
/// command can never succeed (unlike the generic failure exit).
const MISMATCH_EXIT: u8 = 4;

struct Args {
    chips: usize,
    seeds: Vec<u64>,
    constraints: Vec<ConstraintSpec>,
    kinds: Vec<PowerDownKind>,
    workers: usize,
    studies: usize,
    checkpoint_every: usize,
    cpi: Option<CpiOptions>,
    journal: String,
    summary: Option<String>,
    trace: Option<String>,
    progress: bool,
}

fn parse_constraint(name: &str) -> Result<ConstraintSpec, String> {
    match name {
        "nominal" => Ok(ConstraintSpec::NOMINAL),
        "relaxed" => Ok(ConstraintSpec::RELAXED),
        "strict" => Ok(ConstraintSpec::STRICT),
        other => Err(format!("unknown constraint {other:?}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        chips: 200,
        seeds: vec![2006],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
        workers: 2,
        studies: 1,
        checkpoint_every: 4,
        cpi: None,
        journal: "sweep.journal".to_owned(),
        summary: None,
        trace: None,
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--chips" => {
                args.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?
            }
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--constraints" => {
                args.constraints = value("--constraints")?
                    .split(',')
                    .map(|s| parse_constraint(s.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--schemes" => {
                args.kinds = match value("--schemes")?.as_str() {
                    "regular" => vec![PowerDownKind::Vertical],
                    "horizontal" => vec![PowerDownKind::Horizontal],
                    "both" => vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
                    other => return Err(format!("--schemes: unknown set {other:?}")),
                };
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--studies" => {
                args.studies = value("--studies")?
                    .parse()
                    .map_err(|e| format!("--studies: {e}"))?;
            }
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--cpi" => {
                let spec = value("--cpi")?;
                let (warm, meas) = spec
                    .split_once(',')
                    .ok_or_else(|| format!("--cpi: expected WARMUP,MEASURE, got {spec:?}"))?;
                args.cpi = Some(CpiOptions {
                    warmup_uops: warm.trim().parse().map_err(|e| format!("--cpi: {e}"))?,
                    measure_uops: meas.trim().parse().map_err(|e| format!("--cpi: {e}"))?,
                });
            }
            "--journal" => args.journal = value("--journal")?,
            "--summary" => args.summary = Some(value("--summary")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--progress" => args.progress = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Deterministic result digest: depends only on the grid's results —
/// never on resume history — so CI can diff clean vs killed-and-resumed.
fn render_summary(outcome: &SweepOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "YAC-SWEEP-SUMMARY v1");
    for (spec, status) in &outcome.studies {
        let kind = match spec.kind {
            PowerDownKind::Vertical => "vertical",
            PowerDownKind::Horizontal => "horizontal",
        };
        let _ = writeln!(
            out,
            "study {} seed {} constraint {} kind {}",
            spec.index, spec.seed, spec.constraint.name, kind
        );
        match status {
            StudyStatus::Pending => {
                let _ = writeln!(out, "  pending");
            }
            StudyStatus::Failed { error } => {
                let _ = writeln!(out, "  failed: {error}");
            }
            StudyStatus::Completed(r) | StudyStatus::Degraded(r) => {
                let _ = writeln!(
                    out,
                    "  interval {} bits {:016x} {:016x} {:016x}",
                    r.yield_interval,
                    r.yield_interval.estimate.to_bits(),
                    r.yield_interval.lo.to_bits(),
                    r.yield_interval.hi.to_bits(),
                );
                let _ = writeln!(
                    out,
                    "  evaluated {} missing {} degraded-shards {}",
                    r.evaluated_chips, r.missing_chips, r.degraded_shards
                );
                match r.mean_cpi {
                    Some(cpi) => {
                        let _ = writeln!(out, "  mean-cpi {cpi:.6} bits {:016x}", cpi.to_bits());
                    }
                    None => {
                        let _ = writeln!(out, "  mean-cpi -");
                    }
                }
                for line in render_loss_table(&r.loss).lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweep_study: {e}");
            return ExitCode::FAILURE;
        }
    };

    match ChaosPlan::from_env() {
        Ok(None) => {}
        Ok(Some(plan)) => {
            eprintln!("sweep_study: chaos plan installed: {plan:?}");
            chaos::install(plan);
        }
        Err(e) => {
            eprintln!("sweep_study: YAC_CHAOS: {e}");
            return ExitCode::FAILURE;
        }
    }

    let grid = SweepGrid {
        chips: args.chips,
        seeds: args.seeds.clone(),
        constraints: args.constraints.clone(),
        kinds: args.kinds.clone(),
    };
    let mut config = SweepConfig {
        exec: ExecutorConfig::with_workers(args.workers.max(1)),
        concurrent_studies: args.studies,
        checkpoint_every: args.checkpoint_every,
        cpi: args.cpi,
        cancel: None,
        faults: None,
    };
    config.exec.shard_chips = config.exec.shard_chips.min(args.chips.max(1));
    let total_studies = grid.studies().len();

    let registry = yac_obs::global();
    yac_obs::enable();
    registry.reset();
    if args.trace.is_some() {
        yac_obs::trace_label_thread("main");
        yac_obs::trace_enable();
    }
    let reporter = args.progress.then(|| {
        ProgressReporter::start(
            registry,
            ProgressConfig {
                total_chips: (args.chips * total_studies) as u64,
                workers: args.workers.max(1) * args.studies.max(1),
                interval: std::time::Duration::from_secs(1),
                label: "sweep_study".to_owned(),
                total_studies: total_studies as u64,
            },
        )
    });

    eprintln!(
        "sweep_study: {} studies ({} seeds x {} constraints x {} scheme sets), \
         {} chips each, {} concurrent on {} worker(s), journal {}",
        total_studies,
        grid.seeds.len(),
        grid.constraints.len(),
        grid.kinds.len(),
        grid.chips,
        config.concurrent_studies,
        config.exec.workers,
        args.journal,
    );

    let outcome = yac_core::run_sweep(&grid, &config, Path::new(&args.journal));
    if let Some(reporter) = reporter {
        reporter.stop();
    }
    let outcome = match outcome {
        Ok(o) => o,
        // A grid-fingerprint mismatch means the journal belongs to a
        // different sweep — almost always a wrong --journal path or a
        // changed grid flag, and never something a retry fixes. The
        // distinct exit code lets wrappers tell "rerun later" from
        // "operator error".
        Err(e @ StudyError::Mismatch(_)) => {
            eprintln!("sweep_study: journal mismatch: {e}");
            return ExitCode::from(MISMATCH_EXIT);
        }
        Err(e) => {
            eprintln!("sweep_study: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "sweep_study: {} completed, {} degraded, {} failed, {} pending{}{}",
        outcome.completed(),
        outcome.degraded(),
        outcome.failed(),
        outcome.pending(),
        if outcome.resumed {
            format!(
                " (resumed, {} recovered from the journal)",
                outcome.recovered
            )
        } else {
            String::new()
        },
        if outcome.cancelled {
            " (cancelled)"
        } else {
            ""
        },
    );
    for (spec, status) in &outcome.studies {
        if let StudyStatus::Failed { error } = status {
            eprintln!("sweep_study: study {} FAILED: {error}", spec.index);
        }
    }

    let summary = render_summary(&outcome);
    print!("{summary}");
    if let Some(path) = &args.summary {
        if let Err(e) = std::fs::write(path, &summary) {
            eprintln!("sweep_study: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("sweep_study: wrote {path}");
    }

    if let Some(trace_path) = &args.trace {
        yac_obs::trace_disable();
        let snapshot = yac_obs::journal().snapshot();
        let trace_path = Path::new(trace_path);
        let ndjson_path = trace_path.with_extension("ndjson");
        if let Err(e) = yac_obs::perfetto::write_chrome_json(trace_path, &snapshot) {
            eprintln!("sweep_study: writing {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
        if let Err(e) = yac_obs::ndjson::write_ndjson(&ndjson_path, &snapshot) {
            eprintln!("sweep_study: writing {}: {e}", ndjson_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "sweep_study: traced {} event(s) on {} thread(s) ({} dropped, {} lost) -> {} + {}",
            snapshot.total_events(),
            snapshot.threads.len(),
            snapshot.dropped_events,
            snapshot.lost_events(),
            trace_path.display(),
            ndjson_path.display(),
        );
    }

    if outcome.failed() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

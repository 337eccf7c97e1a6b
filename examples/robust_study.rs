//! The supervised parallel executor end to end: sharded workers that
//! reproduce the serial study bit-for-bit, the degraded path with
//! widened confidence intervals, and shard-granular checkpoint resume.
//!
//! Usage:
//! `cargo run --release --example robust_study -- [checkpoint_path]
//!  [--trace trace.json] [--progress]`
//!
//! `--trace` records the structured event journal across all three demos
//! and writes a Perfetto-loadable Chrome trace JSON (plus `yac-trace/1`
//! NDJSON next to it) showing each worker's shards and degrades on its
//! own track. `--progress` prints live status lines to
//! stderr while the studies run.

use std::time::Duration;
use yac_obs::progress::{ProgressConfig, ProgressReporter};
use yield_aware_cache::core::executor::run_checkpointed_workers_budget;
use yield_aware_cache::prelude::*;

/// Executor tuned for a demo: small shards.
fn exec(workers: usize) -> ExecutorConfig {
    let mut e = ExecutorConfig::with_workers(workers);
    e.shard_chips = 32;
    e
}

fn main() {
    yac_obs::enable();
    let registry = yac_obs::global();

    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut progress = false;
    let mut positional: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(args.next().expect("--trace requires a path").into());
            }
            "--progress" => progress = true,
            other => positional = Some(other.into()),
        }
    }
    if trace_path.is_some() {
        yac_obs::trace_label_thread("main");
        yac_obs::trace_enable();
    }
    let reporter = progress.then(|| {
        ProgressReporter::start(
            registry,
            ProgressConfig {
                total_chips: 400,
                workers: 4,
                interval: Duration::from_secs(1),
                label: "robust_study".to_owned(),
                total_studies: 0,
            },
        )
    });

    // Injected shard faults are panics by design; silence the default
    // hook so the demo output stays readable (the supervisor catches
    // and reports every one of them anyway).
    std::panic::set_hook(Box::new(|_| {}));

    // A 400-chip study with 5% of the dies corrupted at the fab, run on
    // four supervised workers. The merge is bit-identical to the serial
    // path, faults or not.
    let mut cfg = PopulationConfig::paper(2006);
    cfg.chips = 400;
    cfg.faults = Some(FaultPlan::new(0.05, 1).expect("rate in [0, 1]"));

    let outcome = run_supervised(&cfg, &exec(4)).expect("valid config");
    let serial = Population::generate_with(&cfg);
    println!(
        "4 workers: {} chips classified, {} quarantined, identical to serial = {}",
        outcome.population.len(),
        outcome.population.quarantine().len(),
        outcome.population.chips == serial.chips
            && outcome.population.quarantine() == serial.quarantine()
    );

    // The degraded path: a shard that fails is recorded at once, not
    // retried — a rerun would draw the same chips and fail the same way.
    // The study completes with the surviving chips and an honest,
    // *widened* yield interval.
    let mut doomed = exec(4);
    doomed.shard_faults = Some(FaultPlan::new(0.25, 5).expect("rate in [0, 1]"));
    let degraded = run_supervised(&cfg, &doomed).expect("valid config");
    println!(
        "\ndegraded run: {} of {} chips missing across {} shard(s):",
        degraded.missing_chips(),
        degraded.requested_chips,
        degraded.degraded.len()
    );
    for d in &degraded.degraded {
        println!("  {}", d.error);
    }
    println!(
        "  yield {} vs complete-study {}",
        degraded.yield_interval, outcome.yield_interval
    );

    // Shard-granular checkpointing: kill a parallel run after 4 shards,
    // resume on a different worker count, still bit-exact.
    let path = positional.unwrap_or_else(|| std::env::temp_dir().join("robust-study-example.ckpt"));
    let _ = std::fs::remove_file(&path);
    let killed = run_checkpointed_workers_budget(&cfg, &exec(4), &path, 2, Some(4))
        .expect("checkpointing works");
    println!(
        "\nkilled after 4 shards: complete = {} (checkpoint at {})",
        killed.is_some(),
        path.display()
    );
    match run_checkpointed_workers(&cfg, &exec(2), &path, 2) {
        Ok(resumed) => println!(
            "resumed on 2 workers: identical to serial run = {}",
            resumed.population.chips == serial.chips
        ),
        Err(e) => println!("resume failed: {e}"),
    }
    let _ = std::fs::remove_file(&path);

    // What the supervisor saw, from the observability registry.
    println!(
        "\nsupervisor counters: {} shards completed, {} timeouts, {} degraded",
        registry.counter(yac_obs::Metric::ShardsCompleted),
        registry.counter(yac_obs::Metric::ShardTimeouts),
        registry.counter(yac_obs::Metric::DegradedShards),
    );

    if let Some(reporter) = reporter {
        reporter.stop();
    }
    if let Some(trace_path) = trace_path {
        yac_obs::trace_disable();
        let snapshot = yac_obs::journal().snapshot();
        let ndjson_path = trace_path.with_extension("ndjson");
        yac_obs::perfetto::write_chrome_json(&trace_path, &snapshot).expect("write trace");
        yac_obs::ndjson::write_ndjson(&ndjson_path, &snapshot).expect("write ndjson");
        println!(
            "\ntraced {} event(s) on {} thread(s) -> {} + {} (load the first at ui.perfetto.dev)",
            snapshot.total_events(),
            snapshot.threads.len(),
            trace_path.display(),
            ndjson_path.display(),
        );
    }
}

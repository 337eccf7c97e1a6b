//! Batch workloads — the paper's Table 6 (`table6_cpi`) and repeated
//! 2000-chip yield studies (`yield_study`) — and the traced replays of
//! the layers they run on.

use crate::spans::Recorder;
use crate::stats::{derive_seed, digest};
use crate::{end_to_end, golden_check, ops_until, run_rounds, Outcome, WORKERS};
use std::time::{Duration, Instant};
use yac_cache::{AccessKind, CacheConfig, HierarchyConfig, MemoryHierarchy};
use yac_circuit::CacheCircuitResult;
use yac_core::perf::{benchmark_cpi, canonical_l1d};
use yac_core::{
    full_study, full_study_workers, render_loss_table, render_table6, run_supervised,
    study_from_population, suite_cpis_isolated, table6, ConstraintSpec, ExecutorConfig, FullStudy,
    PerfOptions, Population, PopulationConfig, Table6, WayCycleCensus, YieldConstraints,
};
use yac_pipeline::{Pipeline, PipelineConfig};
use yac_variation::MonteCarlo;
use yac_workload::{spec2000, MicroOp, OpClass, TraceGenerator};

/// Chips per study, as in the paper.
const STUDY_CHIPS: usize = 2000;
/// Studies the `yield_study` golden digest covers; every run completes
/// at least these.
const GOLDEN_STUDIES: usize = 64;
/// Of those, every this-many-th is recomputed on the serial path.
const CHECK_EVERY: usize = 8;
/// Studies the traced run replays on `yield_study`.
pub const TRACED_STUDIES: usize = 50;
/// Studies the traced run replays on the other workloads.
pub const PRESENCE_STUDIES: usize = 4;
/// Micro-ops generated past the simulation budget, so the pipeline's
/// fetch-ahead never runs off the end of a pre-generated trace.
const TRACE_SLACK: usize = 4096;

/// Per-benchmark simulation budget: an eightieth of the paper's
/// 20 k + 200 k micro-ops, so one Table 6 (264 simulations) takes 0.5 to
/// 1 s on two cores and a 30 s run completes some thirty — a median over
/// many tables rather than one table's time (the full budget takes about
/// 31 s per table).
fn table6_opts(seed: u64) -> PerfOptions {
    PerfOptions {
        warmup_uops: 250,
        measure_uops: 2_500,
        trace_seed: seed,
    }
}

fn census_310() -> WayCycleCensus {
    WayCycleCensus {
        ways_4: 3,
        ways_5: 1,
        ways_6_plus: 0,
    }
}

/// Suite-average CPI increase in percent, with the same arithmetic as
/// Table 6 so the result is bit-comparable.
fn average_degradation(base: &[f64], modified: &[f64]) -> f64 {
    let per: Vec<f64> = base
        .iter()
        .zip(modified)
        .map(|(b, m)| 100.0 * (m / b - 1.0))
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// Table 6's 3-1-0 VACA cell must equal `expected` bit for bit.
fn check_row_310(out: &mut Outcome, table: &Table6, expected: f64, path: &str) {
    let row = table
        .rows
        .iter()
        .find(|r| r.census == census_310())
        .and_then(|r| r.vaca);
    out.check(row.map(f64::to_bits) == Some(expected.to_bits()), || {
        format!("Table 6 row 3-1-0 VACA is {row:?}, {path} gives {expected}")
    });
}

/// `table6_cpi`: one untimed `table6` call warms the process (the first
/// call in a process runs about half again as long as the rest) and
/// gives the table every timed one must equal; then each round's set-up
/// generates the 2000-chip population and derives its nominal
/// constraints, and each timed operation is one `table6` call.
pub fn table6_cpi(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let opts = table6_opts(seed);
    let setup = || {
        let population = Population::generate(STUDY_CHIPS, seed);
        let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
        (population, constraints)
    };
    let first = {
        let (population, constraints) = setup();
        table6(&population, &constraints, &opts)
    };
    let mut diverged = 0;
    let mut latencies = Vec::new();
    let rounds = run_rounds(
        seconds,
        setup,
        |(population, constraints), deadline, gauge| {
            ops_until(deadline, 1, &mut latencies, gauge, |_| {
                diverged += u64::from(table6(&population, &constraints, &opts) != first);
            })
        },
    );
    out.attempted = latencies.len() as u64;
    out.failed = diverged;
    out.check(diverged == 0, || {
        format!(
            "{diverged} of {} timed Table 6 runs differ from the warm-up's",
            latencies.len()
        )
    });
    end_to_end(&mut out, &rounds, &latencies, latencies.len());

    let pipeline = PipelineConfig::paper();
    let serial = |l1d: &CacheConfig| -> Vec<f64> {
        spec2000::all_profiles()
            .into_iter()
            .map(|p| benchmark_cpi(p, l1d, &pipeline, &opts))
            .collect()
    };
    let base = serial(&CacheConfig::l1d_paper());
    let vaca = serial(&canonical_l1d(census_310(), false));
    check_row_310(
        &mut out,
        &first,
        average_degradation(&base, &vaca),
        "serial benchmark_cpi",
    );
    let text = render_table6(&first);
    print!("{text}");
    golden_check(
        &mut out,
        seed,
        "table6_cpi.txt",
        include_str!("../golden/table6_cpi.txt"),
        &text,
    );
    out
}

fn render_study(s: &FullStudy) -> String {
    [&s.table2, &s.table3]
        .into_iter()
        .chain(&s.table4)
        .chain(&s.table5)
        .map(render_loss_table)
        .collect()
}

/// `yield_study`: each timed operation is one 2000-chip study (Tables
/// 2–5) on the supervised executor with two workers, the `i`-th over the
/// whole run taking seed `i` of the workload's SplitMix64 stream. A
/// round's set-up is the stream's first study, which warms the executor.
pub fn yield_study(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let study = |i: usize| full_study_workers(STUDY_CHIPS, derive_seed(seed, i as u64), WORKERS);
    let mut golden_studies: Vec<FullStudy> = Vec::with_capacity(GOLDEN_STUDIES);
    let mut failures = Vec::new();
    let mut latencies = Vec::new();
    let mut warm = Vec::new();
    let rounds = run_rounds(
        seconds,
        || study(0),
        |set_up, deadline, gauge| {
            warm.push(set_up);
            ops_until(
                deadline,
                GOLDEN_STUDIES,
                &mut latencies,
                gauge,
                |i| match study(i) {
                    Ok(s) if i < GOLDEN_STUDIES => golden_studies.push(s),
                    Ok(_) => {}
                    Err(e) => failures.push(format!("study {i}: {e}")),
                },
            )
        },
    );
    out.attempted = latencies.len() as u64;
    out.failed = failures.len() as u64;
    for e in failures.into_iter().take(5) {
        out.error(e);
    }
    let completed = latencies.len() - out.failed as usize;
    end_to_end(&mut out, &rounds, &latencies, completed);

    for set_up in &warm {
        match (set_up, golden_studies.first()) {
            (Ok(w), Some(s)) => out.check(w == s, || "set-up study differs from study 0".into()),
            (Err(e), _) => out.error(format!("set-up study: {e}")),
            _ => {}
        }
    }
    if golden_studies.len() == GOLDEN_STUDIES {
        for (i, s) in golden_studies.iter().enumerate().step_by(CHECK_EVERY) {
            let serial = full_study(STUDY_CHIPS, derive_seed(seed, i as u64));
            out.check(serial == *s, || {
                format!("study {i}: supervised result differs from the serial full_study")
            });
        }
    }
    let text: String = golden_studies.iter().map(render_study).collect();
    golden_check(
        &mut out,
        seed,
        "yield_study.txt",
        include_str!("../golden/yield_study.txt"),
        &format!("{:016x}", digest(text.as_bytes())),
    );
    out
}

/// What the traced pipeline replay did.
#[derive(Debug)]
pub struct PipelineReplay {
    /// Wall time of the replay.
    pub wall: Duration,
    /// Benchmark × configuration cells replayed.
    pub ops: u64,
    generated_uops: u64,
    accesses: u64,
    l1d_misses: u64,
    simulated_uops: u64,
    committed: u64,
    cycles: u64,
    /// Per-benchmark CPIs on the healthy and the 3-1-0 VACA L1D.
    cpis: [Vec<f64>; 2],
}

/// Replays the healthy and the 3-1-0 VACA L1D over all 24 benchmarks at
/// the Table 6 budget. Per configuration: the opaque
/// `suite_cpis_isolated`; per benchmark: the opaque `benchmark_cpi`, then
/// the same simulation split into trace generation, `Pipeline::run` over
/// the pre-generated trace, and a replay of its loads and stores through
/// `MemoryHierarchy::data_access`. All three CPIs must agree bit for bit.
///
/// # Errors
///
/// Describes the first failed call or disagreement.
pub fn replay_pipeline(rec: &Recorder, seed: u64) -> Result<PipelineReplay, String> {
    let opts = table6_opts(seed);
    let pipeline = PipelineConfig::paper();
    let budget = (opts.warmup_uops + opts.measure_uops) as usize;
    let start = Instant::now();
    let mut r = PipelineReplay {
        wall: Duration::ZERO,
        ops: 0,
        generated_uops: 0,
        accesses: 0,
        l1d_misses: 0,
        simulated_uops: 0,
        committed: 0,
        cycles: 0,
        cpis: [Vec::new(), Vec::new()],
    };
    let configs = [CacheConfig::l1d_paper(), canonical_l1d(census_310(), false)];
    for (c, l1d) in configs.iter().enumerate() {
        let (suite, failures) = rec.span("perf.suite", 0, || {
            suite_cpis_isolated(l1d, &pipeline, &opts)
        });
        if !failures.is_empty() {
            return Err(format!("suite_cpis_isolated failed: {failures:?}"));
        }
        let mut hierarchy = HierarchyConfig::paper();
        hierarchy.l1d = l1d.clone();
        for (b, profile) in spec2000::all_profiles().into_iter().enumerate() {
            let req = (c * 1000 + b + 1) as u64;
            let name = profile.name;
            let serial = rec.span("perf.benchmark_cpi", req, || {
                benchmark_cpi(profile.clone(), l1d, &pipeline, &opts)
            });
            let cpi = rec.span("cell", req, || -> Result<f64, String> {
                let trace: Vec<MicroOp> = rec.span("workload.gen", req, || {
                    TraceGenerator::new(profile, opts.trace_seed)
                        .take(budget + TRACE_SLACK)
                        .collect()
                });
                let mem = MemoryHierarchy::new(hierarchy.clone()).map_err(|e| e.to_string())?;
                let mut cpu = Pipeline::new(pipeline.clone(), mem).map_err(|e| e.to_string())?;
                let stats = rec.span("pipeline.run", req, || {
                    cpu.run(trace.iter().copied(), opts.warmup_uops, opts.measure_uops)
                });
                let mut mem = MemoryHierarchy::new(hierarchy.clone()).map_err(|e| e.to_string())?;
                rec.span("cache.replay", req, || {
                    for op in &trace[..budget] {
                        if let (true, Some(addr)) = (op.class.is_mem(), op.addr) {
                            let kind = if op.class == OpClass::Store {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            };
                            mem.data_access(addr, kind);
                        }
                    }
                });
                r.generated_uops += trace.len() as u64;
                r.accesses += mem.l1d_stats().accesses();
                r.l1d_misses += mem.l1d_stats().misses();
                r.simulated_uops += opts.warmup_uops + stats.committed;
                r.committed += stats.committed;
                r.cycles += stats.cycles;
                Ok(stats.cpi())
            })?;
            let opaque = suite
                .get(b)
                .filter(|(n, _)| *n == name)
                .map(|(_, cpi)| *cpi);
            if opaque.map(f64::to_bits) != Some(serial.to_bits())
                || cpi.to_bits() != serial.to_bits()
            {
                return Err(format!(
                    "{name}: replayed CPI {cpi}, benchmark_cpi {serial}, suite {opaque:?} disagree"
                ));
            }
            r.cpis[c].push(cpi);
            r.ops += 1;
        }
    }
    r.wall = start.elapsed();
    Ok(r)
}

/// Per-layer metrics of a recorded pipeline replay.
pub fn pipeline_metrics(rec: &Recorder, r: &PipelineReplay, out: &mut Outcome) {
    out.metric(
        "workload.gen_ns_per_uop",
        rec.total_self_ns("workload.gen") / r.generated_uops as f64,
    );
    out.metric(
        "cache.access_ns",
        rec.total_self_ns("cache.replay") / r.accesses as f64,
    );
    out.metric(
        "cache.l1d_miss_ratio",
        r.l1d_misses as f64 / r.accesses as f64,
    );
    let run_s = rec.total_self_ns("pipeline.run") / 1e9;
    out.metric("pipeline.uops_per_s", r.simulated_uops as f64 / run_s);
    out.metric("pipeline.run_s", run_s);
    out.metric("pipeline.sim_cycles", r.cycles as f64);
    out.metric("pipeline.committed_uops", r.committed as f64);
    let suite_ns = rec.total_self_ns("perf.suite");
    out.metric("perf.suite_wall_s", suite_ns / 1e9);
    out.metric(
        "perf.suite_parallel_efficiency",
        rec.total_self_ns("perf.benchmark_cpi") / (WORKERS as f64 * suite_ns),
    );
}

/// The opaque `table6` call's 3-1-0 VACA cell must equal the replayed
/// CPIs' degradation bit for bit.
pub fn check_table6_row(seed: u64, r: &PipelineReplay, out: &mut Outcome) {
    let population = Population::generate(STUDY_CHIPS, seed);
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let table = table6(&population, &constraints, &table6_opts(seed));
    check_row_310(
        out,
        &table,
        average_degradation(&r.cpis[0], &r.cpis[1]),
        "the replay",
    );
}

/// What the traced yield replay did.
#[derive(Debug)]
pub struct YieldReplay {
    /// Wall time of the replay.
    pub wall: Duration,
    /// Studies replayed.
    pub ops: u64,
    chips: u64,
}

/// Replays the first `studies` studies of the `yield_study` stream. Per
/// study: the opaque `full_study_workers`, then `run_supervised` with two
/// workers, the same population sampled serially
/// (`MonteCarlo::generate_checked_threads(.., 1)`) and evaluated on both
/// circuit models, and `study_from_population` on the supervised
/// population. The serial chips must equal the supervised ones and the
/// replayed loss tables the opaque ones.
///
/// # Errors
///
/// Describes the first failed call or disagreement.
pub fn replay_yield(rec: &Recorder, seed: u64, studies: usize) -> Result<YieldReplay, String> {
    let exec = ExecutorConfig::with_workers(WORKERS);
    let start = Instant::now();
    let mut chips = 0;
    for i in 0..studies {
        let s = derive_seed(seed, i as u64);
        let req = i as u64 + 1;
        let opaque = rec
            .span("analysis.full_study_workers", req, || {
                full_study_workers(STUDY_CHIPS, s, WORKERS)
            })
            .map_err(|e| format!("study {i}: {e}"))?;
        let replayed = rec.span("study", req, || -> Result<FullStudy, String> {
            let mut config = PopulationConfig::paper(s);
            config.chips = STUDY_CHIPS;
            let outcome = rec
                .span("executor.run_supervised", req, || {
                    run_supervised(&config, &exec)
                })
                .map_err(|e| format!("study {i}: {e}"))?;
            let mc = MonteCarlo::try_new(config.variation).map_err(|e| e.to_string())?;
            let generated = rec.span("variation.sample", req, || {
                mc.generate_checked_threads(STUDY_CHIPS, s, None, 1)
            });
            let evaluated: Vec<(u64, CacheCircuitResult, CacheCircuitResult)> =
                rec.span("circuit.eval", req, || {
                    generated
                        .dies
                        .iter()
                        .map(|(index, die)| {
                            (
                                *index,
                                config.regular_model.evaluate(die),
                                config.horizontal_model.evaluate(die),
                            )
                        })
                        .collect()
                });
            let same = !outcome.is_degraded()
                && evaluated.len() == outcome.population.chips.len()
                && evaluated.iter().zip(&outcome.population.chips).all(
                    |((index, regular, horizontal), chip)| {
                        *index == chip.index
                            && *regular == chip.regular
                            && *horizontal == chip.horizontal
                    },
                );
            if !same {
                return Err(format!(
                    "study {i}: serial sampling and evaluation differ from run_supervised"
                ));
            }
            chips += evaluated.len() as u64;
            Ok(rec.span("analysis.study_tail", req, || {
                study_from_population(&outcome.population, s)
            }))
        })?;
        if replayed != opaque {
            return Err(format!(
                "study {i}: replayed loss tables differ from full_study_workers"
            ));
        }
    }
    Ok(YieldReplay {
        wall: start.elapsed(),
        ops: studies as u64,
        chips,
    })
}

/// Per-layer metrics of a recorded yield replay.
pub fn yield_metrics(rec: &Recorder, y: &YieldReplay, out: &mut Outcome) {
    let sample = rec.total_self_ns("variation.sample");
    let eval = rec.total_self_ns("circuit.eval");
    out.metric(
        "variation.sample_us_per_chip",
        sample / 1e3 / y.chips as f64,
    );
    out.metric("circuit.eval_us_per_chip", eval / 1e3 / y.chips as f64);
    out.percentile(
        "analysis.study_tail_ms",
        &rec.self_ns("analysis.study_tail"),
        50.0,
        1e-6,
    );
    out.percentile(
        "executor.run_supervised_ms",
        &rec.self_ns("executor.run_supervised"),
        50.0,
        1e-6,
    );
    out.metric(
        "executor.parallel_efficiency",
        (sample + eval) / (WORKERS as f64 * rec.total_self_ns("executor.run_supervised")),
    );
}

//! Performance analysis (§5.2 of the paper): the CPI cost of each repair,
//! per benchmark and per post-repair cache configuration — the machinery
//! behind Table 6 and Figures 9–10.

use crate::analysis::saved_config_census;
use crate::chip::Population;
use crate::classify::WayCycleCensus;
use crate::constraints::YieldConstraints;
use crate::executor::panic_message;
use crate::pool::WorkerPool;
use crate::schemes::{Hybrid, PowerDownKind, Vaca, Yapd};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};
use yac_cache::{CacheConfig, HierarchyConfig, MemoryHierarchy};
use yac_circuit::CacheVariant;
use yac_pipeline::{Pipeline, PipelineConfig};
use yac_workload::{spec2000, BenchmarkProfile, MicroOp, TraceGenerator};

/// Options controlling the pipeline simulations.
///
/// # Examples
///
/// ```
/// use yac_core::perf::PerfOptions;
///
/// let quick = PerfOptions::quick();
/// assert!(quick.measure_uops < PerfOptions::default().measure_uops);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfOptions {
    /// Micro-ops committed before measurement starts (cache/predictor
    /// warm-up).
    pub warmup_uops: u64,
    /// Micro-ops measured.
    pub measure_uops: u64,
    /// Trace seed.
    pub trace_seed: u64,
}

impl PerfOptions {
    /// A fast setting for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        PerfOptions {
            warmup_uops: 10_000,
            measure_uops: 40_000,
            trace_seed: 2006,
        }
    }
}

impl Default for PerfOptions {
    /// The setting used for the reported experiments. The paper simulates
    /// 100 M instructions per benchmark on SimpleScalar; 200 k synthetic
    /// micro-ops per benchmark give CPI deltas stable to ~0.1 % here
    /// because the synthetic traces are statistically stationary.
    fn default() -> Self {
        PerfOptions {
            warmup_uops: 20_000,
            measure_uops: 200_000,
            trace_seed: 2006,
        }
    }
}

/// The L1D configuration a scheme's repair maps onto, in canonical way
/// order (4-cycle ways first, then 5-cycle ways, then any 6-plus way).
///
/// Chips in one Table 6 row differ in *which* ways are slow or disabled;
/// with rotated cold fills the position does not matter, so a canonical
/// arrangement represents the row.
#[must_use]
pub fn canonical_l1d(census: WayCycleCensus, disable_slowest: bool) -> CacheConfig {
    let mut cfg = CacheConfig::l1d_paper();
    let mut way = 0usize;
    for _ in 0..census.ways_4 {
        cfg.way_latency[way] = 4;
        way += 1;
    }
    for _ in 0..census.ways_5 {
        cfg.way_latency[way] = 5;
        way += 1;
    }
    for _ in 0..census.ways_6_plus {
        // A 6-plus way is only ever simulated disabled; the latency value
        // is irrelevant once the way is off, but keep it meaningful.
        cfg.way_latency[way] = 6;
        if disable_slowest {
            cfg.way_enabled[way] = false;
        }
        way += 1;
    }
    if disable_slowest && census.ways_6_plus == 0 {
        // Disable the slowest (or, for 4-0-0 leakage chips, the last) way.
        let victim = if census.ways_5 > 0 {
            usize::from(census.ways_4)
        } else {
            cfg.ways - 1
        };
        cfg.way_enabled[victim] = false;
    }
    cfg
}

/// Simulates one benchmark on a machine with the given L1D and returns its
/// CPI.
///
/// # Panics
///
/// Panics if the cache or pipeline configuration is invalid.
#[must_use]
pub fn benchmark_cpi(
    profile: BenchmarkProfile,
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> f64 {
    let trace = TraceGenerator::new(profile, opts.trace_seed);
    cpi_on(trace, l1d, pipeline, opts)
}

/// CPI of `trace` on a machine with the given L1D.
fn cpi_on(
    trace: impl IntoIterator<Item = MicroOp>,
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> f64 {
    let mut hier = HierarchyConfig::paper();
    hier.l1d = l1d.clone();
    let mem = MemoryHierarchy::new(hier).expect("valid hierarchy");
    let mut cpu = Pipeline::new(pipeline.clone(), mem).expect("valid pipeline");
    cpu.run(trace, opts.warmup_uops, opts.measure_uops).cpi()
}

/// CPI of every SPEC2000-like benchmark on the given L1D, in suite order.
/// Benchmarks run as tasks on a worker pool with one worker per
/// available core.
///
/// # Panics
///
/// Panics if any benchmark worker fails; use [`suite_cpis_isolated`] to
/// quarantine failures instead.
#[must_use]
pub fn suite_cpis(
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> Vec<(&'static str, f64)> {
    complete(suite_cpis_isolated(l1d, pipeline, opts))
}

/// The CPIs of a suite run, panicking with its failures if it has any.
fn complete(
    (cpis, failures): (Vec<(&'static str, f64)>, Vec<BenchmarkFailure>),
) -> Vec<(&'static str, f64)> {
    assert!(
        failures.is_empty(),
        "benchmark worker failed: {}",
        failures
            .iter()
            .map(|f| format!("{}: {}", f.benchmark, f.error))
            .collect::<Vec<_>>()
            .join("; ")
    );
    cpis
}

/// One benchmark worker that could not produce a usable CPI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkFailure {
    /// The benchmark's name.
    pub benchmark: &'static str,
    /// Why it failed (panic message or a description of the bad result).
    pub error: String,
}

/// Fault-isolated variant of [`suite_cpis`]: each benchmark's simulation
/// runs isolated, and one that panics or reports a non-finite CPI is
/// quarantined into the failure list instead of tearing down the suite.
///
/// The CPI list keeps suite order, with failed benchmarks absent.
#[must_use]
pub fn suite_cpis_isolated(
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> (Vec<(&'static str, f64)>, Vec<BenchmarkFailure>) {
    let mut runs = suite_batch(std::slice::from_ref(l1d), pipeline, opts);
    runs.pop().expect("one run per L1D")
}

/// One L1D's suite run: CPIs in suite order (failed benchmarks absent)
/// and the failures.
type SuiteRun = (Vec<(&'static str, f64)>, Vec<BenchmarkFailure>);

/// What a simulation of `l1d` depends on: the whole configuration,
/// except that a disabled way's latency is normalised. The cache never
/// reads it, and validation only rejects it when it is zero, so L1Ds with
/// equal keys simulate identically and fail with the same message
/// (Table 6's 3-1-0 YAPD, 3-0-1 and 4-0-0 repairs are all one 3-way
/// 4-cycle cache).
fn simulation_key(l1d: &CacheConfig) -> CacheConfig {
    let mut key = l1d.clone();
    for (latency, &on) in key.way_latency.iter_mut().zip(&key.way_enabled) {
        if !on && *latency != 0 {
            *latency = 1;
        }
    }
    key
}

/// Runs the whole suite on each of `l1ds` in one batch and returns one
/// [`SuiteRun`] per L1D, in input order.
///
/// L1Ds with the same [`simulation_key`] are simulated once. Each
/// (benchmark, distinct L1D) cell is one task on a [`WorkerPool`] built
/// for the call with one worker per available core (at most one per
/// task), submitted benchmark by benchmark. A benchmark's trace is
/// generated once, by whichever of its cells runs first, and freed with
/// its last cell, so the FIFO queue keeps only O(workers) traces alive.
/// Each cell runs under its own `catch_unwind`, so a failure stays in its
/// cell and the pool never sees it.
fn suite_batch(
    l1ds: &[CacheConfig],
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> Vec<SuiteRun> {
    let mut keys: Vec<CacheConfig> = Vec::new();
    let mut distinct: Vec<CacheConfig> = Vec::new();
    let slots: Vec<usize> = l1ds
        .iter()
        .map(|l1d| {
            let key = simulation_key(l1d);
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                distinct.push(l1d.clone());
                distinct.len() - 1
            })
        })
        .collect();

    let profiles = spec2000::all_profiles();
    let job = Arc::new((distinct, pipeline.clone(), *opts));
    let tasks = profiles.len() * job.0.len();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = WorkerPool::new(cores.min(tasks));
    let (tx, rx) = mpsc::channel();
    for (b, profile) in profiles.iter().cloned().enumerate() {
        let bench = Arc::new(Benchmark {
            profile,
            trace: OnceLock::new(),
        });
        for l in 0..job.0.len() {
            let (job, bench, tx) = (Arc::clone(&job), Arc::clone(&bench), tx.clone());
            pool.submit(Box::new(move |_worker| {
                let (l1ds, pipeline, opts) = &*job;
                let _ = tx.send((b, l, bench.cell(l1ds, l, pipeline, opts)));
            }));
        }
    }
    drop(tx);
    pool.shutdown();
    let mut grid: Vec<Vec<Option<Result<f64, String>>>> =
        vec![vec![None; job.0.len()]; profiles.len()];
    for (b, l, cell) in rx {
        grid[b][l] = Some(cell);
    }

    let runs: Vec<SuiteRun> = (0..job.0.len())
        .map(|l| {
            let mut cpis = Vec::with_capacity(profiles.len());
            let mut failures = Vec::new();
            for (profile, benchmark) in profiles.iter().zip(&grid) {
                let error = match benchmark[l].as_ref().expect("a benchmark cell died") {
                    &Ok(cpi) if cpi.is_finite() && cpi > 0.0 => {
                        yac_obs::inc(yac_obs::Metric::BenchmarksSimulated);
                        cpis.push((profile.name, cpi));
                        continue;
                    }
                    Ok(cpi) => format!("non-finite or non-positive CPI ({cpi})"),
                    Err(message) => format!("worker panicked: {message}"),
                };
                failures.push(BenchmarkFailure {
                    benchmark: profile.name,
                    error,
                });
            }
            yac_obs::add(yac_obs::Metric::BenchmarkFailures, failures.len() as u64);
            (cpis, failures)
        })
        .collect();
    slots.into_iter().map(|l| runs[l].clone()).collect()
}

/// Micro-ops a run of `opts` can fetch at most: commit overshoots the
/// warm-up and the measurement by up to `width - 1` each, and when the
/// run stops every in-flight op sits in the ROB or the fetch queue.
fn shared_trace_len(pipeline: &PipelineConfig, opts: &PerfOptions) -> Option<usize> {
    let in_flight = (pipeline.rob_size as u64)
        .checked_add(pipeline.fetch_queue as u64)?
        .checked_add(1)?;
    let overshoot = (pipeline.width as u64).saturating_sub(1).checked_mul(2)?;
    let bound = opts
        .warmup_uops
        .checked_add(opts.measure_uops)?
        .checked_add(overshoot)?
        .checked_add(in_flight)?;
    usize::try_from(bound).ok()
}

/// `profile`'s trace up to [`shared_trace_len`].
///
/// # Panics
///
/// Panics if that length overflows or cannot be allocated.
fn shared_trace(
    profile: BenchmarkProfile,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> Vec<MicroOp> {
    let len = shared_trace_len(pipeline, opts).expect("CPI budget fits the shared trace length");
    let mut trace = Vec::new();
    if let Err(e) = trace.try_reserve_exact(len) {
        panic!("cannot hold the shared {len}-op trace: {e}");
    }
    trace.extend(TraceGenerator::new(profile, opts.trace_seed).take(len));
    trace
}

/// One benchmark of a batch, shared by its cells.
struct Benchmark {
    profile: BenchmarkProfile,
    /// The shared trace, generated by the first cell that needs it (or
    /// the message of its failure); freed with the last cell's task.
    trace: OnceLock<Result<Vec<MicroOp>, String>>,
}

impl Benchmark {
    /// The task of cell (this benchmark, `l1ds[l]`), isolated. A lone
    /// L1D streams its trace as [`benchmark_cpi`] does; several share one
    /// trace, and a run that reaches the end of it panics. A panic
    /// becomes the cell's error message.
    fn cell(
        &self,
        l1ds: &[CacheConfig],
        l: usize,
        pipeline: &PipelineConfig,
        opts: &PerfOptions,
    ) -> Result<f64, String> {
        let _timer = yac_obs::phase(yac_obs::Phase::PipelineSim);
        let l1d = &l1ds[l];
        if l1ds.len() == 1 {
            return isolated(|| benchmark_cpi(self.profile.clone(), l1d, pipeline, opts));
        }
        let trace = self
            .trace
            .get_or_init(|| isolated(|| shared_trace(self.profile.clone(), pipeline, opts)))
            .as_ref()
            .map_err(Clone::clone)?;
        isolated(|| {
            let past_end = std::iter::from_fn(|| -> Option<MicroOp> {
                panic!(
                    "simulation ran past the end of the shared {}-op trace",
                    trace.len()
                )
            });
            cpi_on(trace.iter().copied().chain(past_end), l1d, pipeline, opts)
        })
    }
}

/// Runs `f`, turning a panic into its message.
fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// Per-benchmark CPI degradation of a repaired configuration relative to a
/// healthy baseline, plus the suite average — the data series of the
/// paper's Figures 9 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteDegradation {
    /// `(benchmark, CPI increase in percent)`, suite order.
    pub per_benchmark: Vec<(&'static str, f64)>,
    /// Arithmetic mean over the suite, percent.
    pub average: f64,
}

/// Measures the suite-wide CPI degradation of `l1d` against the healthy
/// baseline cache.
#[must_use]
pub fn suite_degradation(l1d: &CacheConfig, opts: &PerfOptions) -> SuiteDegradation {
    let [base, modified] = suites(&[CacheConfig::l1d_paper(), l1d.clone()], opts);
    degradation_between(&base, &modified)
}

/// The paper machine's CPIs on each of `l1ds`, from one batch.
///
/// # Panics
///
/// Panics if any benchmark fails, like [`suite_cpis`].
fn suites<const N: usize>(
    l1ds: &[CacheConfig; N],
    opts: &PerfOptions,
) -> [Vec<(&'static str, f64)>; N] {
    let runs = suite_batch(l1ds, &PipelineConfig::paper(), opts);
    let cpis: Vec<_> = runs.into_iter().map(complete).collect();
    cpis.try_into().expect("one run per L1D")
}

fn degradation_between(
    base: &[(&'static str, f64)],
    modified: &[(&'static str, f64)],
) -> SuiteDegradation {
    let per_benchmark: Vec<(&'static str, f64)> = base
        .iter()
        .zip(modified)
        .map(|(&(name, b), &(_, m))| (name, 100.0 * (m / b - 1.0)))
        .collect();
    let average = per_benchmark.iter().map(|(_, d)| d).sum::<f64>() / per_benchmark.len() as f64;
    SuiteDegradation {
        per_benchmark,
        average,
    }
}

/// One row of the paper's Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6Row {
    /// The pre-repair way-latency configuration (e.g. `3-1-0`).
    pub census: WayCycleCensus,
    /// Chips of the population with this configuration saved by the Hybrid
    /// (the paper's "chip frequency" column sums to the Hybrid's saves).
    pub chip_frequency: usize,
    /// Suite-average CPI degradation under YAPD, if YAPD can save the row.
    pub yapd: Option<f64>,
    /// Ditto for VACA.
    pub vaca: Option<f64>,
    /// Ditto for the Hybrid.
    pub hybrid: Option<f64>,
}

/// The paper's Table 6: per-configuration degradations, chip frequencies
/// from a yield population, and the weighted sums.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Rows in the paper's order.
    pub rows: Vec<Table6Row>,
    /// Weighted average degradation over the chips each scheme saves:
    /// `(YAPD, VACA, Hybrid)` in percent.
    pub weighted: (f64, f64, f64),
}

/// The canonical row order of the paper's Table 6.
#[must_use]
pub fn table6_row_order() -> Vec<WayCycleCensus> {
    let c = |a, b, d| WayCycleCensus {
        ways_4: a,
        ways_5: b,
        ways_6_plus: d,
    };
    vec![
        c(3, 1, 0),
        c(2, 2, 0),
        c(1, 3, 0),
        c(0, 4, 0),
        c(3, 0, 1),
        c(2, 1, 1),
        c(1, 2, 1),
        c(0, 3, 1),
        c(4, 0, 0),
    ]
}

fn scheme_applicable(census: WayCycleCensus) -> (bool, bool, bool) {
    let yapd = census.ways_5 + census.ways_6_plus <= 1;
    let vaca = census.ways_6_plus == 0 && !census.all_fast();
    let hybrid = census.ways_6_plus <= 1;
    (yapd, vaca, hybrid)
}

/// Builds Table 6 from a yield population.
///
/// For each configuration row: the chip frequency comes from the chips the
/// Hybrid saves; the per-scheme degradations come from pipeline
/// simulations of the canonical repaired cache over all 24 benchmarks; the
/// weighted sums average each scheme's degradation over the chips *that
/// scheme* saves, exactly as the paper computes them (§5.2).
#[must_use]
pub fn table6(
    population: &Population,
    constraints: &YieldConstraints,
    opts: &PerfOptions,
) -> Table6 {
    let yapd = Yapd;
    let vaca = Vaca::new(CacheVariant::Regular);
    let hybrid = Hybrid::new(PowerDownKind::Vertical);
    let freq_yapd = saved_config_census(population, constraints, &yapd, CacheVariant::Regular);
    let freq_vaca = saved_config_census(population, constraints, &vaca, CacheVariant::Regular);
    let freq_hybrid = saved_config_census(population, constraints, &hybrid, CacheVariant::Regular);

    // Each row's repaired L1D per scheme, simulated in one batch after
    // the healthy baseline; `cells` indexes into `l1ds`.
    let mut l1ds = vec![CacheConfig::l1d_paper()];
    let mut cell = |applicable: bool, l1d: CacheConfig| {
        applicable.then(|| {
            l1ds.push(l1d);
            l1ds.len() - 1
        })
    };
    let cells: Vec<[Option<usize>; 3]> = table6_row_order()
        .into_iter()
        .map(|census| {
            let (can_yapd, can_vaca, can_hybrid) = scheme_applicable(census);
            // The Hybrid keeps ways on as long as possible (§4.4): it
            // disables only for a 6-plus way or a leakage repair (4-0-0).
            let hybrid_disables = census.ways_6_plus > 0 || census.all_fast();
            [
                cell(can_yapd, canonical_l1d(census, true)),
                cell(can_vaca, canonical_l1d(census, false)),
                cell(can_hybrid, canonical_l1d(census, hybrid_disables)),
            ]
        })
        .collect();
    let cpis: Vec<_> = suite_batch(&l1ds, &PipelineConfig::paper(), opts)
        .into_iter()
        .map(complete)
        .collect();
    let degradation = |i: Option<usize>| i.map(|i| degradation_between(&cpis[0], &cpis[i]).average);

    let rows: Vec<Table6Row> = table6_row_order()
        .into_iter()
        .zip(cells)
        .map(|(census, [yapd, vaca, hybrid])| Table6Row {
            census,
            chip_frequency: freq_hybrid.get(&census).copied().unwrap_or(0),
            yapd: degradation(yapd),
            vaca: degradation(vaca),
            hybrid: degradation(hybrid),
        })
        .collect();

    let weighted_for = |freq: &BTreeMap<WayCycleCensus, usize>,
                        pick: &dyn Fn(&Table6Row) -> Option<f64>| {
        let mut total = 0usize;
        let mut sum = 0.0;
        for row in &rows {
            if let (Some(d), Some(&n)) = (pick(row), freq.get(&row.census)) {
                total += n;
                sum += d * n as f64;
            }
        }
        if total == 0 {
            0.0
        } else {
            sum / total as f64
        }
    };
    let weighted = (
        weighted_for(&freq_yapd, &|r| r.yapd),
        weighted_for(&freq_vaca, &|r| r.vaca),
        weighted_for(&freq_hybrid, &|r| r.hybrid),
    );

    Table6 { rows, weighted }
}

/// Renders a [`Table6`] in the paper's layout.
#[must_use]
pub fn render_table6(table: &Table6) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}{:>10}{:>10}{:>10}{:>10}",
        "config", "# chips", "YAPD", "VACA", "Hybrid"
    );
    let cell = |v: Option<f64>| match v {
        Some(d) => format!("{d:>9.2}%"),
        None => format!("{:>10}", "N/A"),
    };
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{:<8}{:>10}{}{}{}",
            row.census.to_string(),
            row.chip_frequency,
            cell(row.yapd),
            cell(row.vaca),
            cell(row.hybrid),
        );
    }
    let _ = writeln!(
        out,
        "{:<8}{:>10}{:>9.2}%{:>9.2}%{:>9.2}%",
        "wgt sum", "", table.weighted.0, table.weighted.1, table.weighted.2
    );
    out
}

/// Comparison of the fixed keep-ways-on Hybrid against the adaptive
/// policy (§4.4's discussion) on 3-1-0 chips: per benchmark, the CPI cost
/// of each repair and which one the adaptive policy picks.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveComparison {
    /// `(benchmark, keep-on cost %, disable cost %, adaptive pick)` where
    /// the pick is `true` when the way is kept on.
    pub per_benchmark: Vec<(&'static str, f64, f64, bool)>,
    /// Suite-average cost of always keeping the way on (the paper's fixed
    /// policy), percent.
    pub fixed_average: f64,
    /// Suite-average cost when each benchmark gets the adaptive choice.
    pub adaptive_average: f64,
}

/// Evaluates the adaptive Hybrid policy on the 3-1-0 configuration: for
/// every benchmark, simulate both repairs (keep the 5-cycle way on, or
/// disable it) and let the workload's [`BenchmarkProfile::memory_intensity`]
/// make the §4.4 call.
#[must_use]
pub fn adaptive_comparison(opts: &PerfOptions) -> AdaptiveComparison {
    let census = WayCycleCensus {
        ways_4: 3,
        ways_5: 1,
        ways_6_plus: 0,
    };
    let [base, keep, disable] = suites(
        &[
            CacheConfig::l1d_paper(),
            canonical_l1d(census, false),
            canonical_l1d(census, true),
        ],
        opts,
    );

    let mut per_benchmark = Vec::new();
    let mut fixed_sum = 0.0;
    let mut adaptive_sum = 0.0;
    for (profile, ((&(name, b), &(_, k)), &(_, d))) in spec2000::all_profiles()
        .into_iter()
        .zip(base.iter().zip(&keep).zip(&disable))
    {
        let keep_cost = 100.0 * (k / b - 1.0);
        let disable_cost = 100.0 * (d / b - 1.0);
        let keeps = profile.memory_intensity() >= 0.5;
        per_benchmark.push((name, keep_cost, disable_cost, keeps));
        fixed_sum += keep_cost;
        adaptive_sum += if keeps { keep_cost } else { disable_cost };
    }
    let n = per_benchmark.len() as f64;
    AdaptiveComparison {
        per_benchmark,
        fixed_average: fixed_sum / n,
        adaptive_average: adaptive_sum / n,
    }
}

/// Renders per-benchmark degradation series (Figures 9–10) as text.
#[must_use]
pub fn render_degradation(title: &str, series: &[(&str, &SuiteDegradation)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<12}", "benchmark");
    for (label, _) in series {
        let _ = write!(out, "{label:>10}");
    }
    out.push('\n');
    if let Some((_, first)) = series.first() {
        for (i, (name, _)) in first.per_benchmark.iter().enumerate() {
            let _ = write!(out, "{name:<12}");
            for (_, s) in series {
                let _ = write!(out, "{:>9.2}%", s.per_benchmark[i].1);
            }
            out.push('\n');
        }
    }
    let _ = write!(out, "{:<12}", "average");
    for (_, s) in series {
        let _ = write!(out, "{:>9.2}%", s.average);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintSpec, Scheme, SchemeOutcome};

    fn census(a: u8, b: u8, c: u8) -> WayCycleCensus {
        WayCycleCensus {
            ways_4: a,
            ways_5: b,
            ways_6_plus: c,
        }
    }

    #[test]
    fn canonical_l1d_shapes() {
        let vaca = canonical_l1d(census(2, 2, 0), false);
        assert_eq!(vaca.way_latency, vec![4, 4, 5, 5]);
        assert!(vaca.way_enabled.iter().all(|&e| e));
        vaca.validate().unwrap();

        let yapd = canonical_l1d(census(3, 1, 0), true);
        assert_eq!(yapd.way_enabled, vec![true, true, true, false]);
        yapd.validate().unwrap();

        let hybrid211 = canonical_l1d(census(2, 1, 1), true);
        assert_eq!(hybrid211.way_enabled, vec![true, true, true, false]);
        assert_eq!(&hybrid211.way_latency[..3], &[4, 4, 5]);
        hybrid211.validate().unwrap();

        let leak = canonical_l1d(census(4, 0, 0), true);
        assert_eq!(leak.way_enabled, vec![true, true, true, false]);
        leak.validate().unwrap();
    }

    #[test]
    fn applicability_matches_paper_rules() {
        assert_eq!(scheme_applicable(census(3, 1, 0)), (true, true, true));
        assert_eq!(scheme_applicable(census(2, 2, 0)), (false, true, true));
        assert_eq!(scheme_applicable(census(3, 0, 1)), (true, false, true));
        assert_eq!(scheme_applicable(census(2, 1, 1)), (false, false, true));
        assert_eq!(scheme_applicable(census(4, 0, 0)), (true, false, true));
        assert_eq!(scheme_applicable(census(2, 0, 2)), (false, false, false));
    }

    #[test]
    fn row_order_matches_paper() {
        let order = table6_row_order();
        assert_eq!(order.len(), 9);
        assert_eq!(order[0].to_string(), "3-1-0");
        assert_eq!(order[8].to_string(), "4-0-0");
    }

    #[test]
    fn suite_cpis_cover_all_benchmarks() {
        let opts = PerfOptions {
            warmup_uops: 2_000,
            measure_uops: 5_000,
            trace_seed: 1,
        };
        let cpis = suite_cpis(&CacheConfig::l1d_paper(), &PipelineConfig::paper(), &opts);
        assert_eq!(cpis.len(), 24);
        for (name, cpi) in &cpis {
            assert!(*cpi > 0.25, "{name}: cpi {cpi}");
            assert!(*cpi < 50.0, "{name}: cpi {cpi}");
        }
    }

    #[test]
    fn degradation_is_positive_for_slow_ways() {
        let opts = PerfOptions::quick();
        let mut l1d = CacheConfig::l1d_paper();
        l1d.way_latency = vec![5; 4];
        let deg = suite_degradation(&l1d, &opts);
        assert_eq!(deg.per_benchmark.len(), 24);
        assert!(deg.average > 0.5, "all-5-cycle must hurt: {}", deg.average);
    }

    #[test]
    fn table6_quick_has_paper_shape() {
        let population = Population::generate(400, 2006);
        let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
        let opts = PerfOptions::quick();
        let t = table6(&population, &constraints, &opts);

        assert_eq!(t.rows.len(), 9);
        // N/A pattern matches the paper.
        let row = |s: &str| t.rows.iter().find(|r| r.census.to_string() == s).unwrap();
        assert!(row("3-1-0").yapd.is_some() && row("3-1-0").vaca.is_some());
        assert!(row("2-2-0").yapd.is_none() && row("2-2-0").vaca.is_some());
        assert!(row("3-0-1").vaca.is_none() && row("3-0-1").yapd.is_some());
        assert!(row("2-1-1").yapd.is_none() && row("2-1-1").vaca.is_none());
        assert!(row("2-1-1").hybrid.is_some());
        assert!(row("4-0-0").vaca.is_none() && row("4-0-0").yapd.is_some());

        // YAPD's degradation is identical wherever it applies (always the
        // same 3-way repair).
        let y1 = row("3-1-0").yapd.unwrap();
        let y2 = row("3-0-1").yapd.unwrap();
        let y3 = row("4-0-0").yapd.unwrap();
        assert!((y1 - y2).abs() < 1e-9 && (y2 - y3).abs() < 1e-9);

        // Hybrid equals VACA where no disable is needed.
        assert!((row("3-1-0").hybrid.unwrap() - row("3-1-0").vaca.unwrap()).abs() < 1e-9);
        // Hybrid equals YAPD on 3-0-1 (disable the slow way, rest at 4).
        assert!((row("3-0-1").hybrid.unwrap() - row("3-0-1").yapd.unwrap()).abs() < 1e-9);

        // VACA gets more expensive with more slow ways.
        let v: Vec<f64> = ["3-1-0", "2-2-0", "1-3-0", "0-4-0"]
            .iter()
            .map(|s| row(s).vaca.unwrap())
            .collect();
        assert!(v[0] < v[3], "VACA cost grows with slow ways: {v:?}");

        // The frequency column counts Hybrid saves.
        let total: usize = t.rows.iter().map(|r| r.chip_frequency).sum();
        let hybrid = Hybrid::new(PowerDownKind::Vertical);
        let saved = population
            .chips
            .iter()
            .filter(|c| {
                matches!(
                    hybrid.apply(c, &constraints, population.calibration()),
                    SchemeOutcome::Saved(_)
                )
            })
            .count();
        assert_eq!(total, saved);
    }

    #[test]
    fn renderers_produce_all_rows() {
        let t = Table6 {
            rows: vec![Table6Row {
                census: census(3, 1, 0),
                chip_frequency: 91,
                yapd: Some(1.0),
                vaca: Some(2.0),
                hybrid: Some(2.0),
            }],
            weighted: (1.0, 2.0, 1.8),
        };
        let text = render_table6(&t);
        assert!(text.contains("3-1-0"));
        assert!(text.contains("91"));
        assert!(text.contains("wgt sum"));

        let deg = SuiteDegradation {
            per_benchmark: vec![("gzip", 1.5)],
            average: 1.5,
        };
        let text = render_degradation("fig", &[("VACA", &deg)]);
        assert!(text.contains("gzip"));
        assert!(text.contains("average"));
    }
}

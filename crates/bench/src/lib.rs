//! Experiment harness for the *Yield-Aware Cache Architectures*
//! reproduction: one binary per table/figure of the paper (see DESIGN.md
//! for the index) plus shared helpers, and Criterion benches that
//! regenerate scaled versions of every experiment.
//!
//! Binaries:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig8` | Figure 8 (leakage vs latency scatter) |
//! | `table2` | Table 2 (losses, regular power-down) |
//! | `table3` | Table 3 (losses, horizontal power-down) |
//! | `table4_5` | Tables 4–5 (relaxed/strict constraints) |
//! | `table6` | Table 6 (CPI degradation per configuration) |
//! | `fig9` | Figure 9 (per-benchmark CPI, config 3-1-0) |
//! | `fig10` | Figure 10 (per-benchmark CPI, config 2-2-0) |
//! | `naive_binning` | §4.5 (speed-binning CPI numbers) |
//! | `fig1` | Figure 1 (yield factors by technology, industry data) |
//! | `ablation` | model ablations: which component carries which claim |
//! | `sensitivity` | variance decomposition per Table 1 parameter |
//! | `measurement` | escapes/overkills under tester & sensor error |
//! | `confidence` | multi-seed mean ± σ for every scheme's yield |
//! | `economics` | revenue per batch under a speed-binning price ladder |
//! | `adaptive` | the §4.4 adaptive Hybrid policy, evaluated |
//! | `granularity` | H-YAPD horizontal-region count sweep |
//! | `wafer_map` | radial inter-die model, ASCII wafer maps |
//! | `calibrate` | model-vs-paper calibration report |
//! | `pipestats` | per-benchmark pipeline diagnostics |
//! | `perf_report` | instrumented benchmark manifest (`BENCH_*.json`), CI's perf gate |
//! | `sweep_study` | crash-safe multi-study sweep orchestrator, CI's chaos-smoke gate |

#![deny(unsafe_code)]
#![warn(missing_docs)]

use yac_core::Population;

/// Default population size (the paper's §5.1 uses 2000 chips).
pub const DEFAULT_CHIPS: usize = 2000;
/// Default Monte Carlo seed used by every reported experiment.
pub const DEFAULT_SEED: u64 = 2006;

/// Parses `[chips] [seed]` from the command line, with the paper defaults.
#[must_use]
pub fn population_args() -> (usize, u64) {
    let mut args = std::env::args().skip(1);
    let chips = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CHIPS);
    let seed = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    (chips, seed)
}

/// Generates the experiment population, echoing its parameters.
#[must_use]
pub fn standard_population() -> Population {
    let (chips, seed) = population_args();
    eprintln!("generating population: {chips} chips, seed {seed}");
    Population::generate(chips, seed)
}

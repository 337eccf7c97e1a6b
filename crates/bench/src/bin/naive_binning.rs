//! §4.5 of the paper: the naive speed-binning alternative. If any way is
//! slow, the scheduler statically expects the worst latency on *every*
//! load. The paper measured +6.42 % CPI for one extra cycle and +12.62 %
//! for two — the motivation for VACA's per-way latencies.
//!
//! Usage: `cargo run -p yac-bench --release --bin naive_binning [--quick]`

#![deny(unsafe_code)]

use yac_cache::CacheConfig;
use yac_core::perf::{render_degradation, suite_cpis, PerfOptions, SuiteDegradation};
use yac_pipeline::PipelineConfig;

fn binned(extra: u32, opts: &PerfOptions) -> SuiteDegradation {
    let base = suite_cpis(&CacheConfig::l1d_paper(), &PipelineConfig::paper(), opts);
    let mut l1d = CacheConfig::l1d_paper();
    l1d.way_latency = vec![4 + extra; 4];
    let mut cfg = PipelineConfig::paper();
    cfg.assumed_load_latency = 4 + extra;
    let slow = suite_cpis(&l1d, &cfg, opts);
    let per_benchmark: Vec<(&'static str, f64)> = base
        .iter()
        .zip(&slow)
        .map(|(&(n, b), &(_, m))| (n, 100.0 * (m / b - 1.0)))
        .collect();
    let average = per_benchmark.iter().map(|(_, d)| d).sum::<f64>() / per_benchmark.len() as f64;
    SuiteDegradation {
        per_benchmark,
        average,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let opts = if quick {
        PerfOptions::quick()
    } else {
        PerfOptions::default()
    };
    eprintln!("simulating 5-cycle and 6-cycle bins over 24 benchmarks ...");
    let bin5 = binned(1, &opts);
    let bin6 = binned(2, &opts);

    println!("== Naive speed binning (paper section 4.5) ==\n");
    println!(
        "{}",
        render_degradation(
            "CPI increase [%] when every load is scheduled at the binned latency",
            &[("5-cycle", &bin5), ("6-cycle", &bin6)],
        )
    );
    println!(
        "paper: +6.42% (one extra cycle), +12.62% (two extra cycles); ratio {:.2} vs paper {:.2}",
        bin6.average / bin5.average,
        12.62 / 6.42
    );
}

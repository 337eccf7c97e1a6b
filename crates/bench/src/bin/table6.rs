//! Table 6 of the paper: average SPEC2000 CPI degradation for every
//! post-repair cache configuration, the frequency of each configuration
//! among the saved chips, and the per-scheme weighted sums.
//!
//! Usage:
//! `cargo run -p yac-bench --release --bin table6 [chips] [seed] [--quick]`

#![deny(unsafe_code)]

use yac_bench::standard_population;
use yac_core::perf::{render_table6, table6, PerfOptions};
use yac_core::{ConstraintSpec, YieldConstraints};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let opts = if quick {
        PerfOptions::quick()
    } else {
        PerfOptions::default()
    };
    let population = standard_population();
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);

    eprintln!(
        "simulating {} uops/benchmark x 24 benchmarks x ~8 cache configurations ...",
        opts.measure_uops
    );
    let table = table6(&population, &constraints, &opts);

    println!("== Table 6: CPI degradation per saved cache configuration ==\n");
    println!("{}", render_table6(&table));
    println!("paper (chip counts): 3-1-0:91  2-2-0:16  1-3-0:4  0-4-0:1");
    println!("                     3-0-1:35  2-1-1:13  1-2-1:8  0-3-1:2  4-0-0:105");
    println!("paper (degradation %):");
    println!(
        "  3-1-0: YAPD 1.08 VACA 1.81 | 2-2-0: VACA 3.32 | 1-3-0: VACA 5.47 | 0-4-0: VACA 6.42"
    );
    println!("  3-0-1: YAPD 1.08 | 2-1-1: Hyb 3.65 | 1-2-1: Hyb 5.49 | 0-3-1: Hyb 7.39 | 4-0-0: YAPD 1.08");
    println!("paper (weighted sums): YAPD 1.08, VACA 2.20, Hybrid 1.83");
}

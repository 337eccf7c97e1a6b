//! Figure 10 of the paper: per-benchmark CPI increase for cache
//! configuration 2-2-0 (two 4-cycle ways, two 5-cycle ways). YAPD cannot
//! save such chips; VACA and the Hybrid both run the two slow ways at 5
//! cycles.
//!
//! Usage: `cargo run -p yac-bench --release --bin fig10 [--quick]`

#![deny(unsafe_code)]

use yac_core::perf::{canonical_l1d, render_degradation, suite_degradation, PerfOptions};
use yac_core::WayCycleCensus;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let opts = if quick {
        PerfOptions::quick()
    } else {
        PerfOptions::default()
    };
    let census = WayCycleCensus {
        ways_4: 2,
        ways_5: 2,
        ways_6_plus: 0,
    };
    eprintln!("simulating the VACA repair of a 2-2-0 chip over 24 benchmarks ...");
    let vaca = suite_degradation(&canonical_l1d(census, false), &opts);

    println!("== Figure 10: CPI increase per benchmark, configuration 2-2-0 ==\n");
    println!(
        "{}",
        render_degradation(
            "CPI increase [%] (VACA == Hybrid; YAPD cannot save 2-2-0 chips)",
            &[("VACA", &vaca)],
        )
    );
    println!("paper average: 3.3%");
}

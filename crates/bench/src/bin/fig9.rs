//! Figure 9 of the paper: per-benchmark CPI increase for cache
//! configuration 3-1-0 (three 4-cycle ways, one 5-cycle way), comparing
//! the YAPD repair (disable the slow way) against VACA (keep it at 5
//! cycles). The Hybrid behaves like VACA here (§5.2).
//!
//! Usage: `cargo run -p yac-bench --release --bin fig9 [--quick]`

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
        ways_4: 3,
        ways_5: 1,
        ways_6_plus: 0,
    };
    eprintln!("simulating YAPD and VACA repairs of a 3-1-0 chip over 24 benchmarks ...");
    let yapd = suite_degradation(&canonical_l1d(census, true), &opts);
    let vaca = suite_degradation(&canonical_l1d(census, false), &opts);

    println!("== Figure 9: CPI increase per benchmark, configuration 3-1-0 ==\n");
    println!(
        "{}",
        render_degradation(
            "CPI increase [%] (Hybrid == VACA for this configuration)",
            &[("YAPD", &yapd), ("VACA", &vaca)],
        )
    );
    println!(
        "paper averages: YAPD 1.1%, VACA 1.8%; memory-bound benchmarks (mcf, art, swim)\nsit low on VACA and high on miss-driven YAPD, compute-bound ones the reverse"
    );
}

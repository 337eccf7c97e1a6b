//! The adaptive Hybrid policy (§4.4's discussed-but-unevaluated idea):
//! for a 3-1-0 chip, pick per target workload whether the 5-cycle way is
//! kept on (memory-intensive: capacity matters) or disabled
//! (compute-intensive: hit latency matters).
//!
//! Usage: `cargo run -p yac-bench --release --bin adaptive [--quick]`

#![deny(unsafe_code)]

use yac_core::perf::{adaptive_comparison, PerfOptions};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let opts = if quick {
        PerfOptions::quick()
    } else {
        PerfOptions::default()
    };
    eprintln!("simulating both 3-1-0 repairs over 24 benchmarks ...");
    let cmp = adaptive_comparison(&opts);

    println!("== adaptive Hybrid policy on 3-1-0 chips ==\n");
    println!(
        "{:<12}{:>12}{:>12}{:>12}",
        "benchmark", "keep-on %", "disable %", "adaptive"
    );
    for (name, keep, disable, keeps) in &cmp.per_benchmark {
        println!(
            "{name:<12}{keep:>11.2}%{disable:>11.2}%{:>12}",
            if *keeps { "keep on" } else { "disable" }
        );
    }
    let oracle: f64 = cmp
        .per_benchmark
        .iter()
        .map(|(_, k, d, _)| k.min(*d))
        .sum::<f64>()
        / cmp.per_benchmark.len() as f64;
    println!(
        "\nfixed keep-ways-on policy (the paper's):  +{:.2}% average",
        cmp.fixed_average
    );
    println!(
        "adaptive per-workload policy:             +{:.2}% average",
        cmp.adaptive_average
    );
    println!("oracle (always the cheaper repair):       +{oracle:.2}% average");
    println!(
        "\nin this model the fixed keep-on policy is already near the oracle —\nthe margin the adaptive policy chases is small because 3-1-0 repairs are\ncheap either way, which is consistent with the paper fixing the policy"
    );
}

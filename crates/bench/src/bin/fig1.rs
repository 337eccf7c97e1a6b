//! Figure 1 of the paper: expected yield and yield-loss factors across
//! process technologies, after the industry data the paper cites (\[18\],
//! Jones, "A Delayed 90-nm Surprise").
//!
//! This is the paper's motivating background figure — reference data, not
//! a simulation — rendered next to the *parametric* share our own 45 nm
//! Monte Carlo produces for comparison.
//!
//! Usage: `cargo run -p yac-bench --release --bin fig1 [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::population_args;
use yac_core::{classify, ConstraintSpec, Population, YieldConstraints};

/// (technology, nominal yield %, defect-density loss %, lithography loss %,
/// parametric loss %) — read off the paper's Figure 1.
const FIG1_DATA: &[(&str, f64, f64, f64, f64)] = &[
    ("0.35 um", 90.0, 6.0, 3.0, 1.0),
    ("0.25 um", 85.0, 8.0, 4.0, 3.0),
    ("0.18 um", 75.0, 10.0, 7.0, 8.0),
    ("0.13 um", 65.0, 12.0, 9.0, 14.0),
    ("90 nm", 52.0, 13.0, 11.0, 24.0),
];

fn bar(pct: f64, scale: f64) -> String {
    "#".repeat((pct * scale).round() as usize)
}

fn main() {
    println!("== Figure 1: yield factors by process technology (industry data [18]) ==\n");
    println!(
        "{:<10}{:>8}{:>9}{:>8}{:>8}   yield",
        "tech", "yield%", "defect%", "litho%", "param%"
    );
    for &(tech, y, d, l, p) in FIG1_DATA {
        println!(
            "{tech:<10}{y:>8.0}{d:>9.0}{l:>8.0}{p:>8.0}   |{}",
            bar(y, 0.5)
        );
    }
    println!("\nparametric loss grows from a rounding error at 0.35 um to the single");
    println!("largest factor at 90 nm — the trend the paper's schemes attack.\n");

    // Our own 45 nm data point: the parametric loss of the simulated cache.
    let (chips, seed) = population_args();
    let population = Population::generate(chips, seed);
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let lost = population
        .chips
        .iter()
        .filter(|c| classify(&c.regular, &constraints).is_some())
        .count();
    let pct = 100.0 * lost as f64 / population.len() as f64;
    println!(
        "this repository's 45 nm cache model: {pct:.1}% parametric loss from the L1D\nalone ({lost} of {chips} chips), continuing the curve (the paper cites ~30%\noverall yield reported for 45 nm [3])."
    );
}

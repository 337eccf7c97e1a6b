//! Which variation source matters? Total-effect variance decomposition of
//! cache delay and leakage across the paper's Table 1 parameters
//! (quantifying §2's qualitative discussion).
//!
//! Usage: `cargo run -p yac-bench --release --bin sensitivity [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::population_args;
use yac_core::sensitivity::sensitivity_study;

fn main() {
    let (chips, seed) = population_args();
    eprintln!("freeze-one-source analysis over {chips} chips ...");
    let report = sensitivity_study(chips, seed);
    println!("== variance decomposition by variation source ==\n");
    println!("{report}");
    println!("reading: the paper's §2 claims V_t (exponential leakage, near-threshold");
    println!("delay) and L_gate dominate while interconnect geometry is second-order;");
    println!("the worst-cell extreme-value term shapes the delay tail only.");
}

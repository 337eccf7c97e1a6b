//! The manufacturer's bottom line: revenue per 2000-chip batch for each
//! shipping policy, combining the yield tables with the Table 6
//! performance discounts under a speed-binning price ladder.
//!
//! Usage: `cargo run -p yac-bench --release --bin economics [chips] [seed] [--quick]`

#![deny(unsafe_code)]

use yac_bench::standard_population;
use yac_core::economics::{revenue_report, PriceModel};
use yac_core::perf::{table6, PerfOptions};
use yac_core::{table2, ConstraintSpec, YieldConstraints};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let opts = if quick {
        PerfOptions::quick()
    } else {
        PerfOptions::default()
    };
    let population = standard_population();
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let losses = table2(&population, &constraints);
    eprintln!("running Table 6 simulations for the degradation discounts ...");
    let perf = table6(&population, &constraints, &opts);

    println!("== revenue per batch (price ladder: -3% price per 1% CPI) ==\n");
    let report = revenue_report(&losses, &perf, &PriceModel::default());
    println!("{report}");
    println!(
        "every scheme monetises chips the base flow scraps; the Hybrid's extra\nsaves outweigh its slightly deeper discount — the economic argument the\npaper's introduction makes qualitatively"
    );
}

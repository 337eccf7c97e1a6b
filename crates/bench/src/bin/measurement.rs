//! Tester/sensor accuracy study: the paper assumes the slow and leaky
//! ways are identified exactly (§4.1 cites on-die leakage sensors). This
//! binary sweeps the measurement error and reports the escapes (bad chips
//! shipped) and overkills (good chips scrapped) each scheme suffers.
//!
//! Usage: `cargo run -p yac-bench --release --bin measurement [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::population_args;
use yac_core::testing::{test_population, MeasurementError};
use yac_core::{
    ConstraintSpec, HYapd, Hybrid, Population, PowerDownKind, Scheme, Yapd, YieldConstraints,
};

fn main() {
    let (chips, seed) = population_args();
    let population = Population::generate(chips, seed);
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);

    let schemes: Vec<Box<dyn Scheme>> = vec![
        Box::new(Yapd),
        Box::new(HYapd),
        Box::new(Hybrid::new(PowerDownKind::Vertical)),
    ];
    // (delay sigma, leakage sigma): speed binning is precise; leakage
    // sensors are coarse.
    let errors = [
        (0.0, 0.0),
        (0.01, 0.05),
        (0.02, 0.10),
        (0.05, 0.20),
        (0.10, 0.40),
    ];

    println!("== yield decisions under measurement error ({chips} chips, seed {seed}) ==\n");
    for scheme in &schemes {
        println!("{}:", scheme.name());
        println!(
            "  {:<22}{:>8}{:>8}{:>10}{:>10}{:>12}{:>12}",
            "error (delay/leak)", "ship", "scrap", "escapes", "overkill", "escape%", "overkill%"
        );
        for &(d, l) in &errors {
            let out = test_population(
                &population,
                &constraints,
                scheme.as_ref(),
                MeasurementError::new(d, l),
                seed ^ xtest_u64(),
            );
            println!(
                "  {:<22}{:>8}{:>8}{:>10}{:>10}{:>11.2}%{:>11.2}%",
                format!("{:.0}% / {:.0}%", d * 100.0, l * 100.0),
                out.good_ships,
                out.good_scraps,
                out.escapes,
                out.overkills,
                100.0 * out.escape_rate(),
                100.0 * out.overkill_rate(),
            );
        }
        println!();
    }
    println!(
        "with exact measurement every scheme makes zero mistakes (the paper's\nassumption); realistic leakage sensors (10-20% error) start shipping\nviolating chips and scrapping salvageable ones"
    );
}

const fn xtest_u64() -> u64 {
    0x7465_7374
}

//! H-YAPD granularity sweep: the paper fixes 4 horizontal regions (one
//! per bank). How does the region count change what the horizontal
//! power-down can save?
//!
//! Finer regions give the repair more precision (a disable removes less
//! good capacity, less leakage though) and more candidates; coarser
//! regions remove more leakage per disable. The sweep quantifies the
//! trade-off with everything else held fixed.
//!
//! Usage: `cargo run -p yac-bench --release --bin granularity [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::population_args;
use yac_circuit::{CacheCircuitModel, CacheGeometry, CacheVariant, Calibration, Technology};
use yac_core::{table3, ConstraintSpec, Population, PopulationConfig, YieldConstraints};
use yac_variation::VariationConfig;

fn main() {
    let (chips, seed) = population_args();
    println!("== H-YAPD horizontal-region granularity ({chips} chips, seed {seed}) ==\n");
    println!(
        "{:<10}{:>10}{:>10}{:>12}{:>12}{:>12}",
        "regions", "base", "H-YAPD", "leak left", "1-way left", "reduction"
    );

    for regions in [2usize, 4, 8] {
        let variation = VariationConfig {
            regions_per_way: regions,
            ..VariationConfig::default()
        };
        let model = |variant| {
            CacheCircuitModel::new(
                Technology::ptm45(),
                Calibration::calibrated(),
                CacheGeometry::paper_16kb(),
                variant,
            )
            .expect("valid model")
        };
        let config = PopulationConfig {
            chips,
            seed,
            variation,
            regular_model: model(CacheVariant::Regular),
            horizontal_model: model(CacheVariant::Horizontal),
            faults: None,
        };
        let population = Population::generate_with(&config);
        let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
        let t = table3(&population, &constraints);
        let hyapd = &t.schemes[0].losses;
        println!(
            "{:<10}{:>10}{:>10}{:>12}{:>12}{:>11.1}%",
            regions,
            t.base.total(),
            hyapd.total(),
            hyapd.leakage,
            hyapd.delay[0],
            100.0 * t.loss_reduction(0),
        );
    }

    println!(
        "\nthis is the yield side only. Coarser regions save more chips because one\ndisable removes more leakage and covers more slow rows — but a region of\na 4-way cache split into R regions holds 4/R way-equivalents of capacity,\nso a 2-region disable costs twice the capacity (and CPI) of the paper's\n4-region disable. The +2.5% H-YAPD latency overhead is held constant\nacross the sweep; a real implementation would also pay more post-decode\noverhead at finer granularity. The paper's 4 (one per bank, one\nway-equivalent per disable) is the layout-aligned sweet spot."
    );
}

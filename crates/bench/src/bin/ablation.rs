//! Model ablations: disable one physical component of the variation /
//! circuit model at a time and watch which of the paper's claims it
//! carries.
//!
//! * **no spatial correlation structure** (gradient + per-region
//!   systematic off) — H-YAPD's premise (§4.2: the same rows misbehave in
//!   every way) disappears, and with it most of its advantage on
//!   multi-way violators;
//! * **no worst-cell extreme-value spread** — the 6-plus-cycle delay tail
//!   (the chips VACA cannot save) collapses;
//! * **no thermal feedback** — the heavy leakage tail collapses and the
//!   leakage-constraint row empties.
//!
//! Usage: `cargo run -p yac-bench --release --bin ablation [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::population_args;
use yac_circuit::{CacheCircuitModel, CacheGeometry, CacheVariant, Calibration, Technology};
use yac_core::{table2, table3, ConstraintSpec, Population, PopulationConfig, YieldConstraints};
use yac_variation::{GradientConfig, VariationConfig};

struct Ablation {
    label: &'static str,
    variation: VariationConfig,
    calibration: Calibration,
}

fn baseline_variation() -> VariationConfig {
    VariationConfig::default()
}

fn ablations() -> Vec<Ablation> {
    let base_var = baseline_variation();
    let base_cal = Calibration::calibrated();

    let mut no_spatial = base_var;
    no_spatial.gradient = GradientConfig::disabled();
    no_spatial.region_systematic_sigma = 0.0;

    let mut no_worst_cell = base_var;
    no_worst_cell.worst_cell_spread_mv = 0.0;
    let mut no_worst_cell_cal = base_cal;
    no_worst_cell_cal.worst_cell_vt_boost_mv = 0.0;

    let mut no_thermal = base_cal;
    no_thermal.thermal_feedback = 0.0;

    vec![
        Ablation {
            label: "full model (baseline)",
            variation: base_var,
            calibration: base_cal,
        },
        Ablation {
            label: "no spatial correlation",
            variation: no_spatial,
            calibration: base_cal,
        },
        Ablation {
            label: "no worst-cell EV tail",
            variation: no_worst_cell,
            calibration: no_worst_cell_cal,
        },
        Ablation {
            label: "no thermal feedback",
            variation: base_var,
            calibration: no_thermal,
        },
    ]
}

fn main() {
    let (chips, seed) = population_args();
    println!("== model ablations ({chips} chips, seed {seed}) ==\n");
    println!(
        "{:<26}{:>7}{:>7}{:>9}{:>8}{:>8}{:>9}{:>9}",
        "model", "lost", "leak", "multiway", "YAPD%", "H-YAPD%", "VACA%", "Hybrid%"
    );

    for ab in ablations() {
        let make_model = |variant| {
            CacheCircuitModel::new(
                Technology::ptm45(),
                ab.calibration,
                CacheGeometry::paper_16kb(),
                variant,
            )
            .expect("valid ablated model")
        };
        let config = PopulationConfig {
            chips,
            seed,
            variation: ab.variation,
            regular_model: make_model(CacheVariant::Regular),
            horizontal_model: make_model(CacheVariant::Horizontal),
            faults: None,
        };
        let population = Population::generate_with(&config);
        let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
        let t2 = table2(&population, &constraints);
        let t3 = table3(&population, &constraints);
        let multiway: usize = t2.base.delay[1..].iter().sum();
        println!(
            "{:<26}{:>7}{:>7}{:>9}{:>7.1}%{:>7.1}%{:>8.1}%{:>8.1}%",
            ab.label,
            t2.base.total(),
            t2.base.leakage,
            multiway,
            100.0 * t2.loss_reduction(0),
            100.0 * t3.loss_reduction(0),
            100.0 * t2.loss_reduction(1),
            100.0 * t2.loss_reduction(2),
        );
    }

    println!(
        "\nreading the table: without spatial correlation the H-YAPD column falls\nback to (or below) YAPD — the paper's premise that the same horizontal\nregion misbehaves in every way is what it sells; without the worst-cell\nextreme-value tail VACA's losses shrink (no 6-plus-cycle chips); without\nthermal feedback the leakage column collapses and power-down schemes lose\ntheir second job."
    );
}

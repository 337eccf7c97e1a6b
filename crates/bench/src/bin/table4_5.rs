//! Tables 4 and 5 of the paper: total yield losses under relaxed
//! (mean+1.5σ, 4×mean) and strict (mean+0.5σ, 2×mean) constraints, for
//! both power-down organisations.
//!
//! Usage: `cargo run -p yac-bench --release --bin table4_5 [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::standard_population;
use yac_core::{constraint_sweep, render_constraint_sweep, ConstraintSpec, PowerDownKind};

fn main() {
    let population = standard_population();
    let specs = [ConstraintSpec::RELAXED, ConstraintSpec::STRICT];

    println!("== Table 4: total losses, regular power-down ==\n");
    let vertical = constraint_sweep(&population, PowerDownKind::Vertical, &specs);
    println!("{}", render_constraint_sweep(&vertical));
    println!("paper: relaxed 184 | YAPD 51, VACA 124, Hybrid 25");
    println!("       strict  727 | YAPD 234, VACA 503, Hybrid 144\n");

    println!("== Table 5: total losses, horizontal power-down ==\n");
    let horizontal = constraint_sweep(&population, PowerDownKind::Horizontal, &specs);
    println!("{}", render_constraint_sweep(&horizontal));
    println!("paper: relaxed 191 | H-YAPD 51, VACA 131, Hybrid 25");
    println!("       strict  752 | H-YAPD 224, VACA 516, Hybrid 146\n");

    for (label, tables) in [("regular", &vertical), ("horizontal", &horizontal)] {
        for t in tables.iter() {
            println!(
                "{label}/{}: hybrid yield {:.1}%  (paper: relaxed ~98.8%, strict ~92.8%)",
                t.spec_name,
                100.0 * t.yield_fraction(Some(2)),
            );
        }
    }
}

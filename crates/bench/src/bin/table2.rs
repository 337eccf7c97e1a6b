//! Table 2 of the paper: sources of yield loss with regular power-down,
//! and the losses remaining under YAPD, VACA and the Hybrid — plus the
//! abstract's headline yield numbers.
//!
//! Usage: `cargo run -p yac-bench --release --bin table2 [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::standard_population;
use yac_core::{render_loss_table, table2, ConstraintSpec, YieldConstraints};

fn main() {
    let population = standard_population();
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let table = table2(&population, &constraints);

    println!("== Table 2: sources of yield loss for regular power-down ==\n");
    println!("{}", render_loss_table(&table));
    println!(
        "quarantined: {} chips excluded during generation/evaluation",
        table.quarantined
    );
    println!("paper (2000 chips): base 138/126/36/23/16 = 339");
    println!("  YAPD 33/0/36/23/16 = 108   VACA 138/34/20/19/15 = 226   Hybrid 33/0/7/11/13 = 64");
    println!();
    println!("headline (abstract): YAPD reduces yield loss 68.1%, VACA 33.3%, Hybrid 81.1%;");
    println!(
        "measured:            YAPD {:.1}%, VACA {:.1}%, Hybrid {:.1}%",
        100.0 * table.loss_reduction(0),
        100.0 * table.loss_reduction(1),
        100.0 * table.loss_reduction(2),
    );
    println!(
        "overall yield:       base {:.1}%, YAPD {:.1}%, VACA {:.1}%, Hybrid {:.1}%  (paper: 83.1 / 94.6 / ~88.7 / 96.8)",
        100.0 * table.yield_fraction(None),
        100.0 * table.yield_fraction(Some(0)),
        100.0 * table.yield_fraction(Some(1)),
        100.0 * table.yield_fraction(Some(2)),
    );
}

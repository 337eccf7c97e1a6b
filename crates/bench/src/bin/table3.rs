//! Table 3 of the paper: sources of yield loss for the horizontal
//! power-down architecture (2.5 % slower base), with H-YAPD, VACA and the
//! horizontal Hybrid.
//!
//! Usage: `cargo run -p yac-bench --release --bin table3 [chips] [seed]`

#![deny(unsafe_code)]

use yac_bench::standard_population;
use yac_core::{render_loss_table, table2, table3, ConstraintSpec, YieldConstraints};

fn main() {
    let population = standard_population();
    // Constraints derive once, from the regular architecture (§5.1).
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let table = table3(&population, &constraints);

    println!("== Table 3: sources of yield loss for horizontal power-down ==\n");
    println!("{}", render_loss_table(&table));
    println!("paper (2000 chips): base 138/142/33/29/20 = 362");
    println!(
        "  H-YAPD 26/0/33/24/17 = 100   VACA 138/38/17/21/19 = 233   Hybrid 26/0/6/12/16 = 60"
    );
    println!();
    println!("headline (abstract): H-YAPD reduces yield loss 72.4%, Hybrid-H 83.4%;");
    println!(
        "measured:            H-YAPD {:.1}%, VACA {:.1}%, Hybrid-H {:.1}%",
        100.0 * table.loss_reduction(0),
        100.0 * table.loss_reduction(1),
        100.0 * table.loss_reduction(2),
    );
    println!(
        "overall yield:       base {:.1}%, H-YAPD {:.1}%, Hybrid-H {:.1}%  (paper: 81.9 / 95.0 / 97.0)",
        100.0 * table.yield_fraction(None),
        100.0 * table.yield_fraction(Some(0)),
        100.0 * table.yield_fraction(Some(2)),
    );

    // The paper's key cross-architecture comparison: H-YAPD beats YAPD.
    let t2 = table2(&population, &constraints);
    println!(
        "\nH-YAPD vs YAPD loss reduction: {:.1}% vs {:.1}%  (paper: 72.4% vs 68.1%)",
        100.0 * table.loss_reduction(0),
        100.0 * t2.loss_reduction(0),
    );
}

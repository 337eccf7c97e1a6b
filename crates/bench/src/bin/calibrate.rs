//! Calibration inspector: prints the population statistics the yield
//! analysis depends on, next to the paper's Table 2/3 targets.
//!
//! Usage: `cargo run -p yac-bench --release --bin calibrate [chips] [seed]`

#![deny(unsafe_code)]

use yac_circuit::CacheCircuitModel;
use yac_variation::stats::{pearson, Summary};
use yac_variation::{MonteCarlo, VariationConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let chips: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2006);

    let mc = MonteCarlo::new(VariationConfig::default());
    let dies = mc.generate(chips, seed);
    let model = CacheCircuitModel::regular();
    let results: Vec<_> = dies.iter().map(|d| model.evaluate(d)).collect();

    let delays: Vec<f64> = results.iter().map(|r| r.delay).collect();
    let leaks: Vec<f64> = results.iter().map(|r| r.leakage).collect();
    let d = Summary::from_slice(&delays).unwrap();
    let l = Summary::from_slice(&leaks).unwrap();
    println!("delay:   {d}  cv={:.3}", d.cv());
    println!("leakage: {l}  cv={:.3}", l.cv());
    println!(
        "pearson(delay, leakage) = {:.3}",
        pearson(&delays, &leaks).unwrap()
    );

    // Paper's nominal constraints: delay <= mean + 1 sigma; leakage <= 3x mean.
    let delay_limit = d.mean + d.std_dev;
    let leak_limit = 3.0 * l.mean;
    let cycle = delay_limit / 4.0;

    let mut leak_only = 0usize;
    let mut delay_by_ways = [0usize; 5];
    let mut six_plus_of_one_way = 0usize;
    let mut both = 0usize;
    for r in &results {
        let nv = r.ways_violating_delay(delay_limit);
        let leaky = r.leakage > leak_limit;
        if nv > 0 {
            delay_by_ways[nv] += 1;
            if leaky {
                both += 1;
            }
            if nv == 1 {
                let worst = r.ways.iter().map(|w| w.delay).fold(f64::MIN, f64::max);
                let cycles = (worst / cycle).ceil() as u32;
                if cycles >= 6 {
                    six_plus_of_one_way += 1;
                }
            }
        } else if leaky {
            leak_only += 1;
        }
    }
    let total_delay: usize = delay_by_ways.iter().sum();
    println!("\n-- losses at nominal constraints (paper targets in parens, n=2000) --");
    println!("leakage only:      {leak_only}  (138)");
    println!("delay 1 way:       {}  (126)", delay_by_ways[1]);
    println!("delay 2 ways:      {}  (36)", delay_by_ways[2]);
    println!("delay 3 ways:      {}  (23)", delay_by_ways[3]);
    println!("delay 4 ways:      {}  (16)", delay_by_ways[4]);
    println!("total delay:       {total_delay}  (201)");
    println!("total:             {}  (339)", leak_only + total_delay);
    println!("delay&leak overlap {both}");
    println!("1-way violators needing 6+ cycles: {six_plus_of_one_way}  (34)");

    // Full scheme tables via yac-core.
    let pop = yac_core::Population::generate(chips, seed);
    let c = yac_core::YieldConstraints::derive(&pop, yac_core::ConstraintSpec::NOMINAL);
    println!(
        "\n{}",
        yac_core::render_loss_table(&yac_core::table2(&pop, &c))
    );
    println!("paper Table 2: base 138/126/36/23/16=339 | YAPD 33/0/36/23/16=108 | VACA 138/34/20/19/15=226 | Hybrid 33/0/7/11/13=64");
    println!(
        "\n{}",
        yac_core::render_loss_table(&yac_core::table3(&pop, &c))
    );
    println!("paper Table 3: base 138/142/33/29/20=362 | H-YAPD 26/0/33/24/17=100 | VACA 138/38/17/21/19=233 | Hybrid 26/0/6/12/16=60");
}

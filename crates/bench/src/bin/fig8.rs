//! Figure 8 of the paper: normalised leakage vs latency scatter of the
//! simulated cache population.
//!
//! Prints summary statistics, an ASCII rendering of the scatter, and (with
//! `--csv`) the raw points for external plotting.
//!
//! Usage: `cargo run -p yac-bench --release --bin fig8 [chips] [seed] [--csv]`

#![deny(unsafe_code)]

use yac_bench::standard_population;
use yac_core::fig8_scatter;
use yac_variation::stats::{pearson, Summary};

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let population = standard_population();
    let points = fig8_scatter(&population);

    let delays: Vec<f64> = points.iter().map(|p| p.delay).collect();
    let leaks: Vec<f64> = points.iter().map(|p| p.normalized_leakage).collect();
    let d = Summary::from_slice(&delays).expect("non-empty population");
    let l = Summary::from_slice(&leaks).expect("non-empty population");
    println!("== Figure 8: normalized leakage vs cache access latency ==");
    println!("latency:  {d}");
    println!("leakage (x mean): {l}");
    println!(
        "pearson(latency, leakage) = {:.3}   (the paper's scatter shows the same anticorrelation:",
        pearson(&delays, &leaks).expect("valid series")
    );
    println!("fast chips are the leaky ones, slow chips are the cool ones)\n");

    // ASCII scatter: x = latency, y = normalized leakage (log-ish bins).
    const W: usize = 72;
    const H: usize = 24;
    let mut grid = vec![[0u32; W]; H];
    let y_max = l.max.min(l.mean + 4.0 * l.std_dev);
    for p in &points {
        let x = ((p.delay - d.min) / (d.max - d.min) * (W - 1) as f64) as usize;
        let y = ((p.normalized_leakage / y_max).min(1.0) * (H - 1) as f64) as usize;
        grid[H - 1 - y][x.min(W - 1)] += 1;
    }
    println!("leakage (up to {y_max:.1}x mean) ^");
    for row in &grid {
        let line: String = row
            .iter()
            .map(|&c| match c {
                0 => ' ',
                1 => '.',
                2..=4 => 'o',
                _ => '#',
            })
            .collect();
        println!("|{line}");
    }
    println!("+{}> latency ({:.2} .. {:.2})", "-".repeat(W), d.min, d.max);

    if csv {
        println!("\nlatency,normalized_leakage");
        for p in &points {
            println!("{:.6},{:.6}", p.delay, p.normalized_leakage);
        }
    }
}

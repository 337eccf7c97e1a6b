//! Monte Carlo confidence: the paper reports one 2000-chip run; this
//! binary repeats the full Table 2 + Table 3 study across seeds and
//! reports mean ± σ, so differences between schemes can be separated from
//! sampling noise.
//!
//! Usage: `cargo run -p yac-bench --release --bin confidence [chips] [seeds]`

#![deny(unsafe_code)]

use yac_core::confidence::confidence_study;

fn main() {
    let mut args = std::env::args().skip(1);
    let chips: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2000);
    let n_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let seeds: Vec<u64> = (0..n_seeds).map(|i| 2006 + i * 101).collect();

    eprintln!("running the full yield study over {n_seeds} seeds x {chips} chips ...");
    let report = confidence_study(chips, &seeds);
    println!("== Monte Carlo confidence ==\n");
    println!("{report}");

    let hyapd = report.scheme("H-YAPD").expect("present");
    let yapd = report.scheme("YAPD").expect("present");
    println!(
        "H-YAPD vs YAPD loss reduction: {} vs {} — {}",
        hyapd.loss_reduction_pct,
        yapd.loss_reduction_pct,
        if hyapd
            .loss_reduction_pct
            .clearly_above(&yapd.loss_reduction_pct)
        {
            "clearly separated (the paper's ordering holds beyond noise)"
        } else {
            "within each other's spread at this sample size"
        }
    );
    let hybrid = report.scheme("Hybrid").expect("present");
    let vaca = report.scheme("VACA").expect("present");
    println!(
        "Hybrid vs VACA loss reduction: {} vs {} — {}",
        hybrid.loss_reduction_pct,
        vaca.loss_reduction_pct,
        if hybrid
            .loss_reduction_pct
            .clearly_above(&vaca.loss_reduction_pct)
        {
            "clearly separated"
        } else {
            "within noise"
        }
    );
}

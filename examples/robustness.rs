//! The robustness layer end to end: deterministic fault injection, the
//! quarantine ledger, and typed errors, among them a checkpoint refused
//! for belonging to another study.
//!
//! Usage: `cargo run --release --example robustness [checkpoint_path]`

use yield_aware_cache::core::executor::run_checkpointed_workers_budget;
use yield_aware_cache::prelude::*;

fn main() {
    // A study where 5% of the dies come out of the fab corrupted: NaN
    // threshold voltages, infinite metal widths, -40-sigma tails, chips
    // dropped outright.
    let plan = FaultPlan::new(0.05, 1).expect("rate in [0, 1]");
    let mut cfg = PopulationConfig::paper(2006);
    cfg.chips = 400;
    cfg.faults = Some(plan);

    let population = Population::generate_with(&cfg);
    println!(
        "generated {} chips: {} classified, {} quarantined",
        cfg.chips,
        population.len(),
        population.quarantine().len()
    );
    for entry in population.quarantine().entries().iter().take(3) {
        println!("  {entry}");
    }
    println!(
        "  ... exactly the planned ones: {}\n",
        population.quarantine().indices() == plan.injected_indices(cfg.seed, cfg.chips)
    );

    // The quarantined chips surface in the loss table instead of
    // poisoning it.
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    println!("{}", render_loss_table(&table2(&population, &constraints)));

    // Typed errors: the taxonomy reports *what* was violated.
    println!("\ntyped errors:");
    println!("  {}", FaultPlan::new(1.5, 0).unwrap_err());
    // A checkpoint belongs to one study: resuming it under another seed
    // is refused. (The `robust_study` example kills and resumes one.)
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("robustness-example.ckpt"));
    let _ = std::fs::remove_file(&path);
    let exec = ExecutorConfig::with_workers(2);
    run_checkpointed_workers_budget(&cfg, &exec, &path, 1, Some(1)).expect("checkpointing works");
    let mut other = cfg.clone();
    other.seed = 9;
    match run_checkpointed_workers(&other, &exec, &path, 1) {
        Ok(_) => println!("  (unexpected: mismatched checkpoint accepted)"),
        Err(e) => println!("  {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

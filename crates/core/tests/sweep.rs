//! The sweep orchestrator end to end: grid completeness, per-study
//! failure isolation, cooperative cancellation, journal resume (skipping
//! completed studies), and fresh-vs-resumed bit-identity.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use yac_core::sweep::CpiOptions;
use yac_core::{
    run_sweep, ConstraintSpec, ExecutorConfig, PowerDownKind, StudyError, StudyStatus, SweepConfig,
    SweepGrid, SweepOutcome,
};
use yac_variation::FaultPlan;

fn small_grid() -> SweepGrid {
    SweepGrid {
        chips: 24,
        seeds: vec![1, 2],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
    }
}

fn config() -> SweepConfig {
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    SweepConfig {
        exec,
        concurrent_studies: 2,
        checkpoint_every: 1,
        cpi: None,
        cancel: None,
        faults: None,
    }
}

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("yac-sweep-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Every f64 a sweep outcome carries, as bits — the strictest equality.
fn outcome_bits(outcome: &SweepOutcome) -> Vec<Vec<u64>> {
    outcome
        .studies
        .iter()
        .map(|(_, status)| match status.result() {
            None => vec![],
            Some(r) => {
                let mut bits = vec![
                    r.yield_interval.estimate.to_bits(),
                    r.yield_interval.lo.to_bits(),
                    r.yield_interval.hi.to_bits(),
                    r.mean_cpi.unwrap_or(0.0).to_bits(),
                    r.loss.total_chips as u64,
                    r.loss.quarantined as u64,
                ];
                bits.push(r.loss.base.leakage as u64);
                bits.extend(r.loss.base.delay.iter().map(|&d| d as u64));
                for s in &r.loss.schemes {
                    bits.push(s.losses.leakage as u64);
                    bits.extend(s.losses.delay.iter().map(|&d| d as u64));
                }
                bits
            }
        })
        .collect()
}

fn cleanup(journal: &Path) {
    let _ = std::fs::remove_file(journal);
}

#[test]
fn sweep_runs_every_grid_cell_and_names_them_correctly() {
    let grid = small_grid();
    let journal = journal_path("complete.sweep");
    let outcome = run_sweep(&grid, &config(), &journal).unwrap();

    assert_eq!(outcome.studies.len(), 4);
    assert_eq!(outcome.completed(), 4);
    assert!(!outcome.resumed);
    assert_eq!(outcome.recovered, 0);
    assert!(!outcome.cancelled);
    for (spec, status) in &outcome.studies {
        let result = status.result().expect("all studies complete");
        assert_eq!(result.loss.spec_name, "nominal");
        assert_eq!(result.missing_chips, 0);
        assert_eq!(result.evaluated_chips, grid.chips);
        // Table 2 for vertical, Table 3 for horizontal.
        let expected_scheme = match spec.kind {
            PowerDownKind::Vertical => "YAPD",
            PowerDownKind::Horizontal => "H-YAPD",
        };
        assert_eq!(result.loss.schemes[0].name, expected_scheme);
    }
    // Per-study checkpoints are cleaned up once their record is durable.
    for index in 0..4 {
        assert!(!journal.with_extension(format!("s{index}.ckpt")).exists());
    }
    cleanup(&journal);
}

#[test]
fn concurrency_and_worker_count_do_not_change_results() {
    let grid = small_grid();
    let serial_journal = journal_path("serial.sweep");
    let mut serial_cfg = config();
    serial_cfg.concurrent_studies = 1;
    serial_cfg.exec.workers = 1;
    let serial = run_sweep(&grid, &serial_cfg, &serial_journal).unwrap();

    let parallel_journal = journal_path("parallel.sweep");
    let mut parallel_cfg = config();
    parallel_cfg.concurrent_studies = 4;
    parallel_cfg.exec.workers = 3;
    let parallel = run_sweep(&grid, &parallel_cfg, &parallel_journal).unwrap();

    assert_eq!(outcome_bits(&serial), outcome_bits(&parallel));
    cleanup(&serial_journal);
    cleanup(&parallel_journal);
}

#[test]
fn resume_skips_completed_studies_and_matches_a_fresh_run() {
    let grid = small_grid();
    let cfg = config();

    let fresh_journal = journal_path("fresh.sweep");
    let fresh = run_sweep(&grid, &cfg, &fresh_journal).unwrap();

    // Interrupt via cancellation after the first study, then resume.
    let resumed_journal = journal_path("resumed.sweep");
    let cancel = Arc::new(AtomicBool::new(true)); // cancel immediately...
    let mut first_cfg = cfg.clone();
    first_cfg.concurrent_studies = 1;
    first_cfg.cancel = Some(Arc::clone(&cancel));
    let cancelled = run_sweep(&grid, &first_cfg, &resumed_journal).unwrap();
    assert!(cancelled.cancelled);
    assert_eq!(cancelled.pending(), 4, "cancel before any study started");

    // ... then let exactly one study through.
    cancel.store(false, Ordering::Relaxed);
    let one_cancel = Arc::new(AtomicBool::new(false));
    let mut one_cfg = cfg.clone();
    one_cfg.concurrent_studies = 1;
    one_cfg.cancel = Some(Arc::clone(&one_cancel));
    std::thread::scope(|scope| {
        // Cancel as soon as the first terminal record lands.
        scope.spawn(|| loop {
            let text = std::fs::read_to_string(&resumed_journal).unwrap_or_default();
            if text
                .lines()
                .any(|l| l.starts_with("S ") || l.starts_with("D "))
            {
                one_cancel.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        });
        let partial = run_sweep(&grid, &one_cfg, &resumed_journal).unwrap();
        assert!(partial.resumed, "a journal already existed");
        assert!(partial.cancelled);
        assert!(partial.completed() >= 1);
        assert!(partial.pending() < 4);
    });

    // The final resume completes the rest without recomputing the done
    // ones: its `recovered` count equals the terminal records on disk.
    let terminal_on_disk = std::fs::read_to_string(&resumed_journal)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("S ") || l.starts_with("D ") || l.starts_with("F "))
        .count();
    assert!(terminal_on_disk >= 1);
    let finished = run_sweep(&grid, &cfg, &resumed_journal).unwrap();
    assert!(finished.resumed);
    assert_eq!(finished.recovered, terminal_on_disk);
    assert_eq!(finished.completed(), 4);
    assert_eq!(outcome_bits(&finished), outcome_bits(&fresh));

    cleanup(&fresh_journal);
    cleanup(&resumed_journal);
}

#[test]
fn a_poisoned_study_degrades_without_sinking_the_sweep() {
    let grid = small_grid();
    let journal = journal_path("poisoned.sweep");
    let mut cfg = config();
    // Every shard of every study fails: populations come back empty,
    // which each study surfaces as a typed failure.
    cfg.exec.shard_faults = Some(FaultPlan::new(1.0, 0).unwrap());
    let outcome = run_sweep(&grid, &cfg, &journal).unwrap();
    assert_eq!(outcome.failed(), 4, "all studies poisoned");
    for (_, status) in &outcome.studies {
        let StudyStatus::Failed { error } = status else {
            panic!("expected failure, got {status:?}");
        };
        assert!(error.contains("degraded"), "typed degraded error: {error}");
    }

    // A later healthy resume honours the failure records (it does not
    // silently retry them) — retrying is the caller's decision.
    let mut healthy = config();
    healthy.exec.shard_faults = None;
    let resumed = run_sweep(&grid, &healthy, &journal).unwrap();
    assert!(resumed.resumed);
    assert_eq!(resumed.recovered, 4);
    assert_eq!(resumed.failed(), 4);
    cleanup(&journal);
}

#[test]
fn partially_degraded_studies_report_honest_accounting() {
    let grid = small_grid();
    let journal = journal_path("degraded.sweep");
    let mut cfg = config();
    // Deterministically fail ~40% of shards.
    cfg.exec.shard_faults = Some(FaultPlan::new(0.4, 7).unwrap());
    let outcome = run_sweep(&grid, &cfg, &journal).unwrap();
    let degraded: Vec<_> = outcome
        .studies
        .iter()
        .filter_map(|(_, s)| match s {
            StudyStatus::Degraded(r) => Some(r),
            _ => None,
        })
        .collect();
    assert!(
        !degraded.is_empty(),
        "a 40% shard-fault rate must degrade at least one of 4 studies"
    );
    for r in degraded {
        assert!(r.missing_chips > 0);
        assert!(r.degraded_shards > 0);
        assert_eq!(r.evaluated_chips + r.missing_chips, grid.chips);
        // Missing chips widen the interval beyond the Wald width.
        assert!(r.yield_interval.hi - r.yield_interval.lo > 0.0);
    }
    cleanup(&journal);
}

#[test]
fn journal_from_a_different_grid_is_refused() {
    let grid = small_grid();
    let journal = journal_path("mismatch.sweep");
    run_sweep(&grid, &config(), &journal).unwrap();

    let mut other = small_grid();
    other.seeds = vec![9, 10];
    let err = run_sweep(&other, &config(), &journal).unwrap_err();
    assert!(matches!(err, StudyError::Mismatch(_)), "got {err}");

    // A config that shapes results (CPI) also changes the fingerprint.
    let mut cpi_cfg = config();
    cpi_cfg.cpi = Some(CpiOptions {
        warmup_uops: 100,
        measure_uops: 400,
    });
    let err = run_sweep(&grid, &cpi_cfg, &journal).unwrap_err();
    assert!(matches!(err, StudyError::Mismatch(_)), "got {err}");

    // But executor tuning does not: resuming wider is fine.
    let mut wider = config();
    wider.exec.workers = 4;
    wider.concurrent_studies = 4;
    let outcome = run_sweep(&grid, &wider, &journal).unwrap();
    assert!(outcome.resumed);
    assert_eq!(outcome.recovered, 4);
    cleanup(&journal);
}

#[test]
fn empty_grids_are_rejected_up_front() {
    let journal = journal_path("empty.sweep");
    let mut grid = small_grid();
    grid.seeds.clear();
    assert!(matches!(
        run_sweep(&grid, &config(), &journal),
        Err(StudyError::Mismatch(_))
    ));
    let mut grid = small_grid();
    grid.chips = 0;
    assert!(matches!(
        run_sweep(&grid, &config(), &journal),
        Err(StudyError::Mismatch(_))
    ));
    assert!(!journal.exists(), "rejected sweeps must not touch disk");
}

#[test]
fn per_study_cpi_measurement_is_deterministic() {
    let mut grid = small_grid();
    grid.seeds = vec![1];
    grid.kinds = vec![PowerDownKind::Vertical];
    let mut cfg = config();
    cfg.cpi = Some(CpiOptions {
        warmup_uops: 200,
        measure_uops: 800,
    });

    let journal_a = journal_path("cpi-a.sweep");
    let a = run_sweep(&grid, &cfg, &journal_a).unwrap();
    let journal_b = journal_path("cpi-b.sweep");
    let b = run_sweep(&grid, &cfg, &journal_b).unwrap();

    let cpi_a = a.studies[0].1.result().unwrap().mean_cpi;
    let cpi_b = b.studies[0].1.result().unwrap().mean_cpi;
    assert!(cpi_a.is_some());
    assert_eq!(
        cpi_a.map(f64::to_bits),
        cpi_b.map(f64::to_bits),
        "CPI must be bit-identical run to run"
    );
    cleanup(&journal_a);
    cleanup(&journal_b);
}

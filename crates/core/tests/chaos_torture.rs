//! Crash-consistency torture: kill a sweep at **every** durable-write
//! boundary (journal appends, checkpoint writes, checkpoint renames) in
//! a subprocess, resume, and require bit-identical loss tables and CPIs
//! versus an uninterrupted run.
//!
//! Chaos plans are process global, so every crashing run happens in its
//! own subprocess (`current_exe` re-invoked with `--exact` on the child
//! test, plan delivered via `YAC_CHAOS`); the few in-process installs
//! below are serialized by [`CHAOS_LOCK`].

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use yac_core::sweep::CpiOptions;
use yac_core::{
    chaos, run_sweep, ChaosPlan, ConstraintSpec, ExecutorConfig, PowerDownKind, StudyError,
    StudyStatus, SweepConfig, SweepGrid, SweepOutcome,
};

/// Serializes the tests in this binary that install a global chaos plan.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// The grid every torture run uses: two studies, small enough that a
/// full kill-at-every-op sweep stays fast, with CPI measurement on so
/// "CPIs survive resume bit-exactly" is actually exercised.
fn torture_grid() -> SweepGrid {
    SweepGrid {
        chips: 24,
        seeds: vec![1, 2],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Vertical],
    }
}

fn torture_config() -> SweepConfig {
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    SweepConfig {
        exec,
        // One study at a time: the journal's op sequence stays stable
        // enough that crash points land on meaningful boundaries.
        concurrent_studies: 1,
        checkpoint_every: 1,
        cpi: Some(CpiOptions {
            warmup_uops: 100,
            measure_uops: 400,
        }),
        cancel: None,
        faults: None,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("yac-chaos-torture").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every number a sweep outcome carries, with f64s as bit images.
fn outcome_bits(outcome: &SweepOutcome) -> Vec<Vec<u64>> {
    outcome
        .studies
        .iter()
        .map(|(_, status)| match status {
            StudyStatus::Completed(r) | StudyStatus::Degraded(r) => {
                let mut bits = vec![
                    r.yield_interval.estimate.to_bits(),
                    r.yield_interval.lo.to_bits(),
                    r.yield_interval.hi.to_bits(),
                    r.mean_cpi.expect("torture config measures CPI").to_bits(),
                    r.loss.total_chips as u64,
                    r.loss.quarantined as u64,
                    r.loss.base.leakage as u64,
                ];
                bits.extend(r.loss.base.delay.iter().map(|&d| d as u64));
                for s in &r.loss.schemes {
                    bits.push(s.losses.leakage as u64);
                    bits.extend(s.losses.delay.iter().map(|&d| d as u64));
                }
                bits
            }
            other => panic!("torture studies must finish, got {other:?}"),
        })
        .collect()
}

fn terminal_records(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .unwrap_or_default()
        .lines()
        .filter(|l| l.starts_with("S ") || l.starts_with("D ") || l.starts_with("F "))
        .count()
}

/// The subprocess side: inert unless the parent set `YAC_TORTURE_DIR`,
/// in which case it installs the `YAC_CHAOS` plan and runs the sweep —
/// aborting mid-write when the plan says so.
#[test]
fn chaos_child_run_sweep() {
    let Ok(dir) = std::env::var("YAC_TORTURE_DIR") else {
        return;
    };
    let plan = ChaosPlan::from_env()
        .expect("parent always sets a valid YAC_CHAOS")
        .expect("parent always sets YAC_CHAOS");
    chaos::install(plan);
    let journal = Path::new(&dir).join("torture.sweep");
    // The child may also complete (crash point past the op count) or
    // surface an injected fault; the parent interprets the exit.
    match run_sweep(&torture_grid(), &torture_config(), &journal) {
        Ok(_) => {}
        Err(StudyError::Io { .. }) => std::process::exit(3),
        Err(other) => panic!("unexpected sweep error under chaos: {other}"),
    }
}

#[test]
fn kill_at_every_write_boundary_then_resume_bit_exactly() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let grid = torture_grid();
    let config = torture_config();

    // Uninterrupted reference run.
    let reference_dir = fresh_dir("reference");
    let reference = run_sweep(&grid, &config, &reference_dir.join("torture.sweep")).unwrap();
    assert_eq!(reference.completed(), 2);
    let reference_bits = outcome_bits(&reference);

    // Count the durable-write ops one clean run performs: install a
    // fault-free, crash-free plan purely for its op counter.
    let count_dir = fresh_dir("count");
    chaos::install(ChaosPlan::new(0, 0.0).unwrap());
    let counted = run_sweep(&grid, &config, &count_dir.join("torture.sweep"));
    chaos::clear();
    assert_eq!(outcome_bits(&counted.unwrap()), reference_bits);
    let ops = chaos::ops();
    assert!(
        ops >= 7,
        "a 2-study sweep must cross several write boundaries, saw {ops}"
    );

    // Kill a subprocess at every boundary (torn every other time), then
    // resume in-process and demand bit-identity with the reference.
    let exe = std::env::current_exe().unwrap();
    for op in 0..ops {
        let dir = fresh_dir(&format!("kill-{op}"));
        let journal = dir.join("torture.sweep");
        let output = Command::new(&exe)
            .args(["chaos_child_run_sweep", "--exact", "--test-threads=1"])
            .env("YAC_TORTURE_DIR", &dir)
            .env(
                "YAC_CHAOS",
                format!("seed=0,rate=0,crash_at={op},torn={}", op % 2),
            )
            .output()
            .unwrap();
        assert!(
            !output.status.success(),
            "child must die at op {op}, got: {}",
            String::from_utf8_lossy(&output.stdout)
        );

        let recovered_on_disk = terminal_records(&journal);
        let resumed = run_sweep(&grid, &config, &journal)
            .unwrap_or_else(|e| panic!("resume after kill at op {op} failed: {e}"));
        assert_eq!(
            outcome_bits(&resumed),
            reference_bits,
            "kill at op {op}: resumed results must be bit-identical"
        );
        assert_eq!(
            resumed.recovered, recovered_on_disk,
            "kill at op {op}: every terminal record on disk must be \
             honoured without recomputation"
        );
        // Journal inspection: completed studies are never rerun, so each
        // study has exactly one terminal record even after the resume.
        assert_eq!(
            terminal_records(&journal),
            2,
            "kill at op {op}: one terminal record per study"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = std::fs::remove_dir_all(reference_dir);
    let _ = std::fs::remove_dir_all(count_dir);
}

#[test]
fn injected_io_faults_surface_as_typed_errors_never_panics() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let grid = torture_grid();
    let mut config = torture_config();
    config.cpi = None; // Fault behaviour is about the I/O path only.

    // Rate 1 fails the very first durable write — the journal header —
    // and the sweep must refuse to run without its crash-safety net.
    let dir = fresh_dir("faults-all");
    chaos::install(ChaosPlan::new(3, 1.0).unwrap());
    let result = run_sweep(&grid, &config, &dir.join("torture.sweep"));
    chaos::clear();
    match result {
        Err(StudyError::Io { message, .. }) => {
            assert!(
                message.contains("injected chaos fault"),
                "the typed error must carry the injection site: {message}"
            );
        }
        other => panic!("expected a typed I/O error, got {other:?}"),
    }

    // A moderate deterministic rate: whatever it hits — journal append
    // (sweep-level Io error) or checkpoint write (study-level failure) —
    // must surface as typed errors, never a panic or silent corruption.
    let dir = fresh_dir("faults-some");
    chaos::install(ChaosPlan::new(11, 0.25).unwrap());
    let result = run_sweep(&grid, &config, &dir.join("torture.sweep"));
    chaos::clear();
    let mut injected_seen = false;
    match result {
        Ok(outcome) => {
            for (_, status) in &outcome.studies {
                if let StudyStatus::Failed { error } = status {
                    assert!(
                        error.contains("injected chaos fault") || error.contains("degraded"),
                        "failures under chaos are typed: {error}"
                    );
                    injected_seen = true;
                }
            }
        }
        Err(StudyError::Io { message, .. }) => {
            assert!(message.contains("injected chaos fault"), "{message}");
            injected_seen = true;
        }
        Err(other) => panic!("unexpected error kind under chaos: {other}"),
    }
    assert!(
        injected_seen,
        "a 25% fault rate over a 2-study sweep must hit something"
    );

    // After clearing chaos the same journal can be repaired or rerun.
    let journal = dir.join("torture.sweep");
    let healthy = run_sweep(&grid, &config, &journal).unwrap();
    assert_eq!(
        healthy.completed() + healthy.failed() + healthy.degraded(),
        2
    );
    let _ = std::fs::remove_dir_all(std::env::temp_dir().join("yac-chaos-torture"));
}

//! Stress tests for the shared-queue worker pool: every task runs
//! exactly once, shutdown drains queued work, and a panicking task costs
//! no lane.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use yac_core::WorkerPool;

/// Many short tasks on a multi-worker pool: each runs exactly once.
#[test]
fn every_task_runs_exactly_once() {
    const TASKS: usize = 300;
    let pool = WorkerPool::new(4);
    assert_eq!(pool.workers(), 4);
    let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect());
    let done = Arc::new(AtomicUsize::new(0));

    for i in 0..TASKS {
        let runs = Arc::clone(&runs);
        let done = Arc::clone(&done);
        pool.submit(Box::new(move |_worker| {
            // A short stall keeps several workers popping at once.
            std::thread::sleep(Duration::from_micros(100));
            runs[i].fetch_add(1, Ordering::AcqRel);
            done.fetch_add(1, Ordering::AcqRel);
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    while done.load(Ordering::Acquire) < TASKS {
        assert!(
            Instant::now() < deadline,
            "pool failed to drain {TASKS} tasks"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for (i, count) in runs.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Acquire),
            1,
            "task {i} ran a wrong number of times"
        );
    }
    pool.shutdown();
}

/// Shutdown drains queued work rather than dropping it.
#[test]
fn shutdown_drains_all_queued_work() {
    const TASKS: usize = 500;
    let pool = WorkerPool::new(3);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..TASKS {
        let done = Arc::clone(&done);
        pool.submit(Box::new(move |_worker| {
            done.fetch_add(1, Ordering::AcqRel);
        }));
    }
    pool.shutdown();
    assert_eq!(done.load(Ordering::Acquire), TASKS);
}

/// A panicking task costs only itself: after it, `workers` tasks that
/// each wait until all of them are running must all run at once, which
/// is possible only if every lane survived.
#[test]
fn a_panicking_task_costs_no_lane() {
    const WORKERS: usize = 3;
    const WAIT: Duration = Duration::from_secs(10);
    let pool = WorkerPool::new(WORKERS);
    pool.submit(Box::new(|_| panic!("injected task panic")));

    let (started_tx, started_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let mut gates = Vec::new();
    for _ in 0..WORKERS {
        let (go_tx, go_rx) = mpsc::channel::<()>();
        gates.push(go_tx);
        let (started, done) = (started_tx.clone(), done_tx.clone());
        pool.submit(Box::new(move |_| {
            started.send(()).unwrap();
            done.send(go_rx.recv_timeout(WAIT).is_ok()).unwrap();
        }));
    }
    for i in 0..WORKERS {
        assert!(
            started_rx.recv_timeout(WAIT).is_ok(),
            "only {i} of {WORKERS} lanes are left after a panicking task"
        );
    }
    for gate in &gates {
        gate.send(()).unwrap();
    }
    for _ in 0..WORKERS {
        assert_eq!(done_rx.recv_timeout(WAIT), Ok(true));
    }
    pool.shutdown();
}

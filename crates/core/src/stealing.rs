//! The work-stealing worker pool every shard runs on.
//!
//! Batch studies build one [`StealPool`] per call; the sweep service
//! keeps one alive across queries of different sizes arriving at
//! different times (see [`crate::executor`] for the supervised shard
//! loop both submit). Balancing uses **per-worker deques and
//! steal-half**:
//!
//! * Each worker owns a [`WorkDeque`]; submitted tasks are injected
//!   round-robin (or pinned with [`StealPool::submit_to`]).
//! * A worker drains its own deque FIFO (oldest first, so a query's
//!   shards start roughly in order).
//! * An idle worker picks the most loaded victim and **steals the back
//!   half** of its deque in one grab — the classic steal-half policy:
//!   one steal rebalances a whole backlog instead of migrating tasks
//!   one by one, and taking the *back* half leaves the victim the tasks
//!   it is about to pop.
//!
//! The deque is a small mutex-guarded `VecDeque` rather than a lock-free
//! Chase–Lev buffer: shard tasks are milliseconds of Monte Carlo work,
//! so the nanoseconds a lock costs are noise, and the mutex makes
//! steal-half (a multi-element splice, awkward under Chase–Lev's
//! single-element CAS protocol) trivially exactly-once. The trade-off is
//! documented in DESIGN.md §13 and stress-tested in
//! `crates/core/tests/stealing.rs`.
//!
//! Every steal increments [`yac_obs::Metric::TasksStolen`] (by the
//! number of tasks moved) and records a
//! [`yac_obs::TraceEventKind::TaskStolen`] instant with the thief's
//! worker index, so a trace shows exactly how work migrated.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use yac_obs::{Metric, TraceCtx, TraceEventKind};

/// A task the pool runs: boxed closure receiving the executing worker's
/// index.
pub type PoolTask = Box<dyn FnOnce(usize) + Send + 'static>;

/// One worker's double-ended task queue.
///
/// The owner pushes to the back and pops from the front (FIFO, so a
/// query's shards start in submission order); thieves take the **back
/// half** in one [`WorkDeque::steal_half`] call. All operations are
/// linearized by the internal mutex, so every pushed task is popped or
/// stolen exactly once — the invariant the stress tests hammer.
#[derive(Debug, Default)]
pub struct WorkDeque<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> WorkDeque<T> {
    /// An empty deque.
    #[must_use]
    pub fn new() -> Self {
        WorkDeque {
            items: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.items
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of queued tasks right now (advisory: may change before the
    /// caller acts on it).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the deque is empty right now (advisory).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Enqueues a task at the back (owner side).
    pub fn push(&self, task: T) {
        self.lock().push_back(task);
    }

    /// Dequeues the oldest task (owner side); `None` when empty.
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        self.lock().pop_front()
    }

    /// Steals the back half — `ceil(len / 2)` tasks — in one grab,
    /// preserving their relative order. Stealing the *back* leaves the
    /// victim the oldest tasks, which its owner is about to pop.
    #[must_use]
    pub fn steal_half(&self) -> Vec<T> {
        let mut items = self.lock();
        let keep = items.len() / 2;
        items.split_off(keep).into()
    }
}

/// Shared pool state.
struct PoolShared {
    queues: Vec<WorkDeque<PoolTask>>,
    /// Round-robin injection cursor for [`StealPool::submit`].
    next: AtomicUsize,
    /// Set once; workers drain their deques, then exit.
    shutdown: AtomicBool,
    /// Tasks moved by steal-half since the pool started (also mirrored
    /// into [`Metric::TasksStolen`]).
    stolen: AtomicU64,
    /// Workers that died to a panicking task. Tasks run *without* a
    /// `catch_unwind` wrapper — a panic kills its worker thread — so a
    /// poisoned pool is visible here and the sweep service rebuilds it
    /// in place rather than limping on with fewer lanes.
    deaths: AtomicUsize,
    /// Wakeup channel: bumped on every submit and on shutdown.
    wake: Mutex<u64>,
    wake_cv: Condvar,
}

impl PoolShared {
    fn wake_all(&self) {
        let mut version = self
            .wake
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *version += 1;
        drop(version);
        self.wake_cv.notify_all();
    }
}

/// A long-lived work-stealing worker pool: per-worker [`WorkDeque`]s,
/// round-robin injection and steal-half rebalancing.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use yac_core::stealing::StealPool;
///
/// let pool = StealPool::new(2);
/// let done = Arc::new(AtomicUsize::new(0));
/// for _ in 0..8 {
///     let done = Arc::clone(&done);
///     pool.submit(Box::new(move |_worker| {
///         done.fetch_add(1, Ordering::Relaxed);
///     }));
/// }
/// pool.shutdown();
/// assert_eq!(done.load(Ordering::Relaxed), 8);
/// ```
#[derive(Debug)]
pub struct StealPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("workers", &self.queues.len())
            .field("stolen", &self.stolen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl StealPool {
    /// Starts `workers` (clamped to at least 1) worker threads, each
    /// owning an empty deque.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| WorkDeque::new()).collect(),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stolen: AtomicU64::new(0),
            deaths: AtomicUsize::new(0),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, me))
            })
            .collect();
        StealPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Tasks moved between deques by steal-half since the pool started.
    #[must_use]
    pub fn stolen(&self) -> u64 {
        self.shared.stolen.load(Ordering::Relaxed)
    }

    /// Workers killed by a panicking task since the pool started. A
    /// non-zero count means the pool is poisoned — short of lanes, with
    /// the dead worker's backlog rescued only as long as live peers
    /// remain to steal it. The sweep service polls this and rebuilds the
    /// pool in place when it goes positive.
    #[must_use]
    pub fn dead_workers(&self) -> usize {
        self.shared.deaths.load(Ordering::Relaxed)
    }

    /// Submits a task, injecting round-robin across the worker deques so
    /// a multi-shard query starts spread over the pool.
    pub fn submit(&self, task: PoolTask) {
        let n = self.shared.next.fetch_add(1, Ordering::Relaxed);
        self.submit_to(n % self.shared.queues.len(), task);
    }

    /// Submits a task to one specific worker's deque (tests use this to
    /// force an imbalance; steal-half then has to fix it).
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.workers()`.
    pub fn submit_to(&self, worker: usize, task: PoolTask) {
        self.shared.queues[worker].push(task);
        self.shared.wake_all();
    }

    /// Signals shutdown and joins every worker. Already-queued tasks are
    /// drained first — shutdown is graceful, never lossy.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for StealPool {
    /// Dropping without [`StealPool::shutdown`] still drains and joins.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Publishes a worker's death-by-panic as it unwinds: tasks run without
/// `catch_unwind`, so a panicking task kills its worker thread — this
/// guard's `Drop` runs during the unwind, bumps the shared death count
/// and wakes the surviving workers so they steal the dead lane's
/// backlog instead of staying parked.
struct DeathWatch<'a> {
    shared: &'a PoolShared,
}

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.deaths.fetch_add(1, Ordering::Release);
            self.shared.wake_all();
        }
    }
}

/// One worker: drain own deque, steal from the most loaded victim when
/// empty, park when there is nothing to steal.
fn worker_loop(shared: &PoolShared, me: usize) {
    yac_obs::trace_label_thread(&format!("worker-{me}"));
    let _death_watch = DeathWatch { shared };
    loop {
        // Read the wake version *before* looking for work: a submit that
        // lands after the look bumps the version, so the park below
        // returns immediately instead of missing the wakeup.
        let seen = *shared
            .wake
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(task) = shared.queues[me].pop() {
            task(me);
            continue;
        }
        if try_steal(shared, me) {
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            if shared.queues.iter().all(WorkDeque::is_empty) {
                return;
            }
            continue;
        }
        // Park until a submit or shutdown bumps the wake version. The
        // timeout is a belt-and-braces backstop, not the wake mechanism.
        let version = shared
            .wake
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _unused =
            shared
                .wake_cv
                .wait_timeout_while(version, std::time::Duration::from_millis(10), |v| {
                    *v == seen
                });
    }
}

/// Steals the back half of the most loaded victim's deque into `me`'s
/// own deque. Returns whether anything was stolen.
fn try_steal(shared: &PoolShared, me: usize) -> bool {
    let victim = shared
        .queues
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != me)
        .map(|(i, q)| (q.len(), i))
        .max();
    let Some((len, victim)) = victim else {
        return false; // Single-worker pool: nobody to steal from.
    };
    if len == 0 {
        return false;
    }
    let stolen = shared.queues[victim].steal_half();
    if stolen.is_empty() {
        return false; // Raced: the victim drained before our grab.
    }
    let count = stolen.len() as u64;
    shared.stolen.fetch_add(count, Ordering::Relaxed);
    yac_obs::add(Metric::TasksStolen, count);
    yac_obs::trace_instant(
        TraceEventKind::TaskStolen,
        TraceCtx {
            worker: Some(me as u32),
            ..TraceCtx::default()
        },
    );
    for task in stolen {
        shared.queues[me].push(task);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deque_is_fifo_for_the_owner() {
        let q = WorkDeque::new();
        for i in 0..4 {
            q.push(i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert!(!q.is_empty());
    }

    #[test]
    fn steal_half_takes_the_newer_back_half_in_order() {
        let q = WorkDeque::new();
        for i in 0..5 {
            q.push(i);
        }
        // ceil(5/2) = 3 stolen, the oldest 2 left for the owner.
        assert_eq!(q.steal_half(), vec![2, 3, 4]);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.steal_half().is_empty());
    }

    #[test]
    fn steal_half_of_one_task_takes_it() {
        let q = WorkDeque::new();
        q.push(7);
        assert_eq!(q.steal_half(), vec![7]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pool_drains_queued_tasks_on_shutdown() {
        let pool = StealPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move |_| {
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn a_panicking_task_kills_its_worker_and_is_counted() {
        let pool = StealPool::new(2);
        assert_eq!(pool.dead_workers(), 0);
        pool.submit_to(0, Box::new(|_| panic!("injected pool poisoning")));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.submit_to(
                1,
                Box::new(move |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        for _ in 0..2500 {
            if pool.dead_workers() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(pool.dead_workers(), 1);
        // The survivor still drains everything on shutdown.
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn workers_are_clamped_to_at_least_one() {
        let pool = StealPool::new(0);
        assert_eq!(pool.workers(), 1);
        pool.shutdown();
    }
}

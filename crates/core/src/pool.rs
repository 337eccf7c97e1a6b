//! The worker pool every shard runs on.
//!
//! Batch studies build one [`WorkerPool`] per call; the sweep service
//! keeps one alive across queries of different sizes arriving at
//! different times (see [`crate::executor`] for the supervised shard
//! loop both submit). Every worker pops the oldest task of **one shared
//! FIFO queue**, so a query's shards start in submission order and an
//! idle worker always takes the next task: with equal-sized shards no
//! worker sits idle while another has a backlog.
//!
//! Each task runs under `catch_unwind`: a panicking task costs only
//! itself, never a worker, so the pool keeps all its lanes for its whole
//! life. (The shard loop catches its own shard's panic and reports the
//! shard degraded; this is the backstop for code outside it.) The trade-off
//! against per-worker deques is in DESIGN.md §13; the tests are in
//! `crates/core/tests/pool.rs`.
//!
//! **Compute runs in the background.** On Linux every worker moves
//! itself to `SCHED_IDLE` before its first task, so any runnable thread
//! of normal priority preempts it at once: the accept loop, connection
//! handlers, clients, the stall sentinel and scrubber, and the caller
//! collecting shards. Chips run only on CPU that I/O and coordination
//! leave free, and a served cache hit never waits a scheduler slice
//! behind one. The rule covers *every* pool, not only the service's: a
//! served CPI query builds its own pool for the benchmark suite
//! ([`crate::perf`]), and at normal priority that pool would starve the
//! service's idle-policy shards past their heartbeat budget. If the
//! call fails the worker keeps normal priority. Tests:
//! `pool_workers_run_idle_policy`,
//! `served_shards_run_idle_policy_and_connections_do_not` and
//! `a_cpi_query_does_not_starve_a_population_query` in
//! `crates/core/tests/pool.rs`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A task the pool runs: boxed closure receiving the executing worker's
/// index.
pub type PoolTask = Box<dyn FnOnce(usize) + Send + 'static>;

/// The queue and the shutdown flag, under one lock so a worker never
/// misses either.
struct Queue {
    tasks: VecDeque<PoolTask>,
    /// Set once; workers drain `tasks`, then exit.
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every submit and on shutdown.
    ready: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A long-lived pool of worker threads over one shared FIFO queue.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use yac_core::pool::WorkerPool;
///
/// let pool = WorkerPool::new(2);
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
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Starts `workers` (clamped to at least 1) worker threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, me))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queues a task behind every task already submitted.
    pub fn submit(&self, task: PoolTask) {
        self.shared.lock().tasks.push_back(task);
        self.shared.ready.notify_one();
    }

    /// Signals shutdown and joins every worker. Already-queued tasks are
    /// drained first — shutdown is graceful, never lossy.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for WorkerPool {
    /// Dropping without [`WorkerPool::shutdown`] still drains and joins.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`. Needs no privilege: a
/// thread may always lower its own priority. A refusal leaves it at
/// normal priority.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn background_priority() {
    /// `struct sched_param` of `<sched.h>`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    /// `SCHED_IDLE` of `<linux/sched.h>`.
    const SCHED_IDLE: i32 = 5;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, initialised `sched_param` for the whole
    // call and the kernel only reads it; pid 0 names the calling thread,
    // so no other thread's state is touched.
    let _ = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
}

/// Elsewhere workers keep normal priority.
#[cfg(not(target_os = "linux"))]
fn background_priority() {}

/// One worker: drop to background priority, then pop the oldest task
/// and run it, park while the queue is empty, exit once shutdown is set
/// and the queue has drained.
fn worker_loop(shared: &Shared, me: usize) {
    background_priority();
    yac_obs::trace_label_thread(&format!("worker-{me}"));
    loop {
        let task = {
            let mut queue = shared.lock();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The panic hook has already reported the payload; the task's
        // own captures (its result channel, say) are dropped by the
        // unwind, which is how its owner learns it will never report.
        let _ = catch_unwind(AssertUnwindSafe(|| task(me)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_drains_queued_tasks_on_shutdown() {
        let pool = WorkerPool::new(3);
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
    fn a_single_worker_runs_tasks_in_submission_order() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16 {
            let order = Arc::clone(&order);
            pool.submit(Box::new(move |_| order.lock().unwrap().push(i)));
        }
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn workers_are_clamped_to_at_least_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        pool.shutdown();
    }
}

//! Stress tests for the shared-queue worker pool: every task runs
//! exactly once, shutdown drains queued work, and a panicking task costs
//! no lane. On Linux, also the priority split: pool workers compute at
//! `SCHED_IDLE` while the threads that submit, serve and collect stay at
//! normal priority, and a served CPI query's own pool does not starve
//! another query's shards.

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

#[cfg(target_os = "linux")]
mod priority {
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc, Barrier, Mutex};
    use std::time::Duration;
    use yac_core::{
        client_request, serve, ConstraintSpec, CpiOptions, ExecutorConfig, PowerDownKind,
        ServiceConfig, ServiceReply, ServiceRequest, StudyQuery, SweepService, WorkerPool,
    };
    use yac_variation::FaultPlan;

    const SCHED_OTHER: u32 = 0;
    const SCHED_IDLE: u32 = 5;

    /// Field 41 (`policy`) of a `/proc/.../stat` file.
    fn policy(stat: &str) -> u32 {
        let stat = std::fs::read_to_string(stat).unwrap();
        // Field 2 (`comm`) is parenthesised and may hold spaces, so count
        // from the last `)`: field 3 is the first token after it.
        let fields = &stat[stat.rfind(')').unwrap() + 1..];
        fields
            .split_whitespace()
            .nth(41 - 3)
            .unwrap()
            .parse()
            .unwrap()
    }

    fn own_policy() -> u32 {
        policy("/proc/thread-self/stat")
    }

    /// The policies of every thread of this process named `name`.
    fn policies_of(name: &str) -> Vec<u32> {
        let mut found = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if comm.trim_end() == name {
                found.push(policy(task.path().join("stat").to_str().unwrap()));
            }
        }
        found
    }

    fn query(chips: usize, seed: u64, cpi: Option<CpiOptions>) -> StudyQuery {
        StudyQuery {
            chips,
            seed,
            constraint: ConstraintSpec::NOMINAL,
            kind: PowerDownKind::Vertical,
            cpi,
        }
    }

    fn record(reply: ServiceReply) -> String {
        match reply {
            ServiceReply::Result { record, .. } => record,
            other => panic!("expected a result, got {other:?}"),
        }
    }

    /// Every worker's task reads `SCHED_IDLE` as its own policy, while
    /// the thread that submitted the tasks still reads `SCHED_OTHER`.
    #[test]
    fn pool_workers_run_idle_policy() {
        const WORKERS: usize = 3;
        let pool = WorkerPool::new(WORKERS);
        // Each task holds its lane until all have started, so every
        // worker runs exactly one.
        let all_started = Arc::new(Barrier::new(WORKERS));
        let (tx, rx) = mpsc::channel();
        for _ in 0..WORKERS {
            let (all_started, tx) = (Arc::clone(&all_started), tx.clone());
            pool.submit(Box::new(move |_| {
                all_started.wait();
                tx.send(own_policy()).unwrap();
            }));
        }
        pool.shutdown();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [SCHED_IDLE; WORKERS]);
        assert_eq!(own_policy(), SCHED_OTHER);
    }

    /// A served query's shard runs at `SCHED_IDLE`, while the connection
    /// thread waiting for it reads `SCHED_OTHER`. The shard is observed
    /// from inside: each shard panics, and the panic hook runs on the
    /// panicking worker before the shard loop records it degraded.
    #[test]
    fn served_shards_run_idle_policy_and_connections_do_not() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let previous = std::panic::take_hook();
        let hook_seen = Arc::clone(&seen);
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>();
            if message.is_some_and(|m| m.starts_with("injected shard fault")) {
                let shard = own_policy();
                hook_seen
                    .lock()
                    .unwrap()
                    .push((shard, policies_of("svc-conn")));
            }
            previous(info);
        }));

        let mut exec = ExecutorConfig::with_workers(2);
        exec.shard_chips = 8;
        exec.shard_faults = Some(FaultPlan::new(1.0, 0).unwrap());
        let config = ServiceConfig {
            exec,
            ..ServiceConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(SweepService::new(config));
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(&listener, &service))
        };
        let request = ServiceRequest::Query {
            query: query(16, 31, None),
            deadline_ms: None,
        };
        let (reply, _) = client_request(&addr, &request).unwrap();
        // Both shards degraded, so no chip is left to classify.
        assert!(
            matches!(&reply, ServiceReply::Error { message } if message.contains("degraded")),
            "{reply:?}"
        );
        let (bye, _) = client_request(&addr, &ServiceRequest::Shutdown).unwrap();
        assert_eq!(bye, ServiceReply::Bye);
        server.join().unwrap().unwrap();

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "one panic per shard");
        for (shard, connections) in seen.iter() {
            assert_eq!(*shard, SCHED_IDLE);
            assert_eq!(connections, &[SCHED_OTHER]);
        }
    }

    /// A CPI query builds its own pool for the benchmark suite. Computed
    /// beside a population query on a service with a heartbeat budget,
    /// it must not starve that query's shards: the population record
    /// equals a lone run's bytes, and no heartbeat is missed and no
    /// result degraded. A suite pool left at normal
    /// priority would hold both cores against the service's idle-policy
    /// shards for the whole suite, far past the budget.
    ///
    /// The population is one long shard and one short one, and the CPI
    /// query is asked once the long one holds a lane. Its one shard runs
    /// on the other lane, so its suite starts while the long shard is
    /// still computing.
    #[test]
    fn a_cpi_query_does_not_starve_a_population_query() {
        let population = query(4096 + 16, 47, None);
        let cpi = query(
            16,
            48,
            Some(CpiOptions {
                warmup_uops: 5_000,
                measure_uops: 150_000,
            }),
        );
        let mut exec = ExecutorConfig::with_workers(2);
        exec.shard_chips = 4096;
        let mut config = ServiceConfig {
            exec,
            heartbeat_budget: None,
            scrub_interval: None,
            ..ServiceConfig::default()
        };
        let lone = SweepService::new(config.clone());
        let lone_record = record(lone.query(&population, &Arc::new(AtomicBool::new(false))));
        lone.shutdown();

        config.heartbeat_budget = Some(Duration::from_millis(500));
        let service = Arc::new(SweepService::new(config));
        let ask = |q: StudyQuery| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query(&q, &Arc::new(AtomicBool::new(false))))
        };
        let population = ask(population);
        // The long shard is shard 0, so it is the first one popped.
        while service.health().lanes_busy == 0 && !population.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let cpi = ask(cpi);
        record(cpi.join().unwrap());
        assert_eq!(record(population.join().unwrap()), lone_record);
        let health = service.health();
        assert_eq!(health.heartbeats_missed, 0, "{health:?}");
        assert_eq!(health.degraded, 0, "{health:?}");
    }
}

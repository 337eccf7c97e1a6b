//! Integration tests for the sweep service: bit-identical cache hits
//! (against both a recompute and a `run_sweep` journal), typed `Busy`
//! backpressure under saturation, cooperative cancellation, journal
//! warm-start, and the TCP wire protocol end to end.
//!
//! Assertions read reply payloads and per-service cache counters, never
//! the process-global metric registry — other tests in this binary share
//! that registry.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yac_core::sweep::render_result;
use yac_core::{
    client_request, run_sweep, serve, ConstraintSpec, ExecutorConfig, PowerDownKind, ServiceConfig,
    ServiceReply, ServiceRequest, ShardFaultPlan, StudyError, StudyQuery, StudyStatus, SweepConfig,
    SweepGrid, SweepService,
};

fn no_cancel() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

fn query(chips: usize, seed: u64, kind: PowerDownKind) -> StudyQuery {
    StudyQuery {
        chips,
        seed,
        constraint: ConstraintSpec::NOMINAL,
        kind,
        cpi: None,
    }
}

/// A fast executor: two workers, small shards, no faults.
fn fast_exec() -> ExecutorConfig {
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    exec
}

/// A deliberately slow executor: every shard fails its first attempts
/// and sits out the retry backoff, so a query reliably takes hundreds of
/// milliseconds — long enough to observe saturation and cancellation —
/// while still completing (attempts outlast the failures).
fn slow_exec(failing_attempts: u32, backoff_ms: u64) -> ExecutorConfig {
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    exec.max_retries = failing_attempts;
    exec.backoff = Duration::from_millis(backoff_ms);
    exec.shard_faults = Some(ShardFaultPlan::always(failing_attempts));
    exec
}

fn expect_result(reply: ServiceReply) -> (String, u64, bool) {
    match reply {
        ServiceReply::Result {
            record,
            key,
            cached,
        } => (record, key, cached),
        other => panic!("expected a result, got {other:?}"),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yac-service-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The core acceptance property: a repeated identical query is answered
/// from the cache with *bit-identical* text, and that text also equals
/// what a completely fresh service computes — the cache returns bytes,
/// never a re-derivation.
#[test]
fn repeat_queries_hit_the_cache_bit_identically() {
    let service = SweepService::new(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 2,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let q = query(24, 2006, PowerDownKind::Vertical);

    let (first, key1, cached1) = expect_result(service.query(&q, &no_cancel()));
    let (second, key2, cached2) = expect_result(service.query(&q, &no_cancel()));
    assert!(!cached1, "first query must compute");
    assert!(cached2, "second identical query must hit the cache");
    assert_eq!(key1, key2);
    assert_eq!(
        first, second,
        "cached reply is not bit-identical to the computed one"
    );

    // A fresh service (fresh pool, fresh cache, different worker count)
    // recomputes the same bytes: the record depends only on the query.
    let fresh = SweepService::new(ServiceConfig {
        exec: ExecutorConfig::with_workers(4),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let (recomputed, key3, cached3) = expect_result(fresh.query(&q, &no_cancel()));
    assert!(!cached3);
    assert_eq!(key1, key3, "fingerprint must not depend on executor tuning");
    assert_eq!(first, recomputed, "recompute on a fresh service diverged");

    assert_eq!(service.with_cache(|c| (c.hits(), c.misses())), (1, 1));
    fresh.shutdown();
    service.shutdown();
}

/// The service's record for a cell is byte-identical to what `run_sweep`
/// journals for the same cell — the two pipelines share one canonical
/// rendering, so a journal can warm the service cache losslessly.
#[test]
fn service_records_match_run_sweep_journal_records() {
    let journal = temp_path("bitident.journal");
    let _ = std::fs::remove_file(&journal);
    let grid = SweepGrid {
        chips: 24,
        seeds: vec![11],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Horizontal],
    };
    let config = SweepConfig {
        exec: fast_exec(),
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&grid, &config, &journal).unwrap();
    let StudyStatus::Completed(sweep_result) = &outcome.studies[0].1 else {
        panic!("sweep cell did not complete: {:?}", outcome.studies[0].1);
    };

    let service = SweepService::new(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let (record, _, cached) =
        expect_result(service.query(&query(24, 11, PowerDownKind::Horizontal), &no_cancel()));
    assert!(!cached);
    assert_eq!(
        record,
        render_result(sweep_result),
        "service and run_sweep rendered different bytes for the same cell"
    );
    service.shutdown();
}

/// Saturation semantics: with `max_inflight = 1` and one slow query
/// computing, the next miss is refused with a typed `Busy { inflight,
/// limit }` — but a cache *hit* is still served, because hits never
/// consume an admission slot. Once the slow query drains, the refused
/// query is admitted normally.
#[test]
fn saturated_service_answers_typed_busy_but_still_serves_hits() {
    let service = Arc::new(SweepService::new(ServiceConfig {
        exec: slow_exec(2, 100),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    }));

    // Pre-cache query A (slow, but completes: retries outlast the faults).
    let qa = query(16, 7, PowerDownKind::Vertical);
    let (record_a, _, cached) = expect_result(service.query(&qa, &no_cancel()));
    assert!(!cached);

    // Saturate the single admission slot with query B on another thread.
    let qb = query(16, 8, PowerDownKind::Vertical);
    let slow = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.query(&qb, &no_cancel()))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.inflight() == 0 {
        assert!(
            Instant::now() < deadline,
            "slow query never entered computation"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // A miss is refused with typed backpressure...
    let qc = query(16, 9, PowerDownKind::Vertical);
    match service.query(&qc, &no_cancel()) {
        ServiceReply::Busy {
            inflight,
            limit,
            retry_after_ms,
        } => {
            assert_eq!(inflight, 1);
            assert_eq!(limit, 1);
            assert_eq!(retry_after_ms, yac_core::service::DEFAULT_RETRY_AFTER_MS);
        }
        other => panic!("saturated service should refuse with Busy, got {other:?}"),
    }
    // ...while a hit is served bit-identically, bypassing admission.
    let (hit, _, cached) = expect_result(service.query(&qa, &no_cancel()));
    assert!(cached, "hits must be served even when saturated");
    assert_eq!(hit, record_a);

    let (_, _, cached_b) = expect_result(slow.join().unwrap());
    assert!(!cached_b);

    // The slot is free again: the refused query now computes.
    let (_, _, cached_c) = expect_result(service.query(&qc, &no_cancel()));
    assert!(!cached_c);

    let stats = service.stats();
    assert_eq!(stats.busy, 1);
    assert_eq!(stats.served, 4);
    assert_eq!(stats.queries, 5);
    Arc::try_unwrap(service).unwrap().shutdown();
}

/// Cancellation: a flag raised before submission cancels immediately; a
/// flag raised mid-computation (during retry backoff) cancels the query
/// in flight. Either way the service stays healthy and answers the next
/// query normally — no slot leaks, no poisoned pool.
#[test]
fn cancelled_queries_release_the_service_cleanly() {
    let service = SweepService::new(ServiceConfig {
        exec: slow_exec(1, 100),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });

    // Pre-set flag: cancelled before any shard runs.
    let cancelled = Arc::new(AtomicBool::new(true));
    assert_eq!(
        service.query(&query(16, 21, PowerDownKind::Vertical), &cancelled),
        ServiceReply::Cancelled
    );

    // Mid-flight: every shard fails its first attempt and backs off for
    // 100 ms; raising the flag at 25 ms lands squarely inside that
    // backoff window, before any retry can complete.
    let cancel = no_cancel();
    let timer = {
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            cancel.store(true, Ordering::Release);
        })
    };
    assert_eq!(
        service.query(&query(16, 22, PowerDownKind::Vertical), &cancel),
        ServiceReply::Cancelled
    );
    timer.join().unwrap();
    assert_eq!(
        service.inflight(),
        0,
        "cancelled query leaked its admission slot"
    );

    // The service is still healthy: the same query, uncancelled, computes.
    let (_, _, cached) =
        expect_result(service.query(&query(16, 22, PowerDownKind::Vertical), &no_cancel()));
    assert!(!cached, "cancelled queries must not populate the cache");
    service.shutdown();
}

/// Warm-start: a completed `run_sweep` journal warms the cache, the
/// first query for a warmed cell is already a hit with the journal's
/// exact bytes, and a journal from a different grid is refused with the
/// same mismatch discipline as the sweep orchestrator.
#[test]
fn journal_warm_start_serves_first_queries_from_cache() {
    let journal = temp_path("warm.journal");
    let _ = std::fs::remove_file(&journal);
    let grid = SweepGrid {
        chips: 24,
        seeds: vec![31],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
    };
    let config = SweepConfig {
        exec: fast_exec(),
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&grid, &config, &journal).unwrap();
    assert_eq!(outcome.completed(), 2);

    let service = SweepService::new(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let warmed = service
        .with_cache(|c| c.warm_from_journal(&grid, &config, &journal))
        .unwrap();
    assert_eq!(warmed, 2, "both completed cells should warm the cache");

    for (kind, expected) in [
        (PowerDownKind::Vertical, &outcome.studies[0].1),
        (PowerDownKind::Horizontal, &outcome.studies[1].1),
    ] {
        let StudyStatus::Completed(result) = expected else {
            panic!("cell should be completed");
        };
        let (record, _, cached) = expect_result(service.query(&query(24, 31, kind), &no_cancel()));
        assert!(cached, "warmed cell should hit on its first query");
        assert_eq!(record, render_result(result));
    }

    // A journal for a different grid is refused, never silently mis-keyed.
    let other_grid = SweepGrid {
        chips: 25,
        ..grid.clone()
    };
    let err = service
        .with_cache(|c| c.warm_from_journal(&other_grid, &config, &journal))
        .unwrap_err();
    assert!(
        matches!(err, StudyError::Mismatch(_)),
        "wrong-grid warm start should be a Mismatch, got {err:?}"
    );
    service.shutdown();
}

/// Malformed queries are answered with a typed error, not a panic or a
/// dropped connection.
#[test]
fn zero_chip_queries_are_refused_with_an_error() {
    let service = SweepService::new(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    match service.query(&query(0, 1, PowerDownKind::Vertical), &no_cancel()) {
        ServiceReply::Error { message } => assert!(message.contains("chips")),
        other => panic!("zero chips should be an error, got {other:?}"),
    }
    service.shutdown();
}

/// A wire query asking for more chips than the service will hold is
/// refused before anything is sized from it, and the service keeps
/// answering normal queries afterwards.
#[test]
fn oversized_queries_are_refused_and_the_service_keeps_serving() {
    let service = SweepService::new(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let wire =
        r#"{"op":"query","chips":1000000000000,"seed":1,"constraint":"nominal","kind":"vertical"}"#;
    let ServiceRequest::Query { query: huge, .. } = ServiceRequest::parse(wire).unwrap() else {
        panic!("a query op parses as a query");
    };
    for oversized in [huge, query((1 << 20) + 1, 1, PowerDownKind::Vertical)] {
        match service.query(&oversized, &no_cancel()) {
            ServiceReply::Error { message } => assert!(message.contains("chips"), "{message}"),
            other => panic!(
                "{} chips should be an error, got {other:?}",
                oversized.chips
            ),
        }
    }
    match service.query(&query(16, 1, PowerDownKind::Vertical), &no_cancel()) {
        ServiceReply::Result { cached, .. } => assert!(!cached),
        other => panic!("a normal query after a refused one must compute, got {other:?}"),
    }
    service.shutdown();
}

/// The full wire path: a real TCP listener, `serve` on a thread, typed
/// requests through `client_request` — compute, hit bit-identically,
/// read stats, shut down cleanly.
#[test]
fn tcp_round_trip_serves_hits_stats_and_shutdown() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(SweepService::new(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 2,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    }));
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve(&listener, &service))
    };

    let request = ServiceRequest::Query {
        query: query(24, 5, PowerDownKind::Vertical),
        deadline_ms: None,
    };
    let (first, raw) = client_request(&addr, &request).unwrap();
    assert!(
        raw.starts_with('{') && raw.ends_with('}'),
        "reply is not a JSON object: {raw}"
    );
    let (record1, key1, cached1) = expect_result(first);
    let (second, _) = client_request(&addr, &request).unwrap();
    let (record2, key2, cached2) = expect_result(second);
    assert!(!cached1);
    assert!(cached2, "second wire query should be a cache hit");
    assert_eq!(key1, key2);
    assert_eq!(record1, record2, "wire replies are not bit-identical");

    match client_request(&addr, &ServiceRequest::Stats).unwrap().0 {
        ServiceReply::Stats(stats) => {
            assert_eq!(stats.queries, 2);
            assert_eq!(stats.served, 2);
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(stats.cache_misses, 1);
            assert_eq!(stats.cache_entries, 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    let (bye, _) = client_request(&addr, &ServiceRequest::Shutdown).unwrap();
    assert_eq!(bye, ServiceReply::Bye);
    server.join().unwrap().unwrap();
    Arc::try_unwrap(service)
        .expect("all connection handlers exited")
        .shutdown();
}

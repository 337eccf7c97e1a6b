//! Acceptance tests for the self-healing runtime, under *seeded,
//! deterministic* chaos:
//!
//! * `mem_rate` bit-flip injection: every corrupted cache entry is
//!   quarantined (never served) and the repaired entry is bit-identical
//!   to a cold recompute;
//! * `stall_shard` hang injection: the query completes without a
//!   service restart — the stalled shard is cancelled and recorded
//!   honestly degraded, and the degraded reply is never cached — with
//!   the evidence in the trace journal and the `health` report.
//!
//! The chaos plan and the trace journal are process-global, so the
//! tests in this file serialize on one mutex and never share a process
//! with other test files.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use yac_core::sweep::parse_result;
use yac_core::{
    chaos, run_supervised, ChaosPlan, ConstraintSpec, ExecutorConfig, Population, PopulationConfig,
    PowerDownKind, ServiceConfig, ServiceReply, StudyQuery, SweepService,
};
use yac_obs::{Metric, TraceEventKind};

static GLOBAL_CHAOS: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn query(chips: usize, seed: u64) -> StudyQuery {
    StudyQuery {
        chips,
        seed,
        constraint: ConstraintSpec::NOMINAL,
        kind: PowerDownKind::Vertical,
        cpi: None,
    }
}

fn expect_record(reply: ServiceReply) -> (String, bool) {
    match reply {
        ServiceReply::Result { record, cached, .. } => (record, cached),
        other => panic!("expected a result, got {other:?}"),
    }
}

/// All kinds recorded in the global journal, across threads.
fn traced_kinds() -> Vec<TraceEventKind> {
    yac_obs::journal()
        .snapshot()
        .threads
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.kind))
        .collect()
}

/// Acceptance: with `mem_rate=1.0` every stored entry rots, yet the
/// service never serves rotted bytes — each read of a corrupted entry
/// quarantines it and recomputes, and each repair is bit-identical to
/// the cold compute. Trace evidence: `EntryQuarantined` precedes
/// `EntryRepaired` on the query thread.
#[test]
fn injected_memory_rot_is_quarantined_and_repaired_bit_identically() {
    let _lock = serialized();
    chaos::clear();
    yac_obs::enable();
    yac_obs::trace_enable();
    yac_obs::journal().clear();

    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    let service = SweepService::new(ServiceConfig {
        exec,
        max_inflight: 1,
        cache_bytes: 1 << 20,
        // Driven synchronously below, so the run is deterministic.
        heartbeat_budget: None,
        scrub_interval: None,
        ..ServiceConfig::default()
    });
    let cancel = Arc::new(AtomicBool::new(false));
    let q = query(16, 29);

    // Rot every insert from here on.
    chaos::install(ChaosPlan::new(13, 0.0).unwrap().with_mem(1.0).unwrap());

    // Cold compute: the reply carries canonical bytes; the *stored*
    // copy rots at insert. A scrub pass catches it without any read.
    let (cold, cached) = expect_record(service.query(&q, &cancel));
    assert!(!cached);
    service.scrub_now();
    let stats = service.stats();
    assert_eq!(stats.scrub_passes, 1);
    assert_eq!(stats.quarantined, 1, "the rotted entry was caught");

    // The re-query misses (tombstone), recomputes, and the insert over
    // the tombstone is the repair — bit-identical by construction.
    let (repaired, cached) = expect_record(service.query(&q, &cancel));
    assert!(!cached);
    assert_eq!(repaired, cold, "repair must equal the cold compute");
    assert_eq!(service.stats().repaired, 1);

    // With chaos cleared the next repair sticks: one more
    // quarantine-and-recompute (the previous repair's stored copy had
    // rotted again), then a clean, verified cache hit.
    chaos::clear();
    let (recomputed, cached) = expect_record(service.query(&q, &cancel));
    assert!(!cached);
    assert_eq!(recomputed, cold);
    let (hit, cached) = expect_record(service.query(&q, &cancel));
    assert!(cached, "a clean entry finally serves from cache");
    assert_eq!(hit, cold, "served bytes are always canonical");

    let stats = service.stats();
    assert_eq!(stats.quarantined, 2);
    assert_eq!(stats.repaired, 2);
    assert_eq!(
        service.health().quarantined,
        2,
        "health mirrors the scrub counters"
    );

    // Trace evidence, in causal order on the query thread.
    let kinds = traced_kinds();
    let quarantine = kinds
        .iter()
        .position(|k| *k == TraceEventKind::EntryQuarantined)
        .expect("EntryQuarantined traced");
    let repair = kinds
        .iter()
        .position(|k| *k == TraceEventKind::EntryRepaired)
        .expect("EntryRepaired traced");
    assert!(quarantine < repair, "quarantine precedes repair");
    assert!(kinds.contains(&TraceEventKind::ScrubPass));

    yac_obs::trace_disable();
    service.shutdown();
}

/// Acceptance: with `stall_shard` hanging one shard, the query still
/// completes — the sentinel cancels the stalled lease and the shard
/// degrades at once — without a pool restart. The degraded reply is
/// honest (exactly that shard's chips missing) and never cached, so
/// asking again computes afresh and equals an unstalled run. Trace
/// evidence: `HeartbeatMissed` and `ShardDegraded`.
#[test]
fn a_stalled_shard_is_cancelled_and_degraded_and_never_cached() {
    let _lock = serialized();
    chaos::clear();
    yac_obs::enable();
    yac_obs::trace_enable();
    yac_obs::journal().clear();

    let mk_exec = || {
        let mut exec = ExecutorConfig::with_workers(2);
        exec.shard_chips = 8;
        exec
    };
    let q = query(32, 41); // Four shards across two workers.

    // The control run, no chaos: what an unstalled sweep computes.
    let control = SweepService::new(ServiceConfig {
        exec: mk_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        heartbeat_budget: None,
        scrub_interval: None,
        ..ServiceConfig::default()
    });
    let cancel = Arc::new(AtomicBool::new(false));
    let (expected, _) = expect_record(control.query(&q, &cancel));
    control.shutdown();

    // The chaos run: shard index 1 hangs until the sentinel's
    // cooperative cancel lands.
    chaos::install(ChaosPlan::new(7, 0.0).unwrap().stall(1));
    let service = SweepService::new(ServiceConfig {
        exec: mk_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        heartbeat_budget: Some(Duration::from_millis(200)),
        scrub_interval: None,
        ..ServiceConfig::default()
    });
    let (degraded, cached) = expect_record(service.query(&q, &cancel));
    assert!(!cached);
    let result = parse_result(&degraded, 0).expect("a canonical record");
    assert_eq!(
        result.missing_chips, 8,
        "exactly the stalled shard is missing"
    );
    assert_eq!(result.degraded_shards, 1);
    assert_eq!(result.evaluated_chips, 24);

    let health = service.health();
    assert_eq!(health.heartbeats_missed, 1, "{health:?}");
    assert_eq!(health.degraded, 1, "{health:?}");
    assert_eq!(
        service.stats().cache_entries,
        0,
        "a degraded reply is never cached"
    );

    let kinds = traced_kinds();
    assert!(kinds.contains(&TraceEventKind::HeartbeatMissed));
    assert!(kinds.contains(&TraceEventKind::ShardDegraded));

    // The stall is one-shot: re-asking computes afresh, in full, and
    // equals the unstalled control.
    let (record, cached) = expect_record(service.query(&q, &cancel));
    assert!(!cached, "the degraded reply was not cached");
    assert_eq!(
        record, expected,
        "a recompute is bit-identical to an unstalled run"
    );
    let (hit, cached) = expect_record(service.query(&q, &cancel));
    assert!(cached, "the full result is cached");
    assert_eq!(hit, expected);
    assert_eq!(service.health().heartbeats_missed, 1, "no further stall");

    chaos::clear();
    yac_obs::trace_disable();
    service.shutdown();
}

/// Per-chip delay/leakage bit patterns under both organisations.
fn bit_signature(pop: &Population) -> Vec<(u64, [u64; 4])> {
    pop.chips
        .iter()
        .map(|c| {
            (
                c.index,
                [
                    c.regular.delay.to_bits(),
                    c.regular.leakage.to_bits(),
                    c.horizontal.delay.to_bits(),
                    c.horizontal.leakage.to_bits(),
                ],
            )
        })
        .collect()
}

/// The batch path has no stall sentinel: with `stall_shard` hanging one
/// shard, the shard deadline alone releases it and the shard degrades.
/// Exactly that shard is missing, and the survivors are bit-identical
/// to the serial population restricted to them.
#[test]
fn a_stalled_batch_shard_is_released_by_its_deadline_and_degraded() {
    let _lock = serialized();
    chaos::clear();
    yac_obs::enable();

    let mut cfg = PopulationConfig::paper(41);
    cfg.chips = 64; // Four shards across two workers.
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 16;
    exec.shard_deadline = Some(Duration::from_millis(50));

    chaos::install(ChaosPlan::new(7, 0.0).unwrap().stall(1));
    let timeouts_before = yac_obs::global().counter(Metric::ShardTimeouts);
    let outcome = run_supervised(&cfg, &exec).expect("valid config");
    let timeouts = yac_obs::global().counter(Metric::ShardTimeouts) - timeouts_before;
    chaos::clear();

    let degraded: Vec<(u64, usize, u32)> = outcome
        .degraded
        .iter()
        .map(|d| (d.start, d.len, d.attempts))
        .collect();
    assert_eq!(degraded, [(16, 16, 1)], "exactly shard 1 degraded, once");
    assert!(
        outcome.degraded[0].error.contains("deadline"),
        "{}",
        outcome.degraded[0].error
    );
    assert!(timeouts >= 1, "the stalled shard must time out");
    let survivors: Vec<u64> = (0..16).chain(32..64).collect();
    assert_eq!(
        bit_signature(&outcome.population),
        bit_signature(&Population::generate_with(&cfg).restricted_to(&survivors)),
        "the survivors are bit-identical to the serial path"
    );
}

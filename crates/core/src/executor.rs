//! The supervised shard engine behind every population study.
//!
//! Splits a population study into contiguous chip shards and runs them on
//! a work-stealing [`StealPool`] under a supervisor: each shard attempt
//! runs behind `catch_unwind` with a bounded retry budget and exponential
//! backoff, an attempt that exceeds the per-shard time budget is
//! cancelled (the worker checks its own elapsed time between chips, so
//! even a deadline shorter than one chip is enforced deterministically),
//! and a shard that exhausts its retries is recorded as **degraded**
//! rather than aborting the study. The run still completes, returning a
//! [`StudyOutcome`] that carries the merged [`Population`], the
//! degraded-shard map, and a yield confidence interval widened to
//! account for the missing chips (see
//! [`crate::confidence::yield_interval`]) instead of silently shrinking
//! the denominator.
//!
//! Batch studies ([`run_supervised`], [`run_checkpointed_workers`]) and
//! the sweep service's queries ([`crate::service`]) share one engine:
//! the same submission (a heartbeat lease per shard task), the same
//! shard loop, one per-job cancel flag and the same first-report-wins
//! collector. A batch call builds a pool for its own duration; the
//! service keeps one alive and adds stall reassignment and pool healing.
//!
//! # Determinism
//!
//! Every chip is sampled from its own counter-based SplitMix64 stream
//! (`mix_seed(seed, index)` in `yac_variation`), so a chip's delay and
//! leakage depend only on `(seed, index)` — never on which worker
//! computed it, in what order, or after how many retries. Workers return
//! whole shards; the supervisor splices each shard into the merged chip
//! vector at its sorted position and the quarantine ledger keeps itself
//! ordered by index, so the merged population is **bit-identical to the
//! serial path for any worker count**, including runs with injected
//! faults and retries.
//!
//! # Shard-granular checkpointing
//!
//! [`run_checkpointed_workers`] persists progress in the v2
//! `YAC-CHECKPOINT` format after every completed shard batch: finished
//! shards are recorded as `S` lines and degraded ones as `D` lines, so a
//! killed parallel run resumes without recomputing finished shards and
//! its final population round-trips bit-exactly.

use crate::checkpoint::{
    load_or_fresh, write_state, CheckpointState, ShardRecord, ShardStatus, StudyError,
};
use crate::chip::{evaluate_isolated, ChipSample, Population, PopulationConfig};
use crate::classify::classify;
use crate::confidence::{yield_interval, YieldInterval};
use crate::constraints::{ConstraintSpec, YieldConstraints};
use crate::health::{HeartbeatLease, HeartbeatRegistry};
use crate::quarantine::QuarantineLedger;
use crate::stealing::StealPool;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use yac_obs::{Metric, Phase, TraceCtx, TraceEventKind};
use yac_variation::{FaultPlan, InvalidRateError, MonteCarlo};

/// One contiguous slice of the Monte Carlo chip stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Position of the shard in the study's shard list.
    pub index: usize,
    /// First chip index of the shard.
    pub start: u64,
    /// Number of chips in the shard.
    pub len: usize,
}

/// Splits a `chips`-chip study into contiguous shards of at most
/// `shard_chips` chips each (the last shard may be shorter).
#[must_use]
pub fn shards_for(chips: usize, shard_chips: usize) -> Vec<ShardSpec> {
    let shard_chips = shard_chips.max(1);
    (0..chips)
        .step_by(shard_chips)
        .enumerate()
        .map(|(index, start)| ShardSpec {
            index,
            start: start as u64,
            len: shard_chips.min(chips - start),
        })
        .collect()
}

/// Deterministic shard-level fault injection: makes selected shards panic
/// at the start of their first `failing_attempts` attempts, to exercise
/// the supervisor's retry and degraded paths in tests and examples.
///
/// Selection reuses [`FaultPlan`]'s hash draw, keyed by the study seed
/// and the *shard* index, so the same shards fail on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFaultPlan {
    plan: FaultPlan,
    failing_attempts: u32,
}

impl ShardFaultPlan {
    /// A plan failing roughly `rate` of all shards for their first
    /// `failing_attempts` attempts.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn new(rate: f64, salt: u64, failing_attempts: u32) -> Result<Self, InvalidRateError> {
        Ok(ShardFaultPlan {
            plan: FaultPlan::new(rate, salt)?,
            failing_attempts,
        })
    }

    /// A plan failing *every* shard for its first `failing_attempts`
    /// attempts (with `u32::MAX`, every attempt — the degraded path).
    #[must_use]
    pub fn always(failing_attempts: u32) -> Self {
        ShardFaultPlan {
            plan: FaultPlan::new(1.0, 0).expect("1.0 is a valid rate"),
            failing_attempts,
        }
    }

    fn fails(&self, seed: u64, shard_index: usize, attempt: u32) -> bool {
        attempt < self.failing_attempts && self.plan.fault_for(seed, shard_index as u64).is_some()
    }
}

/// Tuning for the supervised executor.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads. Clamped to at least 1 and at most the shard count.
    pub workers: usize,
    /// Chips per shard (the retry/checkpoint granule).
    pub shard_chips: usize,
    /// Retries granted to a failing shard before it is recorded degraded
    /// (so a shard runs at most `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Base backoff slept before retry `n` is `backoff * 2^n`.
    pub backoff: Duration,
    /// Per-shard-attempt time budget, checked by the worker between
    /// chips; `None` means no deadline.
    pub shard_deadline: Option<Duration>,
    /// Optional deterministic shard-level fault injection.
    pub shard_faults: Option<ShardFaultPlan>,
}

impl ExecutorConfig {
    /// A sensible configuration for `workers` threads: 64-chip shards,
    /// two retries, 1 ms base backoff, no deadline, no fault injection.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        ExecutorConfig {
            workers: workers.max(1),
            shard_chips: 64,
            max_retries: 2,
            backoff: Duration::from_millis(1),
            shard_deadline: None,
            shard_faults: None,
        }
    }
}

impl Default for ExecutorConfig {
    /// [`ExecutorConfig::with_workers`] at the machine's available
    /// parallelism.
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_workers(workers)
    }
}

/// A shard that exhausted its retry budget; its chips are absent from the
/// merged population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedShard {
    /// First chip index of the shard.
    pub start: u64,
    /// Number of missing chips.
    pub len: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The last failure (panic message or deadline report).
    pub error: String,
}

/// The result of a supervised study: everything the run could compute,
/// plus an honest account of what it could not.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// The merged population — bit-identical to a serial run when no
    /// shard degraded, and to the serial run restricted to the surviving
    /// shards otherwise.
    pub population: Population,
    /// Shards that exhausted their retry budget, ascending by start.
    pub degraded: Vec<DegradedShard>,
    /// The chip count the study was asked for.
    pub requested_chips: usize,
    /// Base-case parametric yield under nominal constraints, with the
    /// interval widened to cover every chip lost to degraded shards.
    pub yield_interval: YieldInterval,
}

impl StudyOutcome {
    /// Chips missing because their shard degraded.
    #[must_use]
    pub fn missing_chips(&self) -> usize {
        self.degraded.iter().map(|d| d.len).sum()
    }

    /// Whether any shard was recorded degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// What one shard reported back to the supervisor.
pub(crate) enum ShardMsg {
    Done {
        spec: ShardSpec,
        chips: Vec<ChipSample>,
        quarantine: QuarantineLedger,
    },
    Degraded {
        spec: ShardSpec,
        attempts: u32,
        error: String,
    },
}

impl ShardMsg {
    fn spec(&self) -> ShardSpec {
        match self {
            ShardMsg::Done { spec, .. } | ShardMsg::Degraded { spec, .. } => *spec,
        }
    }
}

/// Everything one study's shard tasks share. `cancel` stops every shard
/// of the job between chips without burning retries; the sweep service
/// raises it when a client disconnects, the batch paths when their sink
/// fails.
#[derive(Debug)]
pub(crate) struct ShardJob {
    pub(crate) mc: MonteCarlo,
    pub(crate) pop: PopulationConfig,
    pub(crate) exec: ExecutorConfig,
    pub(crate) cancel: Arc<AtomicBool>,
}

/// One attempt's cancellation state: its start time (the deadline is
/// enforced against the attempt's own clock), the job's cancel flag and
/// the worker's heartbeat lease (the stall sentinel's cooperative
/// cancel, raised when the lane publishes no progress for a full budget).
struct AttemptGuard<'a> {
    t0: Instant,
    cancel: &'a AtomicBool,
    lease: &'a HeartbeatLease<'a>,
}

impl AttemptGuard<'_> {
    fn cancelled(&self, deadline: Option<Duration>) -> bool {
        deadline.is_some_and(|d| self.t0.elapsed() > d)
            || self.cancel.load(Ordering::Relaxed)
            || self.lease.is_cancelled()
    }
}

struct ShardPartial {
    chips: Vec<ChipSample>,
    quarantine: QuarantineLedger,
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// One attempt at one shard: evaluates every chip of the shard from its
/// per-chip stream, exactly as the serial paths do.
///
/// The deadline is enforced here, between chips, against the attempt's
/// own clock, so even a deadline shorter than one chip cancels
/// deterministically.
///
/// Quarantined chips are recorded *unobserved* (no `ChipsQuarantined`
/// increment): this attempt may yet be cancelled or superseded by a
/// retry, so the supervisor counts the metric only when it accepts the
/// shard's result.
fn run_shard_once(
    job: &ShardJob,
    spec: ShardSpec,
    attempt: u32,
    guard: &AttemptGuard<'_>,
) -> Option<ShardPartial> {
    let (mc, config, deadline) = (&job.mc, &job.pop, job.exec.shard_deadline);
    if let Some(faults) = &job.exec.shard_faults {
        if faults.fails(config.seed, spec.index, attempt) {
            panic!(
                "injected shard fault (shard {}, attempt {attempt})",
                spec.index
            );
        }
    }
    if crate::chaos::stall_ticket(spec.index as u64) {
        // Injected hang: hold the shard without a single heartbeat until
        // some cancel source (sentinel lease cancel, job cancel or shard
        // deadline) releases it — this is how the seeded tests drive
        // every stall-recovery path.
        while !guard.cancelled(deadline) {
            std::thread::sleep(Duration::from_micros(200));
        }
        return None;
    }
    let mut chips = Vec::with_capacity(spec.len);
    let mut quarantine = QuarantineLedger::new();
    for index in spec.start..spec.start + spec.len as u64 {
        if guard.cancelled(deadline) {
            return None;
        }
        guard.lease.beat();
        match mc.sample_one_checked(config.seed, index, config.faults.as_ref()) {
            Ok(die) => match evaluate_isolated(config, &die) {
                Ok((regular, horizontal)) => chips.push(ChipSample {
                    index,
                    regular,
                    horizontal,
                }),
                Err(error) => quarantine.record_unobserved(index, config.seed, error),
            },
            Err(error) => quarantine.record_unobserved(index, config.seed, error.to_string()),
        }
    }
    Some(ShardPartial { chips, quarantine })
}

/// Runs one shard under supervision: retry on panic or timeout with
/// exponential backoff, degrade after the budget is spent.
///
/// Two cancel sources stop the shard *without* burning retries,
/// returning `None`: the job's cancel flag (the whole job is being
/// discarded) and the lease's cancel (the stall sentinel reassigned the
/// shard to a fresh worker; this attempt must neither retry nor
/// degrade).
///
/// Every lifecycle transition is traced (dispatch, per-attempt exec
/// span, retry, timeout-cancel, completion, degrade) with the worker
/// index, shard index and attempt as context, so a trace export shows
/// exactly how each shard travelled through the supervisor.
fn run_shard(job: &ShardJob, spec: ShardSpec, lease: &HeartbeatLease<'_>) -> Option<ShardMsg> {
    let exec = &job.exec;
    let mut attempt: u32 = 0;
    let ctx = |attempt: u32| TraceCtx::shard(lease.lane() as u32, spec.index as u32, attempt);
    yac_obs::trace_instant(TraceEventKind::ShardDispatched, ctx(0));
    loop {
        if job.cancel.load(Ordering::Relaxed) {
            return None;
        }
        let guard = AttemptGuard {
            t0: Instant::now(),
            cancel: &job.cancel,
            lease,
        };
        let exec_span = yac_obs::phase_ctx(Phase::ShardExec, ctx(attempt));
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_shard_once(job, spec, attempt, &guard)
        }));
        drop(exec_span);

        let error = match result {
            Ok(Some(partial)) => {
                yac_obs::inc(Metric::ShardsCompleted);
                yac_obs::trace_instant(TraceEventKind::ShardCompleted, ctx(attempt));
                return Some(ShardMsg::Done {
                    spec,
                    chips: partial.chips,
                    quarantine: partial.quarantine,
                });
            }
            Ok(None) => {
                if job.cancel.load(Ordering::Relaxed) || lease.is_cancelled() {
                    return None;
                }
                yac_obs::inc(Metric::ShardTimeouts);
                yac_obs::trace_instant(TraceEventKind::ShardTimedOut, ctx(attempt));
                format!(
                    "shard {} (chips {}..{}) exceeded its deadline on attempt {attempt}",
                    spec.index,
                    spec.start,
                    spec.start + spec.len as u64
                )
            }
            Err(payload) => format!(
                "shard {} panicked: {}",
                spec.index,
                panic_message(&*payload)
            ),
        };
        if attempt >= exec.max_retries {
            yac_obs::inc(Metric::DegradedShards);
            yac_obs::trace_instant(TraceEventKind::ShardDegraded, ctx(attempt));
            return Some(ShardMsg::Degraded {
                spec,
                attempts: attempt + 1,
                error,
            });
        }
        yac_obs::inc(Metric::ShardRetries);
        yac_obs::trace_instant(TraceEventKind::ShardRetried, ctx(attempt));
        let backoff = exec.backoff.saturating_mul(1u32 << attempt.min(16));
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        attempt += 1;
    }
}

/// Submits one shard of `job` to `pool`. The task takes a heartbeat
/// lease on its worker's lane, tagged `tag`, runs the supervised shard
/// loop and reports on `tx`: the shard's result, or `None` once the job
/// is cancelled. A shard whose lease the stall sentinel cancelled
/// reports nothing — it has been resubmitted, and the reassigned attempt
/// owns it now.
pub(crate) fn submit_shard(
    pool: &StealPool,
    registry: &Arc<HeartbeatRegistry>,
    job: Arc<ShardJob>,
    tag: u64,
    spec: ShardSpec,
    tx: mpsc::Sender<Option<ShardMsg>>,
) {
    let registry = Arc::clone(registry);
    pool.submit(Box::new(move |worker| {
        let msg = if job.cancel.load(Ordering::Relaxed) {
            None
        } else {
            run_shard(&job, spec, &registry.begin(worker, tag))
        };
        if msg.is_some() || job.cancel.load(Ordering::Relaxed) {
            let _ = tx.send(msg);
        }
    }));
}

/// How a shard collection ended.
pub(crate) enum Collected {
    /// Every shard reported.
    Complete,
    /// The job's cancel flag went up first.
    Cancelled,
    /// Shards went unreported: `lost` said so, or every sender vanished.
    Lost,
}

/// The shard-result collector. Feeds each shard's *first* report to
/// `sink` (a reassigned shard and its cancelled original may both
/// complete; the dedup keeps the result exactly-once) until every shard
/// in `shards` has reported. On each idle 50 ms tick it checks the
/// job's `cancel` flag, then asks `lost` whether in-flight shards are
/// gone for good. A `sink` error raises `cancel`, so queued shards are
/// skipped and running ones stop between chips, and is returned.
pub(crate) fn collect_shards<E>(
    rx: &mpsc::Receiver<Option<ShardMsg>>,
    shards: &[ShardSpec],
    cancel: &AtomicBool,
    mut lost: impl FnMut() -> bool,
    mut sink: impl FnMut(ShardMsg) -> Result<(), E>,
) -> Result<Collected, E> {
    let mut remaining: HashSet<usize> = shards.iter().map(|s| s.index).collect();
    while !remaining.is_empty() {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Some(msg)) => {
                if remaining.remove(&msg.spec().index) {
                    if let Err(e) = sink(msg) {
                        cancel.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
            Ok(None) => return Ok(Collected::Cancelled),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if cancel.load(Ordering::Relaxed) {
                    return Ok(Collected::Cancelled);
                }
                if lost() {
                    return Ok(Collected::Lost);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(Collected::Lost),
        }
    }
    Ok(Collected::Complete)
}

/// Runs `tasks` of `config`'s study on a [`StealPool`] created for the
/// call, with `exec.workers` clamped to the shard count, and feeds every
/// shard's outcome to `sink` in completion order. A `sink` error cancels
/// the job and is returned.
fn run_on_pool(
    mc: MonteCarlo,
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    tasks: &[ShardSpec],
    sink: impl FnMut(ShardMsg) -> Result<(), StudyError>,
) -> Result<(), StudyError> {
    if tasks.is_empty() {
        return Ok(());
    }
    let job = Arc::new(ShardJob {
        mc,
        pop: config.clone(),
        exec: exec.clone(),
        cancel: Arc::default(),
    });
    let pool = StealPool::new(exec.workers.clamp(1, tasks.len()));
    let registry = Arc::new(HeartbeatRegistry::new(pool.workers()));
    let (tx, rx) = mpsc::channel();
    for spec in tasks {
        let tag = spec.index as u64;
        submit_shard(&pool, &registry, Arc::clone(&job), tag, *spec, tx.clone());
    }
    drop(tx);
    let collected = collect_shards(&rx, tasks, &job.cancel, || false, sink);
    pool.shutdown();
    match collected? {
        Collected::Complete => Ok(()),
        // Only a sink error cancels a batch job, and every attempt runs
        // under `catch_unwind`: a shard goes unreported only when its
        // pool task itself panicked, which propagates like any worker
        // thread's panic.
        Collected::Cancelled | Collected::Lost => panic!("a shard task died before reporting"),
    }
}

/// Accepted shard results, merged in chip order.
pub(crate) struct MergedShards {
    chips: Vec<ChipSample>,
    quarantine: QuarantineLedger,
    degraded: Vec<DegradedShard>,
}

impl MergedShards {
    pub(crate) fn with_capacity(chips: usize) -> Self {
        MergedShards {
            chips: Vec::with_capacity(chips),
            quarantine: QuarantineLedger::new(),
            degraded: Vec::new(),
        }
    }

    /// Accepts one shard's report.
    pub(crate) fn accept(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Done {
                chips, quarantine, ..
            } => absorb_shard(&mut self.chips, &mut self.quarantine, chips, quarantine),
            ShardMsg::Degraded {
                spec,
                attempts,
                error,
            } => self.degraded.push(DegradedShard {
                start: spec.start,
                len: spec.len,
                attempts,
                error,
            }),
        }
    }

    /// The outcome of `config`'s study from the accepted shards.
    pub(crate) fn finish(mut self, config: &PopulationConfig) -> StudyOutcome {
        self.degraded.sort_by_key(|d| d.start);
        let population = Population::from_parts(
            self.chips,
            self.quarantine,
            *config.regular_model.calibration(),
            config.seed,
        );
        finish_outcome(population, self.degraded, config.chips)
    }
}

/// Accepts one finished shard: splices its chips (a contiguous,
/// already-sorted run) into the merged chip vector at their sorted
/// position and absorbs its quarantine ledger. The workers record
/// quarantines unobserved (attempts can be cancelled or retried); the
/// metric counts each chip once, here, when its shard's result is
/// accepted.
fn absorb_shard(
    completed: &mut Vec<ChipSample>,
    ledger: &mut QuarantineLedger,
    mut chips: Vec<ChipSample>,
    quarantine: QuarantineLedger,
) {
    yac_obs::add(Metric::ChipsQuarantined, quarantine.len() as u64);
    ledger.absorb(quarantine);
    let Some(first) = chips.first() else { return };
    let at = completed.partition_point(|c| c.index < first.index);
    completed.splice(at..at, chips.drain(..));
}

/// Builds the outcome: merged population plus a yield interval widened by
/// the chips the degraded shards failed to deliver.
fn finish_outcome(
    population: Population,
    degraded: Vec<DegradedShard>,
    requested_chips: usize,
) -> StudyOutcome {
    let missing: usize = degraded.iter().map(|d| d.len).sum();
    let interval = if population.is_empty() {
        yield_interval(0, 0, missing)
    } else {
        let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
        let lost = population
            .chips
            .iter()
            .filter(|c| classify(&c.regular, &constraints).is_some())
            .count();
        yield_interval(population.len() - lost, population.len(), missing)
    };
    StudyOutcome {
        population,
        degraded,
        requested_chips,
        yield_interval: interval,
    }
}

/// Runs a population study on the supervised parallel executor.
///
/// The merged population is bit-identical to
/// [`Population::generate_with`] for any worker count (see the module
/// docs for the determinism argument) unless shards degrade, in which
/// case the run still completes and the outcome reports exactly which
/// chip ranges are missing, with the yield interval widened to match.
///
/// # Errors
///
/// Returns [`StudyError::Config`] when the variation configuration is
/// invalid. Shard failures are *not* errors — they surface as
/// [`StudyOutcome::degraded`].
pub fn run_supervised(
    config: &PopulationConfig,
    exec: &ExecutorConfig,
) -> Result<StudyOutcome, StudyError> {
    let mc = MonteCarlo::try_new(config.variation).map_err(StudyError::Config)?;
    let tasks = shards_for(config.chips, exec.shard_chips);
    let mut merged = MergedShards::with_capacity(config.chips);
    run_on_pool(mc, config, exec, &tasks, |msg| {
        merged.accept(msg);
        Ok(())
    })?;
    Ok(merged.finish(config))
}

/// Runs (or resumes) a supervised parallel study with shard-granular
/// checkpointing: progress is persisted to `path` every `every`
/// completed shards, and a killed run resumes without recomputing
/// finished shards.
///
/// # Errors
///
/// Returns a [`StudyError`] if the checkpoint cannot be read, parsed or
/// written, belongs to a different study or shard layout, or the
/// variation configuration is invalid.
pub fn run_checkpointed_workers(
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    path: &Path,
    every: usize,
) -> Result<StudyOutcome, StudyError> {
    run_checkpointed_workers_budget(config, exec, path, every, None)
        .map(|o| o.expect("unbounded run always completes"))
}

/// Like [`run_checkpointed_workers`] but running at most `max_shards`
/// shards in this call; returns `Ok(None)` if the study is still
/// incomplete afterwards (the checkpoint holds the progress). A bounded
/// call is how tests simulate a killed parallel run.
///
/// # Errors
///
/// As [`run_checkpointed_workers`].
pub fn run_checkpointed_workers_budget(
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    path: &Path,
    every: usize,
    max_shards: Option<usize>,
) -> Result<Option<StudyOutcome>, StudyError> {
    let mc = MonteCarlo::try_new(config.variation).map_err(StudyError::Config)?;
    let every = every.max(1);
    let mut state = load_or_fresh(path, config)?;
    if state.shards.is_empty() && state.done > 0 {
        return Err(StudyError::Mismatch(
            "checkpoint is chip-granular (written by a serial run); resume \
             it with run_checkpointed"
                .into(),
        ));
    }
    let tasks = shards_for(config.chips, exec.shard_chips);
    let by_start: HashMap<u64, &ShardSpec> = tasks.iter().map(|s| (s.start, s)).collect();
    for record in &state.shards {
        match by_start.get(&record.start) {
            Some(spec) if spec.len == record.len => {}
            _ => {
                return Err(StudyError::Mismatch(format!(
                    "checkpoint shard at chip {} ({} chips) does not fit a \
                     {}-chip shard layout",
                    record.start, record.len, exec.shard_chips
                )))
            }
        }
    }
    let finished: HashSet<u64> = state.shards.iter().map(|r| r.start).collect();
    let pending: Vec<ShardSpec> = tasks
        .iter()
        .filter(|s| !finished.contains(&s.start))
        .copied()
        .take(max_shards.unwrap_or(usize::MAX))
        .collect();

    let mut since_write = 0usize;
    run_on_pool(mc, config, exec, &pending, |msg| {
        let spec = msg.spec();
        let status = match msg {
            ShardMsg::Done {
                chips, quarantine, ..
            } => {
                absorb_shard(
                    &mut state.completed,
                    &mut state.quarantine,
                    chips,
                    quarantine,
                );
                ShardStatus::Done
            }
            ShardMsg::Degraded {
                attempts, error, ..
            } => ShardStatus::Degraded { attempts, error },
        };
        let at = state.shards.partition_point(|r| r.start < spec.start);
        let record = ShardRecord {
            start: spec.start,
            len: spec.len,
            status,
        };
        state.shards.insert(at, record);
        state.done += spec.len;
        since_write += 1;
        if since_write >= every {
            since_write = 0;
            write_state(path, &state)?;
        }
        Ok(())
    })?;
    write_state(path, &state)?;
    if state.is_complete() {
        Ok(Some(outcome_from_state(state, config)))
    } else {
        Ok(None)
    }
}

fn outcome_from_state(state: CheckpointState, config: &PopulationConfig) -> StudyOutcome {
    let degraded: Vec<DegradedShard> = state
        .shards
        .iter()
        .filter_map(|r| match &r.status {
            ShardStatus::Done => None,
            ShardStatus::Degraded { attempts, error } => Some(DegradedShard {
                start: r.start,
                len: r.len,
                attempts: *attempts,
                error: error.clone(),
            }),
        })
        .collect();
    let population = Population::from_parts(
        state.completed,
        state.quarantine,
        *config.regular_model.calibration(),
        state.seed,
    );
    finish_outcome(population, degraded, config.chips)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_the_stream_exactly_once() {
        for (chips, shard_chips) in [(0, 16), (1, 16), (16, 16), (17, 16), (120, 7), (5, 100)] {
            let shards = shards_for(chips, shard_chips);
            let mut covered = 0usize;
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.start as usize, covered);
                assert!(s.len >= 1 && s.len <= shard_chips);
                covered += s.len;
            }
            assert_eq!(covered, chips, "{chips}/{shard_chips}");
        }
    }

    #[test]
    fn shard_fault_plan_is_deterministic_and_attempt_bounded() {
        let plan = ShardFaultPlan::new(0.5, 9, 2).unwrap();
        for shard in 0..32 {
            let first = plan.fails(7, shard, 0);
            assert_eq!(plan.fails(7, shard, 0), first, "deterministic");
            assert_eq!(plan.fails(7, shard, 1), first, "still failing");
            assert!(!plan.fails(7, shard, 2), "budget exhausted");
        }
        assert!(ShardFaultPlan::new(1.5, 0, 1).is_err());
        let always = ShardFaultPlan::always(1);
        assert!(always.fails(7, 3, 0) && !always.fails(7, 3, 1));
    }

    #[test]
    fn empty_study_completes_with_empty_outcome() {
        let mut cfg = PopulationConfig::paper(1);
        cfg.chips = 0;
        let outcome = run_supervised(&cfg, &ExecutorConfig::with_workers(4)).unwrap();
        assert!(outcome.population.is_empty());
        assert!(!outcome.is_degraded());
        assert_eq!(outcome.yield_interval.estimate, 0.0);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = PopulationConfig::paper(1);
        cfg.chips = 8;
        cfg.variation.ways = 0;
        let err = run_supervised(&cfg, &ExecutorConfig::with_workers(2)).unwrap_err();
        assert!(matches!(err, StudyError::Config(_)), "got {err}");
    }
}

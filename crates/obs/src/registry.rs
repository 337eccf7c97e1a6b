//! The lock-free metrics registry: named counters, phase timers and
//! log₂-bucketed latency histograms, all plain atomics.
//!
//! Design constraints (enforced by tests):
//!
//! * **Zero-cost when disabled** — every hook is one relaxed atomic load
//!   and a branch; no lock, no allocation, no clock read.
//! * **Observation only** — nothing in here feeds back into simulation
//!   state, so enabling metrics can never change a study's results.
//! * **Thread-safe by construction** — all state is `AtomicU64`;
//!   concurrent increments from any number of threads sum exactly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Generates a dense `#[repr(usize)]` enum together with its `COUNT`,
/// `ALL` table and stable `name()` — all from one variant list, so the
/// three can never desync: `COUNT` **is** `ALL.len()`, and both are
/// derived from the same expansion that defines the discriminants.
/// Adding a variant is a one-line change.
macro_rules! registry_enum {
    (
        $(#[$enum_meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$variant_meta:meta])* $variant:ident => $string:literal ),+ $(,)?
        }
    ) => {
        $(#[$enum_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $name {
            $( $(#[$variant_meta])* $variant ),+
        }

        impl $name {
            /// Number of variants (the registry arrays' length). Always
            /// equal to `ALL.len()` by construction.
            $vis const COUNT: usize = {
                let all = [ $( $name::$variant ),+ ];
                all.len()
            };

            /// All variants, in declaration order.
            $vis const ALL: [$name; $name::COUNT] = [ $( $name::$variant ),+ ];

            /// The stable snake_case name used in manifests.
            #[must_use]
            $vis fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $string ),+
                }
            }

            /// The variant whose discriminant is `index`, if any.
            #[must_use]
            $vis fn from_index(index: usize) -> Option<$name> {
                $name::ALL.get(index).copied()
            }
        }
    };
}

registry_enum! {
    /// Every counter the instrumented crates report.
    ///
    /// The `#[repr(usize)]` discriminants index the registry's counter
    /// array, so adding a metric is append-only cheap.
    pub enum Metric {
        /// Dies produced by Monte Carlo sampling (valid ones).
        DiesSampled => "dies_sampled",
        /// Dies quarantined during sampling (panic, fault plan, validation).
        SampleFailures => "sample_failures",
        /// Circuit-model evaluations (two per chip: regular + horizontal).
        CircuitEvals => "circuit_evals",
        /// Chips recorded in a quarantine ledger.
        ChipsQuarantined => "chips_quarantined",
        /// Chips classified against yield constraints.
        ChipsClassified => "chips_classified",
        /// Classified chips that violated a constraint (base-case losses).
        ChipsLost => "chips_lost",
        /// Scheme rescue attempts (one per scheme per failing chip).
        RescueAttempts => "rescue_attempts",
        /// Rescue attempts that saved the chip.
        RescueSaves => "rescue_saves",
        /// Benchmark pipeline simulations completed.
        BenchmarksSimulated => "benchmarks_simulated",
        /// Benchmark workers quarantined (panic or non-finite CPI).
        BenchmarkFailures => "benchmark_failures",
        /// Micro-ops committed in measurement windows.
        UopsCommitted => "uops_committed",
        /// Cycles simulated in measurement windows.
        SimCycles => "sim_cycles",
        /// Synthetic trace generators constructed.
        TracesCreated => "traces_created",
        /// Cache accesses (all levels) flushed from hierarchy stats.
        CacheAccesses => "cache_accesses",
        /// Cache misses (all levels) flushed from hierarchy stats.
        CacheMisses => "cache_misses",
        /// Study checkpoints written to disk.
        CheckpointsWritten => "checkpoints_written",
        /// Supervised-executor shards that ran to completion.
        ShardsCompleted => "shards_completed",
        /// Shards stopped for exceeding their deadline.
        ShardTimeouts => "shard_timeouts",
        /// Shards that failed (panic, deadline or stall) and were recorded
        /// as degraded (their chips are missing from the merged
        /// population).
        DegradedShards => "degraded_shards",
        /// Sweep studies that ran to completion with every chip observed.
        StudiesCompleted => "studies_completed",
        /// Sweep studies that finished degraded (missing chips).
        StudiesDegraded => "studies_degraded",
        /// Sweep studies that failed outright (poisoned config or panic).
        StudiesFailed => "studies_failed",
        /// Study queries received by the sweep service (before admission).
        QueriesReceived => "queries_received",
        /// Study queries answered with a result (cached or computed).
        QueriesServed => "queries_served",
        /// Study queries rejected with typed backpressure (`Busy`).
        QueriesBusy => "queries_busy",
        /// Service result-cache lookups answered from the cache.
        ResultCacheHits => "result_cache_hits",
        /// Service result-cache lookups that missed and forced a compute.
        ResultCacheMisses => "result_cache_misses",
        /// Service result-cache entries evicted to honour the byte budget.
        ResultCacheEvictions => "result_cache_evictions",
        /// Connections refused by the serve loop's connection cap.
        ConnsRejected => "conns_rejected",
        /// Connections evicted for blowing a per-frame read/write deadline.
        SlowClientsEvicted => "slow_clients_evicted",
        /// Resilient-client retries (transient failures and `Busy` replies).
        RetryAttempts => "retry_attempts",
        /// Client circuit-breaker trips from closed/half-open to open.
        BreakerOpens => "breaker_opens",
        /// Client circuit-breaker probes from open to half-open.
        BreakerHalfOpens => "breaker_half_opens",
        /// Faults injected into network streams by the chaos layer.
        NetFaultsInjected => "net_faults_injected",
        /// Study queries refused because the service is draining.
        QueriesDraining => "queries_draining",
        /// Heartbeat budgets blown: a busy lane published no progress
        /// tick within the stall budget, and its shard was cancelled.
        HeartbeatsMissed => "heartbeats_missed",
        /// Completed background scrub passes over the result cache.
        ScrubPasses => "scrub_passes",
        /// Cache entries whose stored CRC no longer matched their bytes
        /// and were quarantined (served as a miss until repaired).
        EntriesQuarantined => "entries_quarantined",
        /// Quarantined cache entries overwritten by a fresh recompute.
        EntriesRepaired => "entries_repaired",
    }
}

registry_enum! {
    /// The pipeline phases a study's time is attributed to.
    pub enum Phase {
        /// Monte Carlo variation sampling.
        Sample => "sample",
        /// Circuit-model evaluation of sampled dies.
        CircuitEval => "circuit_eval",
        /// Constraint classification.
        Classify => "classify",
        /// Scheme rescue (YAPD / H-YAPD / VACA / Hybrid apply).
        Rescue => "rescue",
        /// Pipeline (CPI) simulation.
        PipelineSim => "pipeline_sim",
        /// Report rendering and serialization.
        Report => "report",
        /// One supervised-executor shard attempt (per-worker busy time; the
        /// ratio of this phase's total to `workers × wall` is utilization).
        ShardExec => "shard_exec",
        /// One sweep-grid study end to end (population, classify, losses).
        StudyExec => "study_exec",
        /// One service query end to end (cache lookup through compute).
        QueryExec => "query_exec",
    }
}

/// Number of log₂ nanosecond buckets (covers 1 ns .. ~584 years).
pub(crate) const HIST_BUCKETS: usize = 64;

/// A lock-free histogram of durations, bucketed by `log₂(nanos)`.
///
/// Bucket `i` holds samples with `floor(log₂(ns)) == i` (bucket 0 also
/// takes 0 ns samples). Good to a factor of two — plenty for spotting
/// orders-of-magnitude latency shifts without per-sample allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Histogram {
    pub(crate) const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, nanos: u64) {
        let bucket = if nanos == 0 {
            0
        } else {
            63 - nanos.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, nanoseconds.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Mean recorded duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_nanos(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_nanos() as f64 / n as f64
        }
    }

    /// Upper bound (in nanoseconds) of the bucket containing the `q`
    /// quantile, `0.0 <= q <= 1.0`; 0 when empty. A factor-of-two
    /// estimate, by construction.
    #[must_use]
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// The non-empty log₂ buckets as `(le_ns, count)` pairs, ascending:
    /// `count` samples fell in `(le_ns/2, le_ns]` nanoseconds (the first
    /// bucket also takes 0 ns samples). This is the raw data behind
    /// [`Histogram::quantile_nanos`]; exporting it lets downstream tools
    /// compute whatever quantiles they want instead of trusting our
    /// factor-of-two p99.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then_some((1u64 << (i + 1).min(63), count))
            })
            .collect()
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// The registry: a fixed array of counters plus per-phase timer state.
///
/// All mutation goes through relaxed atomics — safe to share freely
/// across threads (`&Registry` is all any hook needs).
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    /// Time origin for wall-clock phase tracking, set on first use
    /// (`Instant` has no const constructor).
    epoch: OnceLock<Instant>,
    counters: [AtomicU64; Metric::COUNT],
    phase_ns: [AtomicU64; Phase::COUNT],
    phase_calls: [AtomicU64; Phase::COUNT],
    phase_hist: [Histogram; Phase::COUNT],
    /// Wall-clock time during which ≥ 1 guard of the phase was open —
    /// the union of guard intervals, not their sum.
    phase_wall_ns: [AtomicU64; Phase::COUNT],
    /// Currently-open guard count per phase.
    phase_active: [AtomicU64; Phase::COUNT],
    /// Epoch nanos at which `phase_active` last went 0 → 1.
    phase_open_ns: [AtomicU64; Phase::COUNT],
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, disabled registry with every counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            epoch: OnceLock::new(),
            counters: [const { AtomicU64::new(0) }; Metric::COUNT],
            phase_ns: [const { AtomicU64::new(0) }; Phase::COUNT],
            phase_calls: [const { AtomicU64::new(0) }; Phase::COUNT],
            phase_hist: [const { Histogram::new() }; Phase::COUNT],
            phase_wall_ns: [const { AtomicU64::new(0) }; Phase::COUNT],
            phase_active: [const { AtomicU64::new(0) }; Phase::COUNT],
            phase_open_ns: [const { AtomicU64::new(0) }; Phase::COUNT],
        }
    }

    /// Nanoseconds since this registry's epoch (set on first call).
    fn now_ns(&self) -> u64 {
        let epoch = self.epoch.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts collecting.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops collecting (already-recorded values are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether hooks currently record.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Increments `metric` by one. No-op while disabled.
    #[inline]
    pub fn inc(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Adds `n` to `metric`. No-op while disabled.
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        if self.is_enabled() {
            self.counters[metric as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `metric`.
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Starts a scoped timer for `phase`. While disabled the guard is
    /// inert — it does not even read the clock. Guards may nest (same or
    /// different phases); each guard attributes its own inclusive
    /// lifetime, so nested time is counted in every enclosing phase.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        let start = if self.is_enabled() {
            self.phase_opened(phase);
            Some(Instant::now())
        } else {
            None
        };
        PhaseGuard {
            registry: self,
            phase,
            start,
        }
    }

    /// Wall-clock bookkeeping when a guard opens: if this is the first
    /// open guard of the phase, remember when the covered interval began.
    fn phase_opened(&self, phase: Phase) {
        let now = self.now_ns();
        if self.phase_active[phase as usize].fetch_add(1, Ordering::AcqRel) == 0 {
            self.phase_open_ns[phase as usize].store(now, Ordering::Release);
        }
    }

    /// Wall-clock bookkeeping when a guard closes: the last guard out
    /// accumulates the covered interval. Interleavings where one thread's
    /// open races another's close can over-count by the scheduling gap
    /// between the two — wall times are honest to within that jitter,
    /// which is why the manifest labels them separately from the exact
    /// summed span time.
    fn phase_closed(&self, phase: Phase) {
        let now = self.now_ns();
        if self.phase_active[phase as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            let opened = self.phase_open_ns[phase as usize].load(Ordering::Acquire);
            self.phase_wall_ns[phase as usize]
                .fetch_add(now.saturating_sub(opened), Ordering::Relaxed);
        }
    }

    /// Runs `f` inside a [`Registry::phase`] guard for `phase`.
    #[inline]
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let _guard = self.phase(phase);
        f()
    }

    /// Directly attributes `nanos` to `phase` (one call, one histogram
    /// sample). Used where a duration is measured externally — e.g. by a
    /// worker thread that outlives its guard scope. No-op while disabled.
    pub fn record_phase_nanos(&self, phase: Phase, nanos: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record_phase_nanos_unchecked(phase, nanos);
    }

    /// [`Registry::record_phase_nanos`] without the enabled check — used
    /// by guards whose clock was started while collection was on, so a
    /// mid-flight `disable` doesn't drop a measurement already underway.
    fn record_phase_nanos_unchecked(&self, phase: Phase, nanos: u64) {
        self.phase_ns[phase as usize].fetch_add(nanos, Ordering::Relaxed);
        self.phase_calls[phase as usize].fetch_add(1, Ordering::Relaxed);
        self.phase_hist[phase as usize].record(nanos);
    }

    /// Total nanoseconds attributed to `phase` (summed over all guards,
    /// including concurrent ones — a parallel phase can accumulate more
    /// than wall-clock time). This is summed span time, which counts
    /// blocked and descheduled time too; see
    /// [`Registry::phase_wall_nanos`] for the wall-clock view.
    #[must_use]
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize].load(Ordering::Relaxed)
    }

    /// Wall-clock nanoseconds during which at least one guard of `phase`
    /// was open — the union of guard intervals, never more than elapsed
    /// real time (up to scheduling jitter; see [`Registry::phase_nanos`]
    /// for the exact summed view). Externally-measured durations fed in
    /// through [`Registry::record_phase_nanos`] do not contribute here.
    #[must_use]
    pub fn phase_wall_nanos(&self, phase: Phase) -> u64 {
        self.phase_wall_ns[phase as usize].load(Ordering::Relaxed)
    }

    /// Number of completed guards for `phase`.
    #[must_use]
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phase_calls[phase as usize].load(Ordering::Relaxed)
    }

    /// The latency histogram of individual `phase` guard lifetimes.
    #[must_use]
    pub fn phase_histogram(&self, phase: Phase) -> &Histogram {
        &self.phase_hist[phase as usize]
    }

    /// Zeroes every counter, timer and histogram (the enabled flag is
    /// left as-is).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for p in &self.phase_ns {
            p.store(0, Ordering::Relaxed);
        }
        for p in &self.phase_calls {
            p.store(0, Ordering::Relaxed);
        }
        for h in &self.phase_hist {
            h.reset();
        }
        for p in &self.phase_wall_ns {
            p.store(0, Ordering::Relaxed);
        }
        // `phase_active` is deliberately left alone: open guards will
        // still close and must not underflow the count.
    }

    /// A plain-data copy of every counter and phase timer.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: Metric::ALL.map(|m| self.counter(m)),
            phase_nanos: Phase::ALL.map(|p| self.phase_nanos(p)),
            phase_calls: Phase::ALL.map(|p| self.phase_calls(p)),
            phase_wall_nanos: Phase::ALL.map(|p| self.phase_wall_nanos(p)),
        }
    }
}

/// A point-in-time, plain-data view of a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, indexed like [`Metric::ALL`].
    pub counters: [u64; Metric::COUNT],
    /// Accumulated per-phase nanoseconds, indexed like [`Phase::ALL`].
    pub phase_nanos: [u64; Phase::COUNT],
    /// Completed guard counts, indexed like [`Phase::ALL`].
    pub phase_calls: [u64; Phase::COUNT],
    /// Per-phase wall-clock (union) nanoseconds, indexed like
    /// [`Phase::ALL`].
    pub phase_wall_nanos: [u64; Phase::COUNT],
}

impl Snapshot {
    /// Counter value by metric.
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// Accumulated nanoseconds by phase.
    #[must_use]
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }
}

/// Scoped timer returned by [`Registry::phase`]; attributes its
/// lifetime on drop.
#[derive(Debug)]
#[must_use = "a phase guard records time when dropped; binding it to _ drops it immediately"]
pub struct PhaseGuard<'a> {
    registry: &'a Registry,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // Clamp to u64 (585 years of nanos) rather than truncate.
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.registry
                .record_phase_nanos_unchecked(self.phase, nanos);
            self.registry.phase_closed(self.phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_and_phase_tables_are_consistent() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "{} out of order", m.name());
            assert_eq!(Metric::from_index(i), Some(*m));
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{} out of order", p.name());
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        assert_eq!(Metric::from_index(Metric::COUNT), None);
        assert_eq!(Phase::from_index(Phase::COUNT), None);
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT, "duplicate metric name");
    }

    #[test]
    fn wall_time_is_union_of_guard_intervals() {
        let reg = Registry::new();
        reg.enable();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = reg.phase(Phase::PipelineSim);
                    std::thread::sleep(std::time::Duration::from_millis(15));
                });
            }
        });
        let total = t0.elapsed().as_nanos() as u64;
        let cpu = reg.phase_nanos(Phase::PipelineSim);
        let wall = reg.phase_wall_nanos(Phase::PipelineSim);
        // Four concurrent 15 ms guards: the summed (CPU-like) time is
        // ~60 ms, the union wall time is bounded by elapsed real time.
        assert!(cpu >= 4 * 15_000_000, "cpu {cpu}");
        assert!(wall > 0 && wall <= total, "wall {wall} vs total {total}");
    }

    #[test]
    fn external_durations_do_not_contribute_wall_time() {
        let reg = Registry::new();
        reg.enable();
        reg.record_phase_nanos(Phase::ShardExec, 1_000_000);
        assert_eq!(reg.phase_nanos(Phase::ShardExec), 1_000_000);
        assert_eq!(reg.phase_wall_nanos(Phase::ShardExec), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.inc(Metric::CircuitEvals);
        reg.add(Metric::UopsCommitted, 100);
        reg.record_phase_nanos(Phase::Sample, 42);
        reg.time(Phase::Classify, || ());
        assert_eq!(reg.snapshot(), Registry::new().snapshot());
    }

    #[test]
    fn enabling_records_and_reset_clears() {
        let reg = Registry::new();
        reg.enable();
        reg.add(Metric::DiesSampled, 7);
        reg.record_phase_nanos(Phase::Sample, 1_000);
        assert_eq!(reg.counter(Metric::DiesSampled), 7);
        assert_eq!(reg.phase_nanos(Phase::Sample), 1_000);
        assert_eq!(reg.phase_histogram(Phase::Sample).count(), 1);
        reg.reset();
        assert_eq!(reg.counter(Metric::DiesSampled), 0);
        assert_eq!(reg.phase_nanos(Phase::Sample), 0);
        assert_eq!(reg.phase_histogram(Phase::Sample).count(), 0);
        assert!(reg.is_enabled(), "reset must not flip the enabled bit");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1024);
        h.record(1500);
        assert_eq!(h.count(), 4);
        assert_eq!(h.total_nanos(), 2525);
        assert!((h.mean_nanos() - 631.25).abs() < 1e-9);
        // All quantiles land on bucket upper bounds (powers of two).
        assert_eq!(h.quantile_nanos(0.0), 2);
        assert_eq!(h.quantile_nanos(1.0), 2048);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        for ns in [10u64, 100, 1_000, 10_000, 100_000] {
            for _ in 0..20 {
                h.record(ns);
            }
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile_nanos(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn time_returns_the_closure_value() {
        let reg = Registry::new();
        reg.enable();
        let out = reg.time(Phase::Report, || 21 * 2);
        assert_eq!(out, 42);
        assert_eq!(reg.phase_calls(Phase::Report), 1);
    }
}

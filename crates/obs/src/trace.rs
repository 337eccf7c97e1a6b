//! The structured event journal: a lock-free, per-thread ring buffer of
//! timestamped spans and instants with structured context (worker,
//! shard, attempt, chip, scheme).
//!
//! Where the [`crate::registry`] answers *"how much, how long in
//! aggregate"*, the journal answers *"what happened, when, on which
//! shard"* — the question a supervised run raises the moment shards
//! time out or degrade. The same contract as the registry holds:
//!
//! * **Zero-cost when disabled** — recording is one relaxed atomic load
//!   and a branch.
//! * **Allocation-free on the hot path** — each thread's ring buffer is
//!   allocated once, on that thread's first recorded event; recording
//!   into it is plain atomic stores.
//! * **Lock-free** — writers never block each other or readers. A
//!   snapshot taken while writers are live simply skips events it
//!   catches mid-overwrite (a per-event sequence word makes torn reads
//!   detectable).
//! * **Observation only** — nothing feeds back into simulation state, so
//!   enabling tracing never changes a study's results.
//!
//! The journal is **fixed-capacity**: each thread keeps its most recent
//! `capacity` events and silently overwrites older ones — a crashed or
//! slow run keeps the tail of its history, which is the part that
//! explains the crash. Threads beyond [`MAX_TRACE_THREADS`] drop their
//! events into [`Journal::dropped_events`] instead of recording.
//!
//! Export a snapshot with [`crate::perfetto`] (Chrome trace-event JSON,
//! loadable in Perfetto / `chrome://tracing`) or [`crate::ndjson`]
//! (append-only `yac-trace/1` event log).
//!
//! # Examples
//!
//! ```
//! use yac_obs::trace::{Journal, TraceCtx, TraceEventKind};
//!
//! let journal = Journal::new();
//! journal.enable();
//! journal.record_instant(TraceEventKind::ShardCompleted, TraceCtx::shard(0, 3, 1));
//! let snap = journal.snapshot();
//! assert_eq!(snap.total_events(), 1);
//! assert_eq!(snap.threads[0].events[0].ctx.shard, Some(3));
//! ```

use crate::registry::Phase;
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Maximum number of distinct threads a journal can track. Threads
/// beyond this drop their events (counted, never blocking).
pub const MAX_TRACE_THREADS: usize = 128;

/// Default per-thread ring capacity, in events (~448 KiB per thread at
/// seven words per event).
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Words per encoded event: sequence, start, duration, packed kind and
/// context.
const WORDS: usize = 7;

/// Sentinel byte for "not a phase span" in the packed kind word.
const NO_PHASE: u8 = u8::MAX;

/// What a [`TraceEvent`] records. Spans carry a nonzero duration;
/// instants have `dur_ns == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// A scoped [`Phase`] timer (sample, circuit eval, classify, rescue,
    /// pipeline sim, report, shard exec) recorded as a span.
    PhaseSpan(Phase),
    /// A supervised-executor worker picked a shard off the queue.
    ShardDispatched,
    /// A shard ran to completion and its result was returned.
    ShardCompleted,
    /// A shard was stopped by its deadline.
    ShardTimedOut,
    /// A shard failed (panic, deadline or stall) and was recorded
    /// degraded.
    ShardDegraded,
    /// One scheme tried to rescue one failing chip.
    RescueAttempt,
    /// A study checkpoint was durably written.
    CheckpointWritten,
    /// A sweep orchestrator started (or resumed) one grid study.
    StudyStarted,
    /// A grid study ran to completion with every chip observed.
    StudyCompleted,
    /// A grid study finished degraded (missing chips) or failed outright.
    StudyDegraded,
    /// A sweep picked up an existing journal and skipped finished work.
    SweepResumed,
    /// The sweep service received a study query.
    QueryReceived,
    /// The sweep service answered a study query with a result.
    QueryServed,
    /// A study query was answered from the content-addressed result cache.
    CacheHit,
    /// A study query missed the result cache and forced a compute.
    CacheMiss,
    /// The serve loop refused a connection over the connection cap.
    ConnRejected,
    /// A connection was evicted for blowing a per-frame read/write
    /// deadline (slowloris defence).
    SlowClientEvicted,
    /// The resilient client retried a request after a transient failure
    /// or a typed `Busy` reply.
    RetryAttempted,
    /// The client's circuit breaker tripped from closed (or half-open)
    /// to open.
    BreakerOpened,
    /// The client's circuit breaker moved from open to half-open to
    /// probe the server.
    BreakerHalfOpen,
    /// The background scrubber finished one verify pass over the result
    /// cache.
    ScrubPass,
    /// A cache entry failed its CRC re-check and was quarantined (it
    /// will be served as a miss until recomputed).
    EntryQuarantined,
    /// A quarantined cache entry was overwritten by a fresh, verified
    /// recompute.
    EntryRepaired,
    /// A busy lane published no heartbeat tick within the stall budget;
    /// the sentinel cancelled its lease, and the shard degrades.
    HeartbeatMissed,
}

impl TraceEventKind {
    /// Every kind, with `PhaseSpan` represented once (by `Sample`).
    /// Useful for exhaustive schema tests.
    pub const ALL: [TraceEventKind; 24] = [
        TraceEventKind::PhaseSpan(Phase::Sample),
        TraceEventKind::ShardDispatched,
        TraceEventKind::ShardCompleted,
        TraceEventKind::ShardTimedOut,
        TraceEventKind::ShardDegraded,
        TraceEventKind::RescueAttempt,
        TraceEventKind::CheckpointWritten,
        TraceEventKind::StudyStarted,
        TraceEventKind::StudyCompleted,
        TraceEventKind::StudyDegraded,
        TraceEventKind::SweepResumed,
        TraceEventKind::QueryReceived,
        TraceEventKind::QueryServed,
        TraceEventKind::CacheHit,
        TraceEventKind::CacheMiss,
        TraceEventKind::ConnRejected,
        TraceEventKind::SlowClientEvicted,
        TraceEventKind::RetryAttempted,
        TraceEventKind::BreakerOpened,
        TraceEventKind::BreakerHalfOpen,
        TraceEventKind::ScrubPass,
        TraceEventKind::EntryQuarantined,
        TraceEventKind::EntryRepaired,
        TraceEventKind::HeartbeatMissed,
    ];

    /// The stable CamelCase name used in the NDJSON schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::PhaseSpan(_) => "PhaseSpan",
            TraceEventKind::ShardDispatched => "ShardDispatched",
            TraceEventKind::ShardCompleted => "ShardCompleted",
            TraceEventKind::ShardTimedOut => "ShardTimedOut",
            TraceEventKind::ShardDegraded => "ShardDegraded",
            TraceEventKind::RescueAttempt => "RescueAttempt",
            TraceEventKind::CheckpointWritten => "CheckpointWritten",
            TraceEventKind::StudyStarted => "StudyStarted",
            TraceEventKind::StudyCompleted => "StudyCompleted",
            TraceEventKind::StudyDegraded => "StudyDegraded",
            TraceEventKind::SweepResumed => "SweepResumed",
            TraceEventKind::QueryReceived => "QueryReceived",
            TraceEventKind::QueryServed => "QueryServed",
            TraceEventKind::CacheHit => "CacheHit",
            TraceEventKind::CacheMiss => "CacheMiss",
            TraceEventKind::ConnRejected => "ConnRejected",
            TraceEventKind::SlowClientEvicted => "SlowClientEvicted",
            TraceEventKind::RetryAttempted => "RetryAttempted",
            TraceEventKind::BreakerOpened => "BreakerOpened",
            TraceEventKind::BreakerHalfOpen => "BreakerHalfOpen",
            TraceEventKind::ScrubPass => "ScrubPass",
            TraceEventKind::EntryQuarantined => "EntryQuarantined",
            TraceEventKind::EntryRepaired => "EntryRepaired",
            TraceEventKind::HeartbeatMissed => "HeartbeatMissed",
        }
    }

    /// Parses [`TraceEventKind::name`] back; `phase` supplies the phase
    /// for `"PhaseSpan"` lines.
    #[must_use]
    pub fn from_name(name: &str, phase: Option<Phase>) -> Option<TraceEventKind> {
        Some(match name {
            "PhaseSpan" => TraceEventKind::PhaseSpan(phase?),
            "ShardDispatched" => TraceEventKind::ShardDispatched,
            "ShardCompleted" => TraceEventKind::ShardCompleted,
            "ShardTimedOut" => TraceEventKind::ShardTimedOut,
            "ShardDegraded" => TraceEventKind::ShardDegraded,
            "RescueAttempt" => TraceEventKind::RescueAttempt,
            "CheckpointWritten" => TraceEventKind::CheckpointWritten,
            "StudyStarted" => TraceEventKind::StudyStarted,
            "StudyCompleted" => TraceEventKind::StudyCompleted,
            "StudyDegraded" => TraceEventKind::StudyDegraded,
            "SweepResumed" => TraceEventKind::SweepResumed,
            "QueryReceived" => TraceEventKind::QueryReceived,
            "QueryServed" => TraceEventKind::QueryServed,
            "CacheHit" => TraceEventKind::CacheHit,
            "CacheMiss" => TraceEventKind::CacheMiss,
            "ConnRejected" => TraceEventKind::ConnRejected,
            "SlowClientEvicted" => TraceEventKind::SlowClientEvicted,
            "RetryAttempted" => TraceEventKind::RetryAttempted,
            "BreakerOpened" => TraceEventKind::BreakerOpened,
            "BreakerHalfOpen" => TraceEventKind::BreakerHalfOpen,
            "ScrubPass" => TraceEventKind::ScrubPass,
            "EntryQuarantined" => TraceEventKind::EntryQuarantined,
            "EntryRepaired" => TraceEventKind::EntryRepaired,
            "HeartbeatMissed" => TraceEventKind::HeartbeatMissed,
            _ => return None,
        })
    }

    fn code(self) -> u8 {
        match self {
            TraceEventKind::PhaseSpan(_) => 1,
            TraceEventKind::ShardDispatched => 2,
            TraceEventKind::ShardCompleted => 3,
            TraceEventKind::ShardTimedOut => 4,
            TraceEventKind::ShardDegraded => 5,
            TraceEventKind::RescueAttempt => 6,
            TraceEventKind::CheckpointWritten => 7,
            TraceEventKind::StudyStarted => 8,
            TraceEventKind::StudyCompleted => 9,
            TraceEventKind::StudyDegraded => 10,
            TraceEventKind::SweepResumed => 11,
            TraceEventKind::QueryReceived => 12,
            TraceEventKind::QueryServed => 13,
            TraceEventKind::CacheHit => 14,
            TraceEventKind::CacheMiss => 15,
            TraceEventKind::ConnRejected => 16,
            TraceEventKind::SlowClientEvicted => 17,
            TraceEventKind::RetryAttempted => 18,
            TraceEventKind::BreakerOpened => 19,
            TraceEventKind::BreakerHalfOpen => 20,
            TraceEventKind::ScrubPass => 21,
            TraceEventKind::EntryQuarantined => 22,
            TraceEventKind::EntryRepaired => 23,
            TraceEventKind::HeartbeatMissed => 24,
        }
    }

    fn phase_byte(self) -> u8 {
        match self {
            TraceEventKind::PhaseSpan(p) => p as usize as u8,
            _ => NO_PHASE,
        }
    }

    fn decode(code: u8, phase: u8) -> Option<TraceEventKind> {
        Some(match code {
            1 => TraceEventKind::PhaseSpan(Phase::from_index(phase as usize)?),
            2 => TraceEventKind::ShardDispatched,
            3 => TraceEventKind::ShardCompleted,
            4 => TraceEventKind::ShardTimedOut,
            5 => TraceEventKind::ShardDegraded,
            6 => TraceEventKind::RescueAttempt,
            7 => TraceEventKind::CheckpointWritten,
            8 => TraceEventKind::StudyStarted,
            9 => TraceEventKind::StudyCompleted,
            10 => TraceEventKind::StudyDegraded,
            11 => TraceEventKind::SweepResumed,
            12 => TraceEventKind::QueryReceived,
            13 => TraceEventKind::QueryServed,
            14 => TraceEventKind::CacheHit,
            15 => TraceEventKind::CacheMiss,
            16 => TraceEventKind::ConnRejected,
            17 => TraceEventKind::SlowClientEvicted,
            18 => TraceEventKind::RetryAttempted,
            19 => TraceEventKind::BreakerOpened,
            20 => TraceEventKind::BreakerHalfOpen,
            21 => TraceEventKind::ScrubPass,
            22 => TraceEventKind::EntryQuarantined,
            23 => TraceEventKind::EntryRepaired,
            24 => TraceEventKind::HeartbeatMissed,
            _ => return None,
        })
    }
}

/// Structured context attached to an event. Absent fields are omitted
/// from exports. (The in-ring encoding reserves the all-ones value of
/// each field as "absent", so a worker index of `u32::MAX`, a chip index
/// of `u64::MAX` etc. cannot be represented — indices that large do not
/// occur in practice.)
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Supervised-executor worker index.
    pub worker: Option<u32>,
    /// Shard index within the study's shard list.
    pub shard: Option<u32>,
    /// Attempt generation of the shard (0 = first attempt).
    pub attempt: Option<u32>,
    /// Chip (Monte Carlo stream) index.
    pub chip: Option<u64>,
    /// Scheme column index (position in the loss table's scheme list).
    pub scheme: Option<u16>,
    /// Study index within a sweep grid.
    pub study: Option<u32>,
}

impl TraceCtx {
    /// Context for a per-chip event.
    #[must_use]
    pub fn chip(index: u64) -> Self {
        TraceCtx {
            chip: Some(index),
            ..TraceCtx::default()
        }
    }

    /// Context for a shard-lifecycle event.
    #[must_use]
    pub fn shard(worker: u32, shard: u32, attempt: u32) -> Self {
        TraceCtx {
            worker: Some(worker),
            shard: Some(shard),
            attempt: Some(attempt),
            ..TraceCtx::default()
        }
    }

    /// Adds a scheme column index.
    #[must_use]
    pub fn with_scheme(mut self, scheme: u16) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Context for a sweep-level study event.
    #[must_use]
    pub fn study(index: u32) -> Self {
        TraceCtx {
            study: Some(index),
            ..TraceCtx::default()
        }
    }
}

/// One recorded span or instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Start time, nanoseconds since the journal epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Structured context fields.
    pub ctx: TraceCtx,
}

impl TraceEvent {
    /// Encodes into the ring's payload words (everything but the
    /// sequence word).
    fn encode(&self) -> [u64; WORDS - 1] {
        let packed_kind = u64::from(self.kind.code())
            | (u64::from(self.kind.phase_byte()) << 8)
            | (u64::from(self.ctx.scheme.unwrap_or(u16::MAX)) << 16)
            | (u64::from(self.ctx.worker.unwrap_or(u32::MAX)) << 32);
        let packed_shard = u64::from(self.ctx.shard.unwrap_or(u32::MAX))
            | (u64::from(self.ctx.attempt.unwrap_or(u32::MAX)) << 32);
        [
            self.t_ns,
            self.dur_ns,
            packed_kind,
            packed_shard,
            self.ctx.chip.unwrap_or(u64::MAX),
            u64::from(self.ctx.study.unwrap_or(u32::MAX)),
        ]
    }

    /// Decodes the payload words; `None` for an unknown kind code (a
    /// torn or corrupt cell).
    fn decode(words: [u64; WORDS - 1]) -> Option<TraceEvent> {
        let [t_ns, dur_ns, packed_kind, packed_shard, chip, study] = words;
        let kind = TraceEventKind::decode(packed_kind as u8, (packed_kind >> 8) as u8)?;
        let unpack_u32 = |v: u32| (v != u32::MAX).then_some(v);
        Some(TraceEvent {
            t_ns,
            dur_ns,
            kind,
            ctx: TraceCtx {
                worker: unpack_u32((packed_kind >> 32) as u32),
                shard: unpack_u32(packed_shard as u32),
                attempt: unpack_u32((packed_shard >> 32) as u32),
                chip: (chip != u64::MAX).then_some(chip),
                scheme: {
                    let s = (packed_kind >> 16) as u16;
                    (s != u16::MAX).then_some(s)
                },
                study: unpack_u32(study as u32),
            },
        })
    }
}

/// One thread's ring. The owning thread writes with `head.fetch_add`
/// plus a per-event sequence word (a miniature seqlock), so a snapshot
/// taken concurrently can detect and skip cells mid-overwrite without
/// any lock.
#[derive(Debug)]
struct ThreadSlot {
    /// Hashed `ThreadId` of the owner; 0 = unclaimed. (Two threads whose
    /// id hashes collide share a slot — writes stay safe because `head`
    /// is fetch-add allocated; their tracks merely merge.)
    owner: AtomicU64,
    /// Events ever started on this slot (not clamped to capacity).
    head: AtomicU64,
    /// `capacity * WORDS` atomics, allocated on the owner's first event.
    words: OnceLock<Box<[AtomicU64]>>,
    /// Display label for exports ("worker-3", a benchmark name, ...).
    label: OnceLock<String>,
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            owner: AtomicU64::new(0),
            head: AtomicU64::new(0),
            words: OnceLock::new(),
            label: OnceLock::new(),
        }
    }
}

/// All events one thread contributed to a [`TraceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The thread's slot index (stable for the journal's lifetime; used
    /// as the `tid` in Perfetto exports).
    pub slot: usize,
    /// Display label (defaults to `thread-<slot>`).
    pub label: String,
    /// Events in recording order (oldest surviving first).
    pub events: Vec<TraceEvent>,
    /// Events this thread overwrote (ring wrap) or that were skipped as
    /// torn during a concurrent snapshot.
    pub lost: u64,
}

/// A point-in-time copy of every thread's surviving events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Per-thread traces, ascending by slot; threads that never recorded
    /// are absent.
    pub threads: Vec<ThreadTrace>,
    /// Events dropped because more than [`MAX_TRACE_THREADS`] threads
    /// recorded.
    pub dropped_events: u64,
}

impl TraceSnapshot {
    /// Total events across all threads.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Events lost inside recorded threads' rings: the sum of every
    /// [`ThreadTrace::lost`].
    #[must_use]
    pub fn lost_events(&self) -> u64 {
        self.threads.iter().map(|t| t.lost).sum()
    }

    /// Whether no thread recorded anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }
}

/// The journal: [`MAX_TRACE_THREADS`] independent per-thread rings
/// behind one enable flag and one epoch.
#[derive(Debug)]
pub struct Journal {
    enabled: AtomicBool,
    epoch: OnceLock<Instant>,
    /// Per-thread ring capacity in events, read when a thread allocates
    /// its ring (so it must be set before recording starts).
    capacity: AtomicUsize,
    slots: Box<[ThreadSlot]>,
    dropped: AtomicU64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

thread_local! {
    /// Cache of `(journal address, slot index)` for the calling thread,
    /// so the common case skips the claim probe entirely.
    static SLOT_CACHE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

impl Journal {
    /// A fresh, disabled journal with the default per-thread capacity.
    #[must_use]
    pub fn new() -> Self {
        Journal {
            enabled: AtomicBool::new(false),
            epoch: OnceLock::new(),
            capacity: AtomicUsize::new(DEFAULT_TRACE_CAPACITY),
            slots: (0..MAX_TRACE_THREADS).map(|_| ThreadSlot::new()).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Starts recording (and pins the epoch on first call).
    pub fn enable(&self) {
        self.epoch.get_or_init(Instant::now);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (already-recorded events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording hooks currently record.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the per-thread ring capacity (events, clamped to ≥ 16).
    /// Affects only threads that have not recorded yet — a thread's ring
    /// is sized once, at its first event.
    pub fn set_capacity(&self, events: usize) {
        self.capacity.store(events.max(16), Ordering::Relaxed);
    }

    /// Nanoseconds since the journal epoch (pinned on first use).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        let epoch = self.epoch.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Events dropped because more than [`MAX_TRACE_THREADS`] threads
    /// tried to record.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records an instant event stamped "now". No-op while disabled.
    #[inline]
    pub fn record_instant(&self, kind: TraceEventKind, ctx: TraceCtx) {
        if !self.is_enabled() {
            return;
        }
        self.write(TraceEvent {
            t_ns: self.now_ns(),
            dur_ns: 0,
            kind,
            ctx,
        });
    }

    /// Records a span that started at `start_ns` (from
    /// [`Journal::now_ns`]) and ends now. No-op while disabled.
    #[inline]
    pub fn record_span(&self, kind: TraceEventKind, ctx: TraceCtx, start_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        self.write(TraceEvent {
            t_ns: start_ns,
            dur_ns: self.now_ns().saturating_sub(start_ns),
            kind,
            ctx,
        });
    }

    /// Records a fully-specified event. No-op while disabled.
    pub fn record_at(&self, kind: TraceEventKind, ctx: TraceCtx, t_ns: u64, dur_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        self.write(TraceEvent {
            t_ns,
            dur_ns,
            kind,
            ctx,
        });
    }

    /// Sets the calling thread's display label for exports (first call
    /// wins). Claims the thread's slot even while disabled, so workers
    /// can label themselves before tracing is switched on.
    pub fn label_thread(&self, label: &str) {
        if let Some(slot) = self.thread_slot() {
            let _ = self.slots[slot].label.set(label.to_owned());
        }
    }

    /// The calling thread's slot, claiming one on first use.
    fn thread_slot(&self) -> Option<usize> {
        let key = std::ptr::from_ref(self) as usize;
        let (cached_key, cached_slot) = SLOT_CACHE.with(Cell::get);
        if cached_key == key {
            return Some(cached_slot);
        }
        let slot = self.claim_slot()?;
        SLOT_CACHE.with(|c| c.set((key, slot)));
        Some(slot)
    }

    /// Linear-probes the slot table for this thread's slot, claiming a
    /// free one if the thread is new. `None` when the table is full.
    fn claim_slot(&self) -> Option<usize> {
        let mut hasher = std::hash::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let me = hasher.finish() | 1;
        let start = (me as usize) % self.slots.len();
        for k in 0..self.slots.len() {
            let idx = (start + k) % self.slots.len();
            let owner = &self.slots[idx].owner;
            match owner.compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(idx),
                Err(current) if current == me => return Some(idx),
                Err(_) => {}
            }
        }
        None
    }

    /// Writes one event into the calling thread's ring (the seqlock
    /// write protocol; see the reader in [`Journal::read_slot`]).
    fn write(&self, event: TraceEvent) {
        let Some(slot_idx) = self.thread_slot() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let slot = &self.slots[slot_idx];
        let words = slot.words.get_or_init(|| {
            let cap = self.capacity.load(Ordering::Relaxed).max(16);
            (0..cap * WORDS).map(|_| AtomicU64::new(0)).collect()
        });
        let cap = words.len() / WORDS;
        let n = slot.head.fetch_add(1, Ordering::Relaxed);
        let base = (n as usize % cap) * WORDS;
        // Seqlock write: invalidate the cell, publish the payload, then
        // publish the sequence. The release fence keeps the invalidation
        // visible before any payload word; the release store keeps every
        // payload word visible before the new sequence.
        words[base].store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        for (i, w) in event.encode().into_iter().enumerate() {
            words[base + 1 + i].store(w, Ordering::Relaxed);
        }
        words[base].store(n + 1, Ordering::Release);
    }

    /// Reads the surviving events of one slot; `lost` counts ring
    /// overwrites plus torn cells skipped during a concurrent snapshot.
    fn read_slot(&self, slot: &ThreadSlot) -> (Vec<TraceEvent>, u64) {
        let Some(words) = slot.words.get() else {
            return (Vec::new(), 0);
        };
        let cap = (words.len() / WORDS) as u64;
        let head = slot.head.load(Ordering::Acquire);
        let start = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - start) as usize);
        let mut lost = start;
        for n in start..head {
            let base = (n % cap) as usize * WORDS;
            // Seqlock read: sequence before, payload, fence, sequence
            // after — both must equal this event's unique `n + 1`.
            let s1 = words[base].load(Ordering::Acquire);
            if s1 != n + 1 {
                lost += 1;
                continue;
            }
            let payload = std::array::from_fn(|i| words[base + 1 + i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            let s2 = words[base].load(Ordering::Relaxed);
            match TraceEvent::decode(payload) {
                Some(event) if s2 == s1 => events.push(event),
                _ => lost += 1,
            }
        }
        (events, lost)
    }

    /// A point-in-time copy of every thread's events. Safe to call while
    /// writers are live: cells caught mid-overwrite are skipped (counted
    /// in [`ThreadTrace::lost`]), never torn.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let threads = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.owner.load(Ordering::Acquire) != 0)
            .filter_map(|(idx, slot)| {
                let (events, lost) = self.read_slot(slot);
                if events.is_empty() && lost == 0 {
                    return None;
                }
                Some(ThreadTrace {
                    slot: idx,
                    label: slot
                        .label
                        .get()
                        .cloned()
                        .unwrap_or_else(|| format!("thread-{idx}")),
                    events,
                    lost,
                })
            })
            .collect();
        TraceSnapshot {
            threads,
            dropped_events: self.dropped_events(),
        }
    }

    /// Discards every recorded event and the dropped-event count (the
    /// enabled flag and thread labels are kept). Call only while no
    /// writer is mid-record — a racing writer's event may be thrown away
    /// in part.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            if let Some(words) = slot.words.get() {
                for cell in (0..words.len()).step_by(WORDS) {
                    words[cell].store(0, Ordering::Relaxed);
                }
            }
            slot.head.store(0, Ordering::Relaxed);
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t: u64, kind: TraceEventKind, ctx: TraceCtx) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            dur_ns: 7,
            kind,
            ctx,
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_ring_encoding() {
        let ctx = TraceCtx {
            worker: Some(3),
            shard: Some(17),
            attempt: Some(2),
            chip: Some(123_456),
            scheme: Some(1),
            study: Some(5),
        };
        for kind in TraceEventKind::ALL {
            let e = event(42, kind, ctx);
            assert_eq!(TraceEvent::decode(e.encode()), Some(e), "{}", kind.name());
        }
        for phase in Phase::ALL {
            let e = event(9, TraceEventKind::PhaseSpan(phase), TraceCtx::default());
            assert_eq!(TraceEvent::decode(e.encode()), Some(e));
        }
    }

    #[test]
    fn absent_ctx_fields_survive_encoding() {
        let e = event(1, TraceEventKind::ShardCompleted, TraceCtx::default());
        let decoded = TraceEvent::decode(e.encode()).unwrap();
        assert_eq!(decoded.ctx, TraceCtx::default());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TraceEventKind::ALL {
            let phase = match kind {
                TraceEventKind::PhaseSpan(p) => Some(p),
                _ => None,
            };
            assert_eq!(TraceEventKind::from_name(kind.name(), phase), Some(kind));
        }
        assert_eq!(TraceEventKind::from_name("Nonsense", None), None);
        assert_eq!(TraceEventKind::from_name("PhaseSpan", None), None);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::new();
        j.record_instant(TraceEventKind::ShardCompleted, TraceCtx::default());
        j.record_span(
            TraceEventKind::PhaseSpan(Phase::Sample),
            TraceCtx::default(),
            0,
        );
        assert!(j.snapshot().is_empty());
        assert_eq!(j.dropped_events(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_events() {
        let j = Journal::new();
        j.set_capacity(16);
        j.enable();
        for i in 0..100u64 {
            j.record_at(TraceEventKind::ShardCompleted, TraceCtx::chip(i), i, 0);
        }
        let snap = j.snapshot();
        assert_eq!(snap.threads.len(), 1);
        let t = &snap.threads[0];
        assert_eq!(t.events.len(), 16, "ring holds exactly its capacity");
        assert_eq!(t.lost, 84, "the 84 oldest events were overwritten");
        let chips: Vec<u64> = t.events.iter().map(|e| e.ctx.chip.unwrap()).collect();
        assert_eq!(chips, (84..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_discards_events_and_reuses_the_ring() {
        let j = Journal::new();
        j.set_capacity(16);
        j.enable();
        for i in 0..10u64 {
            j.record_at(TraceEventKind::ShardTimedOut, TraceCtx::chip(i), i, 0);
        }
        j.clear();
        assert!(j.snapshot().is_empty());
        j.record_at(TraceEventKind::ShardTimedOut, TraceCtx::chip(7), 1, 0);
        let snap = j.snapshot();
        assert_eq!(snap.total_events(), 1);
        assert_eq!(snap.threads[0].events[0].ctx.chip, Some(7));
    }

    #[test]
    fn threads_get_distinct_slots_and_labels() {
        let j = Journal::new();
        j.enable();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let j = &j;
                s.spawn(move || {
                    j.label_thread(&format!("writer-{i}"));
                    for k in 0..5 {
                        j.record_at(TraceEventKind::ShardCompleted, TraceCtx::chip(i), k, 0);
                    }
                });
            }
        });
        let snap = j.snapshot();
        assert_eq!(snap.threads.len(), 4, "one track per thread");
        let mut labels: Vec<&str> = snap.threads.iter().map(|t| t.label.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(labels, ["writer-0", "writer-1", "writer-2", "writer-3"]);
        for t in &snap.threads {
            assert_eq!(t.events.len(), 5);
            // All of one thread's events carry the same chip tag: no
            // cross-thread bleed.
            let first = t.events[0].ctx.chip;
            assert!(t.events.iter().all(|e| e.ctx.chip == first));
        }
    }

    #[test]
    fn concurrent_snapshot_never_yields_torn_events() {
        let j = Journal::new();
        j.set_capacity(32);
        j.enable();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (j, stop) = (&j, &stop);
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Every event of writer w carries t_ns == chip
                        // so a torn mix of two events is detectable.
                        j.record_at(
                            TraceEventKind::ShardCompleted,
                            TraceCtx::chip(w << 32 | i),
                            w << 32 | i,
                            0,
                        );
                        i += 1;
                    }
                });
            }
            for _ in 0..50 {
                for t in j.snapshot().threads {
                    for e in t.events {
                        assert_eq!(Some(e.t_ns), e.ctx.chip, "torn event surfaced");
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

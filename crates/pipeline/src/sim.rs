//! The cycle-level out-of-order core.
//!
//! The machine models exactly what the paper's evaluation depends on:
//!
//! * a `width`-wide front end with a bimodal predictor; fetch stalls on
//!   I-cache misses and on mispredicted branches until they resolve;
//! * rename onto ROB tags, dispatch into a bounded issue queue and LSQ;
//! * an oldest-first scheduler that wakes load dependants *speculatively*,
//!   assuming the shortest (4-cycle) hit latency, with `sched_to_exec`
//!   (7) pipeline stages between the scheduling decision and execution;
//! * **load-bypass buffers** at the functional-unit inputs that absorb up
//!   to `bypass_depth` cycles of lateness from a slow (VACA) way;
//! * **selective replay**: an op whose operand is later than the buffers
//!   can absorb (an L1 miss) returns to the issue queue and re-issues when
//!   the value arrives, as do its own speculatively scheduled dependants;
//! * per-class functional-unit pools and cache-port arbitration.
//!
//! Simplifications relative to silicon (documented in DESIGN.md): stores
//! do not forward to loads (the synthetic traces carry no load/store
//! aliasing), wrong-path instructions are modeled as a fetch stall rather
//! than fetched and squashed, and FP divides are treated as pipelined.
//!
//! # Event-driven execution
//!
//! The machine is specified cycle by cycle ([`Pipeline::run`] behaves as
//! if every cycle ran every phase), but the simulator only does work
//! where work exists:
//!
//! * **Wakeup lists.** Each op registers on its producers at dispatch.
//!   Whenever a producer changes state (scheduled, slipped by a bypass
//!   buffer, replayed, executing, announced, done) its waiting consumers
//!   recompute the earliest cycle they may be scheduled, under the same
//!   speculative and post-replay readiness rules. The scheduler then
//!   picks oldest-first among the ops whose cycle has come and visits no
//!   other entry.
//! * **Idle-cycle skipping.** A cycle in which nothing can commit,
//!   complete, arrive at a functional unit, be scheduled, dispatch or
//!   fetch is one step that provably does nothing; its only effects are
//!   the cycle count and the dispatch/fetch stall counters, which are
//!   charged in bulk for the whole gap up to the next event.
//!
//! Both are exact: every [`SimStats`] field equals the plain per-cycle
//! scan's (the `sim_golden` test holds the digest of a large matrix).

use crate::config::PipelineConfig;
use crate::error::ConfigError;
use crate::predictor::BranchPredictor;
use crate::stats::SimStats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use yac_cache::{AccessKind, MemoryHierarchy};
use yac_workload::{MicroOp, OpClass};

/// Horizon of the FU-arrival ring (must exceed sched_to_exec + bypass).
const ARRIVAL_HORIZON: usize = 64;
/// Horizon of the completion ring. Completions further out than this
/// wait in an overflow queue instead.
const COMPLETION_HORIZON: usize = 1024;
const _: () = assert!(ARRIVAL_HORIZON.is_power_of_two() && COMPLETION_HORIZON.is_power_of_two());
/// Most ROB slots a pipeline may have: slot indices are `u16`, with
/// [`NIL`] kept free as the end-of-list mark.
const MAX_SLOTS: usize = 1 << 15;
/// End of a slot-linked list.
const NIL: u16 = u16::MAX;
/// Give up on an entry after this many bypass requeues (safety valve).
const MAX_REQUEUES: u8 = 8;
/// Cycles without a commit after which the simulator reports a deadlock.
const DEADLOCK_LIMIT: u64 = 500_000;
/// `wake_at` of an op whose operands have no predicted arrival yet.
const NEVER: u64 = u64::MAX;
/// Source of an operand with no in-flight producer: absent, ready at
/// dispatch, or (like any retired seq) already in the register file.
const NO_PRODUCER: u64 = u64::MAX;

/// Functional-unit pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuClass {
    IntAlu,
    IntMul,
    FpAdd,
    FpMul,
    Mem,
}

impl FuClass {
    const COUNT: usize = 5;

    fn of(class: OpClass) -> FuClass {
        match class {
            OpClass::IntAlu | OpClass::Branch => FuClass::IntAlu,
            OpClass::IntMul => FuClass::IntMul,
            OpClass::FpAdd => FuClass::FpAdd,
            OpClass::FpMul | OpClass::FpDiv => FuClass::FpMul,
            OpClass::Load | OpClass::Store => FuClass::Mem,
        }
    }
}

/// Execution progress of one ROB entry; [`Entry::at`] holds its cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In the issue queue, not yet selected.
    Waiting,
    /// Selected; will arrive at its functional unit at `at`.
    Scheduled,
    /// Executing; result available at `at`.
    Executing,
    /// Complete since `at`.
    Done,
}

/// One ROB entry: 64 bytes, so the scheduler's walks touch one cache
/// line per op.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Producer seqs of the two operands, or [`NO_PRODUCER`].
    srcs: [u64; 2],
    /// Effective address (memory ops only).
    addr: u64,
    /// The cycle of the current [`Phase`].
    at: u64,
    /// For executing loads: the cycle the scheduler *expected* the value
    /// (exec start + assumed hit latency), or 0 for none. A slow way or a
    /// miss is only discovered — "announced" to the scheduler — at this
    /// cycle; until then dependants are woken as if the load hits in the
    /// assumed time.
    announce_at: u64,
    /// While `Waiting`: the first cycle the scheduler may pick the op,
    /// given its producers' current states ([`NEVER`] while a producer
    /// has no predicted result time).
    wake_at: u64,
    /// Slot of the newest op reading this op's result, or [`NIL`]; the
    /// list continues through each consumer's `next_consumer`.
    consumers: u16,
    /// Per source: the next op on that producer's consumer list. An op
    /// reading one producer twice is listed once, through source 0.
    next_consumer: [u16; 2],
    class: OpClass,
    phase: Phase,
    requeues: u8,
    /// Counted one bypass stall already.
    bypass_counted: bool,
    /// This mispredicted branch unblocks fetch when it completes.
    resolves_fetch: bool,
    /// The op has been replayed: it re-issues only once its operands are
    /// *actually* available (no further speculative wakeup), which is what
    /// keeps one replay from seeding a self-sustaining replay wave.
    replayed: bool,
}

impl Entry {
    const EMPTY: Entry = Entry {
        srcs: [NO_PRODUCER; 2],
        addr: 0,
        at: 0,
        announce_at: 0,
        wake_at: NEVER,
        consumers: NIL,
        next_consumer: [NIL; 2],
        class: OpClass::IntAlu,
        phase: Phase::Waiting,
        requeues: 0,
        bypass_counted: false,
        resolves_fetch: false,
        replayed: false,
    };

    /// Which of this op's `next_consumer` links continues `producer`'s list.
    fn link_for(&self, producer: u64) -> usize {
        usize::from(self.srcs[0] != producer)
    }
}

/// A set of ring slots as a bitset, iterated in ring order.
#[derive(Debug)]
struct SlotSet {
    words: Box<[u64]>,
}

impl SlotSet {
    /// A set over `slots` slots, a power of two, so the words form a
    /// ring of their own.
    fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "ring of {slots} slots");
        SlotSet {
            words: vec![0; slots.div_ceil(64)].into_boxed_slice(),
        }
    }

    fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Members in ring order starting at slot `start`: `start..` first,
    /// then the slots below `start`.
    fn ring_order(&self, start: usize) -> RingOrder<'_> {
        let word = start / 64;
        let bit = start % 64;
        RingOrder {
            words: &self.words,
            word,
            bits: self.words[word] & (u64::MAX << bit),
            left: self.words.len(),
            wrapped_bits: (1 << bit) - 1,
        }
    }
}

/// Iterator of [`SlotSet::ring_order`]: one bitset word at a time.
struct RingOrder<'a> {
    words: &'a [u64],
    word: usize,
    /// Members of `word` not yet yielded.
    bits: u64,
    /// Words still to load; the last is the start word again.
    left: usize,
    /// The start word's bits below the start slot.
    wrapped_bits: u64,
}

impl Iterator for RingOrder<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            self.word = (self.word + 1) & (self.words.len() - 1);
            self.bits = self.words[self.word];
            if self.left == 0 {
                self.bits &= self.wrapped_bits;
            }
        }
        let member = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(member)
    }
}

/// ROB slots bucketed by the cycle of their next event, over a ring of
/// `horizon` cycles, with the busy buckets marked so the next event is
/// found without visiting the empty ones. Each bucket is a list linked
/// through `next`, so an op may sit in at most one bucket of a ring.
#[derive(Debug)]
struct CycleRing {
    heads: Box<[u16]>,
    next: Box<[u16]>,
    busy: SlotSet,
    mask: u64,
}

impl CycleRing {
    fn new(horizon: usize, slots: usize) -> Self {
        CycleRing {
            heads: vec![NIL; horizon].into_boxed_slice(),
            next: vec![NIL; slots].into_boxed_slice(),
            busy: SlotSet::new(horizon),
            mask: horizon as u64 - 1,
        }
    }

    fn bucket(&self, cycle: u64) -> usize {
        (cycle & self.mask) as usize
    }

    /// Books `slot` for `cycle`, which is delivered by the first
    /// [`CycleRing::drain_into`] of a cycle congruent to it.
    fn push(&mut self, cycle: u64, slot: u16) {
        let b = self.bucket(cycle);
        self.next[usize::from(slot)] = self.heads[b];
        self.heads[b] = slot;
        self.busy.insert(b);
    }

    /// Empties `now`'s bucket into `out`.
    fn drain_into(&mut self, now: u64, out: &mut Vec<u16>) {
        let b = self.bucket(now);
        let mut slot = std::mem::replace(&mut self.heads[b], NIL);
        if slot == NIL {
            return;
        }
        self.busy.remove(b);
        while slot != NIL {
            out.push(slot);
            slot = self.next[usize::from(slot)];
        }
    }

    /// The first cycle at or after `now` with a booked event.
    fn next_busy(&self, now: u64) -> u64 {
        let start = self.bucket(now);
        self.busy.ring_order(start).next().map_or(NEVER, |b| {
            now + ((b as u64).wrapping_sub(start as u64) & self.mask)
        })
    }
}

/// A min-queue of `(cycle, seq)` events.
type EventQueue = BinaryHeap<Reverse<(u64, u64)>>;

/// Pops an event due by `now`, if any.
fn pop_due(queue: &mut EventQueue, now: u64) -> Option<u64> {
    let &Reverse((at, seq)) = queue.peek()?;
    (at <= now).then(|| {
        queue.pop();
        seq
    })
}

fn next_event(queue: &EventQueue) -> u64 {
    queue.peek().map_or(NEVER, |&Reverse((at, _))| at)
}

/// The simulated out-of-order core.
///
/// # Examples
///
/// ```
/// use yac_cache::{HierarchyConfig, MemoryHierarchy};
/// use yac_pipeline::{Pipeline, PipelineConfig};
/// use yac_workload::{spec2000, TraceGenerator};
///
/// let mem = MemoryHierarchy::new(HierarchyConfig::paper()).unwrap();
/// let mut cpu = Pipeline::new(PipelineConfig::paper(), mem).unwrap();
/// let trace = TraceGenerator::new(spec2000::profile("gzip").unwrap(), 1);
/// let stats = cpu.run(trace, 2_000, 10_000);
/// assert!(stats.committed >= 10_000); // may overshoot by width-1
/// assert!(stats.cpi() > 0.25, "cannot beat the 4-wide limit");
/// ```
#[derive(Debug)]
pub struct Pipeline {
    cfg: PipelineConfig,
    mem: MemoryHierarchy,
    predictor: BranchPredictor,
    now: u64,
    /// The ROB: a ring of `rob_size.next_power_of_two()` slots, op `seq`
    /// in slot `seq & slot_mask`, holding the seqs `base_seq..next_seq`.
    rob: Box<[Entry]>,
    slot_mask: u64,
    base_seq: u64,
    next_seq: u64,
    iq_count: usize,
    lsq_count: usize,
    /// Per architectural register, the seq of its last writer.
    rat: [u64; 256],
    fetch_q: VecDeque<(MicroOp, bool)>,
    /// Fetch is stalled until the flagged branch completes.
    fetch_blocked: bool,
    fetch_resume_at: u64,
    last_fetch_block: u64,
    trace_done: bool,
    /// Functional-unit arrivals by `exec_at`.
    arrivals: CycleRing,
    /// Result completions by `done_at`, up to a horizon ahead.
    completions: CycleRing,
    /// Completions further out than the completion ring's horizon.
    far_completions: EventQueue,
    /// Executing loads whose result is later than the scheduler assumed,
    /// by `(announce_at, seq)`: the cycle their dependants' predicted
    /// operand time moves from the assumed to the actual one.
    announces: EventQueue,
    /// Waiting ops by `(wake_at, seq)` whose wake cycle lies in the
    /// future. Lazily pruned: an event whose op is no longer waiting, or
    /// whose `wake_at` has since changed, is dropped when it surfaces.
    wakeups: EventQueue,
    /// Waiting ops the scheduler may pick this cycle, by ROB slot.
    ready: SlotSet,
    /// Scratch list of the ROB slots one phase handles (arrivals,
    /// completions or picks).
    batch: Vec<u16>,
    fu_limits: [u16; FuClass::COUNT],
    stats: SimStats,
    total_committed: u64,
    last_commit_cycle: u64,
    /// Completion times of in-flight L1D misses (MSHR occupancy);
    /// recorded only when MSHRs are limited, so it stays empty at the
    /// paper default `mshrs = 0`.
    outstanding_misses: Vec<u64>,
}

impl Pipeline {
    /// Builds a core over a memory hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] if the configuration is inconsistent,
    /// too deep for the simulator's wakeup horizon, or its ROB too large
    /// for the simulator's slot indices.
    pub fn new(cfg: PipelineConfig, mem: MemoryHierarchy) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if (cfg.sched_to_exec + cfg.bypass_depth + 2) as usize >= ARRIVAL_HORIZON {
            return Err(ConfigError::DepthExceedsHorizon);
        }
        let slots = cfg.rob_size.next_power_of_two();
        if slots > MAX_SLOTS {
            return Err(ConfigError::RobExceedsSlots);
        }
        let fu_limits = [
            cfg.int_alu as u16,
            cfg.int_mul as u16,
            cfg.fp_add as u16,
            cfg.fp_mul as u16,
            cfg.mem_ports as u16,
        ];
        let predictor = BranchPredictor::new(cfg.predictor_bits);
        Ok(Pipeline {
            predictor,
            mem,
            now: 0,
            rob: vec![Entry::EMPTY; slots].into_boxed_slice(),
            slot_mask: slots as u64 - 1,
            base_seq: 0,
            next_seq: 0,
            iq_count: 0,
            lsq_count: 0,
            rat: [NO_PRODUCER; 256],
            fetch_q: VecDeque::with_capacity(cfg.fetch_queue),
            fetch_blocked: false,
            fetch_resume_at: 0,
            last_fetch_block: u64::MAX,
            trace_done: false,
            arrivals: CycleRing::new(ARRIVAL_HORIZON, slots),
            completions: CycleRing::new(COMPLETION_HORIZON, slots),
            far_completions: EventQueue::new(),
            announces: EventQueue::new(),
            wakeups: EventQueue::new(),
            ready: SlotSet::new(slots),
            batch: Vec::new(),
            fu_limits,
            stats: SimStats::default(),
            total_committed: 0,
            last_commit_cycle: 0,
            outstanding_misses: Vec::new(),
            cfg,
        })
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The memory hierarchy (e.g. for miss-rate inspection after a run).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Runs the machine: commits `warmup` micro-ops to warm the caches and
    /// predictor (statistics are then reset), then measures until another
    /// `measure` micro-ops commit or the trace ends.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops committing for an extended period — a
    /// simulator bug, not a workload property.
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = MicroOp>,
        warmup: u64,
        measure: u64,
    ) -> SimStats {
        self.run_loop(&mut trace.into_iter(), warmup, measure)
    }

    /// The simulation loop behind [`Pipeline::run`]. It reads its trace
    /// through `dyn Iterator` and is never inlined, so it is compiled once,
    /// here, whatever the caller's trace type: its code cannot follow
    /// edits to, or the build path of, the crate that calls `run`.
    #[inline(never)]
    fn run_loop(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        warmup: u64,
        measure: u64,
    ) -> SimStats {
        let target_warm = self.total_committed + warmup;
        let mut target_end = target_warm + measure;
        let mut warmed = warmup == 0;
        if warmup == 0 {
            self.reset_stats_internal();
        }
        loop {
            self.skip_idle_cycles();
            self.step(trace);
            if !warmed && self.total_committed >= target_warm {
                self.reset_stats_internal();
                // Warm-up may overshoot by up to width-1 commits; measure a
                // full window from the actual reset point.
                target_end = self.total_committed + measure;
                warmed = true;
            }
            if warmed && self.total_committed >= target_end {
                break;
            }
            if self.trace_done && self.rob_len() == 0 && self.fetch_q.is_empty() {
                break;
            }
            assert!(
                self.now - self.last_commit_cycle < DEADLOCK_LIMIT,
                "pipeline deadlock at cycle {}: rob={} iq={} head={:?}",
                self.now,
                self.rob_len(),
                self.iq_count,
                self.entry(self.base_seq)
                    .map(|e| (self.base_seq, e.phase, e.at, e.class)),
            );
        }
        yac_obs::add(yac_obs::Metric::UopsCommitted, self.stats.committed);
        yac_obs::add(yac_obs::Metric::SimCycles, self.stats.cycles);
        self.mem.flush_obs();
        self.stats
    }

    /// Statistics of the current measurement window.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    fn reset_stats_internal(&mut self) {
        self.stats = SimStats::default();
        self.mem.reset_stats();
        self.last_commit_cycle = self.now;
    }

    fn step(&mut self, trace: &mut dyn Iterator<Item = MicroOp>) {
        self.commit();
        self.complete();
        self.fu_arrive();
        self.schedule();
        self.dispatch();
        self.fetch(trace);
        self.now += 1;
        self.stats.cycles += 1;
    }

    /// Jumps over the cycles in which `step` would provably do nothing:
    /// the head cannot commit, nothing completes, arrives or can be
    /// scheduled, dispatch is blocked or starved, and fetch is blocked,
    /// stalled, full or finished. None of that changes until the next
    /// event, so each skipped cycle is exactly one idle `step`, charged in
    /// bulk. The jump stops one cycle short of the deadlock limit so the
    /// deadlock check still fires at the same cycle.
    fn skip_idle_cycles(&mut self) {
        let now = self.now;
        if self
            .entry(self.base_seq)
            .is_some_and(|e| e.phase == Phase::Done)
        {
            return;
        }
        let dispatch_stalled = match self.fetch_q.front() {
            Some((op, _)) if !self.dispatch_blocked(op) => return,
            front => front.is_some(),
        };
        let fetch_stalled = !self.trace_done && (self.fetch_blocked || now < self.fetch_resume_at);
        if !self.trace_done && !fetch_stalled && self.fetch_q.len() < self.cfg.fetch_queue {
            return;
        }
        self.promote_wakeups();
        if !self.ready.is_empty() {
            return;
        }
        let mut next = (self.last_commit_cycle + DEADLOCK_LIMIT - 1)
            .min(self.completions.next_busy(now))
            .min(next_event(&self.far_completions))
            .min(self.arrivals.next_busy(now))
            .min(next_event(&self.announces))
            .min(next_event(&self.wakeups));
        if !self.trace_done && !self.fetch_blocked && now < self.fetch_resume_at {
            next = next.min(self.fetch_resume_at);
        }
        if next <= now {
            return;
        }
        let gap = next - now;
        self.now = next;
        self.stats.cycles += gap;
        if dispatch_stalled {
            self.stats.dispatch_stalls += gap;
        }
        if fetch_stalled {
            self.stats.fetch_stall_cycles += gap;
        }
    }

    // ---- helpers -------------------------------------------------------

    fn rob_len(&self) -> u64 {
        self.next_seq - self.base_seq
    }

    /// Whether `seq` is in the ROB (not yet retired, and not a sentinel).
    fn in_rob(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.base_seq) < self.rob_len()
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    /// The seq of the op in ROB slot `slot`.
    fn seq_at(&self, slot: u16) -> u64 {
        self.base_seq + (u64::from(slot).wrapping_sub(self.base_seq) & self.slot_mask)
    }

    fn entry(&self, seq: u64) -> Option<&Entry> {
        self.in_rob(seq).then(|| &self.rob[self.slot(seq)])
    }

    /// Latency the scheduler assumes for a producer's result.
    fn assumed_latency(&self, class: OpClass) -> u64 {
        u64::from(match class {
            OpClass::Load => self.cfg.assumed_load_latency,
            c => c.exec_latency(),
        })
    }

    /// Predicted cycle at which the value of `src` becomes available, or
    /// `None` if its producer has not even been scheduled.
    fn pred_ready(&self, src: u64) -> Option<u64> {
        // No producer in flight: the value is in the register file.
        let Some(e) = self.entry(src) else {
            return Some(0);
        };
        match e.phase {
            Phase::Waiting => None,
            Phase::Scheduled => Some(e.at + self.assumed_latency(e.class)),
            // Until the expected-completion cycle passes, the scheduler
            // still believes the assumed latency.
            Phase::Executing if self.now < e.announce_at => Some(e.announce_at),
            Phase::Executing | Phase::Done => Some(e.at),
        }
    }

    /// Readiness without speculation: the value's arrival time once the
    /// producer is executing or done, `None` while it is merely queued or
    /// scheduled. Used to re-issue replayed ops safely.
    fn firm_ready(&self, src: u64) -> Option<u64> {
        let Some(e) = self.entry(src) else {
            return Some(0);
        };
        match e.phase {
            Phase::Executing | Phase::Done => Some(e.at),
            Phase::Waiting | Phase::Scheduled => None,
        }
    }

    /// Actual readiness of `src` at FU arrival: the value's arrival time
    /// once the producer is executing or done, `None` if the consumer must
    /// be replayed (producer not in flight).
    fn actual_ready(&self, src: u64) -> Option<u64> {
        let Some(e) = self.entry(src) else {
            return Some(0);
        };
        match e.phase {
            Phase::Executing | Phase::Done => Some(e.at),
            // Scheduled: the value may still arrive in time; report its
            // predicted time so the caller can requeue-and-see.
            Phase::Scheduled => Some(e.at + self.assumed_latency(e.class)),
            Phase::Waiting => None,
        }
    }

    /// First cycle a waiting op may be scheduled: every operand's
    /// predicted (or, after a replay, firm) arrival must fall within the
    /// `sched_to_exec` pipe. Valid until one of its producers changes
    /// state or announces.
    fn wake_cycle(&self, e: &Entry) -> u64 {
        let mut latest = 0;
        for &src in &e.srcs {
            let ready = if e.replayed {
                // Post-replay re-issue is non-speculative: wait for the
                // producer's value to be definitely on its way.
                self.firm_ready(src)
            } else {
                self.pred_ready(src)
            };
            match ready {
                Some(t) => latest = latest.max(t),
                None => return NEVER,
            }
        }
        latest.saturating_sub(u64::from(self.cfg.sched_to_exec))
    }

    /// Recomputes the wake cycle of the op in ROB slot `slot`, if it is
    /// waiting, and files it as ready now or as a future wakeup.
    fn refresh(&mut self, slot: usize) {
        let e = &self.rob[slot];
        if e.phase != Phase::Waiting {
            return;
        }
        let wake_at = self.wake_cycle(e);
        if wake_at == e.wake_at && wake_at > self.now {
            // Unchanged and still ahead: its wakeup event is queued and
            // live, and the op is not in the ready set.
            return;
        }
        self.rob[slot].wake_at = wake_at;
        if wake_at <= self.now {
            self.ready.insert(slot);
        } else {
            self.ready.remove(slot);
            if wake_at != NEVER {
                let seq = self.seq_at(slot as u16);
                self.wakeups.push(Reverse((wake_at, seq)));
            }
        }
    }

    /// Refreshes every waiting op that reads `seq`'s result, or only the
    /// replayed ones.
    fn wake_consumers(&mut self, seq: u64, replayed_only: bool) {
        let mut consumer = self.rob[self.slot(seq)].consumers;
        while consumer != NIL {
            let slot = usize::from(consumer);
            let e = &self.rob[slot];
            consumer = e.next_consumer[e.link_for(seq)];
            if !replayed_only || e.replayed {
                self.refresh(slot);
            }
        }
    }

    /// Moves the wakeups due by now into the ready set and drops stale
    /// ones, leaving the earliest live future wakeup on top.
    fn promote_wakeups(&mut self) {
        while let Some(&Reverse((at, seq))) = self.wakeups.peek() {
            let live = self
                .entry(seq)
                .is_some_and(|e| e.phase == Phase::Waiting && e.wake_at == at);
            if live && at > self.now {
                break;
            }
            self.wakeups.pop();
            if live {
                self.ready.insert(self.slot(seq));
            }
        }
    }

    fn dispatch_blocked(&self, op: &MicroOp) -> bool {
        self.rob_len() >= self.cfg.rob_size as u64
            || self.iq_count >= self.cfg.iq_size
            || (op.class.is_mem() && self.lsq_count >= self.cfg.lsq_size)
    }

    /// Whether an older, still-in-flight store writes the same 8-byte
    /// word as the load `seq`: a walk from the ROB head up to the load.
    fn older_store_to(&self, seq: u64, addr: u64) -> bool {
        let word = addr & !7;
        (self.base_seq..seq).any(|older| {
            let e = &self.rob[self.slot(older)];
            e.class == OpClass::Store && e.addr & !7 == word
        })
    }

    /// Earliest cycle a new L1D miss can start, honouring the MSHR limit.
    fn acquire_mshr(&mut self) -> u64 {
        if self.cfg.mshrs == 0 {
            return self.now;
        }
        let now = self.now;
        self.outstanding_misses.retain(|&t| t > now);
        if self.outstanding_misses.len() < self.cfg.mshrs {
            return self.now;
        }
        // Queue behind the miss that completes first.
        let first = self.outstanding_misses.iter().copied().min();
        first.expect("all MSHRs busy").max(self.now)
    }

    // ---- pipeline phases ----------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(head) = self.entry(self.base_seq) else {
                break;
            };
            if head.phase != Phase::Done {
                break;
            }
            if head.class.is_mem() {
                self.lsq_count -= 1;
            }
            self.base_seq += 1;
            self.total_committed += 1;
            self.stats.committed += 1;
            self.last_commit_cycle = self.now;
        }
    }

    fn complete(&mut self) {
        let now = self.now;
        let mut slots = std::mem::take(&mut self.batch);
        self.completions.drain_into(now, &mut slots);
        while let Some(seq) = pop_due(&mut self.far_completions, now) {
            slots.push(self.slot(seq) as u16);
        }
        for &slot in &slots {
            let e = &mut self.rob[usize::from(slot)];
            debug_assert!(e.phase == Phase::Executing && e.at == now);
            e.phase = Phase::Done;
            // Dependants already expect the value at `done_at`; it moves
            // only for a load finishing before its announce cycle.
            let moved = e.announce_at > now;
            if e.class == OpClass::Branch {
                self.stats.branches += 1;
            }
            if e.resolves_fetch {
                self.fetch_blocked = false;
                self.fetch_resume_at = self
                    .fetch_resume_at
                    .max(now + u64::from(self.cfg.redirect_penalty));
            }
            if moved {
                self.wake_consumers(self.seq_at(slot), false);
            }
        }
        slots.clear();
        self.batch = slots;
    }

    fn fu_arrive(&mut self) {
        let mut slots = std::mem::take(&mut self.batch);
        self.arrivals.drain_into(self.now, &mut slots);
        // Oldest first, so producers precede consumers.
        let (base, mask) = (self.base_seq, self.slot_mask);
        if slots.len() > 1 {
            slots.sort_unstable_by_key(|&slot| u64::from(slot).wrapping_sub(base) & mask);
        }
        for &slot in &slots {
            self.process_arrival(self.seq_at(slot));
        }
        slots.clear();
        self.batch = slots;
    }

    fn process_arrival(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let Entry {
            srcs,
            class,
            addr,
            phase,
            ..
        } = self.rob[slot];
        debug_assert_eq!(phase, Phase::Scheduled, "one arrival per scheduling");
        // Determine operand lateness.
        let mut ready_at = 0u64;
        let mut must_replay = false;
        for src in srcs {
            match self.actual_ready(src) {
                Some(t) => ready_at = ready_at.max(t),
                None => {
                    must_replay = true;
                    break;
                }
            }
        }
        // An in-flight consumer may find its operand late for two stacked
        // reasons: the slow way itself (up to bypass_depth cycles) and the
        // slip its producer accumulated while *it* waited in a buffer. The
        // paper's scheduler is "informed about this stall" and delays
        // direct and indirect dependants accordingly (§4.3); consumers
        // already inside the schedule-to-execute pipe wait the stacked
        // cycles out in the buffers. The stacking is bounded by the pipe
        // depth (staleness cannot outlive the in-flight window), so
        // lateness up to depth+1 beyond the buffer depth is hit-timing
        // slip; anything later (an L1 miss adds 25+ cycles) is a genuine
        // miss and triggers selective replay.
        let slip_tolerance = 2u64;
        let bypass = u64::from(self.cfg.bypass_depth) + slip_tolerance;
        if !must_replay && ready_at > self.now + bypass {
            must_replay = true;
        }

        if must_replay {
            self.replay(seq);
            return;
        }

        if ready_at > self.now {
            // The load-bypass buffer absorbs the lateness: wait and retry
            // when the value arrives.
            let e = &mut self.rob[slot];
            let first_stall = !e.bypass_counted;
            e.bypass_counted = true;
            e.requeues += 1;
            if first_stall {
                self.stats.bypass_stalls += 1;
            }
            if e.requeues > MAX_REQUEUES {
                self.replay(seq);
                return;
            }
            // The scheduler is informed of the stall (§4.3 of the paper):
            // slipping the op's effective execute cycle keeps its own
            // dependants' wakeup predictions in step, so a one-cycle delay
            // propagates down the chain as exactly one cycle instead of
            // collapsing into replays.
            let retry = ready_at.max(self.now + 1);
            e.at = retry;
            self.arrivals.push(retry, slot as u16);
            self.wake_consumers(seq, false);
            return;
        }

        // Operands ready: execute.
        let now = self.now;
        let mut announce_at = 0;
        let done_at = match class {
            OpClass::Load => {
                self.stats.loads += 1;
                announce_at = now + u64::from(self.cfg.assumed_load_latency);
                if self.cfg.store_forwarding && self.older_store_to(seq, addr) {
                    // The LSQ forwards the word; the cache is not touched.
                    self.stats.forwarded_loads += 1;
                    now + u64::from(self.cfg.forward_latency)
                } else {
                    let out = self.mem.data_access(addr, AccessKind::Read);
                    if out.l1_hit {
                        self.stats.l1d_load_hits += 1;
                        now + u64::from(out.latency)
                    } else {
                        // A miss needs an MSHR; with all of them busy the
                        // access queues behind the oldest outstanding miss.
                        let start = self.acquire_mshr();
                        let done = start + u64::from(out.latency);
                        if self.cfg.mshrs > 0 {
                            self.outstanding_misses.push(done);
                        }
                        if start > now {
                            self.stats.mshr_stall_cycles += start - now;
                        }
                        done
                    }
                }
            }
            OpClass::Store => {
                let _ = self.mem.data_access(addr, AccessKind::Write);
                now + 1
            }
            c => now + u64::from(c.exec_latency()),
        };
        let e = &mut self.rob[slot];
        // Speculative dependants predicted `exec_at + assumed latency`,
        // which an op executing on time keeps until it completes or
        // announces; only replayed ones, waiting for a firm time, move.
        let on_time = e.at == now;
        e.phase = Phase::Executing;
        e.at = done_at;
        e.announce_at = announce_at;
        if done_at - now < COMPLETION_HORIZON as u64 {
            self.completions.push(done_at, slot as u16);
        } else {
            self.far_completions.push(Reverse((done_at, seq)));
        }
        // A load later than assumed changes its dependants' predicted
        // operand time at the announce cycle; an on-time (or early) one
        // never does before it completes.
        if announce_at != 0 && done_at > announce_at {
            self.announces.push(Reverse((announce_at, seq)));
        }
        self.iq_count -= 1;
        self.wake_consumers(seq, on_time);
    }

    /// Selective replay: the op returns to the issue queue and re-issues
    /// non-speculatively; its own dependants lose their predicted operand.
    fn replay(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let e = &mut self.rob[slot];
        e.phase = Phase::Waiting;
        e.replayed = true;
        e.requeues = 0;
        self.stats.replays += 1;
        self.refresh(slot);
        self.wake_consumers(seq, false);
    }

    fn schedule(&mut self) {
        while let Some(seq) = pop_due(&mut self.announces, self.now) {
            self.wake_consumers(seq, false);
        }
        self.promote_wakeups();

        let exec_at = self.now + u64::from(self.cfg.sched_to_exec);
        // Reservations only ever concern this cycle's picks: each cycle
        // books the distinct execute cycle `now + sched_to_exec`.
        let mut reserved = [0u16; FuClass::COUNT];
        let mut picks = std::mem::take(&mut self.batch);
        for slot in self.ready.ring_order(self.slot(self.base_seq)) {
            if picks.len() == self.cfg.width {
                break;
            }
            let fu = FuClass::of(self.rob[slot].class) as usize;
            if reserved[fu] >= self.fu_limits[fu] {
                continue;
            }
            reserved[fu] += 1;
            picks.push(slot as u16);
        }

        for &slot in &picks {
            self.ready.remove(usize::from(slot));
            let e = &mut self.rob[usize::from(slot)];
            e.phase = Phase::Scheduled;
            e.at = exec_at;
            e.bypass_counted = false;
            self.arrivals.push(exec_at, slot);
        }
        for &slot in &picks {
            self.wake_consumers(self.seq_at(slot), false);
        }
        picks.clear();
        self.batch = picks;
    }

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.width {
            let Some((op, _)) = self.fetch_q.front() else {
                break;
            };
            if self.dispatch_blocked(op) {
                self.stats.dispatch_stalls += 1;
                break;
            }
            let (op, mispredicted) = self.fetch_q.pop_front().expect("front exists");
            let seq = self.next_seq;
            let slot = self.slot(seq);
            let mut e = Entry {
                addr: if op.class.is_mem() {
                    op.addr.expect("memory ops carry addresses")
                } else {
                    0
                },
                class: op.class,
                resolves_fetch: mispredicted,
                ..Entry::EMPTY
            };
            for (i, reg) in op.srcs.iter().flatten().enumerate() {
                let producer = self.rat[usize::from(*reg)];
                if !self.in_rob(producer) {
                    continue; // retired: the value is in the register file
                }
                e.srcs[i] = producer;
                if i == 1 && e.srcs[0] == producer {
                    continue; // already on this producer's list
                }
                let p = self.slot(producer);
                e.next_consumer[i] = self.rob[p].consumers;
                self.rob[p].consumers = slot as u16;
            }
            if let Some(dest) = op.dest {
                self.rat[usize::from(dest)] = seq;
            }
            if op.class.is_mem() {
                self.lsq_count += 1;
            }
            self.iq_count += 1;
            self.rob[slot] = e;
            self.next_seq += 1;
            self.refresh(slot);
        }
    }

    fn fetch(&mut self, trace: &mut dyn Iterator<Item = MicroOp>) {
        if self.trace_done {
            return;
        }
        if self.fetch_blocked || self.now < self.fetch_resume_at {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.width {
            if self.fetch_q.len() >= self.cfg.fetch_queue {
                break;
            }
            let Some(op) = trace.next() else {
                self.trace_done = true;
                break;
            };
            // Instruction-cache access on block change.
            let block = op.pc >> 6;
            let mut stall_after = false;
            if block != self.last_fetch_block {
                self.last_fetch_block = block;
                let latency = self.mem.fetch(op.pc);
                let hit_latency = 2;
                if latency > hit_latency {
                    self.fetch_resume_at = self.now + u64::from(latency - hit_latency);
                    stall_after = true;
                }
            }
            let mut mispredicted = false;
            let mut taken_branch = false;
            if let Some(taken) = op.taken {
                let predicted = self.predictor.predict(op.pc);
                self.predictor.update(op.pc, taken);
                if predicted != taken {
                    mispredicted = true;
                    self.stats.mispredicts += 1;
                } else if taken {
                    taken_branch = true;
                }
            }
            self.fetch_q.push_back((op, mispredicted));
            if mispredicted {
                // Fetch chases the wrong path until the branch resolves.
                self.fetch_blocked = true;
                break;
            }
            if taken_branch || stall_after {
                break; // fetch group ends at a taken branch / I-miss
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yac_cache::HierarchyConfig;
    use yac_workload::{spec2000, TraceGenerator};

    fn cpu(cfg: PipelineConfig, hier: HierarchyConfig) -> Pipeline {
        Pipeline::new(cfg, MemoryHierarchy::new(hier).unwrap()).unwrap()
    }

    fn run_bench(name: &str, cfg: PipelineConfig, hier: HierarchyConfig) -> SimStats {
        let mut pipe = cpu(cfg, hier);
        let trace = TraceGenerator::new(spec2000::profile(name).unwrap(), 7);
        pipe.run(trace, 10_000, 100_000)
    }

    fn alu_chain(n: usize) -> Vec<MicroOp> {
        // r8 <- r8 + r8 repeatedly: a pure serial dependence chain.
        (0..n)
            .map(|i| MicroOp {
                pc: 0x1000 + (i as u64 % 64) * 4,
                class: OpClass::IntAlu,
                srcs: [Some(8), None],
                dest: Some(8),
                addr: None,
                taken: None,
            })
            .collect()
    }

    fn independent_alus(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp {
                pc: 0x1000 + (i as u64 % 64) * 4,
                class: OpClass::IntAlu,
                srcs: [Some(0), Some(1)],
                dest: Some(8 + (i % 32) as u8),
                addr: None,
                taken: None,
            })
            .collect()
    }

    #[test]
    fn independent_ops_reach_full_width() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(independent_alus(40_000), 5_000, 30_000);
        assert!(
            stats.ipc() > 3.5,
            "4 independent ALUs per cycle should run near width: ipc={}",
            stats.ipc()
        );
    }

    #[test]
    fn serial_chain_runs_at_one_ipc() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(alu_chain(20_000), 2_000, 10_000);
        let cpi = stats.cpi();
        assert!(
            (0.95..1.2).contains(&cpi),
            "a serial ALU chain commits one op per cycle (back-to-back wakeup): cpi={cpi}"
        );
    }

    #[test]
    fn dependent_load_chain_pays_the_hit_latency() {
        // load r8 <- [A]; then an ALU on r8 feeding the next load address.
        let n = 30_000;
        let ops: Vec<MicroOp> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::Load,
                        srcs: [Some(8), None],
                        dest: Some(8),
                        addr: Some(0x4000_0000 + (i as u64 * 8) % 4096),
                        taken: None,
                    }
                } else {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::IntAlu,
                        srcs: [Some(8), None],
                        dest: Some(8),
                        addr: None,
                        taken: None,
                    }
                }
            })
            .collect();
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(ops, 2_000, 20_000);
        // Each load+alu pair costs ~ hit latency (4) + 1 cycles.
        let cpi = stats.cpi();
        assert!(
            (2.2..3.2).contains(&cpi),
            "pointer-chase pairs should cost ~(4+1)/2 cycles per op: cpi={cpi}"
        );
    }

    #[test]
    fn slow_way_hits_trigger_bypass_buffers() {
        // All L1D ways at 5 cycles; plenty of dependent loads. The base
        // machine (4-cycle ways) never touches the buffers; the slow one
        // must use them heavily.
        let base = run_bench("gzip", PipelineConfig::paper(), HierarchyConfig::paper());
        assert_eq!(base.bypass_stalls, 0, "no late hits on the base machine");
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_latency = vec![5; 4];
        let slow = run_bench("gzip", PipelineConfig::paper(), hier);
        assert!(
            slow.bypass_stalls > 1_000,
            "5-cycle hits must flow through the buffers: {}",
            slow.bypass_stalls
        );
        assert!(slow.cpi() > base.cpi());
    }

    #[test]
    fn misses_cause_selective_replay() {
        let stats = run_bench("mcf", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(stats.replays > 0, "mcf misses must replay dependants");
        assert!(stats.l1d_load_hit_rate() < 0.98);
    }

    #[test]
    fn core_bound_benchmark_hits_l1() {
        let stats = run_bench("crafty", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(
            stats.l1d_load_hit_rate() > 0.9,
            "crafty's working set mostly fits: {}",
            stats.l1d_load_hit_rate()
        );
    }

    #[test]
    fn memory_bound_benchmark_is_slower() {
        let fast = run_bench("gzip", PipelineConfig::paper(), HierarchyConfig::paper());
        let slow = run_bench("mcf", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(
            slow.cpi() > 1.3 * fast.cpi(),
            "mcf ({}) should be much slower than gzip ({})",
            slow.cpi(),
            fast.cpi()
        );
    }

    #[test]
    fn slow_ways_cost_performance_but_less_than_naive_binning() {
        let base = run_bench("gcc", PipelineConfig::paper(), HierarchyConfig::paper());

        // VACA: two slow ways, scheduler still assumes 4.
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_latency = vec![4, 5, 5, 4];
        let vaca = run_bench("gcc", PipelineConfig::paper(), hier);

        // Naive binning: scheduler assumes 5 for everything.
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_latency = vec![5; 4];
        let mut cfg = PipelineConfig::paper();
        cfg.assumed_load_latency = 5;
        let naive = run_bench("gcc", cfg, hier);

        assert!(vaca.cpi() > base.cpi(), "slow ways must cost something");
        assert!(
            naive.cpi() > vaca.cpi(),
            "two slow ways ({}) must cost less than binning everything at 5 ({})",
            vaca.cpi(),
            naive.cpi()
        );
    }

    #[test]
    fn disabling_a_way_costs_performance() {
        let base = run_bench("vpr", PipelineConfig::paper(), HierarchyConfig::paper());
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_enabled[2] = false;
        let yapd = run_bench("vpr", PipelineConfig::paper(), hier);
        assert!(
            yapd.cpi() > base.cpi(),
            "a 3-way L1D must miss more: {} vs {}",
            yapd.cpi(),
            base.cpi()
        );
    }

    #[test]
    fn mispredictions_are_detected_and_cost_cycles() {
        let predictable = run_bench("swim", PipelineConfig::paper(), HierarchyConfig::paper());
        let branchy = run_bench("twolf", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(predictable.mispredict_rate() < 0.06);
        assert!(branchy.mispredict_rate() > predictable.mispredict_rate());
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_bench("parser", PipelineConfig::paper(), HierarchyConfig::paper());
        let b = run_bench("parser", PipelineConfig::paper(), HierarchyConfig::paper());
        assert_eq!(a, b);
    }

    #[test]
    fn store_forwarding_accelerates_aliasing_loads() {
        // store [A]; load [A] pairs: forwarding should satisfy the loads.
        let ops: Vec<MicroOp> = (0..20_000)
            .map(|i| {
                let addr = 0x4000_0000 + (i as u64 / 2 * 8) % 4096;
                if i % 2 == 0 {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::Store,
                        srcs: [Some(0), Some(1)],
                        dest: None,
                        addr: Some(addr),
                        taken: None,
                    }
                } else {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::Load,
                        srcs: [Some(2), None],
                        dest: Some(8 + (i % 32) as u8),
                        addr: Some(addr),
                        taken: None,
                    }
                }
            })
            .collect();
        let mut plain_cfg = PipelineConfig::paper();
        plain_cfg.store_forwarding = false;
        let mut pipe = cpu(plain_cfg, HierarchyConfig::paper());
        let plain = pipe.run(ops.clone(), 2_000, 15_000);
        assert_eq!(plain.forwarded_loads, 0);

        let mut fwd_cfg = PipelineConfig::paper();
        fwd_cfg.store_forwarding = true;
        let mut pipe = cpu(fwd_cfg, HierarchyConfig::paper());
        let fwd = pipe.run(ops, 2_000, 15_000);
        assert!(fwd.forwarded_loads > 1_000, "{}", fwd.forwarded_loads);
    }

    #[test]
    fn mshr_limit_throttles_miss_parallelism() {
        let run = |mshrs: usize| {
            let mut cfg = PipelineConfig::paper();
            cfg.mshrs = mshrs;
            let mut pipe = cpu(cfg, HierarchyConfig::paper());
            let trace = TraceGenerator::new(spec2000::profile("mcf").unwrap(), 7);
            pipe.run(trace, 5_000, 40_000)
        };
        let unlimited = run(0);
        let throttled = run(1);
        assert_eq!(unlimited.mshr_stall_cycles, 0);
        assert!(throttled.mshr_stall_cycles > 0);
        assert!(
            throttled.cpi() > unlimited.cpi(),
            "a single MSHR must serialise mcf's misses: {} vs {}",
            throttled.cpi(),
            unlimited.cpi()
        );
    }

    #[test]
    fn unlimited_mshrs_track_no_outstanding_misses() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        assert_eq!(pipe.config().mshrs, 0);
        let trace = TraceGenerator::new(spec2000::profile("mcf").unwrap(), 7);
        let stats = pipe.run(trace, 5_000, 40_000);
        assert!(stats.l1d_load_hits < stats.loads, "mcf must miss in L1D");
        assert!(pipe.outstanding_misses.is_empty());
    }

    #[test]
    fn default_features_leave_baseline_untouched() {
        // MSHRs unlimited + forwarding off must reproduce the calibrated
        // baseline exactly.
        let a = run_bench("gcc", PipelineConfig::paper(), HierarchyConfig::paper());
        let mut cfg = PipelineConfig::paper();
        cfg.mshrs = 0;
        cfg.store_forwarding = false;
        let b = run_bench("gcc", cfg, HierarchyConfig::paper());
        assert_eq!(a, b);
        assert_eq!(a.forwarded_loads, 0);
        assert_eq!(a.mshr_stall_cycles, 0);
    }

    #[test]
    fn trace_exhaustion_drains_cleanly() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(independent_alus(500), 0, 1_000_000);
        assert_eq!(stats.committed, 500, "all ops commit even past trace end");
    }

    #[test]
    fn completions_past_the_ring_horizon_arrive_on_time() {
        // Around 1000 cycles of memory latency an L1D miss completes more
        // than the completion ring's horizon out (queued behind a full
        // MSHR file, up to twice the latency). It must still complete at
        // its own cycle, not a horizon early, so CPI keeps rising.
        for mshrs in [0, 2] {
            let cpis: Vec<f64> = [980, 1000, 1100]
                .into_iter()
                .map(|latency| {
                    let mut cfg = PipelineConfig::paper();
                    cfg.mshrs = mshrs;
                    let mut hier = HierarchyConfig::paper();
                    hier.memory_latency = latency;
                    let mut pipe = cpu(cfg, hier);
                    let trace = TraceGenerator::new(spec2000::profile("mcf").unwrap(), 7);
                    pipe.run(trace, 2_000, 20_000).cpi()
                })
                .collect();
            assert!(
                cpis.windows(2).all(|w| w[0] < w[1]),
                "mshrs={mshrs}: CPI must rise with memory latency: {cpis:?}"
            );
        }
    }

    #[test]
    fn rob_ring_wraps_with_non_power_of_two_sizes() {
        for rob_size in [48, 100] {
            let mut cfg = PipelineConfig::paper();
            cfg.rob_size = rob_size;
            cfg.iq_size = rob_size;
            cfg.lsq_size = rob_size;

            // Every op of a serial chain reads its predecessor's slot, so
            // the chain crosses the ring's wrap hundreds of times.
            let mut pipe = cpu(cfg.clone(), HierarchyConfig::paper());
            let cpi = pipe.run(alu_chain(20_000), 2_000, 10_000).cpi();
            assert!((0.95..1.2).contains(&cpi), "rob {rob_size}: cpi={cpi}");
            assert_eq!(pipe.rob.len(), rob_size.next_power_of_two());
            assert!(pipe.base_seq > 50 * pipe.rob.len() as u64);

            // Misses back the ROB up to `rob_size`, never to the ring.
            let mut pipe = cpu(cfg, HierarchyConfig::paper());
            let mut trace = TraceGenerator::new(spec2000::profile("mcf").unwrap(), 7);
            let mut fullest = 0;
            while pipe.total_committed < 20_000 {
                pipe.skip_idle_cycles();
                pipe.step(&mut trace);
                fullest = fullest.max(pipe.rob_len());
            }
            assert_eq!(fullest, rob_size as u64);
        }
    }

    #[test]
    fn ready_scan_is_oldest_first_across_the_word_wrap() {
        let mut set = SlotSet::new(256);
        for slot in [3, 64, 130, 250, 255] {
            set.insert(slot);
        }
        let order = |start| set.ring_order(start).collect::<Vec<_>>();
        assert_eq!(order(0), [3, 64, 130, 250, 255]);
        assert_eq!(order(200), [250, 255, 3, 64, 130]);
        assert_eq!(order(255), [255, 3, 64, 130, 250]);
        assert_eq!(order(64), [64, 130, 250, 255, 3]);
        assert_eq!(order(65), [130, 250, 255, 3, 64]);

        // A ring of fewer than 64 slots wraps inside one word.
        let mut small = SlotSet::new(8);
        small.insert(1);
        small.insert(6);
        assert_eq!(small.ring_order(6).collect::<Vec<_>>(), [6, 1]);
        assert_eq!(small.ring_order(2).collect::<Vec<_>>(), [6, 1]);
    }

    #[test]
    fn scheduler_picks_oldest_first_across_the_ring_wrap() {
        // An FP divide at slot 251 of a 256-slot ROB feeds eight ALU ops
        // in slots 252..=255 and 0..=3. They wake in the same cycle; a
        // 4-wide scheduler must take the four before the wrap first.
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        pipe.base_seq = 251;
        pipe.next_seq = 251;
        let op = |i: u64, class, srcs, dest| MicroOp {
            pc: 0x1000 + i * 4,
            class,
            srcs,
            dest: Some(dest),
            addr: None,
            taken: None,
        };
        let mut ops = vec![op(0, OpClass::FpDiv, [Some(0), None], 8)];
        ops.extend((1..=8).map(|i| op(i, OpClass::IntAlu, [Some(8), None], 8 + i as u8)));
        let mut trace = ops.into_iter();
        let mut exec_at = [None; 8];
        while pipe.total_committed < 9 {
            pipe.skip_idle_cycles();
            pipe.step(&mut trace);
            for (i, at) in exec_at.iter_mut().enumerate() {
                if let Some(e) = pipe.entry(252 + i as u64) {
                    if e.phase == Phase::Scheduled && at.is_none() {
                        *at = Some(e.at);
                    }
                }
            }
        }
        let first = exec_at[0].expect("scheduled");
        assert_eq!(exec_at[..4], [Some(first); 4], "{exec_at:?}");
        assert_eq!(exec_at[4..], [Some(first + 1); 4], "{exec_at:?}");
    }

    #[test]
    fn cycle_ring_finds_the_next_event_across_the_horizon_wrap() {
        let mut ring = CycleRing::new(64, 8);
        let mut out = Vec::new();
        assert_eq!(ring.next_busy(100), NEVER);
        ring.push(125, 1); // bucket 61
        ring.push(130, 2); // bucket 2, past the wrap
        assert_eq!(ring.next_busy(120), 125);
        assert_eq!(ring.next_busy(125), 125);
        ring.drain_into(125, &mut out);
        assert_eq!(out, [1]);
        assert_eq!(ring.next_busy(126), 130);
        assert_eq!(ring.next_busy(128), 130);
        ring.drain_into(130, &mut out);
        assert_eq!(out, [1, 2]);
        assert_eq!(ring.next_busy(131), NEVER);

        // The completion ring's horizon spans sixteen bitset words.
        let mut ring = CycleRing::new(COMPLETION_HORIZON, 8);
        ring.push(2_050, 3); // bucket 2
        assert_eq!(ring.next_busy(2_040), 2_050);
        assert_eq!(ring.next_busy(1_030), 2_050);
    }

    #[test]
    fn entries_fill_one_cache_line_and_slots_stay_addressable() {
        assert_eq!(std::mem::size_of::<Entry>(), 64);
        let mem = || MemoryHierarchy::new(HierarchyConfig::paper()).unwrap();
        let mut cfg = PipelineConfig::paper();
        cfg.rob_size = MAX_SLOTS;
        assert!(Pipeline::new(cfg.clone(), mem()).is_ok());
        cfg.rob_size = MAX_SLOTS + 1;
        assert_eq!(
            Pipeline::new(cfg, mem()).err(),
            Some(ConfigError::RobExceedsSlots)
        );
    }

    #[test]
    fn measurement_window_is_exact() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let trace = TraceGenerator::new(spec2000::profile("mesa").unwrap(), 11);
        let stats = pipe.run(trace, 1_000, 5_000);
        // Commit is width-wide, so the window may overshoot by width-1.
        assert!(
            (5_000..5_000 + 4).contains(&stats.committed),
            "committed {}",
            stats.committed
        );
    }
}

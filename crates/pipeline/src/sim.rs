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
/// Horizon of the completion ring (must exceed the worst memory latency).
const COMPLETION_HORIZON: usize = 1024;
/// Give up on an entry after this many bypass requeues (safety valve).
const MAX_REQUEUES: u8 = 8;
/// Cycles without a commit after which the simulator reports a deadlock.
const DEADLOCK_LIMIT: u64 = 500_000;
/// `wake_at` of an op whose operands have no predicted arrival yet.
const NEVER: u64 = u64::MAX;

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

/// A source operand after rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcRef {
    /// Architecturally ready at dispatch.
    Ready,
    /// Produced by the ROB entry with this sequence number.
    Producer(u64),
}

/// Execution progress of one ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    /// In the issue queue, not yet selected.
    Waiting,
    /// Selected; will arrive at its functional unit at `exec_at`.
    Scheduled { exec_at: u64 },
    /// Executing; result available at `done_at`.
    Executing { done_at: u64 },
    /// Complete.
    Done { at: u64 },
}

#[derive(Debug, Clone)]
struct Entry {
    op: MicroOp,
    seq: u64,
    srcs: [Option<SrcRef>; 2],
    state: ExecState,
    /// Counted one bypass stall already.
    bypass_counted: bool,
    requeues: u8,
    /// This mispredicted branch unblocks fetch when it completes.
    resolves_fetch: bool,
    /// The op has been replayed: it re-issues only once its operands are
    /// *actually* available (no further speculative wakeup), which is what
    /// keeps one replay from seeding a self-sustaining replay wave.
    replayed: bool,
    /// For executing loads: the cycle the scheduler *expected* the value
    /// (exec start + assumed hit latency). A slow way or a miss is only
    /// discovered — "announced" to the scheduler — at this cycle; until
    /// then dependants are woken as if the load hits in the assumed time.
    announce_at: Option<u64>,
    /// While `Waiting`: the first cycle the scheduler may pick the op,
    /// given its producers' current states ([`NEVER`] while a producer
    /// has no predicted result time).
    wake_at: u64,
}

/// A set of ring slots as a bitset, iterated in ring order.
#[derive(Debug)]
struct SlotSet {
    words: Vec<u64>,
    slots: usize,
}

impl SlotSet {
    fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
            slots,
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

    /// Members in ring order starting at slot `start`.
    fn ring_order(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        self.members(start, self.slots)
            .chain(self.members(0, start))
    }

    /// Members in `from..end`, ascending.
    fn members(&self, from: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let mut i = from;
        std::iter::from_fn(move || {
            while i < end {
                let bits = self.words[i / 64] >> (i % 64);
                if bits == 0 {
                    i = (i / 64 + 1) * 64;
                    continue;
                }
                let member = i + bits.trailing_zeros() as usize;
                i = member + 1;
                return (member < end).then_some(member);
            }
            None
        })
    }
}

/// Ops bucketed by the cycle of their next event, over a ring of
/// `horizon` cycles, with the busy buckets marked so the next event is
/// found without visiting the empty ones.
#[derive(Debug)]
struct CycleRing {
    buckets: Vec<Vec<u64>>,
    busy: SlotSet,
}

impl CycleRing {
    fn new(horizon: usize) -> Self {
        CycleRing {
            buckets: vec![Vec::new(); horizon],
            busy: SlotSet::new(horizon),
        }
    }

    fn bucket(&self, cycle: u64) -> usize {
        (cycle % self.buckets.len() as u64) as usize
    }

    fn push(&mut self, cycle: u64, seq: u64) {
        let b = self.bucket(cycle);
        self.buckets[b].push(seq);
        self.busy.insert(b);
    }

    /// Empties `now`'s bucket into `out`.
    fn drain_into(&mut self, now: u64, out: &mut Vec<u64>) {
        let b = self.bucket(now);
        out.append(&mut self.buckets[b]);
        self.busy.remove(b);
    }

    /// The first cycle at or after `now` with a booked event.
    fn next_busy(&self, now: u64) -> u64 {
        let start = self.bucket(now);
        let horizon = self.buckets.len();
        self.busy
            .ring_order(start)
            .next()
            .map_or(NEVER, |b| now + ((b + horizon - start) % horizon) as u64)
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
    rob: VecDeque<Entry>,
    base_seq: u64,
    next_seq: u64,
    iq_count: usize,
    lsq_count: usize,
    rat: [Option<u64>; 256],
    fetch_q: VecDeque<(MicroOp, bool)>,
    /// Fetch is stalled until the flagged branch completes.
    fetch_blocked: bool,
    fetch_resume_at: u64,
    last_fetch_block: u64,
    trace_done: bool,
    /// Functional-unit arrivals by `exec_at`.
    arrivals: CycleRing,
    /// Result completions by `done_at`.
    completions: CycleRing,
    /// Executing loads whose result is later than the scheduler assumed,
    /// by `(announce_at, seq)`: the cycle their dependants' predicted
    /// operand time moves from the assumed to the actual one.
    announces: EventQueue,
    /// Waiting ops by `(wake_at, seq)` whose wake cycle lies in the
    /// future. Lazily pruned: an event whose op is no longer waiting, or
    /// whose `wake_at` has since changed, is dropped when it surfaces.
    wakeups: EventQueue,
    /// Waiting ops the scheduler may pick this cycle, by ROB slot
    /// (`seq % rob_size`).
    ready: SlotSet,
    /// Per ROB slot, the ops reading that slot's result.
    consumers: Vec<Vec<u64>>,
    /// Scratch list of the ops one phase handles (arrivals, completions
    /// or picks).
    batch: Vec<u64>,
    fu_limits: [u16; FuClass::COUNT],
    stats: SimStats,
    total_committed: u64,
    last_commit_cycle: u64,
    /// Completion times of in-flight L1D misses (MSHR occupancy).
    outstanding_misses: Vec<u64>,
}

impl Pipeline {
    /// Builds a core over a memory hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] if the configuration is inconsistent
    /// or too deep for the simulator's wakeup horizon.
    pub fn new(cfg: PipelineConfig, mem: MemoryHierarchy) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if (cfg.sched_to_exec + cfg.bypass_depth + 2) as usize >= ARRIVAL_HORIZON {
            return Err(ConfigError::DepthExceedsHorizon);
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
            rob: VecDeque::with_capacity(cfg.rob_size),
            base_seq: 0,
            next_seq: 0,
            iq_count: 0,
            lsq_count: 0,
            rat: [None; 256],
            fetch_q: VecDeque::with_capacity(cfg.fetch_queue),
            fetch_blocked: false,
            fetch_resume_at: 0,
            last_fetch_block: u64::MAX,
            trace_done: false,
            arrivals: CycleRing::new(ARRIVAL_HORIZON),
            completions: CycleRing::new(COMPLETION_HORIZON),
            announces: EventQueue::new(),
            wakeups: EventQueue::new(),
            ready: SlotSet::new(cfg.rob_size),
            consumers: vec![Vec::new(); cfg.rob_size],
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
        let mut trace = trace.into_iter();
        let target_warm = self.total_committed + warmup;
        let mut target_end = target_warm + measure;
        let mut warmed = warmup == 0;
        if warmup == 0 {
            self.reset_stats_internal();
        }
        loop {
            self.skip_idle_cycles();
            self.step(&mut trace);
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
            if self.trace_done && self.rob.is_empty() && self.fetch_q.is_empty() {
                break;
            }
            assert!(
                self.now - self.last_commit_cycle < DEADLOCK_LIMIT,
                "pipeline deadlock at cycle {}: rob={} iq={} head={:?}",
                self.now,
                self.rob.len(),
                self.iq_count,
                self.rob.front().map(|e| (e.seq, e.state, e.op.class)),
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

    fn step(&mut self, trace: &mut impl Iterator<Item = MicroOp>) {
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
        if matches!(
            self.rob.front(),
            Some(Entry {
                state: ExecState::Done { .. },
                ..
            })
        ) {
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

    fn entry(&self, seq: u64) -> Option<&Entry> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.rob.get(i as usize))
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.rob.get_mut(i as usize))
    }

    fn slot(&self, seq: u64) -> usize {
        (seq % self.cfg.rob_size as u64) as usize
    }

    /// Latency the scheduler assumes for a producer's result.
    fn assumed_latency(&self, op: &MicroOp) -> u32 {
        match op.class {
            OpClass::Load => self.cfg.assumed_load_latency,
            c => c.exec_latency(),
        }
    }

    /// Predicted cycle at which `src`'s value becomes available, or `None`
    /// if its producer has not even been scheduled.
    fn pred_ready(&self, src: SrcRef) -> Option<u64> {
        match src {
            SrcRef::Ready => Some(0),
            SrcRef::Producer(seq) => match self.entry(seq) {
                None => Some(0), // producer retired: value in the register file
                Some(e) => match e.state {
                    ExecState::Waiting => None,
                    ExecState::Scheduled { exec_at } => {
                        Some(exec_at + u64::from(self.assumed_latency(&e.op)))
                    }
                    ExecState::Executing { done_at } => match e.announce_at {
                        // Until the expected-completion cycle passes, the
                        // scheduler still believes the assumed latency.
                        Some(announce) if self.now < announce => {
                            Some(announce.max(done_at.min(announce)))
                        }
                        _ => Some(done_at),
                    },
                    ExecState::Done { at } => Some(at),
                },
            },
        }
    }

    /// Readiness without speculation: the value's arrival time once the
    /// producer is executing or done, `None` while it is merely queued or
    /// scheduled. Used to re-issue replayed ops safely.
    fn firm_ready(&self, src: SrcRef) -> Option<u64> {
        match src {
            SrcRef::Ready => Some(0),
            SrcRef::Producer(seq) => match self.entry(seq) {
                None => Some(0),
                Some(e) => match e.state {
                    ExecState::Executing { done_at } => Some(done_at),
                    ExecState::Done { at } => Some(at),
                    ExecState::Waiting | ExecState::Scheduled { .. } => None,
                },
            },
        }
    }

    /// Actual readiness of `src` at FU arrival: `Ok(ready_at)` once the
    /// producer is executing or done, `Err(())` if it must be replayed
    /// against (producer not in flight).
    fn actual_ready(&self, src: SrcRef) -> Result<u64, ()> {
        match src {
            SrcRef::Ready => Ok(0),
            SrcRef::Producer(seq) => match self.entry(seq) {
                None => Ok(0),
                Some(e) => match e.state {
                    ExecState::Executing { done_at } => Ok(done_at),
                    ExecState::Done { at } => Ok(at),
                    // Scheduled: the value may still arrive in time; report
                    // its predicted time so the caller can requeue-and-see.
                    ExecState::Scheduled { exec_at } => {
                        Ok(exec_at + u64::from(self.assumed_latency(&e.op)))
                    }
                    ExecState::Waiting => Err(()),
                },
            },
        }
    }

    /// First cycle a waiting op may be scheduled: every operand's
    /// predicted (or, after a replay, firm) arrival must fall within the
    /// `sched_to_exec` pipe. Valid until one of its producers changes
    /// state or announces.
    fn wake_cycle(&self, e: &Entry) -> u64 {
        let mut latest = 0;
        for &src in e.srcs.iter().flatten() {
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

    /// Recomputes a waiting op's wake cycle and files the op as ready now
    /// or as a future wakeup.
    fn refresh(&mut self, seq: u64) {
        let Some(e) = self.entry(seq) else { return };
        if e.state != ExecState::Waiting {
            return;
        }
        let wake_at = self.wake_cycle(e);
        self.entry_mut(seq).expect("entry exists").wake_at = wake_at;
        let slot = self.slot(seq);
        if wake_at <= self.now {
            self.ready.insert(slot);
        } else {
            self.ready.remove(slot);
            if wake_at != NEVER {
                self.wakeups.push(Reverse((wake_at, seq)));
            }
        }
    }

    /// Refreshes every waiting op that reads `seq`'s result, or only the
    /// replayed ones.
    fn wake_consumers(&mut self, seq: u64, replayed_only: bool) {
        let slot = self.slot(seq);
        for i in 0..self.consumers[slot].len() {
            let consumer = self.consumers[slot][i];
            if !replayed_only || self.entry(consumer).is_some_and(|e| e.replayed) {
                self.refresh(consumer);
            }
        }
    }

    /// Moves the wakeups due by now into the ready set and drops stale
    /// ones, leaving the earliest live future wakeup on top.
    fn promote_wakeups(&mut self) {
        while let Some(&Reverse((at, seq))) = self.wakeups.peek() {
            let live = self
                .entry(seq)
                .is_some_and(|e| e.state == ExecState::Waiting && e.wake_at == at);
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
        self.rob.len() >= self.cfg.rob_size
            || self.iq_count >= self.cfg.iq_size
            || (op.class.is_mem() && self.lsq_count >= self.cfg.lsq_size)
    }

    /// Whether an older, still-in-flight store writes the same 8-byte word.
    fn older_store_to(&self, seq: u64, addr: u64) -> bool {
        let word = addr & !7;
        self.rob.iter().any(|e| {
            e.seq < seq && e.op.class == OpClass::Store && e.op.addr.map(|a| a & !7) == Some(word)
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
            let Some(front) = self.rob.front() else { break };
            let ExecState::Done { .. } = front.state else {
                break;
            };
            let entry = self.rob.pop_front().expect("front exists");
            self.base_seq += 1;
            if entry.op.class.is_mem() {
                self.lsq_count -= 1;
            }
            self.total_committed += 1;
            self.stats.committed += 1;
            self.last_commit_cycle = self.now;
        }
    }

    fn complete(&mut self) {
        let mut seqs = std::mem::take(&mut self.batch);
        self.completions.drain_into(self.now, &mut seqs);
        for &seq in &seqs {
            let now = self.now;
            let Some(e) = self.entry_mut(seq) else {
                continue;
            };
            let ExecState::Executing { done_at } = e.state else {
                unreachable!("only executing ops complete");
            };
            e.state = ExecState::Done { at: now };
            // Dependants already expect the value at `done_at`; it moves
            // only for a load finishing before its announce cycle (or a
            // completion the ring delivered a horizon early).
            let moved = done_at != now || e.announce_at.is_some_and(|a| a > now);
            let is_branch = e.op.class == OpClass::Branch;
            let resolves = e.resolves_fetch;
            if is_branch {
                self.stats.branches += 1;
            }
            if resolves {
                self.fetch_blocked = false;
                self.fetch_resume_at = self
                    .fetch_resume_at
                    .max(now + u64::from(self.cfg.redirect_penalty));
            }
            if moved {
                self.wake_consumers(seq, false);
            }
        }
        seqs.clear();
        self.batch = seqs;
    }

    fn fu_arrive(&mut self) {
        let mut seqs = std::mem::take(&mut self.batch);
        self.arrivals.drain_into(self.now, &mut seqs);
        seqs.sort_unstable(); // oldest first, so producers precede consumers
        for &seq in &seqs {
            self.process_arrival(seq);
        }
        seqs.clear();
        self.batch = seqs;
    }

    fn process_arrival(&mut self, seq: u64) {
        let Some(e) = self.entry(seq) else { return };
        if !matches!(e.state, ExecState::Scheduled { .. }) {
            return; // stale arrival from before a replay
        }
        // Determine operand lateness.
        let mut ready_at = 0u64;
        let mut must_replay = false;
        for src in e.srcs.iter().flatten() {
            match self.actual_ready(*src) {
                Ok(t) => ready_at = ready_at.max(t),
                Err(()) => {
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
            let (requeues, first_stall) = {
                let e = self.entry_mut(seq).expect("entry exists");
                let first = !e.bypass_counted;
                e.bypass_counted = true;
                e.requeues += 1;
                (e.requeues, first)
            };
            if first_stall {
                self.stats.bypass_stalls += 1;
            }
            if requeues > MAX_REQUEUES {
                self.replay(seq);
                return;
            }
            let retry = ready_at.max(self.now + 1);
            // The scheduler is informed of the stall (§4.3 of the paper):
            // slipping the op's effective execute cycle keeps its own
            // dependants' wakeup predictions in step, so a one-cycle delay
            // propagates down the chain as exactly one cycle instead of
            // collapsing into replays.
            let e = self.entry_mut(seq).expect("entry exists");
            e.state = ExecState::Scheduled { exec_at: retry };
            self.arrivals.push(retry, seq);
            self.wake_consumers(seq, false);
            return;
        }

        // Operands ready: execute.
        let (class, addr) = {
            let e = self.entry(seq).expect("entry exists");
            (e.op.class, e.op.addr)
        };
        let mut announce_at = None;
        let done_at = match class {
            OpClass::Load => {
                let addr = addr.expect("loads carry addresses");
                self.stats.loads += 1;
                announce_at = Some(self.now + u64::from(self.cfg.assumed_load_latency));
                if self.cfg.store_forwarding && self.older_store_to(seq, addr) {
                    // The LSQ forwards the word; the cache is not touched.
                    self.stats.forwarded_loads += 1;
                    self.now + u64::from(self.cfg.forward_latency)
                } else {
                    let out = self.mem.data_access(addr, AccessKind::Read);
                    if out.l1_hit {
                        self.stats.l1d_load_hits += 1;
                        self.now + u64::from(out.latency)
                    } else {
                        // A miss needs an MSHR; with all of them busy the
                        // access queues behind the oldest outstanding miss.
                        let start = self.acquire_mshr();
                        let done = start + u64::from(out.latency);
                        self.outstanding_misses.push(done);
                        if start > self.now {
                            self.stats.mshr_stall_cycles += start - self.now;
                        }
                        done
                    }
                }
            }
            OpClass::Store => {
                let _ = self
                    .mem
                    .data_access(addr.expect("stores carry addresses"), AccessKind::Write);
                self.now + 1
            }
            c => self.now + u64::from(c.exec_latency()),
        };
        let now = self.now;
        let e = self.entry_mut(seq).expect("entry exists");
        // Speculative dependants predicted `exec_at + assumed latency`,
        // which an op executing on time keeps until it completes or
        // announces; only replayed ones, waiting for a firm time, move.
        let on_time = e.state == ExecState::Scheduled { exec_at: now };
        e.state = ExecState::Executing { done_at };
        e.announce_at = announce_at;
        self.completions.push(done_at, seq);
        // A load later than assumed changes its dependants' predicted
        // operand time at the announce cycle; an on-time (or early) one
        // never does before it completes.
        if let Some(announce) = announce_at.filter(|&a| done_at > a) {
            self.announces.push(Reverse((announce, seq)));
        }
        self.iq_count -= 1;
        self.wake_consumers(seq, on_time);
    }

    /// Selective replay: the op returns to the issue queue and re-issues
    /// non-speculatively; its own dependants lose their predicted operand.
    fn replay(&mut self, seq: u64) {
        let e = self.entry_mut(seq).expect("entry exists");
        e.state = ExecState::Waiting;
        e.replayed = true;
        e.requeues = 0;
        self.stats.replays += 1;
        self.refresh(seq);
        self.wake_consumers(seq, false);
    }

    fn schedule(&mut self) {
        while let Some(seq) = pop_due(&mut self.announces, self.now) {
            self.wake_consumers(seq, false);
        }
        self.promote_wakeups();

        let exec_at = self.now + u64::from(self.cfg.sched_to_exec);
        let head = self.slot(self.base_seq);
        let rob_size = self.cfg.rob_size as u64;
        // Reservations only ever concern this cycle's picks: each cycle
        // books the distinct execute cycle `now + sched_to_exec`.
        let mut reserved = [0u16; FuClass::COUNT];
        let mut picks = std::mem::take(&mut self.batch);
        for slot in self.ready.ring_order(head) {
            if picks.len() == self.cfg.width {
                break;
            }
            let seq = self.base_seq + (slot as u64 + rob_size - head as u64) % rob_size;
            let e = self.entry(seq).expect("ready ops are in the ROB");
            let fu = FuClass::of(e.op.class) as usize;
            if reserved[fu] >= self.fu_limits[fu] {
                continue;
            }
            reserved[fu] += 1;
            picks.push(seq);
        }

        for &seq in &picks {
            let slot = self.slot(seq);
            self.ready.remove(slot);
            let e = self.entry_mut(seq).expect("picked entries exist");
            e.state = ExecState::Scheduled { exec_at };
            e.bypass_counted = false;
            self.arrivals.push(exec_at, seq);
        }
        for &seq in &picks {
            self.wake_consumers(seq, false);
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
            self.next_seq += 1;
            let slot = self.slot(seq);
            self.consumers[slot].clear();

            let mut srcs = [None, None];
            for (i, reg) in op.srcs.iter().flatten().enumerate() {
                let src = match self.rat[usize::from(*reg)] {
                    Some(p) if p >= self.base_seq => {
                        let producer = self.slot(p);
                        if self.consumers[producer].last() != Some(&seq) {
                            self.consumers[producer].push(seq);
                        }
                        SrcRef::Producer(p)
                    }
                    _ => SrcRef::Ready,
                };
                srcs[i] = Some(src);
            }
            if let Some(dest) = op.dest {
                self.rat[usize::from(dest)] = Some(seq);
            }
            if op.class.is_mem() {
                self.lsq_count += 1;
            }
            self.iq_count += 1;
            self.rob.push_back(Entry {
                op,
                seq,
                srcs,
                state: ExecState::Waiting,
                bypass_counted: false,
                requeues: 0,
                resolves_fetch: mispredicted,
                replayed: false,
                announce_at: None,
                wake_at: NEVER,
            });
            self.refresh(seq);
        }
    }

    fn fetch(&mut self, trace: &mut impl Iterator<Item = MicroOp>) {
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

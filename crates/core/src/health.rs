//! Self-healing runtime support: per-lane heartbeat liveness and the
//! stall sentinel.
//!
//! The paper's central mechanism — detect a defective cache block,
//! disable it, remap around it so the chip keeps yielding — has a
//! runtime analogue: detect a *stalled worker lane*, cancel its lease,
//! and record the shard honestly degraded so the query completes
//! without it. A second attempt would gain nothing: every chip is drawn
//! from its own `(seed, index)` stream, so a rerun repeats the same
//! work. This module provides the three pieces:
//!
//! * [`HeartbeatRegistry`] — one lock-free lane per pool worker. A
//!   worker takes a [`HeartbeatLease`] when it starts a shard, publishes
//!   one monotonic progress tick per chip ([`HeartbeatLease::beat`]),
//!   and releases the lane on drop. Everything is relaxed atomics; a
//!   beat is one `fetch_add`.
//! * [`StallDetector`] — a *pure* state machine over lane snapshots:
//!   feed it [`HeartbeatRegistry::snapshot`] plus a timestamp and it
//!   reports which lanes blew their no-progress budget. Detection being
//!   pure (no clock reads, no threads) is what makes the edge cases —
//!   zero budget, tick wraparound, a heartbeat racing a cancel, every
//!   lane stalled at once — property-testable.
//! * [`StallSentinel`] — the supervision thread: polls the registry,
//!   runs the detector, cancels stalled leases and counts its misses.
//!
//! # The escalation ladder
//!
//! 1. **Cancel.** A busy lane whose `(generation, tick)` pair is
//!    unchanged for one budget gets its lease cancelled
//!    ([`StallEvent::Missed`], counted in
//!    [`StallSentinel::heartbeats_missed`] and
//!    [`yac_obs::Metric::HeartbeatsMissed`], traced as
//!    `HeartbeatMissed`).
//! 2. **Degrade.** The shard loop polls [`HeartbeatLease::is_cancelled`]
//!    between chips, stops, and reports the shard degraded; the query
//!    still completes, honestly, and its degraded result is never
//!    cached.
//!
//! A lane that *ignores* its cancel for another full budget is reported
//! once as [`StallEvent::Wedged`] — evidence for the service's `health`
//! report that a thread is truly stuck, not merely slow.
//!
//! # Tick semantics
//!
//! A tick is progress, not time: *any change* to the `(generation,
//! tick)` pair resets the lane's budget, so wraparound (`u64::MAX → 0`)
//! is progress like any other change, and a new lease (fresh
//! generation) is never blamed for its predecessor's silence.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yac_obs::{Metric, TraceCtx, TraceEventKind};

/// One worker lane's liveness cells. All fields are plain atomics; no
/// lock is ever taken on the worker's publish path.
#[derive(Debug, Default)]
struct Lane {
    /// Monotonic progress counter, bumped once per unit of work (one
    /// chip). Wrapping is fine: the detector watches for *change*.
    tick: AtomicU64,
    /// The shard tag the lane is working, plus 1 — so 0 means idle.
    shard: AtomicU64,
    /// Lease generation, bumped by every [`HeartbeatRegistry::begin`].
    gen: AtomicU64,
    /// The generation whose lease has been cancelled (0 = none).
    cancel: AtomicU64,
}

/// What one lane looked like at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneState {
    /// The shard tag the lane was working, or `None` when idle.
    pub shard: Option<u64>,
    /// Lease generation at snapshot time.
    pub gen: u64,
    /// Progress tick at snapshot time.
    pub tick: u64,
}

/// A lock-free per-lane heartbeat registry: one lane per pool worker,
/// workers publish monotonic progress ticks, the sentinel snapshots.
#[derive(Debug)]
pub struct HeartbeatRegistry {
    lanes: Box<[Lane]>,
}

impl HeartbeatRegistry {
    /// A registry of `lanes` idle lanes (clamped to at least 1).
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        HeartbeatRegistry {
            lanes: (0..lanes.max(1)).map(|_| Lane::default()).collect(),
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lanes currently holding a lease (advisory).
    #[must_use]
    pub fn busy(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.shard.load(Ordering::Acquire) != 0)
            .count()
    }

    /// Takes the lease on `lane` for shard tag `shard`: bumps the lane's
    /// generation and marks it busy. The returned guard publishes beats
    /// and releases the lane when dropped.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn begin(&self, lane: usize, shard: u64) -> HeartbeatLease<'_> {
        let cell = &self.lanes[lane];
        let gen = cell.gen.fetch_add(1, Ordering::AcqRel) + 1;
        // Publish busy last, so a sentinel that sees the shard also sees
        // the fresh generation and never blames the new lease for the
        // old one's silence.
        cell.shard.store(shard + 1, Ordering::Release);
        HeartbeatLease {
            registry: self,
            lane,
            gen,
        }
    }

    /// Cancels the lease of generation `gen` on `lane` — cooperative:
    /// the worker polls [`HeartbeatLease::is_cancelled`] between chips.
    /// A stale `gen` (the lane has moved on) falls on deaf ears.
    pub fn cancel(&self, lane: usize, gen: u64) {
        if let Some(cell) = self.lanes.get(lane) {
            cell.cancel.store(gen, Ordering::Release);
        }
    }

    /// A point-in-time snapshot of every lane, for the detector and the
    /// `health` report.
    #[must_use]
    pub fn snapshot(&self) -> Vec<LaneState> {
        self.lanes
            .iter()
            .map(|l| {
                let shard = l.shard.load(Ordering::Acquire);
                LaneState {
                    shard: shard.checked_sub(1),
                    gen: l.gen.load(Ordering::Acquire),
                    tick: l.tick.load(Ordering::Acquire),
                }
            })
            .collect()
    }
}

/// The RAII lease a worker holds while running one shard: beats publish
/// progress, drop releases the lane.
#[derive(Debug)]
pub struct HeartbeatLease<'a> {
    registry: &'a HeartbeatRegistry,
    lane: usize,
    gen: u64,
}

impl HeartbeatLease<'_> {
    /// The lane index this lease occupies.
    #[must_use]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// The lease's generation (what a cancel must match).
    #[must_use]
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Publishes one unit of progress. One relaxed `fetch_add`;
    /// wrapping is progress like any other change.
    pub fn beat(&self) {
        self.registry.lanes[self.lane]
            .tick
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the sentinel has cancelled *this* lease (generation
    /// match). Poll between chips; unwind cooperatively when true.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.registry.lanes[self.lane]
            .cancel
            .load(Ordering::Acquire)
            == self.gen
    }
}

impl Drop for HeartbeatLease<'_> {
    fn drop(&mut self) {
        self.registry.lanes[self.lane]
            .shard
            .store(0, Ordering::Release);
    }
}

/// What the detector reports about a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallEvent {
    /// The lane published no progress for one budget. The sentinel
    /// cancels the lease; the shard then reports itself degraded.
    Missed {
        /// Lane index.
        lane: usize,
        /// The shard tag the lane was working.
        shard: u64,
        /// The cancelled lease's generation.
        gen: u64,
    },
    /// The lane ignored its cancel for another full budget: the thread
    /// is truly wedged, not merely slow. Reported once per lease.
    Wedged {
        /// Lane index.
        lane: usize,
        /// The shard tag the lane was working.
        shard: u64,
        /// The wedged lease's generation.
        gen: u64,
    },
}

/// Per-lane detector state. `(gen, tick)` is the identity of "the same
/// work with no progress"; any change resets the budget.
#[derive(Debug, Clone, Copy)]
enum Watch {
    /// Busy and making (or presumed making) progress.
    Fresh { gen: u64, tick: u64, since: Instant },
    /// `Missed` fired; waiting to see the cancel honoured.
    Cancelled { gen: u64, tick: u64, since: Instant },
    /// `Wedged` fired; ignored until the generation changes.
    Wedged { gen: u64 },
}

/// The pure stall state machine: feed it lane snapshots and timestamps,
/// it emits [`StallEvent`]s. No clocks, no threads — fully deterministic
/// under test.
#[derive(Debug)]
pub struct StallDetector {
    budget: Duration,
    watches: Vec<Option<Watch>>,
}

impl StallDetector {
    /// A detector for `lanes` lanes under `budget`.
    #[must_use]
    pub fn new(lanes: usize, budget: Duration) -> Self {
        StallDetector {
            budget,
            watches: vec![None; lanes],
        }
    }

    /// Observes one snapshot taken at `now`. Emits at most one event
    /// per lane per call; `Missed` and `Wedged` each fire at most once
    /// per lease generation.
    pub fn observe(&mut self, lanes: &[LaneState], now: Instant) -> Vec<StallEvent> {
        let mut events = Vec::new();
        for (i, state) in lanes.iter().enumerate() {
            let Some(watch) = self.watches.get_mut(i) else {
                break; // More lanes than the detector was sized for.
            };
            let Some(shard) = state.shard else {
                *watch = None;
                continue;
            };
            let fresh = Watch::Fresh {
                gen: state.gen,
                tick: state.tick,
                since: now,
            };
            match *watch {
                None => *watch = Some(fresh),
                Some(Watch::Fresh { gen, tick, since }) => {
                    if gen != state.gen || tick != state.tick {
                        // Progress (or a new lease): restart the budget.
                        // Tick wraparound lands here too — change is
                        // progress, whatever the direction.
                        *watch = Some(fresh);
                    } else if now.saturating_duration_since(since) >= self.budget {
                        events.push(StallEvent::Missed {
                            lane: i,
                            shard,
                            gen,
                        });
                        *watch = Some(Watch::Cancelled {
                            gen,
                            tick,
                            since: now,
                        });
                    }
                }
                Some(Watch::Cancelled { gen, tick, since }) => {
                    if gen != state.gen || tick != state.tick {
                        // A heartbeat raced the cancel: the lane is
                        // alive after all. Back to watching — if the
                        // cancel lands, the lane goes idle and the
                        // watch clears.
                        *watch = Some(fresh);
                    } else if now.saturating_duration_since(since) >= self.budget {
                        events.push(StallEvent::Wedged {
                            lane: i,
                            shard,
                            gen,
                        });
                        *watch = Some(Watch::Wedged { gen });
                    }
                }
                Some(Watch::Wedged { gen }) => {
                    if gen != state.gen {
                        *watch = Some(fresh);
                    }
                }
            }
        }
        events
    }

    /// Lanes currently past `Missed` without recovering (cancelled or
    /// wedged) — the `health` report's "stalled lanes".
    #[must_use]
    pub fn stalled(&self) -> usize {
        self.watches
            .iter()
            .filter(|w| matches!(w, Some(Watch::Cancelled { .. } | Watch::Wedged { .. })))
            .count()
    }
}

/// A helper thread that runs `step` until the step returns `None` or
/// the loop is halted, parking between steps for as long as the step
/// asks. Halting (also done by drop) sets the stop flag, unparks the
/// thread and joins it, so it never waits out a park. A failed spawn
/// leaves no thread and `step` never runs.
#[derive(Debug)]
pub(crate) struct ParkedLoop {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ParkedLoop {
    pub(crate) fn spawn(
        name: &str,
        mut step: impl FnMut() -> Option<Duration> + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match step() {
                            Some(wait) => std::thread::park_timeout(wait),
                            None => return,
                        }
                    }
                })
                .ok()
        };
        ParkedLoop { stop, handle }
    }

    pub(crate) fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for ParkedLoop {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The supervision thread: polls a [`HeartbeatRegistry`], cancels
/// stalled leases and counts them. It runs on a parked helper loop, so
/// stopping (or dropping) it returns at once instead of waiting out a
/// poll.
#[derive(Debug)]
pub struct StallSentinel {
    stalled: Arc<AtomicU64>,
    missed: Arc<AtomicU64>,
    _poller: ParkedLoop,
}

impl StallSentinel {
    /// Spawns the sentinel over `registry`, cancelling the lease of a
    /// busy lane that makes no progress for `budget` (a zero budget
    /// cancels it on its second observation). It polls at a quarter of
    /// the budget, clamped to 1–50 ms. On every `Missed` event it
    /// cancels the lease, counts the miss (here and in
    /// [`Metric::HeartbeatsMissed`]) and traces `HeartbeatMissed`; a
    /// `Wedged` lane shows in [`StallSentinel::stalled_lanes`]. A failed
    /// thread spawn degrades gracefully: no supervision, never a panic.
    #[must_use]
    pub fn spawn(registry: Arc<HeartbeatRegistry>, budget: Duration) -> Self {
        let poll = (budget / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
        let stalled = Arc::new(AtomicU64::new(0));
        let missed = Arc::new(AtomicU64::new(0));
        let (published, counted) = (Arc::clone(&stalled), Arc::clone(&missed));
        let mut detector = StallDetector::new(registry.lanes(), budget);
        let poller = ParkedLoop::spawn("svc-sentinel", move || {
            let events = detector.observe(&registry.snapshot(), Instant::now());
            published.store(detector.stalled() as u64, Ordering::Relaxed);
            for event in events {
                if let StallEvent::Missed { lane, shard, gen } = event {
                    // Count and trace before the cancel is published: the
                    // shard degrades as soon as it sees the cancel, so
                    // whoever reads its reply also sees the miss.
                    counted.fetch_add(1, Ordering::Relaxed);
                    yac_obs::inc(Metric::HeartbeatsMissed);
                    yac_obs::trace_instant(
                        TraceEventKind::HeartbeatMissed,
                        TraceCtx {
                            worker: Some(lane as u32),
                            shard: Some(shard as u32),
                            ..TraceCtx::default()
                        },
                    );
                    registry.cancel(lane, gen);
                }
            }
            Some(poll)
        });
        StallSentinel {
            stalled,
            missed,
            _poller: poller,
        }
    }

    /// Lanes currently stalled (cancelled or wedged), as of the last
    /// sentinel poll.
    #[must_use]
    pub fn stalled_lanes(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Leases cancelled for a missed heartbeat since the sentinel
    /// started.
    #[must_use]
    pub fn heartbeats_missed(&self) -> u64 {
        self.missed.load(Ordering::Relaxed)
    }

    /// Stops and joins the sentinel thread (as dropping it does).
    pub fn stop(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(gen: u64, tick: u64) -> LaneState {
        LaneState {
            shard: Some(7),
            gen,
            tick,
        }
    }

    const IDLE: LaneState = LaneState {
        shard: None,
        gen: 0,
        tick: 0,
    };

    #[test]
    fn lease_publishes_busy_beats_and_releases() {
        let reg = HeartbeatRegistry::new(2);
        assert_eq!(reg.busy(), 0);
        let lease = reg.begin(1, 42);
        assert_eq!(reg.busy(), 1);
        let before = reg.snapshot()[1];
        assert_eq!(before.shard, Some(42));
        lease.beat();
        lease.beat();
        let after = reg.snapshot()[1];
        assert_eq!(after.tick, before.tick + 2);
        assert!(!lease.is_cancelled());
        reg.cancel(1, lease.gen());
        assert!(lease.is_cancelled());
        drop(lease);
        assert_eq!(reg.busy(), 0);
        // A fresh lease has a fresh generation: the old cancel is stale.
        let next = reg.begin(1, 43);
        assert!(!next.is_cancelled());
    }

    #[test]
    fn detector_walks_missed_then_wedged_once_per_lease() {
        let t0 = Instant::now();
        let budget = Duration::from_millis(100);
        let mut d = StallDetector::new(1, budget);
        assert!(d.observe(&[busy(1, 5)], t0).is_empty(), "first sight");
        assert!(
            d.observe(&[busy(1, 5)], t0 + Duration::from_millis(50))
                .is_empty(),
            "inside budget"
        );
        let events = d.observe(&[busy(1, 5)], t0 + Duration::from_millis(150));
        assert_eq!(
            events,
            vec![StallEvent::Missed {
                lane: 0,
                shard: 7,
                gen: 1
            }]
        );
        assert_eq!(d.stalled(), 1);
        // No progress after the cancel: wedged, once.
        let events = d.observe(&[busy(1, 5)], t0 + Duration::from_millis(300));
        assert_eq!(
            events,
            vec![StallEvent::Wedged {
                lane: 0,
                shard: 7,
                gen: 1
            }]
        );
        assert!(d
            .observe(&[busy(1, 5)], t0 + Duration::from_millis(600))
            .is_empty());
        assert_eq!(d.stalled(), 1);
        // A fresh lease on the lane is watched afresh.
        assert!(d
            .observe(&[busy(2, 0)], t0 + Duration::from_millis(700))
            .is_empty());
        assert_eq!(d.stalled(), 0);
    }

    #[test]
    fn progress_and_idleness_reset_the_budget() {
        let t0 = Instant::now();
        let budget = Duration::from_millis(100);
        let mut d = StallDetector::new(1, budget);
        let _ = d.observe(&[busy(1, 5)], t0);
        // A beat inside the budget restarts the clock.
        let _ = d.observe(&[busy(1, 6)], t0 + Duration::from_millis(90));
        assert!(
            d.observe(&[busy(1, 6)], t0 + Duration::from_millis(150))
                .is_empty(),
            "only 60ms since the beat"
        );
        // Going idle clears the watch entirely.
        let _ = d.observe(&[IDLE], t0 + Duration::from_millis(160));
        assert!(d
            .observe(&[busy(1, 6)], t0 + Duration::from_millis(400))
            .is_empty());
        assert_eq!(d.stalled(), 0);
    }

    #[test]
    fn sentinel_cancels_and_reports_a_stalled_lease() {
        let registry = Arc::new(HeartbeatRegistry::new(2));
        let sentinel = StallSentinel::spawn(Arc::clone(&registry), Duration::from_millis(20));
        let lease = registry.begin(1, 9);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lease.is_cancelled() {
            assert!(Instant::now() < deadline, "sentinel never cancelled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sentinel.heartbeats_missed(), 1, "one miss, counted");
        // Cancelled, not yet released: the lane still counts as stalled
        // by the next poll.
        while sentinel.stalled_lanes() != 1 {
            assert!(Instant::now() < deadline, "stall never reported");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(lease);
        while sentinel.stalled_lanes() != 0 {
            assert!(Instant::now() < deadline, "released lane still stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sentinel.heartbeats_missed(), 1, "a miss fires once");
        sentinel.stop();
    }

    #[test]
    fn stopping_the_sentinel_does_not_wait_out_a_poll() {
        // A 2 s budget polls every 50 ms; ten stops that each waited out
        // a poll would take half a second.
        let registry = Arc::new(HeartbeatRegistry::new(1));
        let started = Instant::now();
        for _ in 0..10 {
            StallSentinel::spawn(Arc::clone(&registry), Duration::from_secs(2)).stop();
        }
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "ten stops took {:?}",
            started.elapsed()
        );
    }
}

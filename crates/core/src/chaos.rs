//! Deterministic chaos injection for the durability layer — I/O faults
//! and crash points at checkpoint/journal write boundaries — and for the
//! *network* layer: partial reads/writes, per-op delays, mid-frame
//! disconnects and byte corruption injected into any `Read + Write`
//! stream via [`ChaosStream`].
//!
//! The torture tests in `crates/core/tests/chaos_torture.rs` need to
//! kill a sweep at *every* point where state touches disk and prove the
//! resume path reconstructs bit-identical results. This module numbers
//! each durable write (an **op**) in program order and, when a
//! [`ChaosPlan`] is installed, consults it at every boundary:
//!
//! * **Fault injection** — a SplitMix64-keyed draw (the same
//!   [`FaultPlan`] stream the chip sampler uses) turns the op into an
//!   `io::Error`, which the write site surfaces as
//!   [`crate::StudyError::Io`]. Deterministic: the same plan fails the
//!   same ops every run.
//! * **Crash points** — when the op counter reaches
//!   [`ChaosPlan::crash_at`] the process aborts, optionally after a
//!   *short write* (half the payload lands on disk first), simulating a
//!   power cut mid-append.
//!
//! The network side mirrors the disk side: a [`NetPlan`] (the `net_rate`
//! / `net_delay_us` keys of the same `YAC_CHAOS` spec) keys a SplitMix64
//! draw per stream op. Each [`ChaosStream`] gets its own deterministic
//! sub-stream (seeded by the plan seed, its [`NetSite`] and a process-wide
//! stream counter), so the faults a given stream sees depend only on its
//! creation order, never on scheduler timing.
//!
//! When no plan is installed the interception is one relaxed atomic
//! load — studies in production never pay for it. Plans are process
//! global; install one only from a single-threaded test harness (the
//! torture tests run each plan in its own subprocess).

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use yac_obs::Metric;
use yac_variation::montecarlo::mix_seed;
use yac_variation::{FaultPlan, InvalidRateError};

/// Which durable-write boundary an op is about to cross. Names show up
/// in injected error messages so a surfaced failure points at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoSite {
    /// A study checkpoint's temp-file write (payload + fsync).
    Checkpoint,
    /// The atomic rename publishing a checkpoint (+ parent-dir fsync).
    CheckpointRename,
    /// One appended line of a sweep journal (payload + fsync).
    SweepJournal,
    /// A service result-cache file save: the temp-file write (payload +
    /// fsync) and the rename publishing it (+ parent-dir fsync).
    CacheFile,
}

impl IoSite {
    /// Stable lower-case site name used in injected error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IoSite::Checkpoint => "checkpoint",
            IoSite::CheckpointRename => "checkpoint-rename",
            IoSite::SweepJournal => "sweep-journal",
            IoSite::CacheFile => "cache-file",
        }
    }
}

/// Which end of a connection a [`ChaosStream`] wraps. Folded into the
/// stream's seed so client and server streams draw independent faults,
/// and named in injected error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSite {
    /// The client end of a service connection.
    Client,
    /// The server end of a service connection.
    Server,
}

impl NetSite {
    /// Stable lower-case site name used in injected error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetSite::Client => "net-client",
            NetSite::Server => "net-server",
        }
    }

    fn salt(self) -> u64 {
        match self {
            NetSite::Client => 0x636c_6965_6e74, // "client"
            NetSite::Server => 0x7365_7276_6572, // "server"
        }
    }
}

/// What a faulted network op does to its read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NetFault {
    /// Transfer at most one byte (a pathological short read/write).
    Partial,
    /// Sleep before the op completes normally.
    Delay,
    /// Fail with `ConnectionReset` and poison the stream for good.
    Disconnect,
    /// Flip one bit of the transferred bytes.
    Corrupt,
}

/// The network half of a chaos recipe: with probability `rate`, each
/// stream op draws one of partial transfer, delay, disconnect or bit
/// corruption — uniformly, keyed by the plan seed, the stream's
/// [`NetSite`] and creation index, and the op number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPlan {
    /// Keys every stream's fault draw.
    pub seed: u64,
    /// Probability an op draws a fault (`0..=1`).
    pub rate: f64,
    /// Injected delay for ops that draw the delay fault.
    pub delay: Duration,
}

impl NetPlan {
    /// A plan faulting about `rate` of all stream ops, keyed by `seed`,
    /// delaying faulted ops by `delay`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn new(seed: u64, rate: f64, delay: Duration) -> Result<Self, InvalidRateError> {
        // Reuse FaultPlan's rate validation; the draw itself is local.
        FaultPlan::new(rate, seed)?;
        Ok(NetPlan { seed, rate, delay })
    }

    /// The fault injected into op `op` of the stream keyed by
    /// `stream_seed`, or `None` to pass the op through untouched. Pure:
    /// depends only on `(self, stream_seed, op)`.
    fn fault_for(&self, stream_seed: u64, op: u64) -> Option<(NetFault, u64)> {
        let draw = mix_seed(stream_seed, op);
        let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit >= self.rate {
            return None;
        }
        let fault = match (draw >> 2) & 3 {
            0 => NetFault::Partial,
            1 => NetFault::Delay,
            2 => NetFault::Disconnect,
            _ => NetFault::Corrupt,
        };
        Some((fault, draw))
    }
}

/// Salt folded into the memory-corruption draw so it never shares a
/// stream with disk or network faults of the same seed.
const MEM_SALT: u64 = 0x006d_656d_5f72_6f74; // "mem_rot"

/// The memory half of a chaos recipe: with probability `rate`, a cache
/// entry's stored bytes get one bit flipped — keyed by the plan seed and
/// the entry's cache key, so corruption is order-independent (the same
/// entries rot no matter when they were inserted) and `rate=1` rots
/// every entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPlan {
    /// Keys every entry's corruption draw.
    pub seed: u64,
    /// Probability an entry is corrupted (`0..=1`).
    pub rate: f64,
}

impl MemPlan {
    /// A plan rotting about `rate` of all cache entries, keyed by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Result<Self, InvalidRateError> {
        // Reuse FaultPlan's rate validation; the draw itself is local.
        FaultPlan::new(rate, seed)?;
        Ok(MemPlan { seed, rate })
    }

    /// The corruption draw for the entry keyed `key`, or `None` when the
    /// entry is spared. Pure: depends only on `(self, key)`.
    fn draw_for(&self, key: u64) -> Option<u64> {
        let draw = mix_seed(self.seed ^ MEM_SALT, key);
        let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (unit < self.rate).then_some(draw)
    }

    /// Flips one deterministic bit of `bytes` when the draw for `key`
    /// corrupts it; returns whether a bit flipped. Empty payloads are
    /// never touched.
    pub fn corrupt(&self, key: u64, bytes: &mut [u8]) -> bool {
        let Some(draw) = self.draw_for(key) else {
            return false;
        };
        if bytes.is_empty() {
            return false;
        }
        let byte = (draw >> 16) as usize % bytes.len();
        let bit = (draw >> 40) & 7;
        bytes[byte] ^= 1 << bit;
        true
    }
}

/// A deterministic chaos recipe: which ops fail and where to crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Keys the fault draw (and is folded into injected messages).
    pub seed: u64,
    /// Abort the process when the op counter reaches this value.
    pub crash_at: Option<u64>,
    /// On crash, first write half the payload — a torn tail.
    pub torn_crash: bool,
    /// Per-op I/O fault draw; `None` injects no faults.
    faults: Option<FaultPlan>,
    /// Network-stream fault draw; `None` leaves the wire untouched.
    net: Option<NetPlan>,
    /// Cache-entry bit-rot draw; `None` leaves memory untouched.
    mem: Option<MemPlan>,
    /// Hang this shard index, once per install.
    stall_shard: Option<u64>,
}

impl ChaosPlan {
    /// A plan that fails each op with probability `fault_rate` (keyed by
    /// `seed`) and never crashes; add a crash point with
    /// [`ChaosPlan::crash_at`] / [`ChaosPlan::torn`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `fault_rate` is finite and in
    /// `[0, 1]`.
    pub fn new(seed: u64, fault_rate: f64) -> Result<Self, InvalidRateError> {
        let faults = if fault_rate > 0.0 {
            Some(FaultPlan::new(fault_rate, seed)?)
        } else {
            // Validate the rate even when it draws nothing.
            FaultPlan::new(fault_rate, seed)?;
            None
        };
        Ok(ChaosPlan {
            seed,
            crash_at: None,
            torn_crash: false,
            faults,
            net: None,
            mem: None,
            stall_shard: None,
        })
    }

    /// Adds a network fault plan: each stream op faults with probability
    /// `rate`, delays last `delay`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn with_net(mut self, rate: f64, delay: Duration) -> Result<Self, InvalidRateError> {
        self.net = if rate > 0.0 {
            Some(NetPlan::new(self.seed, rate, delay)?)
        } else {
            NetPlan::new(self.seed, rate, delay)?;
            None
        };
        Ok(self)
    }

    /// The plan's network half, if any.
    #[must_use]
    pub fn net(&self) -> Option<NetPlan> {
        self.net
    }

    /// Adds a memory fault plan: each cache entry rots with probability
    /// `rate`, keyed by the plan seed and the entry key.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn with_mem(mut self, rate: f64) -> Result<Self, InvalidRateError> {
        self.mem = if rate > 0.0 {
            Some(MemPlan::new(self.seed, rate)?)
        } else {
            MemPlan::new(self.seed, rate)?;
            None
        };
        Ok(self)
    }

    /// The plan's memory half, if any.
    #[must_use]
    pub fn mem(&self) -> Option<MemPlan> {
        self.mem
    }

    /// Sets the stalled shard: the first run of shard `shard` hangs
    /// until cooperatively cancelled (once per [`install`]).
    #[must_use]
    pub fn stall(mut self, shard: u64) -> Self {
        self.stall_shard = Some(shard);
        self
    }

    /// The shard index whose first run hangs, if any.
    #[must_use]
    pub fn stalled_shard(&self) -> Option<u64> {
        self.stall_shard
    }

    /// Sets the crash point: the process aborts at op `op`.
    #[must_use]
    pub fn crash_at(mut self, op: u64) -> Self {
        self.crash_at = Some(op);
        self
    }

    /// Makes the crash torn: half the payload is written first.
    #[must_use]
    pub fn torn(mut self, torn: bool) -> Self {
        self.torn_crash = torn;
        self
    }

    /// Whether the fault draw fails op number `op`.
    #[must_use]
    pub fn faults_op(&self, op: u64) -> bool {
        // The plan's seed is already the FaultPlan salt; the stream seed
        // must differ from it or the two XOR to the same stream for
        // every plan.
        self.faults
            .as_ref()
            .is_some_and(|f| f.fault_for(0, op).is_some())
    }

    /// Parses a plan from the `YAC_CHAOS` environment variable:
    /// comma-separated `seed=N`, `rate=F`, `crash_at=N`, `torn=0|1`,
    /// `net_rate=F`, `net_delay_us=N`, `mem_rate=F`, `stall_shard=N`
    /// (e.g. `YAC_CHAOS=seed=7,rate=0,net_rate=0.2,net_delay_us=500`).
    /// Returns `Ok(None)` when the variable is unset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed key or value.
    pub fn from_env() -> Result<Option<ChaosPlan>, String> {
        let Ok(spec) = std::env::var("YAC_CHAOS") else {
            return Ok(None);
        };
        Self::parse(&spec).map(Some)
    }

    /// Parses the `YAC_CHAOS` spec format (see [`ChaosPlan::from_env`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed key or value.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let (mut seed, mut rate, mut crash_at, mut torn) = (0u64, 0.0f64, None, false);
        let (mut net_rate, mut net_delay_us) = (0.0f64, 500u64);
        let (mut mem_rate, mut stall_shard) = (0.0f64, None);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec part {part:?} is not key=value"))?;
            let bad = || format!("chaos spec {key}={value:?}: bad value");
            match key.trim() {
                "seed" => seed = value.trim().parse().map_err(|_| bad())?,
                "rate" => rate = value.trim().parse().map_err(|_| bad())?,
                "crash_at" => crash_at = Some(value.trim().parse().map_err(|_| bad())?),
                "torn" => torn = value.trim() == "1",
                "net_rate" => net_rate = value.trim().parse().map_err(|_| bad())?,
                "net_delay_us" => net_delay_us = value.trim().parse().map_err(|_| bad())?,
                "mem_rate" => mem_rate = value.trim().parse().map_err(|_| bad())?,
                "stall_shard" => stall_shard = Some(value.trim().parse().map_err(|_| bad())?),
                other => return Err(format!("chaos spec has unknown key {other:?}")),
            }
        }
        let mut plan = ChaosPlan::new(seed, rate).map_err(|e| format!("chaos spec rate: {e}"))?;
        plan.crash_at = crash_at;
        plan.torn_crash = torn;
        plan.stall_shard = stall_shard;
        plan.with_net(net_rate, Duration::from_micros(net_delay_us))
            .map_err(|e| format!("chaos spec net_rate: {e}"))?
            .with_mem(mem_rate)
            .map_err(|e| format!("chaos spec mem_rate: {e}"))
    }
}

/// Fast-path gate: `false` means [`intercept_write`] is a passthrough.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Durable-write ops executed since the last [`install`].
static OPS: AtomicU64 = AtomicU64::new(0);
/// The installed plan (process global).
static PLAN: Mutex<Option<ChaosPlan>> = Mutex::new(None);

/// Installs `plan` process-wide and resets the op counter. Only test
/// harnesses should call this; production runs never install a plan.
pub fn install(plan: ChaosPlan) {
    *PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
    OPS.store(0, Ordering::SeqCst);
    STALL_TAKEN.store(false, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes any installed plan; writes pass through untouched again. The
/// op counter keeps its value so a harness can read it after a run.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Durable-write ops executed since the last [`install`]. A harness
/// runs once with a fault-free plan to learn how many crash points a
/// workload has, then replays with `crash_at` sweeping `0..ops()`.
#[must_use]
pub fn ops() -> u64 {
    OPS.load(Ordering::SeqCst)
}

/// Routes one durable write through the chaos layer. `write` receives
/// the payload to put on disk (possibly truncated for a torn crash);
/// sites without a payload (renames) pass `&[]`.
pub(crate) fn intercept_write(
    site: IoSite,
    path: &Path,
    bytes: &[u8],
    write: impl FnOnce(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    if !ENABLED.load(Ordering::Relaxed) {
        return write(bytes);
    }
    let plan = *PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(plan) = plan else {
        return write(bytes);
    };
    let op = OPS.fetch_add(1, Ordering::SeqCst);
    if plan.crash_at == Some(op) {
        if plan.torn_crash && !bytes.is_empty() {
            let _ = write(&bytes[..bytes.len() / 2]);
        }
        // A real crash, not a panic: nothing unwinds, nothing flushes.
        std::process::abort();
    }
    if plan.faults_op(op) {
        return Err(io::Error::other(format!(
            "injected chaos fault at {} op {op} ({})",
            site.name(),
            path.display()
        )));
    }
    write(bytes)
}

/// Streams created since process start; allocates each [`ChaosStream`]
/// its deterministic sub-seed. Never reset: a stream's faults depend on
/// its creation index, so two streams never share a draw.
static STREAMS: AtomicU64 = AtomicU64::new(0);

/// The installed plan's network half, or `None` when chaos is off. One
/// relaxed atomic load on the fast path.
#[must_use]
pub fn net_plan() -> Option<NetPlan> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .and_then(|plan| plan.net)
}

/// The installed plan's memory half, or `None` when chaos is off. One
/// relaxed atomic load on the fast path.
#[must_use]
pub fn mem_plan() -> Option<MemPlan> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .and_then(|plan| plan.mem)
}

/// Routes a freshly-stored cache entry through the memory chaos layer:
/// flips one deterministic bit of `bytes` when the installed plan's
/// `mem_rate` draw corrupts entry `key`. Returns whether a bit flipped.
#[must_use]
pub fn corrupt_cache_entry(key: u64, bytes: &mut [u8]) -> bool {
    mem_plan().is_some_and(|plan| plan.corrupt(key, bytes))
}

/// Whether the installed plan's stalled shard has been claimed yet. One
/// claim per [`install`], so the next query's shard runs clean.
static STALL_TAKEN: AtomicBool = AtomicBool::new(false);

/// Claims the hang injection for shard `shard`: returns `true` exactly
/// once per [`install`], and only when the installed plan names this
/// shard in `stall_shard`. The caller is expected to busy-wait
/// *cooperatively* (checking its cancel signal) so the health sentinel
/// can release it.
#[must_use]
pub fn stall_ticket(shard: u64) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    let stalled = PLAN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .and_then(|plan| plan.stall_shard);
    stalled == Some(shard)
        && STALL_TAKEN
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
}

/// A deterministic fault-injecting wrapper around any `Read + Write`
/// stream (a socket, a pipe, an in-memory cursor).
///
/// The plan is snapshotted at construction: a stream created while chaos
/// is off stays a passthrough for its whole life, so connections opened
/// before a test installs a plan are never retroactively poisoned. Each
/// op (one `read` or `write` call) draws once from the stream's own
/// SplitMix64 sub-stream:
///
/// * **Partial** — transfer at most one byte; framed protocols must
///   survive arbitrarily short reads and writes.
/// * **Delay** — sleep [`NetPlan::delay`] first; deadlines must fire.
/// * **Disconnect** — fail with `ConnectionReset` and poison the stream;
///   every later op fails the same way, like a real dead socket.
/// * **Corrupt** — flip one bit of the transferred bytes; CRC-checked
///   frames must refuse the payload rather than trust it.
///
/// Injected faults count into [`Metric::NetFaultsInjected`].
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    site: NetSite,
    plan: Option<NetPlan>,
    stream_seed: u64,
    op: u64,
    broken: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner`, snapshotting the currently-installed net plan.
    pub fn new(inner: S, site: NetSite) -> Self {
        let plan = net_plan();
        let stream_seed = plan.map_or(0, |p| {
            let index = STREAMS.fetch_add(1, Ordering::Relaxed);
            mix_seed(p.seed ^ site.salt(), index)
        });
        ChaosStream {
            inner,
            site,
            plan,
            stream_seed,
            op: 0,
            broken: false,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The wrapped stream, mutably.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Draws the fault for the next op, if any.
    fn next_fault(&mut self) -> Option<(NetFault, u64)> {
        let plan = self.plan?;
        let op = self.op;
        self.op += 1;
        plan.fault_for(self.stream_seed, op)
    }

    fn disconnect(&mut self) -> io::Error {
        self.broken = true;
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected chaos disconnect at {}", self.site.name()),
        )
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.broken {
            return Err(self.disconnect());
        }
        let Some((fault, draw)) = self.next_fault() else {
            return self.inner.read(buf);
        };
        yac_obs::inc(Metric::NetFaultsInjected);
        match fault {
            NetFault::Partial => {
                let cap = buf.len().min(1);
                self.inner.read(&mut buf[..cap])
            }
            NetFault::Delay => {
                std::thread::sleep(self.plan.map_or(Duration::ZERO, |p| p.delay));
                self.inner.read(buf)
            }
            NetFault::Disconnect => Err(self.disconnect()),
            NetFault::Corrupt => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let byte = (draw >> 16) as usize % n;
                    let bit = (draw >> 40) & 7;
                    buf[byte] ^= 1 << bit;
                }
                Ok(n)
            }
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken {
            return Err(self.disconnect());
        }
        let Some((fault, draw)) = self.next_fault() else {
            return self.inner.write(buf);
        };
        yac_obs::inc(Metric::NetFaultsInjected);
        match fault {
            NetFault::Partial => {
                let cap = buf.len().min(1);
                self.inner.write(&buf[..cap])
            }
            NetFault::Delay => {
                std::thread::sleep(self.plan.map_or(Duration::ZERO, |p| p.delay));
                self.inner.write(buf)
            }
            NetFault::Disconnect => Err(self.disconnect()),
            NetFault::Corrupt => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                let mut copy = buf.to_vec();
                let byte = (draw >> 16) as usize % copy.len();
                let bit = (draw >> 40) & 7;
                copy[byte] ^= 1 << bit;
                // Report however many corrupted bytes landed; the caller
                // sees an ordinary (possibly short) write.
                self.inner.write(&copy)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(self.disconnect());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // No test here installs a global plan: tests in one binary share the
    // process, and a stray installed plan would fail unrelated writes.
    // Global install/crash behaviour is exercised in the dedicated
    // `chaos_torture` integration binary, one subprocess per plan.

    #[test]
    fn plans_parse_from_spec_strings() {
        let plan = ChaosPlan::parse("seed=7,rate=0,crash_at=12,torn=1").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crash_at, Some(12));
        assert!(plan.torn_crash);
        assert!(!plan.faults_op(0));

        let plain = ChaosPlan::parse("seed=3,rate=1").unwrap();
        assert_eq!(plain.crash_at, None);
        assert!(!plain.torn_crash);
        assert!(plain.faults_op(0), "rate 1 faults every op");

        assert!(ChaosPlan::parse("seed").is_err());
        assert!(ChaosPlan::parse("seed=x").is_err());
        assert!(ChaosPlan::parse("rate=2.0").is_err(), "rate out of range");
        assert!(ChaosPlan::parse("mystery=1").is_err());
    }

    #[test]
    fn fault_draw_is_deterministic_and_keyed_by_seed() {
        let plan = ChaosPlan::new(11, 0.5).unwrap();
        let draws: Vec<bool> = (0..64).map(|op| plan.faults_op(op)).collect();
        assert_eq!(
            draws,
            (0..64).map(|op| plan.faults_op(op)).collect::<Vec<_>>(),
            "same plan, same draws"
        );
        assert!(draws.iter().any(|&f| f), "rate 0.5 faults some ops");
        assert!(!draws.iter().all(|&f| f), "rate 0.5 spares some ops");
        let other = ChaosPlan::new(12, 0.5).unwrap();
        assert_ne!(
            draws,
            (0..64).map(|op| other.faults_op(op)).collect::<Vec<_>>(),
            "different seed, different draws"
        );
    }

    #[test]
    fn zero_rate_never_faults() {
        let plan = ChaosPlan::new(1, 0.0).unwrap();
        assert!((0..1000).all(|op| !plan.faults_op(op)));
    }

    #[test]
    fn builder_sets_crash_point() {
        let plan = ChaosPlan::new(1, 0.0).unwrap().crash_at(5).torn(true);
        assert_eq!(plan.crash_at, Some(5));
        assert!(plan.torn_crash);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(ChaosPlan::new(1, -0.1).is_err());
        assert!(ChaosPlan::new(1, 1.1).is_err());
        assert!(ChaosPlan::new(1, f64::NAN).is_err());
        let plan = ChaosPlan::new(1, 0.0).unwrap();
        assert!(plan.with_net(1.5, Duration::ZERO).is_err());
        assert!(plan.with_net(f64::NAN, Duration::ZERO).is_err());
    }

    #[test]
    fn net_keys_parse_from_spec_strings() {
        let plan = ChaosPlan::parse("seed=9,net_rate=0.25,net_delay_us=120").unwrap();
        let net = plan.net().expect("net plan installed");
        assert_eq!(net.seed, 9);
        assert!((net.rate - 0.25).abs() < 1e-12);
        assert_eq!(net.delay, Duration::from_micros(120));

        // net_rate=0 means no net plan at all, and the default spec has none.
        assert_eq!(ChaosPlan::parse("seed=9,net_rate=0").unwrap().net(), None);
        assert_eq!(ChaosPlan::parse("seed=9,rate=0").unwrap().net(), None);
        assert!(ChaosPlan::parse("net_rate=2.0").is_err());
        assert!(ChaosPlan::parse("net_delay_us=x").is_err());
    }

    #[test]
    fn net_fault_draw_is_deterministic_and_mixes_kinds() {
        let plan = NetPlan::new(7, 1.0, Duration::ZERO).unwrap();
        let draws: Vec<_> = (0..256).map(|op| plan.fault_for(42, op)).collect();
        assert_eq!(
            draws,
            (0..256)
                .map(|op| plan.fault_for(42, op))
                .collect::<Vec<_>>(),
            "same stream seed, same draws"
        );
        let kinds: std::collections::HashSet<_> = draws
            .iter()
            .map(|d| d.expect("rate 1 always faults").0)
            .collect();
        assert_eq!(kinds.len(), 4, "all four fault kinds appear: {kinds:?}");
        // A different stream draws a different fault sequence.
        assert_ne!(
            draws,
            (0..256)
                .map(|op| plan.fault_for(43, op))
                .collect::<Vec<_>>()
        );
        // Rate 0 never faults.
        let quiet = NetPlan::new(7, 0.0, Duration::ZERO).unwrap();
        assert!((0..1000).all(|op| quiet.fault_for(42, op).is_none()));
    }

    #[test]
    fn mem_keys_parse_from_spec_strings() {
        let plan = ChaosPlan::parse("seed=9,mem_rate=0.5,stall_shard=3").unwrap();
        let mem = plan.mem().expect("mem plan installed");
        assert_eq!(mem.seed, 9);
        assert!((mem.rate - 0.5).abs() < 1e-12);
        assert_eq!(plan.stalled_shard(), Some(3));

        // mem_rate=0 means no mem plan, and the default spec has none.
        assert_eq!(ChaosPlan::parse("seed=9,mem_rate=0").unwrap().mem(), None);
        assert_eq!(ChaosPlan::parse("seed=9,rate=0").unwrap().mem(), None);
        assert_eq!(
            ChaosPlan::parse("seed=9,rate=0").unwrap().stalled_shard(),
            None
        );
        assert!(ChaosPlan::parse("mem_rate=2.0").is_err());
        assert!(ChaosPlan::parse("stall_shard=x").is_err());
    }

    #[test]
    fn mem_corruption_is_deterministic_keyed_by_entry_and_one_bit() {
        let plan = MemPlan::new(7, 1.0).unwrap();
        let original = b"E 00deadbeef077 result line".to_vec();
        let mut rotted = original.clone();
        assert!(plan.corrupt(42, &mut rotted), "rate 1 rots every entry");
        let flipped: u32 = original
            .iter()
            .zip(&rotted)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must flip");
        // Same key, same flip — order-independent corruption.
        let mut again = original.clone();
        assert!(plan.corrupt(42, &mut again));
        assert_eq!(again, rotted);
        // A different key flips a different draw.
        let mut other = original.clone();
        assert!(plan.corrupt(43, &mut other));
        assert_ne!(other, rotted);
        // Rate 0 never rots; empty payloads are never touched.
        let quiet = MemPlan::new(7, 0.0).unwrap();
        let mut untouched = original.clone();
        assert!(!quiet.corrupt(42, &mut untouched));
        assert_eq!(untouched, original);
        assert!(!plan.corrupt(42, &mut []));
    }

    #[test]
    fn builder_sets_stall_shard() {
        let plan = ChaosPlan::new(1, 0.0).unwrap().stall(4);
        assert_eq!(plan.stalled_shard(), Some(4));
        // No global plan installed in unit tests, so no ticket.
        assert!(!stall_ticket(4));
    }

    #[test]
    fn chaos_stream_without_a_plan_is_a_passthrough() {
        // No global plan installed in unit tests (see module note), so
        // the stream must transfer bytes verbatim.
        let mut stream = ChaosStream::new(io::Cursor::new(Vec::new()), NetSite::Client);
        stream.write_all(b"hello wire").unwrap();
        stream.flush().unwrap();
        stream.get_mut().set_position(0);
        let mut back = Vec::new();
        stream.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"hello wire");
    }

    #[test]
    fn chaos_stream_faults_follow_an_explicit_plan() {
        // Drive the fault paths without touching the global install by
        // building the stream by hand around a full-rate plan.
        let plan = NetPlan::new(3, 1.0, Duration::ZERO).unwrap();
        let mut buf = [0u8; 64];
        let mut saw_partial = false;
        let mut saw_reset = false;
        // A stream dies at its first Disconnect draw, so scan several
        // independent streams to observe both fault shapes.
        for stream_seed in 0..16 {
            let mut stream = ChaosStream {
                inner: io::Cursor::new(vec![0u8; 4096]),
                site: NetSite::Server,
                plan: Some(plan),
                stream_seed,
                op: 0,
                broken: false,
            };
            for _ in 0..64 {
                match stream.read(&mut buf) {
                    Ok(n) if n == 1 && buf.len() > 1 => saw_partial = true,
                    Ok(_) => {}
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{e}");
                        saw_reset = true;
                        break;
                    }
                }
            }
            if stream.broken {
                // Once disconnected, the stream stays dead.
                let err = stream.read(&mut buf).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
                let err = stream.write(b"x").unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            }
        }
        assert!(saw_partial, "rate-1 plan never injected a partial read");
        assert!(saw_reset, "rate-1 plan never injected a disconnect");
    }

    #[test]
    fn chaos_stream_corruption_flips_exactly_one_bit() {
        let plan = NetPlan::new(3, 1.0, Duration::ZERO).unwrap();
        // Find a (seed, op) pair that draws Corrupt, then check the write.
        let mut found = false;
        for seed in 0..64 {
            if let Some((NetFault::Corrupt, _)) = plan.fault_for(seed, 0) {
                let mut stream = ChaosStream {
                    inner: io::Cursor::new(Vec::new()),
                    site: NetSite::Client,
                    plan: Some(plan),
                    stream_seed: seed,
                    op: 0,
                    broken: false,
                };
                let payload = [0u8; 32];
                let n = stream.write(&payload).unwrap();
                let written = &stream.get_ref().get_ref()[..n];
                let flipped: u32 = written.iter().map(|b| b.count_ones()).sum();
                assert_eq!(flipped, 1, "exactly one bit must flip: {written:?}");
                found = true;
                break;
            }
        }
        assert!(found, "no corrupt draw in 64 stream seeds at rate 1");
    }
}

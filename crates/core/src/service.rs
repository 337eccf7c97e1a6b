//! The interactive sweep service: study queries over a content-addressed
//! result cache, computed on a shared shard pool.
//!
//! Batch sweeps ([`crate::sweep::run_sweep`]) run a fixed grid to a
//! journal and exit. The service inverts the workload: it stays up,
//! accepts single-study queries over a local TCP socket, and answers
//! repeat queries from a cache instead of recomputing them. Three
//! properties carry over from the batch path unchanged:
//!
//! * **Bit-identical results.** A query key is the SplitMix64
//!   fingerprint of the *single-cell sweep grid* the query denotes
//!   ([`StudyQuery::fingerprint`] and [`SweepGrid::fingerprint`] share
//!   one key fold), and the cached value is the canonical
//!   [`render_result`] text — every `f64` an IEEE bit image. A cache hit
//!   is therefore byte-identical to recomputation, and to the `S` record
//!   a sweep journal would hold for the same cell; tests assert all
//!   three ways.
//! * **Supervised execution.** Misses run on a long-lived
//!   [`WorkerPool`] ([`crate::pool`]), each shard under the same
//!   deadline/degrade loop and result collector as batch studies
//!   ([`crate::executor`]); the service adds a stall sentinel that
//!   cancels a shard whose heartbeat stops, which then degrades.
//!   Degraded results are returned honestly — but **not cached**,
//!   because they depend on which shards happened to fail.
//! * **Bounded admission.** At most [`ServiceConfig::max_inflight`]
//!   queries compute at once; the next miss gets a typed
//!   [`ServiceReply::Busy`], never an unbounded queue. Cache hits are
//!   deliberately served even when saturated — a hit costs one map
//!   lookup, and refusing it would punish exactly the queries the cache
//!   exists to make cheap.
//!
//! Cancellation is cooperative and per query: while a query computes,
//! the connection thread that waits for its shards also watches its
//! client, and raises the query's cancel flag on a disconnect, which
//! stops the shards between chips. No thread is
//! spawned for it. A cache hit answers at once and is not watched. Hits
//! and connection I/O preempt shard compute: pool workers run at
//! background priority ([`crate::pool`]).
//!
//! # Wire protocol
//!
//! Requests and replies travel in the CRC-checked frames of
//! [`crate::wire`], which owns the frame format and the JSON codec.
//!
//! # Overload hardening
//!
//! The serving tier refuses to be wedged by a slow, dead or malicious
//! peer (the disk path got the same treatment in the sweep journal):
//!
//! * **Per-frame deadlines** — once a frame's first byte arrives, the
//!   rest must follow within [`ServiceConfig::read_deadline`]; replies
//!   must drain within [`ServiceConfig::write_deadline`]. A peer that
//!   stalls mid-frame (the classic slowloris) is evicted, counted in
//!   `slow_clients_evicted` and traced as `SlowClientEvicted`.
//! * **A connection cap** — [`ServiceConfig::max_conns`]; the excess
//!   connection gets a best-effort `Busy` frame and is closed
//!   (`conns_rejected` / `ConnRejected`). Handler threads are reused
//!   across connections and never outnumber the cap.
//! * **Typed backpressure with a hint** — [`ServiceReply::Busy`] carries
//!   `retry_after_ms` so clients back off without guessing.
//! * **Client deadlines** — a query's `deadline_ms`, counted from the
//!   request's receipt, bounds how long the connection thread waits for
//!   the query's shards: when it passes, the thread raises the query's
//!   cooperative-cancel flag and answers [`ServiceReply::Deadline`];
//!   abandoned work stops between chips instead of burning the pool.
//! * **Graceful drain** — the `drain` op finishes in-flight queries,
//!   answers new ones with [`ServiceReply::Draining`], and exits the
//!   serve loop once the last in-flight query completes.
//!
//! # Cache persistence (`YAC-CACHE v1`)
//!
//! [`ResultCache::save`] writes the cache as CRC-trailed lines (the
//! line format of the sweep journal and the checkpoint): a magic line,
//! then one `E <key> <record>` line per entry in ascending recency, so
//! LRU order survives a round trip. Each save atomically rewrites the
//! whole file (temp file, fsync, rename, parent fsync) through the chaos
//! layer ([`IoSite::CacheFile`]); a torn or rotted file is refused as
//! [`StudyError::Corrupt`] on load — the cache is an optimisation, never
//! a source of silent corruption. A cold cache
//! can also be warmed from a completed sweep journal
//! ([`ResultCache::warm_from_journal`]), re-keying each `Completed`
//! record by its cell's query fingerprint.
//!
//! # Examples
//!
//! ```
//! use yac_core::service::{ServiceConfig, StudyQuery, SweepService};
//! use yac_core::wire::ServiceReply;
//! use std::sync::Arc;
//! use std::sync::atomic::AtomicBool;
//!
//! let mut config = ServiceConfig::default();
//! config.exec.workers = 2;
//! let service = SweepService::new(config);
//! let query = StudyQuery {
//!     chips: 24,
//!     seed: 7,
//!     constraint: yac_core::ConstraintSpec::NOMINAL,
//!     kind: yac_core::PowerDownKind::Vertical,
//!     cpi: None,
//! };
//! let cancel = Arc::new(AtomicBool::new(false));
//! let first = service.query(&query, &cancel);
//! let second = service.query(&query, &cancel);
//! match (first, second) {
//!     (
//!         ServiceReply::Result { record: a, cached: false, .. },
//!         ServiceReply::Result { record: b, cached: true, .. },
//!     ) => assert_eq!(a, b, "cache hit is byte-identical"),
//!     other => panic!("expected result replies, got {other:?}"),
//! }
//! service.shutdown();
//! ```

use crate::chaos::{ChaosStream, IoSite, NetSite};
use crate::checkpoint::StudyError;
use crate::chip::PopulationConfig;
use crate::constraints::ConstraintSpec;
use crate::crc_log::{self, crc32, crc_line, Policy};
use crate::executor::{
    collect_shards, shards_for, submit_shard, Collected, ExecutorConfig, MergedShards, ShardJob,
    ShardMsg,
};
use crate::health::{HeartbeatRegistry, ParkedLoop, StallSentinel};
use crate::pool::WorkerPool;
use crate::schemes::PowerDownKind;
use crate::sweep::{
    parse_journal, parse_result, render_result, results_key, study_result_from_outcome, CpiOptions,
    StudySpec, StudyStatus, SweepConfig, SweepGrid,
};
use crate::wire::{
    frame_bytes, is_would_block, read_frame_with, FrameIn, HealthReport, ServiceReply,
    ServiceRequest, ServiceStats, DEFAULT_RETRY_AFTER_MS,
};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yac_obs::{Metric, Phase, TraceCtx, TraceEventKind};
use yac_variation::MonteCarlo;

/// Cache-file magic line content (before its CRC trailer).
const CACHE_MAGIC: &str = "YAC-CACHE v1";

/// Looks up one of the paper's constraint recipes by its stable name.
#[must_use]
pub fn constraint_by_name(name: &str) -> Option<ConstraintSpec> {
    [
        ConstraintSpec::NOMINAL,
        ConstraintSpec::RELAXED,
        ConstraintSpec::STRICT,
    ]
    .into_iter()
    .find(|c| c.name == name)
}

/// One cacheable unit of service work: a single sweep-grid cell.
///
/// The query deliberately exposes only result-shaping inputs — chips,
/// seed, constraint recipe, organisation, CPI budgets. Executor tuning
/// (workers, shard size, deadline) belongs to the service, not the query,
/// exactly as [`SweepGrid::fingerprint`] excludes it: two deployments
/// with different worker counts must hit each other's cache entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyQuery {
    /// Chips in the study population.
    pub chips: usize,
    /// Monte Carlo seed.
    pub seed: u64,
    /// Constraint recipe the population is classified under.
    pub constraint: ConstraintSpec,
    /// Which organisation's loss table the study builds.
    pub kind: PowerDownKind,
    /// Optional CPI measurement budgets.
    pub cpi: Option<CpiOptions>,
}

impl StudyQuery {
    /// The query a sweep-grid cell denotes, used to warm the cache from
    /// a journal: the cell keyed this way and the same cell queried
    /// directly produce the same fingerprint.
    #[must_use]
    pub fn from_spec(grid: &SweepGrid, config: &SweepConfig, spec: &StudySpec) -> Self {
        StudyQuery {
            chips: grid.chips,
            seed: spec.seed,
            constraint: spec.constraint,
            kind: spec.kind,
            cpi: config.cpi,
        }
    }

    /// The query's cache key: the [`SweepGrid::fingerprint`] of the
    /// single-cell grid this query denotes under a fault-free config —
    /// the same fold over one-element slices. Builds no grid and no
    /// config, so keying a request never probes the host.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        results_key(
            self.chips,
            &[self.seed],
            &[self.constraint],
            &[self.kind],
            self.cpi,
            None,
        )
    }
}

// ---------------------------------------------------------------------
// The result cache
// ---------------------------------------------------------------------

/// Bytes charged to an entry beyond its record text (key, recency tick,
/// map slot). Keeps the byte budget honest about small entries.
pub const ENTRY_OVERHEAD: usize = 48;

#[derive(Debug, Clone)]
struct CacheEntry {
    /// Canonical [`render_result`] text, stored as bytes: an in-memory
    /// bit flip (real rot, or the chaos layer's injected `mem_rate`) may
    /// leave the buffer non-UTF-8, and the scrubber must still be able
    /// to inspect it.
    record: Vec<u8>,
    /// CRC-32 of the record captured at insert, *before* the stored copy
    /// could rot. Every read and every scrub pass re-verifies it; a
    /// mismatch quarantines the entry.
    crc: u32,
    /// Recency: the cache-wide tick of the entry's last touch.
    last_used: u64,
}

impl CacheEntry {
    fn intact(&self) -> bool {
        crc32(&self.record) == self.crc
    }
}

fn entry_bytes(record: &[u8]) -> usize {
    record.len() + ENTRY_OVERHEAD
}

/// A content-addressed LRU cache of study records under a byte budget.
///
/// Keys are [`StudyQuery::fingerprint`] values; values are canonical
/// [`render_result`] text, so a hit hands back the exact bytes a
/// recomputation would render. Eviction is strict LRU over a global
/// recency tick (ties are impossible — every touch bumps the tick), so
/// eviction order is deterministic given the operation sequence.
#[derive(Debug)]
pub struct ResultCache {
    budget: usize,
    entries: HashMap<u64, CacheEntry>,
    /// Quarantine tombstones: keys whose entry failed its CRC. The next
    /// insert over a tombstone is a *repair* — by construction
    /// bit-identical to a cold recompute, because the inserted text is
    /// the canonical rendering and the rotted copy was never served.
    quarantined: HashSet<u64>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    quarantined_total: u64,
    repaired: u64,
    scrub_passes: u64,
}

impl ResultCache {
    /// An empty cache holding at most `budget` bytes of entries.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            entries: HashMap::new(),
            quarantined: HashSet::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            quarantined_total: 0,
            repaired: 0,
            scrub_passes: 0,
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Lookups that found an entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to stay under budget.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries quarantined after failing their CRC (on read or during a
    /// scrub pass).
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined_total
    }

    /// Quarantined keys later repaired by a fresh insert.
    #[must_use]
    pub fn repaired(&self) -> u64 {
        self.repaired
    }

    /// Completed scrub passes.
    #[must_use]
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes
    }

    /// Looks up `key`, bumping its recency on a hit. Counts the outcome
    /// in the metric registry and trace ring ([`TraceEventKind::CacheHit`]
    /// / [`TraceEventKind::CacheMiss`]).
    ///
    /// Every hit re-verifies the entry's CRC first. A rotted entry is
    /// **never served**: it is quarantined (removed, its key
    /// tombstoned) and the lookup counts as a miss, so the caller
    /// recomputes — and the recompute's insert repairs the entry with
    /// bytes bit-identical to a cold compute.
    pub fn get(&mut self, key: u64) -> Option<String> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) if entry.intact() => {
                entry.last_used = self.tick;
                self.hits += 1;
                yac_obs::inc(Metric::ResultCacheHits);
                yac_obs::trace_instant(TraceEventKind::CacheHit, TraceCtx::default());
                return Some(String::from_utf8_lossy(&entry.record).into_owned());
            }
            Some(_) => self.quarantine_entry(key),
            None => {}
        }
        self.misses += 1;
        yac_obs::inc(Metric::ResultCacheMisses);
        yac_obs::trace_instant(TraceEventKind::CacheMiss, TraceCtx::default());
        None
    }

    /// Removes a CRC-failing entry and tombstones its key (metric
    /// `entries_quarantined`, trace `EntryQuarantined`).
    fn quarantine_entry(&mut self, key: u64) {
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= entry_bytes(&old.record);
            self.quarantined.insert(key);
            self.quarantined_total += 1;
            yac_obs::inc(Metric::EntriesQuarantined);
            yac_obs::trace_instant(TraceEventKind::EntryQuarantined, TraceCtx::default());
        }
    }

    /// Re-verifies every entry's CRC, quarantining the failures. Returns
    /// how many entries were quarantined this pass. Counted in
    /// `scrub_passes` / [`Metric::ScrubPasses`] and traced as
    /// [`TraceEventKind::ScrubPass`].
    pub fn scrub(&mut self) -> usize {
        let rotted: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, entry)| !entry.intact())
            .map(|(key, _)| *key)
            .collect();
        for key in &rotted {
            self.quarantine_entry(*key);
        }
        self.scrub_passes += 1;
        yac_obs::inc(Metric::ScrubPasses);
        yac_obs::trace_instant(TraceEventKind::ScrubPass, TraceCtx::default());
        rotted.len()
    }

    /// Re-verifies a persisted `YAC-CACHE` file's line CRCs and, when any
    /// line has rotted, rewrites the whole file from the in-memory cache
    /// (whose own rotted entries [`ResultCache::save`] skips). Each
    /// rotted line counts as one quarantine and — once the rewrite lands
    /// — one repair. Returns how many lines had rotted.
    ///
    /// A missing or unreadable file is left alone: persistence is an
    /// optimisation, and load-time strictness already refuses corrupt
    /// files wholesale.
    pub fn scrub_file(&mut self, path: &Path) -> usize {
        let Ok(bytes) = std::fs::read(path) else {
            return 0;
        };
        let rotted = crc_log::bad_lines(&bytes);
        if rotted == 0 {
            return 0;
        }
        self.quarantined_total += rotted as u64;
        for _ in 0..rotted {
            yac_obs::inc(Metric::EntriesQuarantined);
            yac_obs::trace_instant(TraceEventKind::EntryQuarantined, TraceCtx::default());
        }
        if self.save(path).is_ok() {
            self.repaired += rotted as u64;
            for _ in 0..rotted {
                yac_obs::inc(Metric::EntriesRepaired);
                yac_obs::trace_instant(TraceEventKind::EntryRepaired, TraceCtx::default());
            }
        }
        rotted
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used
    /// entries until the budget holds. Returns `false` — caching
    /// nothing — when the record alone exceeds the whole budget.
    ///
    /// The entry's CRC is captured from `record` *before* the stored
    /// copy can rot (the chaos layer's `mem_rate` corruption is applied
    /// to the stored bytes only). An insert over a quarantined key is a
    /// **repair**: the tombstone clears and the repair is counted
    /// ([`Metric::EntriesRepaired`], trace `EntryRepaired`) — the new
    /// text is canonical, so the repaired entry is bit-identical to a
    /// cold recompute.
    pub fn insert(&mut self, key: u64, record: String) -> bool {
        let crc = crc32(record.as_bytes());
        let mut bytes = record.into_bytes();
        let size = entry_bytes(&bytes);
        if size > self.budget {
            return false;
        }
        if self.quarantined.remove(&key) {
            self.repaired += 1;
            yac_obs::inc(Metric::EntriesRepaired);
            yac_obs::trace_instant(TraceEventKind::EntryRepaired, TraceCtx::default());
        }
        // Injected memory rot (deterministic, keyed by the entry) lands
        // on the stored copy only — the CRC above still describes the
        // canonical bytes, which is exactly what makes the rot visible.
        let _ = crate::chaos::corrupt_cache_entry(key, &mut bytes);
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                record: bytes,
                crc,
                last_used: self.tick,
            },
        ) {
            self.bytes -= entry_bytes(&old.record);
        }
        self.bytes += size;
        while self.bytes > self.budget {
            self.evict_lru();
        }
        true
    }

    /// Removes the least-recently-used entry. The just-inserted entry
    /// holds the maximum tick, so it is only ever the victim when it is
    /// the sole entry — excluded by the `size > budget` refusal above.
    fn evict_lru(&mut self) {
        let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            return;
        };
        if let Some(old) = self.entries.remove(&victim) {
            self.bytes -= entry_bytes(&old.record);
            self.evictions += 1;
            yac_obs::inc(Metric::ResultCacheEvictions);
        }
    }

    /// Persists the cache to `path` in `YAC-CACHE v1` format: CRC-trailed
    /// lines, entries in ascending recency so a load replays them in LRU
    /// order. One atomic rewrite (temp file, fsync, rename, parent
    /// fsync), both steps through the chaos layer at
    /// [`IoSite::CacheFile`].
    ///
    /// Entries that fail their own CRC are silently skipped: persisting
    /// a rotted record would either poison the file's strict load (a
    /// malformed record refuses the *whole* cache) or — worse — launder
    /// the rot under a fresh line CRC. The scrubber quarantines them in
    /// memory on its next pass.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Io`] when the write fails (including
    /// injected chaos faults).
    pub fn save(&self, path: &Path) -> Result<(), StudyError> {
        let mut ordered: Vec<(&u64, &CacheEntry)> = self.entries.iter().collect();
        ordered.sort_by_key(|(_, e)| e.last_used);
        let mut text = crc_line(CACHE_MAGIC);
        for (key, entry) in ordered {
            if !entry.intact() {
                continue;
            }
            let record = String::from_utf8_lossy(&entry.record);
            text.push_str(&crc_line(&format!("E {key:016x} {record}")));
        }
        crc_log::rewrite(path, &text, IoSite::CacheFile, IoSite::CacheFile)
    }

    /// Loads a cache persisted by [`ResultCache::save`]. `Ok(None)` when
    /// no file exists (a cold start). Unlike the append-only sweep
    /// journal, the cache file is rewritten whole, so *any* bad line —
    /// torn tail, bit rot or bytes that are not UTF-8 — is refused as
    /// corrupt; the caller discards the file and starts cold.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] when the file cannot be read;
    /// [`StudyError::Corrupt`] for CRC failures, a bad magic, an empty
    /// file or malformed entry lines.
    pub fn load(path: &Path, budget: usize) -> Result<Option<ResultCache>, StudyError> {
        let Some(bytes) = crc_log::read(path)? else {
            return Ok(None);
        };
        let log = crc_log::parse(&bytes, CACHE_MAGIC, Policy::Snapshot)?;
        let mut cache = ResultCache::new(budget);
        for (line, body) in log.records {
            let corrupt = |what: String| StudyError::Corrupt { line, what };
            let rest = body
                .strip_prefix("E ")
                .ok_or_else(|| corrupt(format!("unknown cache record {body:?}")))?;
            let (key_hex, record) = rest
                .split_once(' ')
                .ok_or_else(|| corrupt("cache entry missing record".into()))?;
            let key = u64::from_str_radix(key_hex, 16)
                .map_err(|_| corrupt(format!("bad cache key {key_hex:?}")))?;
            // Parse and re-render: refuses malformed records and pins the
            // stored text to the canonical rendering.
            let result = parse_result(record, line)?;
            cache.insert(key, render_result(&result));
        }
        Ok(Some(cache))
    }

    /// Warms the cache from a completed sweep journal: every `Completed`
    /// study record is re-rendered and inserted under its cell's
    /// [`StudyQuery::fingerprint`]. Degraded records are skipped (the
    /// service never caches partial results) and fault-injected sweeps
    /// are refused — service queries are fault-free cells, so their keys
    /// must never map to fault-shaped results. Returns how many entries
    /// were inserted.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] when the journal cannot be read,
    /// [`StudyError::Corrupt`] when it fails its own CRC discipline, and
    /// [`StudyError::Mismatch`] when its grid fingerprint disagrees with
    /// `grid`/`config` or the config injects faults.
    pub fn warm_from_journal(
        &mut self,
        grid: &SweepGrid,
        config: &SweepConfig,
        path: &Path,
    ) -> Result<usize, StudyError> {
        if config.faults.is_some() {
            return Err(StudyError::Mismatch(
                "fault-injected sweeps cannot warm the service cache: \
                 queries denote fault-free cells"
                    .into(),
            ));
        }
        let bytes = std::fs::read(path).map_err(|e| StudyError::io(path, e))?;
        let Some(journal) = parse_journal(bytes)? else {
            return Ok(0); // Headerless journal: nothing durable to warm from.
        };
        let specs = grid.studies();
        journal.check_grid(grid.fingerprint(config), specs.len())?;
        let mut warmed = 0;
        for (index, status) in &journal.terminal {
            if let StudyStatus::Completed(result) = status {
                let query = StudyQuery::from_spec(grid, config, &specs[*index]);
                if self.insert(query.fingerprint(), render_result(result)) {
                    warmed += 1;
                }
            }
        }
        Ok(warmed)
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// Tuning for a [`SweepService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor tuning for query computation. `exec.workers` sizes the
    /// worker pool; the shard size, deadline and fault knobs apply to
    /// every query's shards.
    pub exec: ExecutorConfig,
    /// Queries computing at once; the next miss is refused with
    /// [`ServiceReply::Busy`]. Clamped to at least 1.
    pub max_inflight: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Connections served at once; the excess connection gets a
    /// best-effort [`ServiceReply::Busy`] and is closed. Clamped to at
    /// least 1.
    pub max_conns: usize,
    /// Once a frame's first byte arrives, the rest must follow within
    /// this window or the peer is evicted as a slow client.
    pub read_deadline: Duration,
    /// A reply frame must drain to the peer within this window or the
    /// peer is evicted.
    pub write_deadline: Duration,
    /// The backoff hint carried by every [`ServiceReply::Busy`].
    pub retry_after_ms: u64,
    /// How long a pool lane may hold a shard without one heartbeat
    /// before the stall sentinel cancels it and the shard degrades.
    /// `None` disables the sentinel.
    pub heartbeat_budget: Option<Duration>,
    /// How often the background scrubber re-verifies cache-entry CRCs.
    /// `None` disables the scrubber thread (scrubs still happen on every
    /// read, and [`SweepService::scrub_now`] runs one on demand).
    pub scrub_interval: Option<Duration>,
    /// A persisted `YAC-CACHE` file for the scrubber to re-verify (and
    /// rewrite from memory when a line has rotted). `None` scrubs only
    /// the in-memory entries.
    pub scrub_file: Option<PathBuf>,
}

impl Default for ServiceConfig {
    /// Default executor, two queries in flight, an 8 MiB cache, 64
    /// connections, two-second frame deadlines, a 200 ms retry hint, a
    /// two-second heartbeat budget, five-second scrub passes.
    fn default() -> Self {
        ServiceConfig {
            exec: ExecutorConfig::default(),
            max_inflight: 2,
            cache_bytes: 8 << 20,
            max_conns: 64,
            read_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            heartbeat_budget: Some(Duration::from_secs(2)),
            scrub_interval: Some(Duration::from_secs(5)),
            scrub_file: None,
        }
    }
}

/// The largest chip count one query may ask for; larger queries are
/// refused before anything is allocated. Every chip of a query is held
/// in memory until it is answered.
const MAX_QUERY_CHIPS: usize = 1 << 20;

/// The largest CPI budget (warm-up plus measured micro-ops per benchmark)
/// one query may ask for; larger budgets are refused before any
/// simulation starts, so a query cannot tie a pool worker up for hours.
const MAX_QUERY_CPI_UOPS: u64 = 1 << 24;

fn lock_opt<T>(slot: &Mutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The background cache scrubber: a low-priority thread re-verifying
/// entry CRCs every interval (plus the persisted cache file, when
/// configured). Stops promptly on halt or drop.
fn spawn_scrubber(
    cache: Arc<Mutex<ResultCache>>,
    interval: Duration,
    file: Option<PathBuf>,
) -> ParkedLoop {
    let interval = interval.max(Duration::from_millis(1));
    // An interval past the end of time never fires: the thread exits.
    let mut due = Instant::now().checked_add(interval);
    ParkedLoop::spawn("svc-scrubber", move || {
        if Instant::now() >= due? {
            scrub_pass(&cache, file.as_deref());
            due = Instant::now().checked_add(interval);
        }
        Some(due?.saturating_duration_since(Instant::now()))
    })
}

/// One scrub pass: in-memory CRC sweep, then the persisted file (two
/// short lock holds, so queries are never blocked for long).
fn scrub_pass(cache: &Mutex<ResultCache>, file: Option<&Path>) {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .scrub();
    if let Some(path) = file {
        cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .scrub_file(path);
    }
}

/// RAII decrement of the inflight gauge. Dropping the last slot of a
/// draining service also wakes the serve loop out of `accept`, so it
/// exits the moment the last in-flight query completes.
struct InflightSlot<'a>(&'a SweepService);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        // SeqCst pairs with `request_drain`'s store and `wake_now`'s
        // loads: of a drain and a last slot racing, one sees the other.
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
        self.0.wake();
    }
}

/// The long-lived sweep service: a worker pool, a result cache
/// and bounded admission. See the module docs for the architecture.
#[derive(Debug)]
pub struct SweepService {
    config: ServiceConfig,
    pool: WorkerPool,
    registry: Arc<HeartbeatRegistry>,
    sentinel: Mutex<Option<StallSentinel>>,
    scrubber: Mutex<Option<ParkedLoop>>,
    started: Instant,
    cache: Arc<Mutex<ResultCache>>,
    inflight: AtomicUsize,
    queries: AtomicU64,
    served: AtomicU64,
    busy: AtomicU64,
    evicted: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Where [`SweepService::wake`] connects: the address of the
    /// listener [`serve`] blocks on, recorded before its first check of
    /// the exit conditions.
    wake_addr: Mutex<Option<SocketAddr>>,
}

impl SweepService {
    /// Builds a service: spawns `config.exec.workers` pool workers, an
    /// empty cache of `config.cache_bytes`, the stall sentinel (when
    /// `config.heartbeat_budget` is set) and the cache scrubber (when
    /// `config.scrub_interval` is set).
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let cache = Arc::new(Mutex::new(ResultCache::new(config.cache_bytes)));
        let pool = WorkerPool::new(config.exec.workers);
        let registry = Arc::new(HeartbeatRegistry::new(config.exec.workers.max(1)));
        let sentinel = config
            .heartbeat_budget
            .map(|budget| StallSentinel::spawn(Arc::clone(&registry), budget));
        let scrubber = config.scrub_interval.map(|interval| {
            spawn_scrubber(Arc::clone(&cache), interval, config.scrub_file.clone())
        });
        SweepService {
            config,
            pool,
            registry,
            sentinel: Mutex::new(sentinel),
            scrubber: Mutex::new(scrubber),
            started: Instant::now(),
            cache,
            inflight: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            served: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            wake_addr: Mutex::new(None),
        }
    }

    /// The service's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Queries computing right now.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Runs `f` against the result cache (for warm-start, persistence
    /// and inspection). The lock is held for the duration of `f`; keep
    /// it short — queries block on the same lock for hit checks.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut ResultCache) -> R) -> R {
        f(&mut self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Asks the serve loop (and idle connection handlers) to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts draining: in-flight queries finish, new ones are answered
    /// with [`ServiceReply::Draining`], and the serve loop exits once
    /// the last in-flight query completes.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Whether the service is draining.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Counts a slow-client eviction (metric, trace and stats).
    pub fn note_evicted(&self) {
        self.evicted.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::SlowClientsEvicted);
        yac_obs::trace_instant(TraceEventKind::SlowClientEvicted, TraceCtx::default());
    }

    /// Counts a connection refused at the cap (metric, trace and stats).
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::ConnsRejected);
        yac_obs::trace_instant(TraceEventKind::ConnRejected, TraceCtx::default());
    }

    /// Whether the serve loop has a reason to wake right now.
    fn wake_now(&self) -> bool {
        self.shutdown_requested() || (self.draining() && self.inflight.load(Ordering::SeqCst) == 0)
    }

    /// Unblocks a serve loop waiting in `accept` once it has a reason to
    /// exit: one loopback `connect` to its listener, dropped unserved.
    /// Callers set the exit flag before this reads the address, and
    /// [`serve`] records the address before reading the flags, so the
    /// loop either sees the flag or gets the connection. A full backlog
    /// means the loop is accepting anyway, hence the short timeout.
    fn wake(&self) {
        if !self.wake_now() {
            return;
        }
        if let Some(addr) = *lock_opt(&self.wake_addr) {
            let _ = TcpStream::connect_timeout(&addr, IO_TICK);
        }
    }

    /// Stops the sentinel and scrubber, then joins the worker pool. Call
    /// after the serve loop has exited.
    pub fn shutdown(self) {
        if let Some(sentinel) = lock_opt(&self.sentinel).take() {
            sentinel.stop();
        }
        if let Some(mut scrubber) = lock_opt(&self.scrubber).take() {
            scrubber.halt();
        }
        self.pool.shutdown();
    }

    /// Runs one synchronous scrub pass (in-memory entries plus the
    /// configured persisted file) — what the background scrubber does
    /// every [`ServiceConfig::scrub_interval`].
    pub fn scrub_now(&self) {
        scrub_pass(&self.cache, self.config.scrub_file.as_deref());
    }

    /// A snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.with_cache(|cache| ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_entries: cache.len(),
            cache_bytes: cache.bytes(),
            inflight: self.inflight.load(Ordering::Acquire),
            limit: self.config.max_inflight.max(1),
            evicted: self.evicted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            draining: self.draining(),
            scrub_passes: cache.scrub_passes(),
            quarantined: cache.quarantined(),
            repaired: cache.repaired(),
        })
    }

    /// A point-in-time liveness report (the `health` wire op).
    #[must_use]
    pub fn health(&self) -> HealthReport {
        let (lanes_stalled, heartbeats_missed) = lock_opt(&self.sentinel)
            .as_ref()
            .map_or((0, 0), |sentinel| {
                (sentinel.stalled_lanes(), sentinel.heartbeats_missed())
            });
        self.with_cache(|cache| HealthReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            inflight: self.inflight.load(Ordering::Acquire),
            lanes: self.registry.lanes(),
            lanes_busy: self.registry.busy(),
            lanes_stalled,
            heartbeats_missed,
            scrub_passes: cache.scrub_passes(),
            quarantined: cache.quarantined(),
            repaired: cache.repaired(),
            degraded: self.degraded.load(Ordering::Relaxed),
        })
    }

    /// Answers one query: cache first, then bounded admission, then
    /// supervised computation on the worker pool. `cancel` is the
    /// query's cooperative abort flag — raise it from any thread and the
    /// computation stops between chips and answers
    /// [`ServiceReply::Cancelled`].
    ///
    /// Cache hits bypass admission by design: a saturated service keeps
    /// answering the cheap queries.
    pub fn query(&self, query: &StudyQuery, cancel: &Arc<AtomicBool>) -> ServiceReply {
        self.query_watched(query, cancel, None, None)
    }

    /// [`SweepService::query`] for a connection thread, which watches
    /// its own client while the query's shards run: the computation is
    /// also cancelled once `deadline` passes or a peek finds `client`
    /// gone (see [`SweepService::compute`]). Hits, refusals and invalid
    /// queries answer before either is looked at.
    pub(crate) fn query_watched(
        &self,
        query: &StudyQuery,
        cancel: &Arc<AtomicBool>,
        client: Option<&TcpStream>,
        deadline: Option<Instant>,
    ) -> ServiceReply {
        self.queries.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::QueriesReceived);
        yac_obs::trace_instant(TraceEventKind::QueryReceived, TraceCtx::default());
        if query.chips == 0 {
            return ServiceReply::Error {
                message: "query asks for zero chips".into(),
            };
        }
        if query.chips > MAX_QUERY_CHIPS {
            return ServiceReply::Error {
                message: format!(
                    "query asks for {} chips; the limit is {MAX_QUERY_CHIPS}",
                    query.chips
                ),
            };
        }
        if let Some(cpi) = query.cpi {
            let budget = cpi.warmup_uops.checked_add(cpi.measure_uops);
            if budget.is_none_or(|uops| uops > MAX_QUERY_CPI_UOPS) {
                return ServiceReply::Error {
                    message: format!(
                        "query asks for {} warm-up and {} measured micro-ops; \
                         the limit is {MAX_QUERY_CPI_UOPS} in total",
                        cpi.warmup_uops, cpi.measure_uops
                    ),
                };
            }
        }
        if self.draining() {
            yac_obs::inc(Metric::QueriesDraining);
            return ServiceReply::Draining {
                inflight: self.inflight(),
            };
        }
        let key = query.fingerprint();
        if let Some(record) = self.with_cache(|cache| cache.get(key)) {
            return self.served(ServiceReply::Result {
                record,
                key,
                cached: true,
            });
        }
        let limit = self.config.max_inflight.max(1);
        if !self.try_admit(limit) {
            self.busy.fetch_add(1, Ordering::Relaxed);
            yac_obs::inc(Metric::QueriesBusy);
            return ServiceReply::Busy {
                inflight: self.inflight.load(Ordering::Acquire),
                limit,
                retry_after_ms: self.config.retry_after_ms,
            };
        }
        let _slot = InflightSlot(self);
        let _span = yac_obs::phase_ctx(Phase::QueryExec, TraceCtx::default());
        let reply = self.compute(query, key, cancel, client, deadline);
        match reply {
            ServiceReply::Result { .. } => self.served(reply),
            other => other,
        }
    }

    fn served(&self, reply: ServiceReply) -> ServiceReply {
        self.served.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::QueriesServed);
        yac_obs::trace_instant(TraceEventKind::QueryServed, TraceCtx::default());
        reply
    }

    fn try_admit(&self, limit: usize) -> bool {
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= limit {
                return false;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    /// Computes a missed query on the worker pool and caches the
    /// record if (and only if) every chip was observed — degraded
    /// results depend on which shards failed, so they are returned but
    /// never cached.
    ///
    /// While the shards run, the calling thread waits for their reports
    /// at most [`IO_TICK`] or until `deadline`, whichever is sooner. Each
    /// time it wakes it raises `cancel` if the deadline has passed or a
    /// non-blocking peek finds `client` gone (an orderly close, a reset or
    /// a hard error); a raised `cancel` ends the collection. The client
    /// socket is non-blocking only for the collection: one that cannot
    /// be switched still gets its deadline but no disconnect cancel, and
    /// one that cannot be switched back is shut down. The CPI phase
    /// after the collection is not watched.
    fn compute(
        &self,
        query: &StudyQuery,
        key: u64,
        cancel: &Arc<AtomicBool>,
        client: Option<&TcpStream>,
        deadline: Option<Instant>,
    ) -> ServiceReply {
        let mut pop = PopulationConfig::paper(query.seed);
        pop.chips = query.chips;
        let mc = match MonteCarlo::try_new(pop.variation) {
            Ok(mc) => mc,
            Err(e) => {
                return ServiceReply::Error {
                    message: StudyError::Config(e).to_string(),
                }
            }
        };
        let shards = shards_for(query.chips, self.config.exec.shard_chips);
        let job = Arc::new(ShardJob {
            mc,
            pop,
            exec: self.config.exec.clone(),
            cancel: Arc::clone(cancel),
        });
        let (tx, rx) = mpsc::channel::<Option<ShardMsg>>();
        for spec in &shards {
            submit_shard(
                &self.pool,
                &self.registry,
                Arc::clone(&job),
                *spec,
                tx.clone(),
            );
        }
        drop(tx);

        // A socket that cannot be made non-blocking is never peeked: the
        // query keeps its deadline but not its disconnect cancel.
        let client = client.filter(|client| client.set_nonblocking(true).is_ok());
        let watch = || {
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) || client.is_some_and(client_gone) {
                cancel.store(true, Ordering::Relaxed);
            }
            Some(left.map_or(IO_TICK, |left| left.min(IO_TICK)))
        };
        let mut merged = MergedShards::with_capacity(query.chips);
        let Ok(collected) = collect_shards::<Infallible>(&rx, shards.len(), cancel, watch, |msg| {
            merged.accept(msg);
            Ok(())
        });
        if let Some(client) = client {
            // Left non-blocking, the frame loop would spin, so failing to
            // switch the socket back closes the connection.
            if client.set_nonblocking(false).is_err() {
                let _ = client.shutdown(std::net::Shutdown::Both);
            }
        }
        if !matches!(collected, Collected::Complete) || cancel.load(Ordering::Relaxed) {
            return ServiceReply::Cancelled;
        }
        let outcome = merged.finish(&job.pop);
        match study_result_from_outcome(
            &outcome,
            query.constraint,
            query.kind,
            query.seed,
            query.cpi.as_ref(),
        ) {
            Ok(result) => {
                let record = render_result(&result);
                if result.missing_chips == 0 {
                    self.with_cache(|cache| cache.insert(key, record.clone()));
                } else {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
                ServiceReply::Result {
                    record,
                    key,
                    cached: false,
                }
            }
            Err(e) => ServiceReply::Error {
                message: e.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------
// The TCP serve loop
// ---------------------------------------------------------------------

/// How long connection sockets block per read/write attempt. The kernel
/// parks the thread for up to one tick (`SO_RCVTIMEO`/`SO_SNDTIMEO`),
/// so idling costs no CPU; shutdown and frame deadlines are checked
/// once per tick.
const IO_TICK: Duration = Duration::from_millis(20);

/// Writes all of `bytes` to a connection socket whose write timeout is
/// [`IO_TICK`], giving up (`TimedOut`) when the peer accepts nothing
/// for `deadline`.
fn write_all_deadline(
    stream: &mut ChaosStream<TcpStream>,
    bytes: &[u8],
    deadline: Duration,
) -> io::Result<()> {
    let started = Instant::now();
    let mut at = 0;
    while at < bytes.len() {
        match stream.write(&bytes[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket refused bytes",
                ))
            }
            Ok(n) => at += n,
            Err(e) if is_would_block(&e) => {
                if started.elapsed() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled accepting the reply",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Frames and sends one reply under the service's write deadline. A
/// stalled peer is evicted (counted and traced) and reported as an
/// error so the handler drops the connection.
fn send_reply(
    stream: &mut ChaosStream<TcpStream>,
    service: &SweepService,
    reply: &ServiceReply,
) -> io::Result<()> {
    let frame = frame_bytes(reply.to_json().as_bytes())?;
    match write_all_deadline(stream, &frame, service.config().write_deadline) {
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            service.note_evicted();
            Err(e)
        }
        other => other,
    }
}

/// Whether a non-blocking peek finds the client gone: an orderly
/// close, a reset or any hard error. Pipelined bytes, nothing to read
/// yet and an interrupted peek all mean the client is still there, so
/// nothing the frame loop will read is consumed.
fn client_gone(client: &TcpStream) -> bool {
    match client.peek(&mut [0u8; 1]) {
        Ok(1..) => false,
        Err(e) if is_would_block(&e) || e.kind() == io::ErrorKind::Interrupted => false,
        Ok(0) | Err(_) => true,
    }
}

fn handle_connection(stream: TcpStream, service: &Arc<SweepService>) {
    let _ = stream.set_nodelay(true);
    // Blocking IO with a short kernel timeout: the thread parks in the
    // kernel between bytes (no poll-loop CPU burn) and surfaces every
    // IO_TICK to check shutdown and frame deadlines.
    if stream.set_read_timeout(Some(IO_TICK)).is_err()
        || stream.set_write_timeout(Some(IO_TICK)).is_err()
    {
        return;
    }
    // All bytes flow through the chaos layer; without a net plan the
    // wrapper is a transparent passthrough.
    let mut stream = ChaosStream::new(stream, NetSite::Server);
    let read_deadline = service.config().read_deadline;
    loop {
        // Idle ticks between frames are free (a connected client may stay
        // silent forever); once a frame's first byte arrives, the rest
        // must follow within the read deadline or the peer is evicted.
        let idle = |_, started: Option<Instant>| match started {
            None if service.shutdown_requested() => ControlFlow::Break(Ok(FrameIn::Closed)),
            Some(at) if at.elapsed() >= read_deadline => ControlFlow::Break(Ok(FrameIn::Evicted)),
            _ => ControlFlow::Continue(()),
        };
        let payload = match read_frame_with(&mut stream, idle) {
            Ok(FrameIn::Frame(payload)) => payload,
            Ok(FrameIn::Closed) => return,
            Ok(FrameIn::Evicted) => {
                service.note_evicted();
                return;
            }
            // A corrupt or oversized frame gets a best-effort typed
            // error before the close — the peer learns why instead of
            // seeing a bare reset. Framing may be desynced, so the
            // connection cannot be reused either way.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = send_reply(
                    &mut stream,
                    service,
                    &ServiceReply::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
            Err(_) => return,
        };
        let request = String::from_utf8(payload)
            .map_err(|_| "request is not UTF-8".to_owned())
            .and_then(|text| ServiceRequest::parse(&text));
        let reply = match request {
            Err(message) => ServiceReply::Error { message },
            Ok(ServiceRequest::Query { query, deadline_ms }) => {
                // The deadline counts from receipt; one past the clock's
                // range is no deadline.
                let received = Instant::now();
                let deadline =
                    deadline_ms.and_then(|ms| received.checked_add(Duration::from_millis(ms)));
                let cancel = Arc::new(AtomicBool::new(false));
                match service.query_watched(&query, &cancel, Some(stream.get_ref()), deadline) {
                    // Only this thread raises `cancel`: for the deadline,
                    // or for a client that is gone and reads no reply.
                    ServiceReply::Cancelled if deadline.is_some_and(|at| Instant::now() >= at) => {
                        ServiceReply::Deadline {
                            elapsed_ms: received.elapsed().as_millis() as u64,
                        }
                    }
                    reply => reply,
                }
            }
            Ok(ServiceRequest::Stats) => ServiceReply::Stats(service.stats()),
            Ok(ServiceRequest::Health) => ServiceReply::Health(service.health()),
            Ok(ServiceRequest::Drain) => {
                service.request_drain();
                ServiceReply::Draining {
                    inflight: service.inflight(),
                }
            }
            Ok(ServiceRequest::Shutdown) => {
                let _ = send_reply(&mut stream, service, &ServiceReply::Bye);
                service.request_shutdown();
                return;
            }
        };
        if send_reply(&mut stream, service, &reply).is_err() {
            return;
        }
    }
}

/// Tells an over-cap connection it was refused: a best-effort `Busy`
/// frame under a short write timeout, then the stream drops. Failures
/// are ignored — the refusal is advisory; the close is the decision.
fn reject_connection(stream: TcpStream, conns: usize, cap: usize, service: &SweepService) {
    service.note_rejected();
    let _ = stream.set_write_timeout(Some(IO_TICK));
    let mut stream = ChaosStream::new(stream, NetSite::Server);
    let reply = ServiceReply::Busy {
        inflight: conns,
        limit: cap,
        retry_after_ms: service.config().retry_after_ms,
    };
    if let Ok(frame) = frame_bytes(reply.to_json().as_bytes()) {
        let _ = write_all_deadline(&mut stream, &frame, IO_TICK);
    }
}

/// A connection's slot. Dropping it (its handler finished with the
/// connection, or unwound) frees the slot and pings the serve loop.
struct ConnSlot {
    live: Arc<AtomicUsize>,
    freed: mpsc::SyncSender<()>,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        // The channel holds one ping: a full one already wakes the loop.
        let _ = self.freed.try_send(());
    }
}

/// An accepted connection on its way to a handler, with its slot.
type Conn = (TcpStream, ConnSlot);

/// Spawns a `svc-conn` handler that serves `first`, then parks on the
/// shared `handoff` channel for the next connection until the serve
/// loop drops the sender. After each connection it counts itself in `idle`
/// *before* freeing the slot, so the serve loop, woken by that slot,
/// finds it idle instead of spawning another handler. A panic unwinds
/// the handler with its slot; the thread is simply gone.
fn spawn_handler(
    first: Conn,
    handoff: &Arc<Mutex<mpsc::Receiver<Conn>>>,
    idle: &Arc<AtomicUsize>,
    service: &Arc<SweepService>,
) -> io::Result<JoinHandle<()>> {
    let (handoff, idle, service) = (Arc::clone(handoff), Arc::clone(idle), Arc::clone(service));
    std::thread::Builder::new()
        .name("svc-conn".into())
        .spawn(move || {
            let (mut stream, mut slot) = first;
            loop {
                handle_connection(stream, &service);
                idle.fetch_add(1, Ordering::SeqCst);
                drop(slot);
                // Its own statement, so the lock is released before the
                // connection is served.
                let next = handoff
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .recv();
                let Ok(conn) = next else { return };
                (stream, slot) = conn;
            }
        })
}

/// Runs the accept loop until [`SweepService::request_shutdown`] (any
/// connection's `shutdown` op, a completed drain, or the embedding
/// process). Up to [`ServiceConfig::max_conns`] connections are served
/// at once; the excess connection is refused with a best-effort `Busy`
/// frame.
///
/// Handler threads are reused. An accepted connection goes to an idle
/// handler (claimed by decrementing the idle count, so it never queues
/// behind a busy one) over one shared channel; a `svc-conn` thread is
/// spawned only when none is idle. A handler counts itself idle before
/// it frees its connection slot, so there are never more handlers than
/// `max_conns`. A query that computes spawns no thread either: its
/// handler watches the client's socket and deadline while it waits for
/// the shards. On exit the loop waits for every connection to finish,
/// then drops the channel and joins every handler: a clean return means
/// no request is still in flight and no handler thread is left.
///
/// The loop blocks in `accept`, so a new connection is served the
/// moment it arrives. Shutdown, a drain with nothing in flight and the
/// last in-flight slot of a drain wake it with one loopback connection
/// to `listener`'s address (an unspecified `0.0.0.0`/`[::]` maps to
/// loopback), which is dropped unserved and never counted as rejected.
/// A connection arriving at the cap waits up to one 20 ms tick for a
/// slot to free, unless the connection before it was refused too: a
/// client that closes one connection and opens the next can beat its
/// old handler to the EOF, while a flood at the cap is refused at once.
///
/// # Errors
///
/// Propagates listener errors and a failure to spawn a handler.
pub fn serve(listener: &TcpListener, service: &Arc<SweepService>) -> io::Result<()> {
    listener.set_nonblocking(false)?;
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    *lock_opt(&service.wake_addr) = Some(addr);
    let cap = service.config().max_conns.max(1);
    let live = Arc::new(AtomicUsize::new(0));
    let (freed_tx, freed) = mpsc::sync_channel(1);
    let idle = Arc::new(AtomicUsize::new(0));
    let (handoff_tx, handoff) = mpsc::channel::<Conn>();
    let handoff = Arc::new(Mutex::new(handoff));
    let mut handlers = Vec::new();
    let mut refused = false;
    while !service.wake_now() {
        match listener.accept() {
            // A wake (or a client racing the exit): dropped unserved.
            Ok(_) if service.wake_now() => {}
            Ok((stream, _peer)) => {
                let grace = Instant::now() + IO_TICK;
                while !refused
                    && live.load(Ordering::SeqCst) >= cap
                    && freed
                        .recv_timeout(grace.saturating_duration_since(Instant::now()))
                        .is_ok()
                {}
                let conns = live.load(Ordering::SeqCst);
                refused = conns >= cap;
                if refused {
                    reject_connection(stream, conns, cap, service);
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let conn = (
                    stream,
                    ConnSlot {
                        live: Arc::clone(&live),
                        freed: freed_tx.clone(),
                    },
                );
                let claimed = idle
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                if claimed {
                    // `serve` holds a receiver, so the send cannot fail.
                    let _ = handoff_tx.send(conn);
                } else {
                    handlers.push(spawn_handler(conn, &handoff, &idle, service)?);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // A completed drain becomes a shutdown: still-open idle connections
    // see the flag within one IO_TICK and wind down before this returns.
    service.shutdown.store(true, Ordering::SeqCst);
    while live.load(Ordering::SeqCst) > 0 {
        let _ = freed.recv();
    }
    // Every slot is free, so the channel is empty and every handler is
    // parked on it (or unwound): closing it ends them all.
    drop(handoff_tx);
    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn query() -> StudyQuery {
        StudyQuery {
            chips: 32,
            seed: 11,
            constraint: ConstraintSpec::STRICT,
            kind: PowerDownKind::Horizontal,
            cpi: Some(CpiOptions {
                warmup_uops: 100,
                measure_uops: 400,
            }),
        }
    }

    #[test]
    fn query_fingerprint_is_the_single_cell_grid_fingerprint() {
        let q = query();
        let grid = SweepGrid {
            chips: q.chips,
            seeds: vec![q.seed],
            constraints: vec![q.constraint],
            kinds: vec![q.kind],
        };
        let config = SweepConfig {
            cpi: q.cpi,
            ..SweepConfig::default()
        };
        assert_eq!(q.fingerprint(), grid.fingerprint(&config));

        // Executor tuning on the service side must not move the key.
        let mut other = config.clone();
        other.exec.workers = 13;
        other.checkpoint_every = 2;
        assert_eq!(q.fingerprint(), grid.fingerprint(&other));

        // Every result-shaping field must.
        for changed in [
            StudyQuery { chips: 33, ..q },
            StudyQuery { seed: 12, ..q },
            StudyQuery {
                constraint: ConstraintSpec::NOMINAL,
                ..q
            },
            StudyQuery {
                kind: PowerDownKind::Vertical,
                ..q
            },
            StudyQuery { cpi: None, ..q },
        ] {
            assert_ne!(changed.fingerprint(), q.fingerprint(), "{changed:?}");
        }
    }

    #[test]
    fn query_keys_are_pinned() {
        // Journals and cache files are keyed by these values, so a key
        // that moves orphans every saved entry.
        let plain = StudyQuery {
            chips: 2000,
            seed: 2006,
            constraint: ConstraintSpec::NOMINAL,
            kind: PowerDownKind::Vertical,
            cpi: None,
        };
        assert_eq!(plain.fingerprint(), 0x67c7_a292_67c8_dd1c);
        let with_cpi = StudyQuery {
            chips: 96,
            seed: 7,
            constraint: ConstraintSpec::STRICT,
            kind: PowerDownKind::Horizontal,
            cpi: Some(CpiOptions {
                warmup_uops: 200,
                measure_uops: 800,
            }),
        };
        assert_eq!(with_cpi.fingerprint(), 0x69fe_5365_d13a_0317);
    }

    #[test]
    fn from_spec_keys_match_direct_queries() {
        let grid = SweepGrid {
            chips: 16,
            seeds: vec![5, 6],
            constraints: vec![ConstraintSpec::NOMINAL, ConstraintSpec::STRICT],
            kinds: vec![PowerDownKind::Vertical],
        };
        let config = SweepConfig::default();
        for spec in grid.studies() {
            let warm = StudyQuery::from_spec(&grid, &config, &spec);
            let direct = StudyQuery {
                chips: 16,
                seed: spec.seed,
                constraint: spec.constraint,
                kind: spec.kind,
                cpi: None,
            };
            assert_eq!(warm.fingerprint(), direct.fingerprint());
        }
    }

    #[test]
    fn cache_serves_lru_under_byte_budget() {
        let record = "x".repeat(52); // 100 bytes with overhead
        let mut cache = ResultCache::new(2 * entry_bytes(record.as_bytes()));
        assert!(cache.insert(1, record.clone()));
        assert!(cache.insert(2, record.clone()));
        assert_eq!(cache.bytes(), 2 * entry_bytes(record.as_bytes()));

        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(1).as_deref(), Some(record.as_str()));
        assert!(cache.insert(3, record.clone()));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(2).is_none(), "LRU entry 2 was evicted");
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert!(cache.bytes() <= cache.budget());

        // An entry bigger than the whole budget is refused, not churned.
        let before = cache.len();
        assert!(!cache.insert(4, "y".repeat(cache.budget() + 1)));
        assert_eq!(cache.len(), before);

        // Reinserting an existing key replaces, not double-counts.
        assert!(cache.insert(1, record.clone()));
        assert_eq!(cache.bytes(), 2 * entry_bytes(record.as_bytes()));
    }

    #[test]
    fn rotted_entries_are_quarantined_on_read_and_repaired_on_insert() {
        let mut cache = ResultCache::new(4096);
        let record = "total 4 quarantined 0\n".to_string();
        assert!(cache.insert(7, record.clone()));

        // Rot the stored copy behind the CRC's back.
        cache.entries.get_mut(&7).unwrap().record[0] ^= 0x40;

        // The rotted entry is never served: the read quarantines it and
        // reports a miss, so the caller recomputes.
        assert_eq!(cache.get(7), None);
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);

        // The recompute's insert is the repair — and the repaired entry
        // is bit-identical to a cold compute, because it *is* one.
        assert!(cache.insert(7, record.clone()));
        assert_eq!(cache.repaired(), 1);
        assert_eq!(cache.get(7).as_deref(), Some(record.as_str()));

        // A second insert over the same key is a refresh, not a repair.
        assert!(cache.insert(7, record));
        assert_eq!(cache.repaired(), 1);
    }

    #[test]
    fn scrub_quarantines_every_rotted_entry_in_one_pass() {
        let mut cache = ResultCache::new(4096);
        for key in 0..4u64 {
            assert!(cache.insert(key, format!("record {key}\n")));
        }
        cache.entries.get_mut(&1).unwrap().record[3] ^= 0x01;
        cache.entries.get_mut(&3).unwrap().record[5] ^= 0x80;

        assert_eq!(cache.scrub(), 2);
        assert_eq!(cache.scrub_passes(), 1);
        assert_eq!(cache.quarantined(), 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(0).is_some() && cache.get(2).is_some());

        // A clean pass still counts as a pass, quarantines nothing.
        assert_eq!(cache.scrub(), 0);
        assert_eq!(cache.scrub_passes(), 2);
        assert_eq!(cache.quarantined(), 2);
    }

    /// A canonical record (persistable: [`ResultCache::load`] re-parses
    /// entries, so arbitrary text won't do). `total` varies the bytes.
    fn canonical_record(total: usize) -> String {
        use crate::analysis::{LossBreakdown, LossTable, SchemeLosses};
        use crate::confidence::YieldInterval;
        use crate::sweep::StudyResult;
        use yac_circuit::CacheVariant;
        render_result(&StudyResult {
            loss: LossTable {
                base_variant: CacheVariant::Horizontal,
                spec_name: "strict".into(),
                total_chips: total,
                base: LossBreakdown {
                    leakage: 2,
                    delay: vec![1, 0, 0, 0],
                },
                schemes: vec![SchemeLosses {
                    name: "H-YAPD".into(),
                    losses: LossBreakdown {
                        leakage: 2,
                        delay: vec![0, 0, 0, 0],
                    },
                }],
                quarantined: 1,
            },
            yield_interval: YieldInterval {
                estimate: 0.9,
                lo: 0.85,
                hi: 0.95,
            },
            evaluated_chips: total,
            missing_chips: 0,
            degraded_shards: 0,
            mean_cpi: None,
        })
    }

    #[test]
    fn save_skips_rotted_entries_instead_of_laundering_them() {
        let path = std::env::temp_dir()
            .join("yac-service-tests")
            .join("save-skips-rot.cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let keep = canonical_record(100);
        let mut cache = ResultCache::new(4096);
        assert!(cache.insert(1, keep.clone()));
        assert!(cache.insert(2, canonical_record(200)));
        cache.entries.get_mut(&2).unwrap().record[0] ^= 0x02;
        cache.save(&path).unwrap();

        // The rotted entry never reaches disk under a fresh line CRC.
        let mut loaded = ResultCache::load(&path, 4096).unwrap().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.get(1).as_deref(), Some(keep.as_str()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_bytes_match_the_pinned_yac_cache_v1_text() {
        let path = std::env::temp_dir()
            .join("yac-service-tests")
            .join("golden.cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut cache = ResultCache::new(4096);
        assert!(cache.insert(0x2a, canonical_record(100)));
        assert!(cache.insert(0xfeed_beef, canonical_record(200)));
        cache.save(&path).unwrap();
        let golden = "YAC-CACHE v1 CRC d3ef59a6\n\
            E 000000000000002a total 100 quarantined 1 variant H spec strict base 2 4 1 0 0 0 \
            schemes 1 H-YAPD 2 4 0 0 0 0 interval 3feccccccccccccd 3feb333333333333 \
            3fee666666666666 evaluated 100 missing 0 shards 0 cpi - CRC f6be26fd\n\
            E 00000000feedbeef total 200 quarantined 1 variant H spec strict base 2 4 1 0 0 0 \
            schemes 1 H-YAPD 2 4 0 0 0 0 interval 3feccccccccccccd 3feb333333333333 \
            3fee666666666666 evaluated 200 missing 0 shards 0 cpi - CRC 289b7e20\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), golden);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_high_bit_flip_is_corruption_that_the_file_scrubber_repairs() {
        let path = std::env::temp_dir()
            .join("yac-service-tests")
            .join("high-bit-flip.cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let (alpha, beta) = (canonical_record(100), canonical_record(200));
        let mut cache = ResultCache::new(4096);
        assert!(cache.insert(1, alpha.clone()));
        assert!(cache.insert(2, beta.clone()));
        cache.save(&path).unwrap();

        // Flip bit 7 of the middle byte: the file is no longer UTF-8.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let err = ResultCache::load(&path, 4096).unwrap_err();
        assert!(matches!(err, StudyError::Corrupt { .. }), "got {err:?}");

        assert!(cache.scrub_file(&path) >= 1);
        let mut reloaded = ResultCache::load(&path, 4096).unwrap().unwrap();
        assert_eq!(reloaded.get(1).as_deref(), Some(alpha.as_str()));
        assert_eq!(reloaded.get(2).as_deref(), Some(beta.as_str()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scrub_file_rewrites_a_file_with_rotted_lines() {
        let path = std::env::temp_dir()
            .join("yac-service-tests")
            .join("scrub-file-repairs.cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let (alpha, beta) = (canonical_record(100), canonical_record(200));
        let mut cache = ResultCache::new(4096);
        assert!(cache.insert(1, alpha.clone()));
        assert!(cache.insert(2, beta.clone()));
        cache.save(&path).unwrap();

        // Rot one persisted line's payload out from under its CRC.
        let text = std::fs::read_to_string(&path).unwrap();
        let rotted = text.replacen("total 100", "total 101", 1);
        assert_ne!(text, rotted, "fixture line not found");
        std::fs::write(&path, rotted).unwrap();

        // The scrubber counts the rot and rewrites from memory.
        assert_eq!(cache.scrub_file(&path), 1);
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.repaired(), 1);
        let mut reloaded = ResultCache::load(&path, 4096).unwrap().unwrap();
        assert_eq!(reloaded.get(1).as_deref(), Some(alpha.as_str()));
        assert_eq!(reloaded.get(2).as_deref(), Some(beta.as_str()));

        // A clean file is left alone.
        assert_eq!(cache.scrub_file(&path), 0);
        std::fs::remove_file(&path).unwrap();
    }

    fn tiny_service() -> SweepService {
        let mut config = ServiceConfig::default();
        config.exec.workers = 2;
        config.exec.shard_chips = 8;
        // Unit tests drive scrubbing synchronously.
        config.heartbeat_budget = None;
        config.scrub_interval = None;
        SweepService::new(config)
    }

    #[test]
    fn a_panicking_pool_task_leaves_the_next_query_computing_normally() {
        let service = tiny_service();
        // One panic per worker: were tasks not isolated, each would take
        // a lane with it and the query's shards would never run.
        for _ in 0..service.pool.workers() {
            service
                .pool
                .submit(Box::new(|_| panic!("injected pool task panic")));
        }
        let q = StudyQuery {
            chips: 16,
            seed: 3,
            constraint: ConstraintSpec::NOMINAL,
            kind: PowerDownKind::Horizontal,
            cpi: None,
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let record = |reply| match reply {
            ServiceReply::Result {
                record,
                cached: false,
                ..
            } => record,
            other => panic!("expected a computed result, got {other:?}"),
        };
        let after_panics = record(service.query(&q, &cancel));
        let fresh = tiny_service();
        assert_eq!(after_panics, record(fresh.query(&q, &cancel)));
        fresh.shutdown();
        service.shutdown();
    }

    #[test]
    fn oversized_cpi_budgets_are_refused_and_the_service_keeps_answering() {
        let service = tiny_service();
        let cancel = Arc::new(AtomicBool::new(false));
        let budget = |warmup_uops, measure_uops| StudyQuery {
            chips: 16,
            cpi: Some(CpiOptions {
                warmup_uops,
                measure_uops,
            }),
            ..query()
        };
        for oversized in [
            budget(0, 100_000_000_000),
            budget(MAX_QUERY_CPI_UOPS, 1),
            budget(u64::MAX, u64::MAX),
        ] {
            let reply = service.query(&oversized, &cancel);
            assert!(
                matches!(&reply, ServiceReply::Error { message } if message.contains("limit")),
                "{reply:?}"
            );
        }
        let reply = service.query(&budget(50, 200), &cancel);
        assert!(
            matches!(reply, ServiceReply::Result { cached: false, .. }),
            "{reply:?}"
        );
        service.shutdown();
    }

    #[test]
    fn health_report_tracks_lanes_scrubs_and_inflight() {
        let service = tiny_service();
        let report = service.health();
        assert_eq!(report.lanes, 2);
        assert_eq!(report.lanes_busy, 0);
        assert_eq!(report.inflight, 0);
        assert_eq!(report.scrub_passes, 0);

        service.with_cache(|cache| {
            assert!(cache.insert(9, "healthy record\n".into()));
        });
        service.scrub_now();
        let report = service.health();
        assert_eq!(report.scrub_passes, 1);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.degraded, 0);
        service.shutdown();
    }

    /// The collection peeks the client in non-blocking mode, so it must
    /// switch the socket back: the frame loop's next idle read waits out
    /// its IO_TICK timeout instead of failing at once.
    #[test]
    fn a_watched_collection_leaves_the_socket_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TICK)).unwrap();
        let service = tiny_service();
        let cancel = Arc::new(AtomicBool::new(false));
        let q = StudyQuery {
            chips: 16,
            cpi: None,
            ..query()
        };
        let reply = service.query_watched(&q, &cancel, Some(&stream), None);
        assert!(
            matches!(reply, ServiceReply::Result { cached: false, .. }),
            "{reply:?}"
        );
        assert!(!cancel.load(Ordering::Relaxed), "live client cancelled");
        let started = Instant::now();
        let err = (&stream).read(&mut [0u8; 1]).unwrap_err();
        assert!(is_would_block(&err), "unexpected error: {err}");
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
        service.shutdown();
    }

    #[test]
    fn constraint_lookup_covers_the_paper_recipes() {
        for spec in [
            ConstraintSpec::NOMINAL,
            ConstraintSpec::RELAXED,
            ConstraintSpec::STRICT,
        ] {
            assert_eq!(constraint_by_name(spec.name), Some(spec));
        }
        assert_eq!(constraint_by_name("bogus"), None);
    }
}

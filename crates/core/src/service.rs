//! The interactive sweep service: study queries over a content-addressed
//! result cache, computed on a work-stealing shard pool.
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
//! * **Supervised execution.** Misses run on a long-lived [`StealPool`]
//!   of work-stealing workers ([`crate::stealing`]), each shard under
//!   the same retry/backoff/deadline/degrade loop and result collector
//!   as batch studies ([`crate::executor`]); the service adds heartbeat
//!   leases watched by a stall sentinel, shard reassignment and pool
//!   healing. Degraded results are returned honestly — but
//!   **not cached**, because they depend on which shards happened to
//!   fail.
//! * **Bounded admission.** At most [`ServiceConfig::max_inflight`]
//!   queries compute at once; the next miss gets a typed
//!   [`ServiceReply::Busy`], never an unbounded queue. Cache hits are
//!   deliberately served even when saturated — a hit costs one map
//!   lookup, and refusing it would punish exactly the queries the cache
//!   exists to make cheap.
//!
//! Cancellation is cooperative and per query: while a query computes,
//! the connection handler watches for client disconnect and raises the
//! query's cancel flag, which stops its shards between chips without
//! burning retries. A cache hit answers at once and is not watched.
//!
//! # Wire protocol
//!
//! Length-prefixed, CRC-checked JSON over TCP: each frame is a
//! big-endian `u32` byte length, a big-endian `u32` CRC-32 of the
//! payload, then the payload — a flat JSON object (no nesting, scalars
//! only). The CRC turns wire corruption (including the chaos layer's
//! injected bit flips) into a typed `InvalidData` error instead of a
//! silently wrong record. Requests carry an `"op"` key (`query`,
//! `stats`, `drain`, `shutdown`); replies a `"status"` key (`ok`,
//! `busy`, `draining`, `deadline`, `cancelled`, `error`, `stats`,
//! `bye`). Study records travel as the canonical [`render_result`]
//! token text inside the `"record"` string, so the bytes a client
//! receives are exactly the bytes the cache holds.
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
//! * **Client deadlines** — a query's `deadline_ms` arms a server-side
//!   watchdog that raises the query's cooperative-cancel flag and
//!   answers [`ServiceReply::Deadline`]; abandoned work stops between
//!   chips instead of burning the pool.
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
//! use yac_core::service::{ServiceConfig, StudyQuery, SweepService, ServiceReply};
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
    ShardMsg, ShardSpec,
};
use crate::health::{HealthConfig, HeartbeatRegistry, StallEvent, StallSentinel};
use crate::schemes::PowerDownKind;
use crate::stealing::StealPool;
use crate::sweep::{
    parse_journal, parse_result, render_result, results_key, study_result_from_outcome, CpiOptions,
    StudySpec, StudyStatus, SweepConfig, SweepGrid,
};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yac_obs::json::{json_string, FlatObject};
use yac_obs::{Metric, Phase, TraceCtx, TraceEventKind};
use yac_variation::MonteCarlo;

/// Cache-file magic line content (before its CRC trailer).
const CACHE_MAGIC: &str = "YAC-CACHE v1";

/// Largest frame either side of the wire protocol will accept.
pub const MAX_FRAME: usize = 16 << 20;

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
/// (workers, shard size, retries) belongs to the service, not the query,
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
    /// work-stealing pool; the retry/backoff/deadline/fault knobs apply
    /// to every query's shards.
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
    /// The backoff hint carried by every [`ServiceReply::Busy`] (and
    /// [`ServiceReply::Retryable`]).
    pub retry_after_ms: u64,
    /// How long a pool lane may hold a shard without one heartbeat
    /// before the stall sentinel escalates (cancel → reassign →
    /// degrade). `None` disables the sentinel.
    pub heartbeat_budget: Option<Duration>,
    /// How often the background scrubber re-verifies cache-entry CRCs.
    /// `None` disables the scrubber thread (scrubs still happen on every
    /// read, and [`SweepService::scrub_now`] runs one on demand).
    pub scrub_interval: Option<Duration>,
    /// A persisted `YAC-CACHE` file for the scrubber to re-verify (and
    /// rewrite from memory when a line has rotted). `None` scrubs only
    /// the in-memory entries.
    pub scrub_file: Option<PathBuf>,
    /// How many times a stalled shard is reassigned to a fresh worker
    /// before the service records it degraded instead.
    pub max_reassigns: u32,
}

impl Default for ServiceConfig {
    /// Default executor, two queries in flight, an 8 MiB cache, 64
    /// connections, two-second frame deadlines, a 200 ms retry hint, a
    /// two-second heartbeat budget, five-second scrub passes, one
    /// reassignment per stalled shard.
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
            max_reassigns: 1,
        }
    }
}

/// The `retry_after_ms` a client assumes when a `busy` reply omits the
/// field (a pre-hint server); also the default hint servers send.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 200;

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries received (any outcome).
    pub queries: u64,
    /// Queries answered with a result (cached or computed).
    pub served: u64,
    /// Queries refused with [`ServiceReply::Busy`].
    pub busy: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: usize,
    /// Tasks stolen between pool workers.
    pub stolen: u64,
    /// Queries computing right now.
    pub inflight: usize,
    /// The admission limit.
    pub limit: usize,
    /// Slow clients evicted for stalling mid-frame.
    pub evicted: u64,
    /// Connections refused at the connection cap.
    pub rejected: u64,
    /// Whether the service is draining (refusing new queries).
    pub draining: bool,
    /// Completed cache scrub passes.
    pub scrub_passes: u64,
    /// Cache entries quarantined after failing their CRC.
    pub quarantined: u64,
    /// Quarantined entries repaired by a fresh insert.
    pub repaired: u64,
    /// Stalled shards reassigned to a fresh worker.
    pub reassigned: u64,
    /// Times the worker pool was rebuilt after poisoning.
    pub pool_restarts: u64,
}

/// A point-in-time liveness report, answering [`ServiceRequest::Health`].
///
/// Where [`ServiceStats`] counts *traffic*, this reports *self-healing*:
/// lane liveness, the escalation ladder's counters, scrub activity and
/// pool rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the service was built.
    pub uptime_ms: u64,
    /// Queries computing right now.
    pub inflight: usize,
    /// Heartbeat lanes (one per pool worker).
    pub lanes: usize,
    /// Lanes currently holding a shard lease.
    pub lanes_busy: usize,
    /// Lanes past a missed heartbeat without recovering (cancelled or
    /// truly wedged), as of the sentinel's last poll.
    pub lanes_stalled: u64,
    /// Lease cancels issued for missed heartbeats.
    pub heartbeats_missed: u64,
    /// Stalled shards reassigned to a fresh worker.
    pub shards_reassigned: u64,
    /// Completed cache scrub passes.
    pub scrub_passes: u64,
    /// Cache entries quarantined after failing their CRC.
    pub quarantined: u64,
    /// Quarantined entries repaired by a fresh insert.
    pub repaired: u64,
    /// Queries answered with a degraded (shards-missing) result.
    pub degraded: u64,
    /// Times the worker pool was rebuilt after poisoning.
    pub pool_restarts: u64,
}

/// A request a client can put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Compute (or fetch from cache) one study.
    Query {
        /// The study to compute or fetch.
        query: StudyQuery,
        /// Give up after this many milliseconds: the server arms a
        /// watchdog that raises the query's cancel flag and answers
        /// [`ServiceReply::Deadline`]. Deliberately *not* part of
        /// [`StudyQuery`] — it shapes scheduling, not the result, so it
        /// must not move the cache key.
        deadline_ms: Option<u64>,
    },
    /// Report service counters.
    Stats,
    /// Report liveness: uptime, lane health, scrub and self-healing
    /// counters.
    Health,
    /// Finish in-flight queries, refuse new ones, then exit the serve
    /// loop.
    Drain,
    /// Shut the service down cleanly.
    Shutdown,
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceReply {
    /// The study's canonical record text.
    Result {
        /// Canonical [`render_result`] text — exactly the cached bytes.
        record: String,
        /// The query's fingerprint (the cache key).
        key: u64,
        /// Whether the record came from the cache.
        cached: bool,
    },
    /// The service is saturated; retry later. Backpressure is typed,
    /// never an unbounded queue.
    Busy {
        /// Queries computing when the refusal was made.
        inflight: usize,
        /// The admission limit.
        limit: usize,
        /// How long the server suggests waiting before retrying. Absent
        /// on the wire from older servers; clients assume
        /// [`DEFAULT_RETRY_AFTER_MS`].
        retry_after_ms: u64,
    },
    /// The service is draining: in-flight queries finish, new ones are
    /// refused, and the serve loop exits once the last completes.
    Draining {
        /// Queries still computing when the refusal was made.
        inflight: usize,
    },
    /// The query's `deadline_ms` expired before it finished; its shards
    /// were cancelled cooperatively.
    Deadline {
        /// Milliseconds the query ran before the deadline fired.
        elapsed_ms: u64,
    },
    /// The query's client disconnected mid-computation.
    Cancelled,
    /// The query was lost to a fault the service has already healed
    /// (worker-pool poisoning mid-computation): the same request will
    /// succeed on a fresh attempt. Unlike [`ServiceReply::Error`] this
    /// is explicitly *transient* — resilient clients retry it like
    /// [`ServiceReply::Busy`], without a breaker penalty.
    Retryable {
        /// How long the server suggests waiting before retrying.
        retry_after_ms: u64,
    },
    /// The query could not be answered.
    Error {
        /// One-line diagnostic.
        message: String,
    },
    /// Service counters, answering [`ServiceRequest::Stats`].
    Stats(ServiceStats),
    /// Liveness report, answering [`ServiceRequest::Health`].
    Health(HealthReport),
    /// Acknowledges [`ServiceRequest::Shutdown`].
    Bye,
}

/// A computing query, registered so the stall sentinel's handler can
/// reassign (or degrade) its stalled shards from outside the collector.
#[derive(Debug)]
struct ActiveJob {
    job: Arc<ShardJob>,
    specs: Vec<ShardSpec>,
    /// A clone of the query's result channel. Held here until the
    /// collector deregisters the job, which also keeps the channel open
    /// while reassignment is still possible.
    tx: mpsc::Sender<Option<ShardMsg>>,
    /// Stalled-shard reassignments already spent on this query.
    reassigns: u32,
}

/// The live query table the sentinel handler works against.
type JobTable = Arc<Mutex<HashMap<u64, ActiveJob>>>;

/// Shard tags pack the owning job and the shard index into the lease's
/// `shard` word: low 20 bits the shard index, the rest the job id.
const SHARD_TAG_BITS: u32 = 20;

/// The largest chip count one query may ask for; larger queries are
/// refused before anything is allocated. Every chip of a query is held
/// in memory until it is answered, and with at most 2^20 chips every
/// shard index fits the `SHARD_TAG_BITS` that `handle_stall` decodes,
/// whatever the shard size.
const MAX_QUERY_CHIPS: usize = 1 << SHARD_TAG_BITS;

/// The largest CPI budget (warm-up plus measured micro-ops per benchmark)
/// one query may ask for; larger budgets are refused before any
/// simulation starts, so a query cannot tie a pool worker up for hours.
const MAX_QUERY_CPI_UOPS: u64 = 1 << 24;

fn shard_tag(job_id: u64, index: usize) -> u64 {
    (job_id << SHARD_TAG_BITS) | (index as u64 & ((1 << SHARD_TAG_BITS) - 1))
}

fn lock_jobs(jobs: &JobTable) -> std::sync::MutexGuard<'_, HashMap<u64, ActiveJob>> {
    jobs.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn read_pool(pool: &RwLock<StealPool>) -> std::sync::RwLockReadGuard<'_, StealPool> {
    pool.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_opt<T>(slot: &Mutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Sentinel escalation policy (steps two and three of the ladder —
/// step one, the cooperative cancel, already ran in the sentinel): move
/// the stalled shard to a fresh worker while the reassign budget lasts,
/// then record it honestly degraded.
fn handle_stall(
    event: StallEvent,
    jobs: &JobTable,
    pool: &RwLock<StealPool>,
    registry: &Arc<HeartbeatRegistry>,
    hb_missed: &AtomicU64,
    reassigned: &AtomicU64,
    max_reassigns: u32,
) {
    let StallEvent::Missed { shard: tag, .. } = event else {
        return; // Wedged lanes are reported via health, nothing to move.
    };
    hb_missed.fetch_add(1, Ordering::Relaxed);
    let job_id = tag >> SHARD_TAG_BITS;
    let index = (tag & ((1 << SHARD_TAG_BITS) - 1)) as usize;
    let mut table = lock_jobs(jobs);
    let Some(active) = table.get_mut(&job_id) else {
        return; // The query already finished (or was discarded).
    };
    if active.job.cancel.load(Ordering::Relaxed) {
        return;
    }
    let Some(spec) = active.specs.iter().find(|s| s.index == index).copied() else {
        return;
    };
    if active.reassigns >= max_reassigns {
        // Ladder step three: the reassign budget is spent — report the
        // shard degraded so the query completes honestly without it.
        yac_obs::inc(Metric::DegradedShards);
        yac_obs::trace_instant(
            TraceEventKind::ShardDegraded,
            TraceCtx::shard(u32::MAX, spec.index as u32, active.reassigns),
        );
        let _ = active.tx.send(Some(ShardMsg::Degraded {
            spec,
            attempts: active.reassigns + 1,
            error: format!(
                "shard {} stalled (no heartbeat) and exhausted its {} reassignment(s)",
                spec.index, max_reassigns
            ),
        }));
        return;
    }
    active.reassigns += 1;
    let job = Arc::clone(&active.job);
    let tx = active.tx.clone();
    drop(table);
    reassigned.fetch_add(1, Ordering::Relaxed);
    yac_obs::inc(Metric::ShardsReassigned);
    yac_obs::trace_instant(
        TraceEventKind::ShardReassigned,
        TraceCtx {
            shard: Some(spec.index as u32),
            ..TraceCtx::default()
        },
    );
    submit_shard(
        &read_pool(pool),
        registry,
        job,
        shard_tag(job_id, spec.index),
        spec,
        tx,
    );
}

/// A helper thread that runs `step` until the step returns `None` or
/// the loop is halted, parking between steps for as long as the step
/// asks. Halting (also done by drop) sets the stop flag, unparks the
/// thread and joins it, so it never waits out a park. A failed spawn
/// leaves no thread and `step` never runs.
#[derive(Debug)]
struct ParkedLoop {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ParkedLoop {
    fn spawn(name: &str, mut step: impl FnMut() -> Option<Duration> + Send + 'static) -> Self {
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

    fn halt(&mut self) {
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

/// The long-lived sweep service: a work-stealing pool, a result cache
/// and bounded admission. See the module docs for the architecture.
#[derive(Debug)]
pub struct SweepService {
    config: ServiceConfig,
    /// The worker pool, behind a lock so a poisoned pool can be rebuilt
    /// in place ([`SweepService::heal_pool`]) while queries keep
    /// submitting through read guards.
    pool: Arc<RwLock<StealPool>>,
    registry: Arc<HeartbeatRegistry>,
    sentinel: Mutex<Option<StallSentinel>>,
    scrubber: Mutex<Option<ParkedLoop>>,
    jobs: JobTable,
    next_job: AtomicU64,
    started: Instant,
    cache: Arc<Mutex<ResultCache>>,
    inflight: AtomicUsize,
    queries: AtomicU64,
    served: AtomicU64,
    busy: AtomicU64,
    evicted: AtomicU64,
    rejected: AtomicU64,
    hb_missed: Arc<AtomicU64>,
    reassigned: Arc<AtomicU64>,
    degraded: AtomicU64,
    pool_restarts: AtomicU64,
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
        let pool = Arc::new(RwLock::new(StealPool::new(config.exec.workers)));
        let registry = Arc::new(HeartbeatRegistry::new(config.exec.workers.max(1)));
        let jobs: JobTable = Arc::new(Mutex::new(HashMap::new()));
        let hb_missed = Arc::new(AtomicU64::new(0));
        let reassigned = Arc::new(AtomicU64::new(0));
        let sentinel = config.heartbeat_budget.map(|budget| {
            let jobs = Arc::clone(&jobs);
            let pool = Arc::clone(&pool);
            let handler_registry = Arc::clone(&registry);
            let hb_missed = Arc::clone(&hb_missed);
            let reassigned = Arc::clone(&reassigned);
            let max_reassigns = config.max_reassigns;
            StallSentinel::spawn(
                Arc::clone(&registry),
                HealthConfig::with_budget(budget),
                move |event| {
                    handle_stall(
                        event,
                        &jobs,
                        &pool,
                        &handler_registry,
                        &hb_missed,
                        &reassigned,
                        max_reassigns,
                    );
                },
            )
        });
        let scrubber = config.scrub_interval.map(|interval| {
            spawn_scrubber(Arc::clone(&cache), interval, config.scrub_file.clone())
        });
        SweepService {
            config,
            pool,
            registry,
            sentinel: Mutex::new(sentinel),
            scrubber: Mutex::new(scrubber),
            jobs,
            next_job: AtomicU64::new(1),
            started: Instant::now(),
            cache,
            inflight: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            served: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            hb_missed,
            reassigned,
            degraded: AtomicU64::new(0),
            pool_restarts: AtomicU64::new(0),
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
        // Stop the sentinel first: its handler holds pool/jobs clones,
        // and no reassignment should race the teardown.
        if let Some(sentinel) = lock_opt(&self.sentinel).take() {
            sentinel.stop();
        }
        if let Some(mut scrubber) = lock_opt(&self.scrubber).take() {
            scrubber.halt();
        }
        if let Ok(pool) = Arc::try_unwrap(self.pool) {
            pool.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .shutdown();
        }
    }

    /// Runs one synchronous scrub pass (in-memory entries plus the
    /// configured persisted file) — what the background scrubber does
    /// every [`ServiceConfig::scrub_interval`].
    pub fn scrub_now(&self) {
        scrub_pass(&self.cache, self.config.scrub_file.as_deref());
    }

    /// Rebuilds the worker pool in place when a panicking task has
    /// killed one of its workers. Queued tasks of *other* queries drain
    /// onto the old pool's surviving workers before it is torn down;
    /// tasks lost with the dead worker surface as
    /// [`ServiceReply::Retryable`] through their collectors. Returns
    /// whether a rebuild happened (counted in [`Metric::PoolRestarts`],
    /// traced as [`TraceEventKind::PoolRestarted`]).
    pub fn heal_pool(&self) -> bool {
        let dead = read_pool(&self.pool).dead_workers();
        if dead == 0 {
            return false;
        }
        let old = {
            let mut guard = self
                .pool
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if guard.dead_workers() == 0 {
                return false; // Another query healed it first.
            }
            std::mem::replace(&mut *guard, StealPool::new(self.config.exec.workers))
        };
        // Joined outside the lock so fresh submissions are never blocked
        // on the old pool draining.
        old.shutdown();
        self.pool_restarts.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::PoolRestarts);
        yac_obs::trace_instant(TraceEventKind::PoolRestarted, TraceCtx::default());
        true
    }

    /// A snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let stolen = read_pool(&self.pool).stolen();
        self.with_cache(|cache| ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_entries: cache.len(),
            cache_bytes: cache.bytes(),
            stolen,
            inflight: self.inflight.load(Ordering::Acquire),
            limit: self.config.max_inflight.max(1),
            evicted: self.evicted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            draining: self.draining(),
            scrub_passes: cache.scrub_passes(),
            quarantined: cache.quarantined(),
            repaired: cache.repaired(),
            reassigned: self.reassigned.load(Ordering::Relaxed),
            pool_restarts: self.pool_restarts.load(Ordering::Relaxed),
        })
    }

    /// A point-in-time liveness report (the `health` wire op).
    #[must_use]
    pub fn health(&self) -> HealthReport {
        let lanes_stalled = lock_opt(&self.sentinel)
            .as_ref()
            .map_or(0, StallSentinel::stalled_lanes);
        self.with_cache(|cache| HealthReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            inflight: self.inflight.load(Ordering::Acquire),
            lanes: self.registry.lanes(),
            lanes_busy: self.registry.busy(),
            lanes_stalled,
            heartbeats_missed: self.hb_missed.load(Ordering::Relaxed),
            shards_reassigned: self.reassigned.load(Ordering::Relaxed),
            scrub_passes: cache.scrub_passes(),
            quarantined: cache.quarantined(),
            repaired: cache.repaired(),
            degraded: self.degraded.load(Ordering::Relaxed),
            pool_restarts: self.pool_restarts.load(Ordering::Relaxed),
        })
    }

    /// Answers one query: cache first, then bounded admission, then
    /// supervised computation on the stealing pool. `cancel` is the
    /// query's cooperative abort flag — raise it (the connection handler
    /// does, on client disconnect) and the computation stops between
    /// chips and answers [`ServiceReply::Cancelled`].
    ///
    /// Cache hits bypass admission by design: a saturated service keeps
    /// answering the cheap queries.
    pub fn query(&self, query: &StudyQuery, cancel: &Arc<AtomicBool>) -> ServiceReply {
        self.query_watched(query, cancel, || ())
    }

    /// [`SweepService::query`], calling `watch` only for a query that
    /// will compute — after the cache misses and admission succeeds —
    /// and holding its guard until the computation ends. Hits, refusals
    /// and invalid queries never call it, so they pay for no watcher.
    pub(crate) fn query_watched<G>(
        &self,
        query: &StudyQuery,
        cancel: &Arc<AtomicBool>,
        watch: impl FnOnce() -> G,
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
        let _watch = watch();
        let _span = yac_obs::phase_ctx(Phase::QueryExec, TraceCtx::default());
        // A pool poisoned by an earlier query is rebuilt before this one
        // fans out, so the damage never outlives the query that saw it.
        self.heal_pool();
        let reply = self.compute(query, key, cancel);
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

    /// Computes a missed query on the stealing pool and caches the
    /// record if (and only if) every chip was observed — degraded
    /// results depend on which shards failed, so they are returned but
    /// never cached.
    fn compute(&self, query: &StudyQuery, key: u64, cancel: &Arc<AtomicBool>) -> ServiceReply {
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
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        lock_jobs(&self.jobs).insert(
            job_id,
            ActiveJob {
                job: Arc::clone(&job),
                specs: shards.clone(),
                tx: tx.clone(),
                reassigns: 0,
            },
        );
        let pool = read_pool(&self.pool);
        for spec in &shards {
            let tag = shard_tag(job_id, spec.index);
            submit_shard(
                &pool,
                &self.registry,
                Arc::clone(&job),
                tag,
                *spec,
                tx.clone(),
            );
        }
        // Healing the pool below takes its write lock.
        drop((pool, tx));

        // The sentinel's reassignments keep the channel open (the job
        // table holds a sender clone) until the job is deregistered
        // below. A receive timeout heals a poisoned pool: shards queued
        // on (or running in) the dead worker are gone, but the pool is
        // healthy again, so the same request will succeed.
        let mut merged = MergedShards::with_capacity(query.chips);
        let Ok(collected) = collect_shards::<Infallible>(
            &rx,
            &shards,
            cancel,
            || self.heal_pool(),
            |msg| {
                merged.accept(msg);
                Ok(())
            },
        );
        lock_jobs(&self.jobs).remove(&job_id);
        match collected {
            Collected::Complete if !cancel.load(Ordering::Relaxed) => {}
            Collected::Lost if !cancel.load(Ordering::Relaxed) => {
                yac_obs::inc(Metric::QueriesRetryable);
                return ServiceReply::Retryable {
                    retry_after_ms: self.config.retry_after_ms,
                };
            }
            _ => return ServiceReply::Cancelled,
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
// Wire JSON: flat objects of scalars, written and read with
// `yac_obs::json`.
// ---------------------------------------------------------------------

impl ServiceRequest {
    /// Renders the request as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ServiceRequest::Query {
                query: q,
                deadline_ms,
            } => {
                let kind = match q.kind {
                    PowerDownKind::Vertical => "vertical",
                    PowerDownKind::Horizontal => "horizontal",
                };
                let mut out = format!(
                    "{{\"op\":\"query\",\"chips\":{},\"seed\":{},\"constraint\":\"{}\",\"kind\":\"{kind}\"",
                    q.chips, q.seed, q.constraint.name
                );
                if let Some(cpi) = &q.cpi {
                    let _ = std::fmt::Write::write_fmt(
                        &mut out,
                        format_args!(
                            ",\"warmup\":{},\"measure\":{}",
                            cpi.warmup_uops, cpi.measure_uops
                        ),
                    );
                }
                if let Some(ms) = deadline_ms {
                    let _ =
                        std::fmt::Write::write_fmt(&mut out, format_args!(",\"deadline_ms\":{ms}"));
                }
                out.push('}');
                out
            }
            ServiceRequest::Stats => "{\"op\":\"stats\"}".to_owned(),
            ServiceRequest::Health => "{\"op\":\"health\"}".to_owned(),
            ServiceRequest::Drain => "{\"op\":\"drain\"}".to_owned(),
            ServiceRequest::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        }
    }

    /// Parses a wire request.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the malformed field; the
    /// server sends it back as [`ServiceReply::Error`].
    pub fn parse(text: &str) -> Result<ServiceRequest, String> {
        let obj = FlatObject::parse(text)?;
        match obj.str("op")? {
            "stats" => Ok(ServiceRequest::Stats),
            "health" => Ok(ServiceRequest::Health),
            "drain" => Ok(ServiceRequest::Drain),
            "shutdown" => Ok(ServiceRequest::Shutdown),
            "query" => {
                let name = obj.str("constraint")?;
                let constraint = constraint_by_name(name)
                    .ok_or_else(|| format!("unknown constraint {name:?}"))?;
                let kind = match obj.str("kind")? {
                    "vertical" => PowerDownKind::Vertical,
                    "horizontal" => PowerDownKind::Horizontal,
                    other => return Err(format!("unknown kind {other:?}")),
                };
                let cpi = match (obj.opt_u64("warmup")?, obj.opt_u64("measure")?) {
                    (Some(warmup_uops), Some(measure_uops)) => Some(CpiOptions {
                        warmup_uops,
                        measure_uops,
                    }),
                    (None, None) => None,
                    _ => return Err("warmup and measure must be given together".into()),
                };
                Ok(ServiceRequest::Query {
                    query: StudyQuery {
                        chips: obj.usize("chips")?,
                        seed: obj.u64("seed")?,
                        constraint,
                        kind,
                        cpi,
                    },
                    deadline_ms: obj.opt_u64("deadline_ms")?,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl ServiceReply {
    /// Renders the reply as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ServiceReply::Result {
                record,
                key,
                cached,
            } => format!(
                "{{\"status\":\"ok\",\"cached\":{cached},\"key\":\"{key:016x}\",\"record\":{}}}",
                json_string(record)
            ),
            ServiceReply::Busy {
                inflight,
                limit,
                retry_after_ms,
            } => format!(
                "{{\"status\":\"busy\",\"inflight\":{inflight},\"limit\":{limit},\
                 \"retry_after_ms\":{retry_after_ms}}}"
            ),
            ServiceReply::Draining { inflight } => {
                format!("{{\"status\":\"draining\",\"inflight\":{inflight}}}")
            }
            ServiceReply::Deadline { elapsed_ms } => {
                format!("{{\"status\":\"deadline\",\"elapsed_ms\":{elapsed_ms}}}")
            }
            ServiceReply::Cancelled => "{\"status\":\"cancelled\"}".to_owned(),
            ServiceReply::Retryable { retry_after_ms } => {
                format!("{{\"status\":\"retryable\",\"retry_after_ms\":{retry_after_ms}}}")
            }
            ServiceReply::Error { message } => {
                format!(
                    "{{\"status\":\"error\",\"message\":{}}}",
                    json_string(message)
                )
            }
            ServiceReply::Stats(s) => format!(
                "{{\"status\":\"stats\",\"queries\":{},\"served\":{},\"busy\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
                 \"cache_entries\":{},\"cache_bytes\":{},\"stolen\":{},\
                 \"inflight\":{},\"limit\":{},\"evicted\":{},\"rejected\":{},\
                 \"draining\":{},\"scrub_passes\":{},\"quarantined\":{},\
                 \"repaired\":{},\"reassigned\":{},\"pool_restarts\":{}}}",
                s.queries,
                s.served,
                s.busy,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_entries,
                s.cache_bytes,
                s.stolen,
                s.inflight,
                s.limit,
                s.evicted,
                s.rejected,
                s.draining,
                s.scrub_passes,
                s.quarantined,
                s.repaired,
                s.reassigned,
                s.pool_restarts
            ),
            ServiceReply::Health(h) => format!(
                "{{\"status\":\"health\",\"uptime_ms\":{},\"inflight\":{},\
                 \"lanes\":{},\"lanes_busy\":{},\"lanes_stalled\":{},\
                 \"heartbeats_missed\":{},\"shards_reassigned\":{},\
                 \"scrub_passes\":{},\"quarantined\":{},\"repaired\":{},\
                 \"degraded\":{},\"pool_restarts\":{}}}",
                h.uptime_ms,
                h.inflight,
                h.lanes,
                h.lanes_busy,
                h.lanes_stalled,
                h.heartbeats_missed,
                h.shards_reassigned,
                h.scrub_passes,
                h.quarantined,
                h.repaired,
                h.degraded,
                h.pool_restarts
            ),
            ServiceReply::Bye => "{\"status\":\"bye\"}".to_owned(),
        }
    }

    /// Parses a wire reply.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the malformed field.
    pub fn parse(text: &str) -> Result<ServiceReply, String> {
        let obj = FlatObject::parse(text)?;
        match obj.str("status")? {
            "ok" => {
                let key_hex = obj.str("key")?;
                let key =
                    u64::from_str_radix(key_hex, 16).map_err(|_| format!("bad key {key_hex:?}"))?;
                Ok(ServiceReply::Result {
                    record: obj.str("record")?.to_owned(),
                    key,
                    cached: obj.bool("cached")?,
                })
            }
            "busy" => Ok(ServiceReply::Busy {
                inflight: obj.usize("inflight")?,
                limit: obj.usize("limit")?,
                // Absent from pre-hint servers: assume the default.
                retry_after_ms: obj
                    .opt_u64("retry_after_ms")?
                    .unwrap_or(DEFAULT_RETRY_AFTER_MS),
            }),
            "draining" => Ok(ServiceReply::Draining {
                inflight: obj.usize("inflight")?,
            }),
            "deadline" => Ok(ServiceReply::Deadline {
                elapsed_ms: obj.u64("elapsed_ms")?,
            }),
            "cancelled" => Ok(ServiceReply::Cancelled),
            "retryable" => Ok(ServiceReply::Retryable {
                retry_after_ms: obj
                    .opt_u64("retry_after_ms")?
                    .unwrap_or(DEFAULT_RETRY_AFTER_MS),
            }),
            "error" => Ok(ServiceReply::Error {
                message: obj.str("message")?.to_owned(),
            }),
            "stats" => Ok(ServiceReply::Stats(ServiceStats {
                queries: obj.u64("queries")?,
                served: obj.u64("served")?,
                busy: obj.u64("busy")?,
                cache_hits: obj.u64("cache_hits")?,
                cache_misses: obj.u64("cache_misses")?,
                cache_evictions: obj.u64("cache_evictions")?,
                cache_entries: obj.usize("cache_entries")?,
                cache_bytes: obj.usize("cache_bytes")?,
                stolen: obj.u64("stolen")?,
                inflight: obj.usize("inflight")?,
                limit: obj.usize("limit")?,
                // Hardening-era fields; absent from older servers.
                evicted: obj.opt_u64("evicted")?.unwrap_or(0),
                rejected: obj.opt_u64("rejected")?.unwrap_or(0),
                draining: obj.opt_bool("draining")?.unwrap_or(false),
                // Self-healing-era fields; absent from older servers.
                scrub_passes: obj.opt_u64("scrub_passes")?.unwrap_or(0),
                quarantined: obj.opt_u64("quarantined")?.unwrap_or(0),
                repaired: obj.opt_u64("repaired")?.unwrap_or(0),
                reassigned: obj.opt_u64("reassigned")?.unwrap_or(0),
                pool_restarts: obj.opt_u64("pool_restarts")?.unwrap_or(0),
            })),
            "health" => Ok(ServiceReply::Health(HealthReport {
                uptime_ms: obj.u64("uptime_ms")?,
                inflight: obj.usize("inflight")?,
                lanes: obj.usize("lanes")?,
                lanes_busy: obj.usize("lanes_busy")?,
                lanes_stalled: obj.u64("lanes_stalled")?,
                heartbeats_missed: obj.u64("heartbeats_missed")?,
                shards_reassigned: obj.u64("shards_reassigned")?,
                scrub_passes: obj.u64("scrub_passes")?,
                quarantined: obj.u64("quarantined")?,
                repaired: obj.u64("repaired")?,
                degraded: obj.u64("degraded")?,
                pool_restarts: obj.u64("pool_restarts")?,
            })),
            "bye" => Ok(ServiceReply::Bye),
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Framing and the TCP serve loop
// ---------------------------------------------------------------------

/// Renders the wire image of one frame: big-endian `u32` length,
/// big-endian `u32` CRC-32 of the payload, then the payload.
fn frame_bytes(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one CRC-checked, length-prefixed frame (big-endian `u32`
/// length, big-endian `u32` payload CRC-32, then the payload) and
/// flushes.
///
/// # Errors
///
/// Propagates the underlying write error; refuses payloads over
/// [`MAX_FRAME`] as [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(payload)?)?;
    w.flush()
}

/// Reads `buf.len()` bytes from a *blocking* reader. `Ok(false)` means
/// clean EOF before the first byte (only honoured when `at_start`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8], at_start: bool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && at_start => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Diagnoses a frame whose payload fails its CRC.
fn crc_mismatch(want: u32, got: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame payload fails its CRC (header {want:08x}, payload {got:08x})"),
    )
}

/// Reads one CRC-checked, length-prefixed frame from a *blocking*
/// reader. `Ok(None)` means the peer closed the connection cleanly
/// before a frame started.
///
/// The payload buffer grows as bytes actually arrive (in steps of at
/// most 64 KiB), so a hostile header claiming [`MAX_FRAME`] bytes on a
/// connection that then stalls or closes never costs a 16 MiB
/// allocation up front.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the peer closes mid-frame;
/// [`io::ErrorKind::InvalidData`] for frames over [`MAX_FRAME`] or
/// payloads failing their CRC.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_bytes, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut crc_bytes = [0u8; 4];
    read_exact_or_eof(r, &mut crc_bytes, false)?;
    let want = u32::from_be_bytes(crc_bytes);
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let mut chunk = [0u8; 4096];
    while payload.len() < len {
        let step = (len - payload.len()).min(chunk.len());
        match r.read(&mut chunk[..step]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let got = crc32(&payload);
    if got != want {
        return Err(crc_mismatch(want, got));
    }
    Ok(Some(payload))
}

/// Whether an error is the "no data within the socket timeout" signal.
/// `set_read_timeout` surfaces as either kind depending on platform.
fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// How long connection sockets block per read/write attempt. The kernel
/// parks the thread for up to one tick (`SO_RCVTIMEO`/`SO_SNDTIMEO`),
/// so idling costs no CPU; shutdown and frame deadlines are checked
/// once per tick.
const IO_TICK: Duration = Duration::from_millis(20);

/// One read attempt from a frame loop.
enum FrameIn {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// Clean EOF before a frame, or shutdown was requested while idle.
    Closed,
    /// The peer stalled mid-frame past the read deadline: evict it.
    Evicted,
}

/// Reads one frame from a connection socket whose read timeout is
/// [`IO_TICK`]. Idle ticks *between* frames are free — a connected
/// client may stay silent forever — but once the first byte of a frame
/// arrives the rest must follow within `deadline` or the peer is
/// reported as [`FrameIn::Evicted`].
fn read_frame_conn(
    stream: &mut ChaosStream<TcpStream>,
    service: &SweepService,
    deadline: Duration,
) -> io::Result<FrameIn> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    let mut started: Option<Instant> = None;
    // Header: length then CRC. The eviction clock arms at byte one.
    while filled < 8 {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameIn::Closed),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                filled += n;
            }
            Err(e) if is_would_block(&e) => {
                if filled == 0 {
                    if service.shutdown_requested() {
                        return Ok(FrameIn::Closed);
                    }
                } else if started.is_some_and(|t| t.elapsed() >= deadline) {
                    return Ok(FrameIn::Evicted);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let want = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let armed = started.unwrap_or_else(Instant::now);
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let mut chunk = [0u8; 4096];
    while payload.len() < len {
        let step = (len - payload.len()).min(chunk.len());
        match stream.read(&mut chunk[..step]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) if is_would_block(&e) => {
                if armed.elapsed() >= deadline {
                    return Ok(FrameIn::Evicted);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let got = crc32(&payload);
    if got != want {
        return Err(crc_mismatch(want, got));
    }
    Ok(FrameIn::Frame(payload))
}

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

/// Watches a query's connection while it computes: raises the query's
/// cancel flag on client disconnect (peeking a non-blocking
/// shared-description clone of the socket, so it consumes nothing the
/// handler will later read) and, when the query carried a
/// `deadline_ms`, when the deadline expires — recording which of the
/// two fired. Between peeks the watcher parks for [`IO_TICK`] or until
/// the deadline, whichever is sooner; dropping the monitor unparks and
/// joins it at once, then puts the socket back into blocking mode.
///
/// The handler starts one only for a query that computes (through
/// [`SweepService::query_watched`]): a cache hit, a refusal or an
/// invalid query answers at once and never checks its cancel flag, so
/// it spawns no watcher thread. `deadline` is what is left of the
/// client's budget when the monitor starts.
///
/// A failed clone or spawn degrades gracefully: the query runs
/// unwatched (no cancel-on-disconnect, no deadline) instead of killing
/// the connection handler.
struct ConnMonitor<'a> {
    stream: &'a TcpStream,
    deadline_hit: Arc<AtomicBool>,
    watcher: ParkedLoop,
}

impl<'a> ConnMonitor<'a> {
    fn spawn(stream: &'a TcpStream, cancel: Arc<AtomicBool>, deadline: Option<Duration>) -> Self {
        let deadline_hit = Arc::new(AtomicBool::new(false));
        // The clone is optional: without it the watcher still enforces
        // the deadline, it just cannot see disconnects.
        let peek_stream = stream
            .try_clone()
            .ok()
            .and_then(|s| s.set_nonblocking(true).ok().map(|()| s));
        let hit = Arc::clone(&deadline_hit);
        let started = Instant::now();
        let mut byte = [0u8; 1];
        let watcher = ParkedLoop::spawn("svc-conn-watch", move || {
            let left = deadline.map(|limit| limit.saturating_sub(started.elapsed()));
            if left == Some(Duration::ZERO) {
                hit.store(true, Ordering::Relaxed);
                cancel.store(true, Ordering::Relaxed);
                return None;
            }
            match peek_stream.as_ref().map(|s| s.peek(&mut byte)) {
                // No clone (deadline-only watching), pipelined bytes (the
                // client is alive), or nothing to read yet.
                None | Some(Ok(1..)) => {}
                Some(Err(e)) if is_would_block(&e) => {}
                // A signal interrupted the peek: the peer is not gone,
                // retry. Folding this into the arm below would cancel
                // live queries spuriously.
                Some(Err(e)) if e.kind() == io::ErrorKind::Interrupted => {}
                // Orderly shutdown by the peer, a reset or any hard
                // error: treat as gone.
                Some(Ok(0) | Err(_)) => {
                    cancel.store(true, Ordering::Relaxed);
                    return None;
                }
            }
            Some(left.map_or(IO_TICK, |left| left.min(IO_TICK)))
        });
        ConnMonitor {
            stream,
            deadline_hit,
            watcher,
        }
    }
}

impl Drop for ConnMonitor<'_> {
    fn drop(&mut self) {
        self.watcher.halt();
        // The clone shared its non-blocking flag with the socket; left
        // set, the frame loop would spin, so failing to clear it closes.
        if self.stream.set_nonblocking(false).is_err() {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
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
        let payload = match read_frame_conn(&mut stream, service, read_deadline) {
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
                let cancel = Arc::new(AtomicBool::new(false));
                let received = Instant::now();
                // Set only if the query computed under a watcher: the
                // flag records whether its deadline fired.
                let mut deadline_hit = None;
                let reply = service.query_watched(&query, &cancel, || {
                    // The deadline counts from receipt, not from here.
                    let left = deadline_ms
                        .map(|ms| Duration::from_millis(ms).saturating_sub(received.elapsed()));
                    let monitor = ConnMonitor::spawn(stream.get_ref(), Arc::clone(&cancel), left);
                    deadline_hit = Some(Arc::clone(&monitor.deadline_hit));
                    monitor
                });
                let deadline_hit = deadline_hit.is_some_and(|hit| hit.load(Ordering::Relaxed));
                if deadline_hit && reply == ServiceReply::Cancelled {
                    ServiceReply::Deadline {
                        elapsed_ms: received.elapsed().as_millis() as u64,
                    }
                } else {
                    reply
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
/// `max_conns`. On exit the loop waits for every connection to finish,
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

/// Sends one request over a fresh blocking connection and returns the
/// typed reply plus the raw reply JSON (callers print or persist the
/// raw text so nothing is re-rendered on the client side).
///
/// # Errors
///
/// Propagates connect/read/write failures; a malformed reply surfaces
/// as [`io::ErrorKind::InvalidData`].
pub fn client_request(addr: &str, request: &ServiceRequest) -> io::Result<(ServiceReply, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // Client bytes flow through the chaos layer too, so a torture run
    // exercises both directions of the wire.
    let mut stream = ChaosStream::new(stream, NetSite::Client);
    write_frame(&mut stream, request.to_json().as_bytes())?;
    let payload = read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed without replying",
        )
    })?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let reply =
        ServiceReply::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((reply, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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
        // Unit tests drive scrubbing and healing synchronously.
        config.heartbeat_budget = None;
        config.scrub_interval = None;
        SweepService::new(config)
    }

    #[test]
    fn a_poisoned_pool_is_healed_before_the_next_query_fans_out() {
        let service = tiny_service();
        service
            .pool
            .read()
            .unwrap()
            .submit_to(0, Box::new(|_| panic!("poison the pool")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.pool.read().unwrap().dead_workers() == 0 {
            assert!(Instant::now() < deadline, "worker death never observed");
            std::thread::sleep(Duration::from_millis(5));
        }

        // The next query heals in place and then computes normally.
        let q = StudyQuery {
            chips: 16,
            seed: 3,
            constraint: ConstraintSpec::NOMINAL,
            kind: PowerDownKind::Horizontal,
            cpi: None,
        };
        let reply = service.query(&q, &Arc::new(AtomicBool::new(false)));
        assert!(
            matches!(reply, ServiceReply::Result { cached: false, .. }),
            "{reply:?}"
        );
        let stats = service.stats();
        assert_eq!(stats.pool_restarts, 1);
        assert_eq!(service.pool.read().unwrap().dead_workers(), 0);

        // Healing is idempotent: a healthy pool is left alone.
        assert!(!service.heal_pool());
        assert_eq!(service.stats().pool_restarts, 1);
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

    /// Only a query that computes starts a connection watcher, and the
    /// watcher's guard lives until the computed record is cached.
    #[test]
    fn only_computed_queries_call_the_watcher() {
        let service = tiny_service();
        let cancel = Arc::new(AtomicBool::new(false));
        let q = StudyQuery {
            chips: 16,
            cpi: None,
            ..query()
        };

        /// Records, when dropped, whether the query's record was
        /// already cached — i.e. whether it was held across `compute`.
        struct Guard<'a>(&'a SweepService, u64, &'a Cell<Option<bool>>);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                let (service, key) = (self.0, self.1);
                self.2.set(Some(
                    service.with_cache(|cache| cache.entries.contains_key(&key)),
                ));
            }
        }
        let calls = Cell::new(0);
        let cached_at_drop = Cell::new(None);
        let reply = service.query_watched(&q, &cancel, || {
            calls.set(calls.get() + 1);
            assert_eq!(service.inflight(), 1, "watcher started before admission");
            Guard(&service, q.fingerprint(), &cached_at_drop)
        });
        assert!(
            matches!(reply, ServiceReply::Result { cached: false, .. }),
            "{reply:?}"
        );
        assert_eq!(calls.get(), 1, "a computed query is watched once");
        assert_eq!(cached_at_drop.get(), Some(true), "guard dropped early");

        let unwatched = |query: &StudyQuery| {
            service.query_watched(query, &cancel, || calls.set(calls.get() + 1))
        };
        let hit = unwatched(&q);
        assert!(
            matches!(hit, ServiceReply::Result { cached: true, .. }),
            "{hit:?}"
        );
        for invalid in [0, MAX_QUERY_CHIPS + 1] {
            let reply = unwatched(&StudyQuery {
                chips: invalid,
                ..q
            });
            assert!(matches!(reply, ServiceReply::Error { .. }), "{reply:?}");
        }
        // Every admission slot taken: the new cell is refused as busy.
        let limit = service.config().max_inflight;
        let slots: Vec<_> = (0..limit)
            .map(|_| {
                assert!(service.try_admit(limit));
                InflightSlot(&service)
            })
            .collect();
        let busy = unwatched(&StudyQuery { seed: 12, ..q });
        assert!(matches!(busy, ServiceReply::Busy { .. }), "{busy:?}");
        drop(slots);
        service.request_drain();
        let draining = unwatched(&StudyQuery { seed: 13, ..q });
        assert!(
            matches!(draining, ServiceReply::Draining { .. }),
            "{draining:?}"
        );
        assert_eq!(
            calls.get(),
            1,
            "an answer that computed nothing was watched"
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

    #[test]
    fn requests_round_trip_through_wire_json() {
        for request in [
            ServiceRequest::Query {
                query: query(),
                deadline_ms: None,
            },
            ServiceRequest::Query {
                query: StudyQuery {
                    cpi: None,
                    ..query()
                },
                deadline_ms: Some(1500),
            },
            ServiceRequest::Stats,
            ServiceRequest::Health,
            ServiceRequest::Drain,
            ServiceRequest::Shutdown,
        ] {
            let json = request.to_json();
            assert_eq!(ServiceRequest::parse(&json).unwrap(), request, "{json}");
        }
    }

    #[test]
    fn replies_round_trip_through_wire_json() {
        for reply in [
            ServiceReply::Result {
                record: "total 4 quarantined 0 \"quoted\\path\"\n".into(),
                key: 0xdead_beef_0bad_cafe,
                cached: true,
            },
            ServiceReply::Busy {
                inflight: 2,
                limit: 2,
                retry_after_ms: 350,
            },
            ServiceReply::Draining { inflight: 1 },
            ServiceReply::Deadline { elapsed_ms: 420 },
            ServiceReply::Cancelled,
            ServiceReply::Error {
                message: "shard 3 panicked: \"boom\"".into(),
            },
            ServiceReply::Stats(ServiceStats {
                queries: 9,
                served: 7,
                busy: 1,
                cache_hits: 4,
                cache_misses: 3,
                cache_evictions: 2,
                cache_entries: 1,
                cache_bytes: 812,
                stolen: 5,
                inflight: 1,
                limit: 2,
                evicted: 3,
                rejected: 6,
                draining: true,
                scrub_passes: 11,
                quarantined: 2,
                repaired: 1,
                reassigned: 4,
                pool_restarts: 1,
            }),
            ServiceReply::Retryable { retry_after_ms: 75 },
            ServiceReply::Health(HealthReport {
                uptime_ms: 120_500,
                inflight: 1,
                lanes: 4,
                lanes_busy: 2,
                lanes_stalled: 1,
                heartbeats_missed: 3,
                shards_reassigned: 2,
                scrub_passes: 9,
                quarantined: 1,
                repaired: 1,
                degraded: 0,
                pool_restarts: 0,
            }),
            ServiceReply::Bye,
        ] {
            let json = reply.to_json();
            assert_eq!(ServiceReply::parse(&json).unwrap(), reply, "{json}");
        }
    }

    #[test]
    fn string_carrying_replies_keep_their_wire_bytes() {
        let ok = ServiceReply::Result {
            record: "total 8 \"q\"\n".into(),
            key: 0xab,
            cached: true,
        };
        assert_eq!(
            ok.to_json(),
            "{\"status\":\"ok\",\"cached\":true,\"key\":\"00000000000000ab\",\
             \"record\":\"total 8 \\\"q\\\"\\n\"}"
        );
        let err = ServiceReply::Error {
            message: "bad\tfield".into(),
        };
        assert_eq!(
            err.to_json(),
            "{\"status\":\"error\",\"message\":\"bad\\tfield\"}"
        );
    }

    #[test]
    fn busy_without_a_hint_assumes_the_default() {
        let reply =
            ServiceReply::parse("{\"status\":\"busy\",\"inflight\":2,\"limit\":2}").unwrap();
        assert_eq!(
            reply,
            ServiceReply::Busy {
                inflight: 2,
                limit: 2,
                retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            }
        );
    }

    #[test]
    fn malformed_requests_are_diagnosed_not_panicked() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"op\":\"query\"}",
            "{\"op\":\"mystery\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"bogus\",\"kind\":\"vertical\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"diagonal\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\",\"warmup\":5}",
            "{\"op\":\"query\",\"chips\":-3,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\"}",
            "{\"op\":\"query\",\"chips\":{},\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\"}",
            "{\"op\":\"stats\"} trailing",
        ] {
            assert!(ServiceRequest::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // A frame length over the cap is refused before allocation.
        let mut huge = io::Cursor::new(((MAX_FRAME + 1) as u32).to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut huge).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A torn frame is an UnexpectedEof, not a silent truncation.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"full payload").unwrap();
        torn.truncate(torn.len() - 3);
        let mut r = io::Cursor::new(torn);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn corrupted_frames_fail_their_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"precious payload").unwrap();
        // Flip one payload bit: CRC-32 detects every single-bit error.
        for bit in 0..8 {
            let mut rotted = wire.clone();
            let last = rotted.len() - 1;
            rotted[last] ^= 1 << bit;
            let mut r = io::Cursor::new(rotted);
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
            assert!(err.to_string().contains("CRC"), "bit {bit}: {err}");
        }
        // A header CRC flip is caught too.
        let mut rotted = wire.clone();
        rotted[5] ^= 0x10;
        let mut r = io::Cursor::new(rotted);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// The watcher's clone shares the socket's non-blocking flag, so a
    /// dropped monitor must clear it: the frame loop's next idle read
    /// waits out its IO_TICK timeout instead of failing at once.
    #[test]
    fn a_dropped_conn_monitor_leaves_the_socket_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TICK)).unwrap();
        let cancel = Arc::new(AtomicBool::new(false));
        let monitor = ConnMonitor::spawn(&stream, Arc::clone(&cancel), None);
        std::thread::sleep(Duration::from_millis(30)); // the watcher peeks
        drop(monitor);
        let started = Instant::now();
        let err = (&stream).read(&mut [0u8; 1]).unwrap_err();
        assert!(is_would_block(&err), "unexpected error: {err}");
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
        assert!(!cancel.load(Ordering::Relaxed), "live client cancelled");
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

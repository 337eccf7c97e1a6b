//! The functional set-associative cache with true-LRU replacement.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::error::CacheConfigError;
use crate::stats::CacheStats;

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of the last touch (for true LRU).
    last_use: u64,
}

/// Whether an access reads or writes the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store; marks the block dirty.
    Write,
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// The way the block now occupies.
    pub way: usize,
    /// This cache's contribution to the access latency (the way's hit
    /// latency; miss handling beyond this cache is the hierarchy's job).
    pub latency: u32,
    /// Base address of a dirty block evicted by this access, if any.
    pub writeback: Option<u64>,
}

/// A set-associative cache honouring way enables, per-way latencies and
/// the H-YAPD region remap.
///
/// # Examples
///
/// ```
/// use yac_cache::{AccessKind, CacheConfig, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheConfig::l1d_paper()).unwrap();
/// let miss = cache.access(0x1000, AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = cache.access(0x1000, AccessKind::Read);
/// assert!(hit.hit);
/// assert_eq!(hit.latency, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Line>,
    /// Tree-PLRU state: one bit per internal node, per set (unused for the
    /// other policies).
    plru: Vec<u64>,
    /// Xorshift state for the random policy.
    rng_state: u64,
    clock: u64,
    fills: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation message if it is inconsistent.
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        config.validate()?;
        let lines = vec![Line::default(); config.sets * config.ways];
        let plru = vec![0u64; config.sets];
        Ok(SetAssocCache {
            config,
            lines,
            plru,
            rng_state: 0x243f_6a88_85a3_08d3,
            clock: 0,
            fills: 0,
            stats: CacheStats::default(),
        })
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache contents and statistics.
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
        self.plru.fill(0);
        self.stats = CacheStats::default();
        self.clock = 0;
        self.fills = 0;
    }

    fn line_index(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    /// Points every tree node on the path to `way` *away* from it (the
    /// PLRU touch rule).
    fn plru_touch(&mut self, set: usize, way: usize) {
        let ways = self.config.ways;
        let mut state = self.plru[set];
        let mut node = 1usize; // heap-style indexing, root = 1
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                state |= 1 << node; // bit set = right half is colder
                hi = mid;
                node *= 2;
            } else {
                state &= !(1 << node);
                lo = mid;
                node = node * 2 + 1;
            }
        }
        self.plru[set] = state;
    }

    /// Follows the PLRU tree toward the cold side.
    fn plru_victim(&self, set: usize) -> usize {
        let ways = self.config.ways;
        let state = self.plru[set];
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if state & (1 << node) != 0 {
                lo = mid; // cold side is the right half
                node = node * 2 + 1;
            } else {
                hi = mid;
                node *= 2;
            }
        }
        lo
    }

    /// Victim choice among the available ways of a set: invalid ways first
    /// (rotating), then the policy's coldest valid way. Runs on every
    /// miss, so it walks the set's ways in place rather than collecting
    /// the candidates.
    fn choose_victim(&mut self, set: usize) -> usize {
        let ways = self.config.ways;
        let config = &self.config;
        let lines = &self.lines[set * ways..(set + 1) * ways];
        let available = |w: &usize| config.way_available(set, *w);
        let invalid = |w: &usize| available(w) && !lines[*w].valid;
        self.fills += 1;
        // Invalid-first, rotating so cold fills spread over the ways.
        let invalid_count = (0..ways).filter(invalid).count();
        if invalid_count > 0 {
            let k = (self.fills % invalid_count as u64) as usize;
            return (0..ways).filter(invalid).nth(k).expect("k < count");
        }
        match config.replacement {
            ReplacementPolicy::TrueLru => (0..ways)
                .filter(available)
                .min_by_key(|&w| lines[w].last_use)
                .expect("non-empty"),
            ReplacementPolicy::TreePlru => {
                let v = self.plru_victim(set);
                if available(&v) {
                    v
                } else {
                    // The tree pointed at a powered-down way: take the
                    // nearest available one (a real implementation would
                    // fuse the enable mask into the tree).
                    (0..ways)
                        .filter(available)
                        .min_by_key(|w| w.abs_diff(v))
                        .expect("non-empty")
                }
            }
            ReplacementPolicy::Random => {
                let count = (0..ways).filter(available).count();
                let k = (xorshift(&mut self.rng_state) % count as u64) as usize;
                (0..ways).filter(available).nth(k).expect("k < count")
            }
        }
    }

    /// Performs one access, updating LRU state and statistics.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.clock += 1;
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        self.stats.record_access(kind);

        // Hit check among available ways.
        for way in 0..self.config.ways {
            if !self.config.way_available(set, way) {
                continue;
            }
            let idx = self.line_index(set, way);
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                self.lines[idx].last_use = self.clock;
                if kind == AccessKind::Write {
                    self.lines[idx].dirty = true;
                }
                if self.config.replacement == ReplacementPolicy::TreePlru {
                    self.plru_touch(set, way);
                }
                self.stats.record_hit(kind);
                return AccessOutcome {
                    hit: true,
                    way,
                    latency: self.config.way_latency[way],
                    writeback: None,
                };
            }
        }

        // Miss: fill an invalid way first (rotating, so cold fills spread
        // across the ways and per-way hit distributions stay uniform —
        // which the variable-latency experiments depend on), otherwise the
        // replacement policy's victim.
        let victim_way = self.choose_victim(set);
        if self.config.replacement == ReplacementPolicy::TreePlru {
            self.plru_touch(set, victim_way);
        }

        let idx = self.line_index(set, victim_way);
        let evicted = self.lines[idx];
        let writeback = (evicted.valid && evicted.dirty).then(|| {
            self.stats.writebacks += 1;
            self.rebuild_address(evicted.tag, set)
        });

        self.lines[idx] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            last_use: self.clock,
        };

        AccessOutcome {
            hit: false,
            way: victim_way,
            latency: self.config.way_latency[victim_way],
            writeback,
        }
    }

    /// Fills a block without touching hit/miss statistics — the path a
    /// hardware prefetcher uses. Returns the address of a dirty victim
    /// that must be written back, or `None` (also when the block was
    /// already present).
    pub fn prefetch_fill(&mut self, addr: u64) -> Option<u64> {
        if self.probe(addr) {
            return None;
        }
        self.clock += 1;
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        let victim_way = self.choose_victim(set);
        let idx = self.line_index(set, victim_way);
        let evicted = self.lines[idx];
        let writeback =
            (evicted.valid && evicted.dirty).then(|| self.rebuild_address(evicted.tag, set));
        // A prefetched block enters cold: least-recently-used among valid
        // lines so a useless prefetch is the first thing evicted.
        let lru_floor = (0..self.config.ways)
            .filter(|&w| self.config.way_available(set, w))
            .map(|w| self.lines[self.line_index(set, w)].last_use)
            .min()
            .unwrap_or(0);
        self.lines[idx] = Line {
            tag,
            valid: true,
            dirty: false,
            last_use: lru_floor,
        };
        writeback
    }

    /// Checks for presence without disturbing LRU or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        (0..self.config.ways).any(|way| {
            self.config.way_available(set, way) && {
                let line = &self.lines[self.line_index(set, way)];
                line.valid && line.tag == tag
            }
        })
    }

    /// Invalidates a block if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        for way in 0..self.config.ways {
            let idx = self.line_index(set, way);
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                let dirty = self.lines[idx].dirty;
                self.lines[idx] = Line::default();
                return Some(dirty);
            }
        }
        None
    }

    /// Number of valid lines currently held.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    fn rebuild_address(&self, tag: u64, set: usize) -> u64 {
        (tag << (self.config.block_shift() + self.config.sets.trailing_zeros()))
            | ((set as u64) << self.config.block_shift())
    }
}

/// One xorshift64 step of the random policy's state.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1d() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::l1d_paper()).unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = l1d();
        assert!(!cache.access(0x40, AccessKind::Read).hit);
        assert!(cache.access(0x40, AccessKind::Read).hit);
        // Same block, different byte:
        assert!(cache.access(0x5f, AccessKind::Read).hit);
        // Different block:
        assert!(!cache.access(0x60, AccessKind::Read).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = l1d();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        // Fill all four ways of set 0.
        for i in 0..4u64 {
            cache.access(i * set_stride, AccessKind::Read);
        }
        // Touch block 0 so block 1 becomes LRU.
        cache.access(0, AccessKind::Read);
        // A fifth block evicts block 1.
        cache.access(4 * set_stride, AccessKind::Read);
        assert!(cache.probe(0));
        assert!(!cache.probe(set_stride));
        assert!(cache.probe(2 * set_stride));
    }

    #[test]
    fn writeback_reports_dirty_victim_address() {
        let mut cache = l1d();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        cache.access(0x80, AccessKind::Write);
        for i in 1..4u64 {
            cache.access(0x80 + i * set_stride, AccessKind::Read);
        }
        let out = cache.access(0x80 + 4 * set_stride, AccessKind::Read);
        assert_eq!(out.writeback, Some(0x80));
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut cache = l1d();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        for i in 0..5u64 {
            let out = cache.access(i * set_stride, AccessKind::Read);
            assert!(out.writeback.is_none());
        }
        assert_eq!(cache.stats().writebacks, 0);
    }

    #[test]
    fn disabled_way_reduces_capacity_and_is_never_used() {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.way_enabled[1] = false;
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        for i in 0..8u64 {
            let out = cache.access(i * set_stride, AccessKind::Read);
            assert_ne!(out.way, 1);
        }
        // Only 3 of the last 8 blocks can remain in set 0.
        let resident = (0..8u64).filter(|&i| cache.probe(i * set_stride)).count();
        assert_eq!(resident, 3);
    }

    #[test]
    fn three_way_disable_and_hyapd_disable_have_identical_hit_behaviour() {
        // §4.2: "H-YAPD and YAPD will exhibit identical hit/miss behavior".
        let mut yapd_cfg = CacheConfig::l1d_paper();
        yapd_cfg.way_enabled[0] = false;
        let mut hyapd_cfg = CacheConfig::l1d_paper();
        hyapd_cfg.disabled_h_region = Some(0);
        let mut yapd = SetAssocCache::new(yapd_cfg).unwrap();
        let mut hyapd = SetAssocCache::new(hyapd_cfg).unwrap();

        // A deterministic pseudo-random address stream.
        let mut x = 0x1234_5678_u64;
        let mut hits = (0u32, 0u32);
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (64 * 1024);
            let kind = if x & 1 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            if yapd.access(addr, kind).hit {
                hits.0 += 1;
            }
            if hyapd.access(addr, kind).hit {
                hits.1 += 1;
            }
        }
        assert_eq!(
            hits.0, hits.1,
            "identical associativity per set implies identical hit counts"
        );
    }

    #[test]
    fn vaca_latency_tracks_the_hit_way() {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.way_latency = vec![4, 5, 4, 5];
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        for i in 0..4u64 {
            cache.access(i * set_stride, AccessKind::Read);
        }
        for i in 0..4u64 {
            let out = cache.access(i * set_stride, AccessKind::Read);
            assert!(out.hit);
            assert_eq!(out.latency, cache.config().way_latency[out.way]);
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut cache = l1d();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        for i in 0..4u64 {
            cache.access(i * set_stride, AccessKind::Read);
        }
        // Probing block 0 must not rescue it from LRU eviction.
        assert!(cache.probe(0));
        cache.access(4 * set_stride, AccessKind::Read);
        assert!(!cache.probe(0));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut cache = l1d();
        cache.access(0x100, AccessKind::Write);
        assert_eq!(cache.invalidate(0x100), Some(true));
        assert!(!cache.probe(0x100));
        assert_eq!(cache.invalidate(0x100), None);
    }

    #[test]
    fn occupancy_grows_to_capacity() {
        let mut cache = l1d();
        assert_eq!(cache.occupancy(), 0);
        for i in 0..1000u64 {
            cache.access(i * 32, AccessKind::Read);
        }
        assert_eq!(cache.occupancy(), 512);
    }

    #[test]
    fn flush_and_reset_stats() {
        let mut cache = l1d();
        cache.access(0x40, AccessKind::Read);
        cache.flush();
        assert_eq!(cache.occupancy(), 0);
        assert_eq!(cache.stats().accesses(), 0);
    }

    #[test]
    fn prefetch_fill_inserts_without_stats() {
        let mut cache = l1d();
        assert!(cache.prefetch_fill(0x200).is_none());
        assert!(cache.probe(0x200));
        assert_eq!(cache.stats().accesses(), 0, "prefetches are not accesses");
        // Refilling a present block is a no-op.
        assert!(cache.prefetch_fill(0x200).is_none());
        assert_eq!(cache.occupancy(), 1);
    }

    #[test]
    fn prefetched_blocks_are_evicted_first() {
        let mut cache = l1d();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        for i in 0..3u64 {
            cache.access(i * set_stride, AccessKind::Read);
        }
        cache.prefetch_fill(3 * set_stride);
        // The next fill to this set must evict the prefetched block, not a
        // demand-fetched one.
        cache.access(4 * set_stride, AccessKind::Read);
        assert!(!cache.probe(3 * set_stride), "cold prefetch goes first");
        assert!(cache.probe(0));
    }

    #[test]
    fn prefetch_fill_reports_dirty_victims() {
        let mut cache = l1d();
        let set_stride = (cache.config().sets * cache.config().block_bytes) as u64;
        cache.access(0, AccessKind::Write);
        for i in 1..4u64 {
            cache.access(i * set_stride, AccessKind::Read);
        }
        let wb = cache.prefetch_fill(4 * set_stride);
        assert_eq!(wb, Some(0), "the dirty block must be written back");
    }

    #[test]
    fn tree_plru_follows_the_classic_4way_sequence() {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.replacement = crate::config::ReplacementPolicy::TreePlru;
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let stride = (cache.config().sets * cache.config().block_bytes) as u64;
        // Fill ways (rotating invalid fill order is irrelevant for the
        // check below: we re-touch blocks 0..3 in order afterwards).
        for i in 0..4u64 {
            cache.access(i * stride, AccessKind::Read);
        }
        for i in 0..4u64 {
            cache.access(i * stride, AccessKind::Read);
        }
        // After touching 0,1,2,3 in order, PLRU's victim is the way of
        // block 0's... in a 4-way tree, touching 3 last leaves the tree
        // pointing at the opposite half: the victim must be block 0 or 1.
        cache.access(4 * stride, AccessKind::Read);
        assert!(cache.probe(3 * stride), "most recent survives");
        assert!(cache.probe(2 * stride), "same half as most recent survives");
        assert!(
            !cache.probe(0) || !cache.probe(stride),
            "the cold half lost a block"
        );
    }

    #[test]
    fn plru_tracks_lru_closely_on_reuse_heavy_streams() {
        let run = |policy: crate::config::ReplacementPolicy| {
            let mut cfg = CacheConfig::l1d_paper();
            cfg.replacement = policy;
            let mut cache = SetAssocCache::new(cfg).unwrap();
            let mut x = 0x9e3779b9u64;
            for _ in 0..60_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Zipf-ish reuse over a 24 KB footprint.
                let r = (x >> 40) % 100;
                let addr = if r < 70 {
                    (x >> 20) % 8192
                } else {
                    (x >> 20) % (24 * 1024)
                };
                cache.access(addr, AccessKind::Read);
            }
            cache.stats().miss_rate()
        };
        use crate::config::ReplacementPolicy as P;
        let lru = run(P::TrueLru);
        let plru = run(P::TreePlru);
        let random = run(P::Random);
        assert!(
            (plru - lru).abs() < 0.03,
            "PLRU approximates LRU: {plru} vs {lru}"
        );
        assert!(
            random >= lru - 0.005,
            "random cannot beat LRU by much here: {random} vs {lru}"
        );
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut cfg = CacheConfig::l1d_paper();
            cfg.replacement = crate::config::ReplacementPolicy::Random;
            let mut cache = SetAssocCache::new(cfg).unwrap();
            let mut hits = 0u32;
            for i in 0..20_000u64 {
                if cache.access((i * 1664525) % 65536, AccessKind::Read).hit {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plru_respects_disabled_ways() {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.replacement = crate::config::ReplacementPolicy::TreePlru;
        cfg.way_enabled[0] = false;
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let stride = (cache.config().sets * cache.config().block_bytes) as u64;
        for i in 0..12u64 {
            let out = cache.access(i * stride, AccessKind::Read);
            assert_ne!(out.way, 0, "disabled way must never be filled");
        }
    }

    /// The allocating victim choice the in-place one replaced: collect the
    /// available ways, then the invalid ones among them.
    fn collected_victim(cache: &mut SetAssocCache, set: usize) -> usize {
        let available: Vec<usize> = (0..cache.config.ways)
            .filter(|&w| cache.config.way_available(set, w))
            .collect();
        cache.fills += 1;
        let invalid: Vec<usize> = available
            .iter()
            .copied()
            .filter(|&w| !cache.lines[cache.line_index(set, w)].valid)
            .collect();
        if !invalid.is_empty() {
            return invalid[(cache.fills % invalid.len() as u64) as usize];
        }
        match cache.config.replacement {
            ReplacementPolicy::TrueLru => available
                .into_iter()
                .min_by_key(|&w| cache.lines[cache.line_index(set, w)].last_use)
                .unwrap(),
            ReplacementPolicy::TreePlru => {
                let v = cache.plru_victim(set);
                if available.contains(&v) {
                    v
                } else {
                    available
                        .into_iter()
                        .min_by_key(|&w| w.abs_diff(v))
                        .unwrap()
                }
            }
            ReplacementPolicy::Random => {
                let i = (xorshift(&mut cache.rng_state) % available.len() as u64) as usize;
                available[i]
            }
        }
    }

    #[test]
    fn victim_choice_matches_the_collected_reference() {
        use crate::config::ReplacementPolicy as P;
        for policy in [P::TrueLru, P::TreePlru, P::Random] {
            for (enabled, h_region) in [
                ([true; 4], None),
                ([true, true, true, false], None),
                ([false, true, false, true], None),
                ([true; 4], Some(1)),
                ([true, false, true, true], Some(2)),
            ] {
                let mut cfg = CacheConfig::uniform("t", 16, 4, 32, 4);
                cfg.replacement = policy;
                cfg.way_enabled = enabled.to_vec();
                cfg.disabled_h_region = h_region;
                let mut cache = SetAssocCache::new(cfg).unwrap();
                let mut x = 0x2545_f491_4f6c_dd1du64;
                for i in 0..4_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let addr = (x >> 24) % 4096;
                    let mut shadow = cache.clone();
                    let set = shadow.config.set_of(addr);
                    let expected = collected_victim(&mut shadow, set);
                    let out = cache.access(addr, AccessKind::Read);
                    if !out.hit {
                        assert_eq!(out.way, expected, "{policy:?} {enabled:?} access {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn plru_requires_power_of_two_ways() {
        let mut cfg = CacheConfig::uniform("odd", 64, 3, 32, 1);
        cfg.replacement = crate::config::ReplacementPolicy::TreePlru;
        assert!(SetAssocCache::new(cfg).is_err());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut cache = l1d();
        cache.access(0x40, AccessKind::Read);
        cache.access(0x40, AccessKind::Read);
        cache.access(0x40, AccessKind::Write);
        let stats = cache.stats();
        assert_eq!(stats.accesses(), 3);
        assert_eq!(stats.hits(), 2);
        assert_eq!(stats.misses(), 1);
        assert!((stats.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}

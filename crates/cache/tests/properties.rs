//! Property-based tests for the cache substrate.

use proptest::prelude::*;
use yac_cache::{
    AccessKind, AccessOutcome, CacheConfig, CacheStats, ReplacementPolicy, SetAssocCache,
};

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)]
}

proptest! {
    #[test]
    fn hit_immediately_after_any_access(
        addrs in prop::collection::vec((0u64..1u64 << 20, arb_kind()), 1..200),
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::l1d_paper()).unwrap();
        for (addr, kind) in addrs {
            cache.access(addr, kind);
            prop_assert!(cache.probe(addr), "block must be resident right after access");
        }
    }

    #[test]
    fn occupancy_never_exceeds_available_capacity(
        addrs in prop::collection::vec(0u64..1u64 << 22, 1..500),
        disabled_way in prop::option::of(0usize..4),
    ) {
        let mut cfg = CacheConfig::l1d_paper();
        if let Some(w) = disabled_way {
            cfg.way_enabled[w] = false;
        }
        let ways = cfg.way_enabled.iter().filter(|&&e| e).count();
        let capacity = cfg.sets * ways;
        let mut cache = SetAssocCache::new(cfg).unwrap();
        for addr in addrs {
            cache.access(addr, AccessKind::Read);
            prop_assert!(cache.occupancy() <= capacity);
        }
    }

    #[test]
    fn stats_hits_plus_misses_equals_accesses(
        addrs in prop::collection::vec((0u64..1u64 << 16, arb_kind()), 0..300),
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::l1d_paper()).unwrap();
        let n = addrs.len() as u64;
        for (addr, kind) in addrs {
            cache.access(addr, kind);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), n);
        prop_assert_eq!(stats.hits() + stats.misses(), n);
    }

    #[test]
    fn hyapd_never_uses_the_blocked_way(
        addrs in prop::collection::vec(0u64..1u64 << 20, 1..300),
        h in 0usize..4,
    ) {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.disabled_h_region = Some(h);
        let check = cfg.clone();
        let mut cache = SetAssocCache::new(cfg).unwrap();
        for addr in addrs {
            let set = check.set_of(addr);
            let out = cache.access(addr, AccessKind::Read);
            prop_assert!(check.way_available(set, out.way));
        }
    }

    #[test]
    fn writebacks_only_for_previously_written_blocks(
        ops in prop::collection::vec((0u64..1u64 << 18, arb_kind()), 1..400),
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::l1d_paper()).unwrap();
        let mut written: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let block = |a: u64| a & !31;
        for (addr, kind) in ops {
            let out = cache.access(addr, kind);
            if let Some(victim) = out.writeback {
                prop_assert!(written.contains(&block(victim)),
                    "writeback of a never-written block");
            }
            if kind == AccessKind::Write {
                written.insert(block(addr));
            }
        }
    }

    #[test]
    fn lru_is_deterministic(
        addrs in prop::collection::vec(0u64..1u64 << 20, 1..200),
    ) {
        let run = || {
            let mut cache = SetAssocCache::new(CacheConfig::l1d_paper()).unwrap();
            addrs.iter().map(|&a| cache.access(a, AccessKind::Read).hit).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

/// A reference model of [`SetAssocCache`]: the straightforward cache of
/// per-line records that asks [`CacheConfig::way_available`] about every
/// way of a set on every lookup and scans the set once per question when
/// choosing a victim. The model under test keeps availability, validity
/// and dirtiness as per-set way masks over flat tag and clock arrays; the
/// two must agree on every outcome.
struct RefCache {
    config: CacheConfig,
    lines: Vec<RefLine>,
    plru: Vec<u64>,
    rng_state: u64,
    clock: u64,
    fills: u64,
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            lines: vec![RefLine::default(); config.sets * config.ways],
            plru: vec![0; config.sets],
            rng_state: 0x243f_6a88_85a3_08d3,
            clock: 0,
            fills: 0,
            stats: CacheStats::default(),
            config,
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    fn plru_touch(&mut self, set: usize, way: usize) {
        let (mut node, mut lo, mut hi) = (1usize, 0usize, self.config.ways);
        let mut state = self.plru[set];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                state |= 1 << node;
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

    fn plru_victim(&self, set: usize) -> usize {
        let (mut node, mut lo, mut hi) = (1usize, 0usize, self.config.ways);
        let state = self.plru[set];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if state & (1 << node) != 0 {
                lo = mid;
                node = node * 2 + 1;
            } else {
                hi = mid;
                node *= 2;
            }
        }
        lo
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        let (config, ways) = (&self.config, self.config.ways);
        let lines = &self.lines[set * ways..(set + 1) * ways];
        let available = |w: &usize| config.way_available(set, *w);
        let invalid = |w: &usize| available(w) && !lines[*w].valid;
        self.fills += 1;
        let invalid_count = (0..ways).filter(invalid).count();
        if invalid_count > 0 {
            let k = (self.fills % invalid_count as u64) as usize;
            return (0..ways).filter(invalid).nth(k).unwrap();
        }
        match config.replacement {
            ReplacementPolicy::TrueLru => (0..ways)
                .filter(available)
                .min_by_key(|&w| lines[w].last_use)
                .unwrap(),
            ReplacementPolicy::TreePlru => {
                let v = self.plru_victim(set);
                if available(&v) {
                    v
                } else {
                    (0..ways)
                        .filter(available)
                        .min_by_key(|w| w.abs_diff(v))
                        .unwrap()
                }
            }
            ReplacementPolicy::Random => {
                let count = (0..ways).filter(available).count();
                let mut x = self.rng_state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng_state = x;
                (0..ways)
                    .filter(available)
                    .nth((x % count as u64) as usize)
                    .unwrap()
            }
        }
    }

    fn rebuild(&self, tag: u64, set: usize) -> u64 {
        (tag << (self.config.block_shift() + self.config.sets.trailing_zeros()))
            | ((set as u64) << self.config.block_shift())
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.clock += 1;
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        let write = kind == AccessKind::Write;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        for way in 0..self.config.ways {
            let idx = self.idx(set, way);
            if self.config.way_available(set, way)
                && self.lines[idx].valid
                && self.lines[idx].tag == tag
            {
                self.lines[idx].last_use = self.clock;
                self.lines[idx].dirty |= write;
                if self.config.replacement == ReplacementPolicy::TreePlru {
                    self.plru_touch(set, way);
                }
                if write {
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                return AccessOutcome {
                    hit: true,
                    way,
                    latency: self.config.way_latency[way],
                    writeback: None,
                };
            }
        }
        let way = self.choose_victim(set);
        if self.config.replacement == ReplacementPolicy::TreePlru {
            self.plru_touch(set, way);
        }
        let idx = self.idx(set, way);
        let evicted = self.lines[idx];
        let writeback = (evicted.valid && evicted.dirty).then(|| {
            self.stats.writebacks += 1;
            self.rebuild(evicted.tag, set)
        });
        self.lines[idx] = RefLine {
            tag,
            valid: true,
            dirty: write,
            last_use: self.clock,
        };
        AccessOutcome {
            hit: false,
            way,
            latency: self.config.way_latency[way],
            writeback,
        }
    }

    fn prefetch_fill(&mut self, addr: u64) -> Option<u64> {
        if self.probe(addr) {
            return None;
        }
        self.clock += 1;
        let set = self.config.set_of(addr);
        let way = self.choose_victim(set);
        let idx = self.idx(set, way);
        let evicted = self.lines[idx];
        let writeback = (evicted.valid && evicted.dirty).then(|| self.rebuild(evicted.tag, set));
        let lru_floor = (0..self.config.ways)
            .filter(|&w| self.config.way_available(set, w))
            .map(|w| self.lines[self.idx(set, w)].last_use)
            .min()
            .unwrap_or(0);
        self.lines[idx] = RefLine {
            tag: self.config.tag_of(addr),
            valid: true,
            dirty: false,
            last_use: lru_floor,
        };
        writeback
    }

    fn probe(&self, addr: u64) -> bool {
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        (0..self.config.ways).any(|w| {
            let line = &self.lines[self.idx(set, w)];
            self.config.way_available(set, w) && line.valid && line.tag == tag
        })
    }

    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let set = self.config.set_of(addr);
        let tag = self.config.tag_of(addr);
        for way in 0..self.config.ways {
            let idx = self.idx(set, way);
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                let dirty = self.lines[idx].dirty;
                self.lines[idx] = RefLine::default();
                return Some(dirty);
            }
        }
        None
    }
}

/// One operation on a cache: an access, a prefetch, a probe or an
/// invalidation of an address.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, AccessKind),
    Prefetch(u64),
    Probe(u64),
    Invalidate(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Sixteen 32-byte sets: 64 blocks of addresses cover four tags a set,
    // enough to keep every set under replacement pressure.
    let addr = 0u64..1 << 11;
    (0u8..10, addr, arb_kind()).prop_map(|(pick, addr, kind)| match pick {
        0..=5 => Op::Access(addr, kind),
        6 | 7 => Op::Prefetch(addr),
        8 => Op::Probe(addr),
        _ => Op::Invalidate(addr),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn set_assoc_cache_matches_the_reference_model(
        ways_log2 in 1usize..4,
        enabled in prop::collection::vec(any::<bool>(), 8..9),
        h_region in prop::option::of(0usize..4),
        policy in prop_oneof![
            Just(ReplacementPolicy::TrueLru),
            Just(ReplacementPolicy::TreePlru),
            Just(ReplacementPolicy::Random),
        ],
        ops in prop::collection::vec(arb_op(), 1..400),
    ) {
        let ways = 1 << ways_log2;
        let mut cfg = CacheConfig::uniform("ref", 16, ways, 32, 4);
        cfg.way_latency = (0..ways).map(|w| 4 + (w % 3) as u32).collect();
        cfg.way_enabled = enabled[..ways].to_vec();
        cfg.disabled_h_region = h_region;
        cfg.replacement = policy;
        let Ok(mut cache) = SetAssocCache::new(cfg.clone()) else {
            // Only a configuration the reference model cannot use either
            // may be refused.
            prop_assert!(cfg.validate().is_err());
            prop_assert!(
                !cfg.way_enabled.iter().any(|&e| e)
                    || (0..cfg.sets).any(|set| cfg.available_ways(set) == 0)
            );
            continue;
        };
        let mut reference = RefCache::new(cfg.clone());
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Access(addr, kind) => {
                    prop_assert_eq!(cache.access(addr, kind), reference.access(addr, kind), "op {} {:?}", i, op);
                }
                Op::Prefetch(addr) => {
                    prop_assert_eq!(cache.prefetch_fill(addr), reference.prefetch_fill(addr), "op {} {:?}", i, op);
                }
                Op::Probe(addr) => {
                    prop_assert_eq!(cache.probe(addr), reference.probe(addr), "op {} {:?}", i, op);
                }
                Op::Invalidate(addr) => {
                    prop_assert_eq!(cache.invalidate(addr), reference.invalidate(addr), "op {} {:?}", i, op);
                }
            }
        }
        prop_assert_eq!(*cache.stats(), reference.stats);
        let occupancy = reference.lines.iter().filter(|l| l.valid).count();
        prop_assert_eq!(cache.occupancy(), occupancy);
    }
}

//! Cache configuration, including the repair knobs the yield schemes use:
//! per-way enables (YAPD), per-way latencies (VACA) and the H-YAPD
//! horizontal-region disable with its diagonal post-decoder remap.

use crate::error::{CacheConfigError, CacheConfigIssue};
use std::fmt;

/// Most ways a cache may have: the simulator keeps each set's usable ways
/// as a 64-bit mask.
pub const MAX_WAYS: usize = 64;

/// Block replacement policy.
///
/// The paper's model (and this crate's default) is true LRU; real L1
/// arrays usually ship the cheaper tree pseudo-LRU, and random is the
/// classic lower bound. All three honour way power-downs and the H-YAPD
/// remap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Exact least-recently-used (per-line timestamps).
    #[default]
    TrueLru,
    /// Tree pseudo-LRU (one bit per internal node; associativity must be a
    /// power of two).
    TreePlru,
    /// Uniform-random victim (deterministic xorshift stream).
    Random,
}

/// Configuration of one set-associative cache.
///
/// # Examples
///
/// ```
/// use yac_cache::CacheConfig;
///
/// let l1d = CacheConfig::l1d_paper();
/// assert_eq!(l1d.capacity_bytes(), 16 * 1024);
/// assert_eq!(l1d.ways, 4);
/// assert_eq!(l1d.sets, 128);
/// l1d.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Display name for statistics ("L1D", "L2", ...).
    pub name: String,
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Block (line) size in bytes (must be a power of two).
    pub block_bytes: usize,
    /// Hit latency of each way, in cycles. Uniform caches repeat one value;
    /// a VACA repair makes entries differ.
    pub way_latency: Vec<u32>,
    /// Which ways are powered on. A YAPD repair clears one entry.
    pub way_enabled: Vec<bool>,
    /// A disabled horizontal region (H-YAPD): for the address region `ρ` of
    /// a set, vertical way `(h − ρ) mod ways` is unavailable (Figure 5 of
    /// the paper), so every set keeps exactly `ways − 1` candidates.
    pub disabled_h_region: Option<usize>,
    /// Number of address regions the sets divide into for the H-YAPD remap.
    pub address_regions: usize,
    /// Block replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// A uniform cache with every way enabled at the same latency.
    #[must_use]
    pub fn uniform(
        name: &str,
        sets: usize,
        ways: usize,
        block_bytes: usize,
        hit_latency: u32,
    ) -> Self {
        CacheConfig {
            name: name.to_owned(),
            sets,
            ways,
            block_bytes,
            way_latency: vec![hit_latency; ways],
            way_enabled: vec![true; ways],
            disabled_h_region: None,
            address_regions: 4,
            replacement: ReplacementPolicy::TrueLru,
        }
    }

    /// The paper's L1 data cache: 16 KB, 4-way, 32 B blocks, 4-cycle hits.
    #[must_use]
    pub fn l1d_paper() -> Self {
        Self::uniform("L1D", 128, 4, 32, 4)
    }

    /// The paper's L1 instruction cache: 16 KB, 4-way, 64 B blocks,
    /// 2-cycle hits.
    #[must_use]
    pub fn l1i_paper() -> Self {
        Self::uniform("L1I", 64, 4, 64, 2)
    }

    /// The paper's unified L2: 512 KB, 8-way, 128 B blocks, 25-cycle hits.
    #[must_use]
    pub fn l2_paper() -> Self {
        Self::uniform("L2", 512, 8, 128, 25)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.block_bytes
    }

    /// Log2 of the block size.
    #[must_use]
    pub fn block_shift(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// Set index of an address.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.block_shift()) as usize) & (self.sets - 1)
    }

    /// Tag of an address.
    #[must_use]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.block_shift() + self.sets.trailing_zeros())
    }

    /// Address region of a set (for the H-YAPD remap).
    #[must_use]
    pub fn region_of_set(&self, set: usize) -> usize {
        set * self.address_regions / self.sets
    }

    /// Whether way `way` may hold blocks of `set`, honouring power-downs.
    ///
    /// For a disabled horizontal region `h`, the unavailable vertical way of
    /// address region `ρ` is `(h + ways − ρ) mod ways` — the diagonal
    /// striping of the paper's Figure 5, which keeps the associativity seen
    /// by every address equal.
    #[must_use]
    pub fn way_available(&self, set: usize, way: usize) -> bool {
        self.way_enabled[way]
            && (self.disabled_h_region.is_none()
                || self.blocked_way(self.region_of_set(set)) != Some(way))
    }

    /// The vertical way H-YAPD takes from address region `region`, if a
    /// horizontal region is disabled.
    fn blocked_way(&self, region: usize) -> Option<usize> {
        self.disabled_h_region
            .map(|h| (h + self.ways - (region % self.ways)) % self.ways)
    }

    /// The ways of address region `region` that may hold blocks, as a
    /// bitmask with bit `w` for way `w`. Needs at most [`MAX_WAYS`] ways.
    pub(crate) fn region_mask(&self, region: usize) -> u64 {
        let enabled = (0..self.ways)
            .filter(|&w| self.way_enabled[w])
            .fold(0u64, |mask, w| mask | 1 << w);
        match self.blocked_way(region) {
            Some(way) => enabled & !(1 << way),
            None => enabled,
        }
    }

    /// Number of ways available to a given set.
    #[must_use]
    pub fn available_ways(&self, set: usize) -> usize {
        (0..self.ways)
            .filter(|&w| self.way_available(set, w))
            .count()
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the [`CacheConfigError`] naming this cache and the
    /// violated invariant.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        let fail = |issue: CacheConfigIssue| {
            Err(CacheConfigError {
                cache: self.name.clone(),
                issue,
            })
        };
        if !self.sets.is_power_of_two() {
            return fail(CacheConfigIssue::NonPowerOfTwoSets);
        }
        if !self.block_bytes.is_power_of_two() {
            return fail(CacheConfigIssue::NonPowerOfTwoBlock);
        }
        if self.ways == 0 {
            return fail(CacheConfigIssue::ZeroWays);
        }
        if self.way_latency.len() != self.ways || self.way_enabled.len() != self.ways {
            return fail(CacheConfigIssue::MismatchedWayVectors);
        }
        if self.way_latency.contains(&0) {
            return fail(CacheConfigIssue::ZeroHitLatency);
        }
        if let Some(h) = self.disabled_h_region {
            if h >= self.address_regions {
                return fail(CacheConfigIssue::DisabledRegionOutOfRange);
            }
            if self.address_regions == 0 || self.sets % self.address_regions != 0 {
                return fail(CacheConfigIssue::UnevenAddressRegions);
            }
        }
        if !self.way_enabled.iter().any(|&e| e) {
            return fail(CacheConfigIssue::AllWaysDisabled);
        }
        if self.ways > MAX_WAYS {
            return fail(CacheConfigIssue::TooManyWays);
        }
        // Every region holds sets (the regions divide the sets evenly),
        // and every set of a region sees the same ways.
        if self.disabled_h_region.is_some()
            && (0..self.address_regions).any(|r| self.region_mask(r) == 0)
        {
            return fail(CacheConfigIssue::UnreachableSet);
        }
        if self.replacement == ReplacementPolicy::TreePlru && !self.ways.is_power_of_two() {
            return fail(CacheConfigIssue::TreePlruNeedsPowerOfTwo);
        }
        Ok(())
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} KB, {}-way, {} B blocks",
            self.name,
            self.capacity_bytes() / 1024,
            self.ways,
            self.block_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        for cfg in [
            CacheConfig::l1d_paper(),
            CacheConfig::l1i_paper(),
            CacheConfig::l2_paper(),
        ] {
            cfg.validate().unwrap();
        }
        assert_eq!(CacheConfig::l1i_paper().capacity_bytes(), 16 * 1024);
        assert_eq!(CacheConfig::l2_paper().capacity_bytes(), 512 * 1024);
    }

    #[test]
    fn address_decomposition_roundtrips() {
        let cfg = CacheConfig::l1d_paper();
        let addr = 0xdead_beef_u64;
        let set = cfg.set_of(addr);
        let tag = cfg.tag_of(addr);
        assert!(set < cfg.sets);
        // Reconstruct the block base address.
        let rebuilt = (tag << (cfg.block_shift() + cfg.sets.trailing_zeros()))
            | ((set as u64) << cfg.block_shift());
        assert_eq!(rebuilt, addr & !(cfg.block_bytes as u64 - 1));
    }

    #[test]
    fn consecutive_blocks_map_to_consecutive_sets() {
        let cfg = CacheConfig::l1d_paper();
        let a = cfg.set_of(0x1000);
        let b = cfg.set_of(0x1000 + cfg.block_bytes as u64);
        assert_eq!((a + 1) % cfg.sets, b);
    }

    #[test]
    fn hyapd_remap_blocks_exactly_one_way_per_set() {
        for h in 0..4 {
            let mut cfg = CacheConfig::l1d_paper();
            cfg.disabled_h_region = Some(h);
            cfg.validate().unwrap();
            for set in 0..cfg.sets {
                assert_eq!(cfg.available_ways(set), 3, "h={h} set={set}");
            }
        }
    }

    #[test]
    fn hyapd_remap_is_diagonal() {
        // Paper's example: disabling h-way 0 removes way 0 for the first
        // address region and a different way for every other region.
        let mut cfg = CacheConfig::l1d_paper();
        cfg.disabled_h_region = Some(0);
        assert!(!cfg.way_available(0, 0), "region 0 loses way 0");
        let blocked_per_region: Vec<usize> = (0..4)
            .map(|r| {
                let set = r * (cfg.sets / 4);
                (0..4).find(|&w| !cfg.way_available(set, w)).unwrap()
            })
            .collect();
        let mut sorted = blocked_per_region.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            4,
            "each region loses a different way: {blocked_per_region:?}"
        );
    }

    #[test]
    fn different_h_regions_block_different_ways() {
        let set = 0;
        let blocked: Vec<usize> = (0..4)
            .map(|h| {
                let mut cfg = CacheConfig::l1d_paper();
                cfg.disabled_h_region = Some(h);
                (0..4).find(|&w| !cfg.way_available(set, w)).unwrap()
            })
            .collect();
        let mut sorted = blocked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "{blocked:?}");
    }

    #[test]
    fn way_disable_respected() {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.way_enabled[2] = false;
        cfg.validate().unwrap();
        for set in 0..cfg.sets {
            assert!(!cfg.way_available(set, 2));
            assert_eq!(cfg.available_ways(set), 3);
        }
    }

    #[test]
    fn validation_rejects_broken_configs() {
        let mut cfg = CacheConfig::l1d_paper();
        cfg.sets = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = CacheConfig::l1d_paper();
        cfg.way_latency = vec![4; 3];
        assert!(cfg.validate().is_err());

        let mut cfg = CacheConfig::l1d_paper();
        cfg.way_enabled = vec![false; 4];
        assert!(cfg.validate().is_err());

        let mut cfg = CacheConfig::l1d_paper();
        cfg.disabled_h_region = Some(9);
        assert!(cfg.validate().is_err());

        let mut cfg = CacheConfig::l1d_paper();
        cfg.way_latency[0] = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn way_masks_cap_the_associativity_at_64() {
        let issue = |ways: usize| {
            CacheConfig::uniform("wide", 64, ways, 32, 4)
                .validate()
                .err()
                .map(|e| e.issue)
        };
        assert_eq!(issue(MAX_WAYS), None);
        assert_eq!(issue(MAX_WAYS + 1), Some(CacheConfigIssue::TooManyWays));
        let mut cfg = CacheConfig::uniform("wide", 64, MAX_WAYS, 32, 4);
        cfg.disabled_h_region = Some(3);
        assert_eq!(cfg.region_mask(0), !(1 << 3));
        assert_eq!(cfg.region_mask(1), !(1 << 2));
    }

    #[test]
    fn a_region_left_without_ways_is_unreachable() {
        // One way on: the H-YAPD remap takes it from exactly one region.
        for h in 0..4 {
            let mut cfg = CacheConfig::l1d_paper();
            cfg.way_enabled = vec![false, false, true, false];
            cfg.disabled_h_region = Some(h);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.issue, CacheConfigIssue::UnreachableSet);
            let unreachable = (0..cfg.sets).filter(|&s| cfg.available_ways(s) == 0);
            assert_eq!(unreachable.count(), cfg.sets / cfg.address_regions);
        }
    }

    #[test]
    fn display_shows_shape() {
        let text = CacheConfig::l1d_paper().to_string();
        assert!(text.contains("16 KB"));
        assert!(text.contains("4-way"));
    }
}

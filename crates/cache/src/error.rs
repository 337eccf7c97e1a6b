//! Typed errors for cache configuration.
//!
//! Part of the workspace-wide fault-tolerance taxonomy. A rejected
//! [`crate::CacheConfig`] becomes a [`CacheConfigError`] pairing the
//! cache's name with the structural [`CacheConfigIssue`]; a rejected
//! [`crate::HierarchyConfig`] wraps that in [`HierarchyError`]. `Display`
//! output is identical to the legacy `Result<(), String>` messages
//! (`"{name}: {issue}"`), so anything matching on the strings keeps
//! working.

use std::error::Error;
use std::fmt;

/// The structural invariant a [`crate::CacheConfig`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigIssue {
    /// The set count is not a power of two.
    NonPowerOfTwoSets,
    /// The block size is not a power of two.
    NonPowerOfTwoBlock,
    /// Zero ways.
    ZeroWays,
    /// `way_latency`/`way_enabled` lengths disagree with the way count.
    MismatchedWayVectors,
    /// Some way's hit latency is zero.
    ZeroHitLatency,
    /// `disabled_h_region` is outside the address-region range.
    DisabledRegionOutOfRange,
    /// The address regions do not evenly divide the sets.
    UnevenAddressRegions,
    /// Every way is disabled.
    AllWaysDisabled,
    /// More ways than the simulator's per-set way masks hold
    /// ([`crate::config::MAX_WAYS`]).
    TooManyWays,
    /// Some set is left with no way it can use.
    UnreachableSet,
    /// Tree PLRU with a non-power-of-two associativity.
    TreePlruNeedsPowerOfTwo,
}

impl fmt::Display for CacheConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheConfigIssue::NonPowerOfTwoSets => "set count must be a power of two",
            CacheConfigIssue::NonPowerOfTwoBlock => "block size must be a power of two",
            CacheConfigIssue::ZeroWays => "associativity must be nonzero",
            CacheConfigIssue::MismatchedWayVectors => {
                "per-way vectors must match the associativity"
            }
            CacheConfigIssue::ZeroHitLatency => "hit latency must be nonzero",
            CacheConfigIssue::DisabledRegionOutOfRange => "disabled region out of range",
            CacheConfigIssue::UnevenAddressRegions => "address regions must evenly divide the sets",
            CacheConfigIssue::AllWaysDisabled => "at least one way must stay enabled",
            CacheConfigIssue::TooManyWays => "associativity must not exceed 64 ways",
            CacheConfigIssue::UnreachableSet => "some set has no available way",
            CacheConfigIssue::TreePlruNeedsPowerOfTwo => {
                "tree PLRU needs a power-of-two associativity"
            }
        })
    }
}

impl Error for CacheConfigIssue {}

/// A rejected [`crate::CacheConfig`]: which cache, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfigError {
    /// The cache's configured name (e.g. `"L1D"`).
    pub cache: String,
    /// The violated invariant.
    pub issue: CacheConfigIssue,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.cache, self.issue)
    }
}

impl Error for CacheConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.issue)
    }
}

/// A rejected [`crate::HierarchyConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// One of the three caches was rejected.
    Cache(CacheConfigError),
    /// The main-memory latency is zero.
    ZeroMemoryLatency,
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::Cache(e) => e.fmt(f),
            HierarchyError::ZeroMemoryLatency => f.write_str("memory latency must be nonzero"),
        }
    }
}

impl Error for HierarchyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HierarchyError::Cache(e) => Some(e),
            HierarchyError::ZeroMemoryLatency => None,
        }
    }
}

impl From<CacheConfigError> for HierarchyError {
    fn from(e: CacheConfigError) -> Self {
        HierarchyError::Cache(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_format() {
        let e = CacheConfigError {
            cache: "L1D".into(),
            issue: CacheConfigIssue::ZeroWays,
        };
        assert_eq!(e.to_string(), "L1D: associativity must be nonzero");
        assert_eq!(
            HierarchyError::from(e).to_string(),
            "L1D: associativity must be nonzero"
        );
        assert_eq!(
            HierarchyError::ZeroMemoryLatency.to_string(),
            "memory latency must be nonzero"
        );
    }

    #[test]
    fn sources_chain_to_the_issue() {
        let e = CacheConfigError {
            cache: "L2".into(),
            issue: CacheConfigIssue::UnreachableSet,
        };
        assert!(Error::source(&e).is_some());
    }
}

//! Functional set-associative cache models for *Yield-Aware Cache
//! Architectures* (MICRO 2006): way power-down (YAPD), the H-YAPD
//! horizontal-region disable with its diagonal post-decoder remap
//! (Figure 5 of the paper), per-way variable hit latencies (VACA), and
//! the paper's §5.2 three-level memory hierarchy.
//!
//! # Examples
//!
//! A 16 KB L1D with one way disabled behaves as a 3-way cache:
//!
//! ```
//! use yac_cache::{AccessKind, CacheConfig, SetAssocCache};
//!
//! let mut cfg = CacheConfig::l1d_paper();
//! cfg.way_enabled[3] = false;
//! let mut cache = SetAssocCache::new(cfg)?;
//! cache.access(0x40, AccessKind::Read);
//! assert_eq!(cache.config().available_ways(0), 3);
//! # Ok::<(), yac_cache::CacheConfigError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod error;
pub mod hierarchy;
pub mod stats;

pub use cache::{AccessKind, AccessOutcome, SetAssocCache};
pub use config::{CacheConfig, ReplacementPolicy};
pub use error::{CacheConfigError, CacheConfigIssue, HierarchyError};
pub use hierarchy::{DataAccess, HierarchyConfig, MemoryHierarchy};
pub use stats::CacheStats;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::SetAssocCache>();
        assert_send_sync::<super::MemoryHierarchy>();
        assert_send_sync::<super::CacheConfig>();
    }
}

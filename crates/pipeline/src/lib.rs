//! Cycle-level out-of-order pipeline simulator — the SimpleScalar 3.0
//! substitute for *Yield-Aware Cache Architectures* (MICRO 2006), §5.2.
//!
//! The core models the machinery the paper's schemes interact with:
//! speculative scheduling against an assumed 4-cycle L1D hit, a 7-stage
//! schedule-to-execute pipeline, load-bypass buffers that absorb one extra
//! cycle from a slow VACA way, and selective replay of dependants when a
//! load misses.
//!
//! # Examples
//!
//! ```
//! use yac_cache::{HierarchyConfig, MemoryHierarchy};
//! use yac_pipeline::{Pipeline, PipelineConfig};
//! use yac_workload::{spec2000, TraceGenerator};
//!
//! // A VACA machine: one L1D way answers in 5 cycles.
//! let mut hier = HierarchyConfig::paper();
//! hier.l1d.way_latency = vec![4, 4, 4, 5];
//! let mem = MemoryHierarchy::new(hier).unwrap();
//! let mut cpu = Pipeline::new(PipelineConfig::paper(), mem).unwrap();
//!
//! let trace = TraceGenerator::new(spec2000::profile("gzip").unwrap(), 1);
//! let stats = cpu.run(trace, 2_000, 8_000);
//! assert!(stats.cpi() > 0.25);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod predictor;
pub mod sim;
pub mod stats;

pub use config::PipelineConfig;
pub use error::ConfigError;
pub use predictor::BranchPredictor;
pub use sim::Pipeline;
pub use stats::SimStats;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Pipeline>();
        assert_send_sync::<super::PipelineConfig>();
        assert_send_sync::<super::SimStats>();
    }
}

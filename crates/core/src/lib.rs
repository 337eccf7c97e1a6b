//! Yield-aware cache schemes and parametric-yield analysis — the primary
//! contribution of *Yield-Aware Cache Architectures* (Ozdemir, Sinha,
//! Memik, Adams, Zhou; MICRO 2006), reproduced in Rust.
//!
//! The crate glues the substrates together:
//!
//! * [`yac_variation`] samples spatially-correlated process variation;
//! * [`yac_circuit`] turns a die's variation into per-way delay/leakage;
//! * this crate classifies chips against yield constraints (§5.1) and
//!   applies the paper's four schemes — [`Yapd`], [`HYapd`], [`Vaca`] and
//!   [`Hybrid`] — plus the naive speed-binning alternative (§4.5);
//! * the `perf` module (built on [`yac_pipeline`] and [`yac_workload`])
//!   measures the CPI cost of each repair on SPEC2000-like workloads.
//!
//! # Examples
//!
//! Reproduce the skeleton of the paper's Table 2:
//!
//! ```
//! use yac_core::{table2, render_loss_table, ConstraintSpec, Population, YieldConstraints};
//!
//! let population = Population::generate(500, 2006);
//! let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
//! let table = table2(&population, &constraints);
//!
//! // YAPD eliminates every single-way delay violation:
//! assert_eq!(table.schemes[0].losses.delay[0], 0);
//! println!("{}", render_loss_table(&table));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod chaos;
pub mod checkpoint;
pub mod chip;
pub mod classify;
pub mod client;
pub mod confidence;
pub mod constraints;
mod crc_log;
pub mod economics;
pub mod executor;
pub mod health;
pub mod perf;
pub mod pool;
pub mod quarantine;
pub mod report;
pub mod schemes;
pub mod sensitivity;
pub mod service;
pub mod sweep;
pub mod testing;
pub mod wire;

pub use analysis::{
    constraint_sweep, fig8_scatter, full_study, full_study_supervised, full_study_workers,
    loss_table, saved_config_census, study_from_population, table2, table3, FullStudy,
    InvalidLossReason, LossBreakdown, LossTable, ScatterPoint, SchemeLosses,
};
pub use chaos::{ChaosPlan, ChaosStream, IoSite, MemPlan, NetPlan, NetSite};
pub use checkpoint::{CheckpointState, ShardRecord, ShardStatus, StudyError};
pub use chip::{ChipSample, Population, PopulationConfig};
pub use classify::{classify, LossReason, WayCycleCensus};
pub use client::{CircuitBreaker, ClientConfig, ClientError, ResilientClient};
pub use confidence::{yield_interval, YieldInterval};
pub use constraints::{ConstraintSpec, YieldConstraints};
pub use economics::PriceError;
pub use executor::{
    run_checkpointed_workers, run_checkpointed_workers_budget, run_supervised, shards_for,
    DegradedShard, ExecutorConfig, ShardSpec, StudyOutcome,
};
pub use health::{
    HeartbeatLease, HeartbeatRegistry, LaneState, StallDetector, StallEvent, StallSentinel,
};
pub use perf::{
    adaptive_comparison, render_degradation, render_table6, suite_cpis_isolated, suite_degradation,
    table6, AdaptiveComparison, BenchmarkFailure, PerfOptions, SuiteDegradation, Table6, Table6Row,
};
pub use pool::{PoolTask, WorkerPool};
pub use quarantine::{QuarantineEntry, QuarantineLedger};
pub use report::{render_constraint_sweep, render_loss_table};
pub use schemes::{
    DisabledUnit, HYapd, Hybrid, HybridPolicy, NaiveBinning, PowerDownKind, RepairedCache, Scheme,
    SchemeOutcome, Vaca, Yapd,
};
pub use service::{
    constraint_by_name, serve, ResultCache, ServiceConfig, StudyQuery, SweepService,
};
pub use sweep::{
    run_sweep, CpiOptions, StudyResult, StudySpec, StudyStatus, SweepConfig, SweepGrid,
    SweepOutcome,
};
pub use testing::{MeasurementError, TestOutcome};
pub use wire::{
    client_request, read_frame, write_frame, HealthReport, ServiceReply, ServiceRequest,
    ServiceStats,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Population>();
        assert_send_sync::<super::YieldConstraints>();
        assert_send_sync::<super::RepairedCache>();
        assert_send_sync::<Box<dyn super::Scheme>>();
    }
}

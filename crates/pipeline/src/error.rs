//! Typed errors for pipeline configuration.
//!
//! Part of the workspace-wide fault-tolerance taxonomy; `Display` output
//! matches the legacy `Result<(), String>` messages exactly.

use std::error::Error;
use std::fmt;

/// A rejected [`crate::PipelineConfig`] (or a configuration the simulator
/// itself cannot host — see [`ConfigError::DepthExceedsHorizon`] and
/// [`ConfigError::RobExceedsSlots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The issue width is zero.
    ZeroWidth,
    /// ROB/IQ/LSQ cannot hold one fetch group.
    QueuesTooSmall,
    /// The issue queue is larger than the ROB.
    IqExceedsRob,
    /// The speculative load latency is zero.
    ZeroLoadLatency,
    /// A functional-unit pool (memory ports, integer ALUs, FP adders) is
    /// empty.
    ZeroFunctionalUnits,
    /// A multiplier pool is empty.
    ZeroMultipliers,
    /// The fetch queue cannot hold one fetch group.
    FetchQueueTooSmall,
    /// The branch predictor index width is outside `1..=24`.
    BadPredictorBits,
    /// Store forwarding is enabled with a zero forward latency.
    ZeroForwardLatency,
    /// The schedule-to-execute depth overflows the simulator's wakeup
    /// horizon.
    DepthExceedsHorizon,
    /// The ROB, rounded up to a power of two, exceeds the simulator's
    /// 32768 slots.
    RobExceedsSlots,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::ZeroWidth => "width must be nonzero",
            ConfigError::QueuesTooSmall => "queues must be large enough for one fetch group",
            ConfigError::IqExceedsRob => "issue queue cannot exceed the ROB",
            ConfigError::ZeroLoadLatency => "assumed load latency must be nonzero",
            ConfigError::ZeroFunctionalUnits => "functional-unit pools must be nonzero",
            ConfigError::ZeroMultipliers => "multiplier pools must be nonzero",
            ConfigError::FetchQueueTooSmall => "fetch queue must hold one fetch group",
            ConfigError::BadPredictorBits => "predictor bits must lie in 1..=24",
            ConfigError::ZeroForwardLatency => "forward latency must be nonzero",
            ConfigError::DepthExceedsHorizon => {
                "schedule-to-execute depth exceeds the arrival horizon"
            }
            ConfigError::RobExceedsSlots => "ROB exceeds the simulator's 32768 slots",
        })
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_strings() {
        assert_eq!(ConfigError::ZeroWidth.to_string(), "width must be nonzero");
        assert_eq!(
            ConfigError::BadPredictorBits.to_string(),
            "predictor bits must lie in 1..=24"
        );
        assert_eq!(
            ConfigError::DepthExceedsHorizon.to_string(),
            "schedule-to-execute depth exceeds the arrival horizon"
        );
    }
}

//! Process-variation modeling and Monte Carlo population generation for
//! yield analysis, following §2–§3 of *Yield-Aware Cache Architectures*
//! (Ozdemir et al., MICRO 2006).
//!
//! The crate models the five variation sources of the paper's Table 1
//! (gate length, threshold voltage, metal width, metal thickness, ILD
//! thickness), the hierarchical spatial-correlation recipe built on
//! *correlation factors* (way mesh → rows → bits), and a systematic
//! per-die gradient field representing the repeatable component of
//! intra-die variation.
//!
//! # Examples
//!
//! Generate a small population of varied cache dies:
//!
//! ```
//! use yac_variation::{MonteCarlo, VariationConfig, Parameter};
//!
//! let mc = MonteCarlo::new(VariationConfig::default());
//! let dies = mc.generate(100, 2006);
//!
//! // Threshold voltages spread around the 220 mV nominal:
//! let vts: Vec<f64> = dies.iter().map(|d| d.ways[0].base.v_t_mv).collect();
//! let summary = yac_variation::stats::Summary::from_slice(&vts).unwrap();
//! assert!((summary.mean - Parameter::ThresholdVoltage.nominal()).abs() < 15.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod correlation;
pub mod dist;
pub mod error;
pub mod faults;
pub mod gradient;
pub mod montecarlo;
pub mod params;
pub mod sample;
pub mod stats;
pub mod wafer;

pub use correlation::{CorrelationFactor, InvalidFactorError, MeshPosition};
pub use error::{ConfigError, SampleError, SampleSite};
pub use faults::{expected_error_class, FaultKind, FaultPlan, InvalidRateError};
pub use gradient::{GradientConfig, GradientField};
pub use montecarlo::{GenerationOutcome, MonteCarlo, SampleFailure};
pub use params::{Parameter, ParameterSet};
pub use sample::{CacheVariation, RegionVariation, StructureParams, VariationConfig, WayVariation};
pub use wafer::{Wafer, WaferConfig, WaferDie};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::ParameterSet>();
        assert_send_sync::<super::CacheVariation>();
        assert_send_sync::<super::MonteCarlo>();
        assert_send_sync::<super::GradientField>();
    }
}

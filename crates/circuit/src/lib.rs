//! Analytical SRAM cache timing and leakage model under process variation
//! — the HSPICE substitute for *Yield-Aware Cache Architectures* (MICRO
//! 2006), §3.
//!
//! Given one die's [`yac_variation::CacheVariation`], the
//! [`CacheCircuitModel`] produces per-way and per-region access delays and
//! leakage power in normalised units (1.0 = nominal). The model follows
//! the paper's cache organisation — 16 KB, 4 ways, 4 banks per way,
//! 64×128-bit arrays, split bitlines — and first-order circuit physics:
//! alpha-power-law devices, Elmore delay over distributed RC interconnect
//! with coupling, exponential subthreshold leakage.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::SmallRng, SeedableRng};
//! use yac_circuit::CacheCircuitModel;
//! use yac_variation::{CacheVariation, VariationConfig};
//!
//! let model = CacheCircuitModel::regular();
//! let mut rng = SmallRng::seed_from_u64(2006);
//! let die = CacheVariation::sample(&VariationConfig::default(), &mut rng);
//! let result = model.evaluate(&die);
//!
//! // The cache is as slow as its slowest way:
//! let slowest = result.ways.iter().map(|w| w.delay).fold(f64::MIN, f64::max);
//! assert_eq!(result.delay, slowest);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod error;
pub mod geometry;
pub mod model;
pub mod network;
pub mod stages;
pub mod tech;
pub mod wire;

pub use error::{CalibrationError, CircuitError, GeometryError, NetworkError, WireError};
pub use geometry::CacheGeometry;
pub use model::{CacheCircuitModel, CacheCircuitResult, CacheVariant, WayCircuitResult};
pub use tech::{Calibration, Technology};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::CacheCircuitModel>();
        assert_send_sync::<super::CacheCircuitResult>();
        assert_send_sync::<super::Technology>();
        assert_send_sync::<super::Calibration>();
    }
}

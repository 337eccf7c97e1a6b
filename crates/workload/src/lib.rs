//! Deterministic synthetic SPEC2000-like workload generation for the
//! performance half of *Yield-Aware Cache Architectures* (MICRO 2006).
//!
//! The paper simulates 13 floating-point and 11 integer SPEC2000
//! benchmarks (§5.2). SPEC2000 is proprietary, so this crate synthesises
//! micro-op traces from per-benchmark statistical profiles — instruction
//! mix, dependency-distance structure, working-set/locality blend and
//! branch bias — tuned to each benchmark's published character.
//!
//! # Examples
//!
//! ```
//! use yac_workload::{spec2000, OpClass, TraceGenerator};
//!
//! let profile = spec2000::profile("mcf").unwrap();
//! let mut generator = TraceGenerator::new(profile, 2006);
//! let trace = generator.generate(10_000);
//! let loads = trace.iter().filter(|op| op.class == OpClass::Load).count();
//! assert!(loads > 2_500, "mcf is load-heavy");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod generator;
pub mod profile;
pub mod spec2000;
pub mod uop;

pub use error::{ProfileError, ProfileIssue};
pub use generator::TraceGenerator;
pub use profile::{AddressPattern, BenchmarkProfile, InstructionMix, Suite};
pub use uop::{MicroOp, OpClass};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::TraceGenerator>();
        assert_send_sync::<super::BenchmarkProfile>();
        assert_send_sync::<super::MicroOp>();
    }
}

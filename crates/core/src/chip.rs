//! Chip samples and populations: the bridge from Monte Carlo variation
//! sampling through the circuit model to the yield analysis.
//!
//! The paper simulates every die twice — once with the regular cache
//! organisation and once with the H-YAPD organisation, applying "the same
//! process variation parameters used in the previous simulations" (§5.1).
//! [`ChipSample`] therefore carries both circuit evaluations of one die.

use crate::executor::panic_message;
use crate::quarantine::QuarantineLedger;
use std::panic::{catch_unwind, AssertUnwindSafe};
use yac_circuit::{CacheCircuitModel, CacheCircuitResult, CacheVariant, Calibration};
use yac_variation::{CacheVariation, FaultPlan, MonteCarlo, VariationConfig};

/// One manufactured chip: the same die evaluated under both cache
/// organisations.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSample {
    /// Index of the chip in its population's Monte Carlo stream.
    pub index: u64,
    /// Circuit evaluation with the regular (vertical power-down) layout.
    pub regular: CacheCircuitResult,
    /// Circuit evaluation with the H-YAPD (horizontal power-down) layout.
    pub horizontal: CacheCircuitResult,
}

impl ChipSample {
    /// The evaluation for the requested organisation.
    #[must_use]
    pub fn result(&self, variant: CacheVariant) -> &CacheCircuitResult {
        match variant {
            CacheVariant::Regular => &self.regular,
            CacheVariant::Horizontal => &self.horizontal,
        }
    }

    /// Number of ways on the die.
    #[must_use]
    pub fn way_count(&self) -> usize {
        self.regular.ways.len()
    }
}

/// Configuration of a population study.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of chips to simulate (the paper uses 2000).
    pub chips: usize,
    /// Monte Carlo seed; the population is fully reproducible from it.
    pub seed: u64,
    /// Variation-sampling configuration.
    pub variation: VariationConfig,
    /// Circuit model for the regular organisation.
    pub regular_model: CacheCircuitModel,
    /// Circuit model for the H-YAPD organisation.
    pub horizontal_model: CacheCircuitModel,
    /// Optional deterministic fault-injection plan; corrupted chips land
    /// in the population's quarantine ledger instead of its chip list.
    pub faults: Option<FaultPlan>,
}

impl PopulationConfig {
    /// The paper's study shape: 2000 chips, calibrated models, no fault
    /// injection.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        PopulationConfig {
            chips: 2000,
            seed,
            variation: VariationConfig::default(),
            regular_model: CacheCircuitModel::regular(),
            horizontal_model: CacheCircuitModel::horizontal(),
            faults: None,
        }
    }
}

/// A simulated population of chips.
///
/// # Examples
///
/// ```
/// use yac_core::Population;
/// use yac_circuit::CacheVariant;
///
/// let pop = Population::generate(50, 7);
/// assert_eq!(pop.chips.len(), 50);
/// let delays = pop.delays(CacheVariant::Regular);
/// assert_eq!(delays.len(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    /// All simulated chips, in Monte Carlo stream order. When a fault plan
    /// or an evaluation failure quarantines chips, their stream indices
    /// are simply absent here — `chips[i].index` is not necessarily `i`.
    pub chips: Vec<ChipSample>,
    quarantine: QuarantineLedger,
    calibration: Calibration,
    seed: u64,
}

impl Population {
    /// Generates a population with the paper's default configuration but a
    /// custom size and seed.
    #[must_use]
    pub fn generate(chips: usize, seed: u64) -> Self {
        let mut cfg = PopulationConfig::paper(seed);
        cfg.chips = chips;
        Self::generate_with(&cfg)
    }

    /// Generates a population from an explicit configuration.
    ///
    /// Sampling and circuit evaluation are fault-isolated per chip: a die
    /// the fault plan corrupts, a sampler panic, or a circuit evaluation
    /// that panics or produces non-finite results quarantines that one
    /// chip (see [`Population::quarantine`]) and the rest of the
    /// population is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the variation configuration is invalid.
    #[must_use]
    pub fn generate_with(config: &PopulationConfig) -> Self {
        let mc = MonteCarlo::new(config.variation);
        let outcome = mc.generate_checked(config.chips, config.seed, config.faults.as_ref());
        let mut quarantine = QuarantineLedger::from_failures(&outcome.failures);
        let mut chips = Vec::with_capacity(outcome.dies.len());
        for (index, die) in &outcome.dies {
            match evaluate_isolated(config, die) {
                Ok((regular, horizontal)) => chips.push(ChipSample {
                    index: *index,
                    regular,
                    horizontal,
                }),
                Err(error) => quarantine.record(*index, config.seed, error),
            }
        }
        Population {
            chips,
            quarantine,
            calibration: *config.regular_model.calibration(),
            seed: config.seed,
        }
    }

    /// Assembles a population from parts already generated elsewhere
    /// (the checkpoint/resume machinery).
    pub(crate) fn from_parts(
        chips: Vec<ChipSample>,
        quarantine: QuarantineLedger,
        calibration: Calibration,
        seed: u64,
    ) -> Self {
        Population {
            chips,
            quarantine,
            calibration,
            seed,
        }
    }

    /// The ledger of chips that failed generation or evaluation.
    #[must_use]
    pub fn quarantine(&self) -> &QuarantineLedger {
        &self.quarantine
    }

    /// A copy of this population keeping only the chips whose stream
    /// index appears in `indices` (the quarantine ledger is cleared — the
    /// restriction is an explicit selection, not a failure).
    ///
    /// Used to compare studies: a fault-injected run's clean survivors
    /// must match an uninjected run restricted to the same indices.
    #[must_use]
    pub fn restricted_to(&self, indices: &[u64]) -> Self {
        let keep: std::collections::HashSet<u64> = indices.iter().copied().collect();
        Population {
            chips: self
                .chips
                .iter()
                .filter(|c| keep.contains(&c.index))
                .cloned()
                .collect(),
            quarantine: QuarantineLedger::new(),
            calibration: self.calibration,
            seed: self.seed,
        }
    }

    /// The calibration shared by the population's circuit models (needed by
    /// schemes to recompute self-heating after a power-down).
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The Monte Carlo seed the population was generated from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Cache access delays of every chip under one organisation.
    #[must_use]
    pub fn delays(&self, variant: CacheVariant) -> Vec<f64> {
        self.chips.iter().map(|c| c.result(variant).delay).collect()
    }

    /// Settled leakage of every chip under one organisation.
    #[must_use]
    pub fn leakages(&self, variant: CacheVariant) -> Vec<f64> {
        self.chips
            .iter()
            .map(|c| c.result(variant).leakage)
            .collect()
    }
}

/// Evaluates one die under both circuit models with panic isolation and a
/// finiteness check on the results, so one pathological die cannot tear
/// down the generation or smuggle NaNs into the yield analysis.
pub(crate) fn evaluate_isolated(
    config: &PopulationConfig,
    die: &CacheVariation,
) -> Result<(CacheCircuitResult, CacheCircuitResult), String> {
    let results = catch_unwind(AssertUnwindSafe(|| {
        (
            config.regular_model.evaluate(die),
            config.horizontal_model.evaluate(die),
        )
    }))
    .map_err(|payload| format!("circuit evaluation panicked: {}", panic_message(&*payload)))?;
    for (variant, result) in [("regular", &results.0), ("horizontal", &results.1)] {
        if !(result.delay.is_finite() && result.leakage.is_finite()) {
            return Err(format!(
                "{variant} evaluation produced non-finite results \
                 (delay {}, leakage {})",
                result.delay, result.leakage
            ));
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible() {
        let a = Population::generate(20, 3);
        let b = Population::generate(20, 3);
        assert_eq!(a.chips, b.chips);
        assert_eq!(a.seed(), 3);
    }

    #[test]
    fn horizontal_variant_is_slower_on_every_chip() {
        let pop = Population::generate(50, 5);
        for chip in &pop.chips {
            assert!(
                chip.horizontal.delay > chip.regular.delay,
                "chip {} horizontal not slower",
                chip.index
            );
        }
    }

    #[test]
    fn variants_share_leakage_distribution() {
        // The H-YAPD reorganisation changes timing, not devices: leakage of
        // the two variants is identical per chip.
        let pop = Population::generate(30, 9);
        for chip in &pop.chips {
            assert!((chip.regular.leakage - chip.horizontal.leakage).abs() < 1e-12);
        }
    }

    #[test]
    fn result_accessor_selects_variant() {
        let pop = Population::generate(2, 1);
        let c = &pop.chips[0];
        assert_eq!(c.result(CacheVariant::Regular), &c.regular);
        assert_eq!(c.result(CacheVariant::Horizontal), &c.horizontal);
        assert_eq!(c.way_count(), 4);
    }

    #[test]
    fn empty_population_is_supported() {
        let pop = Population::generate(0, 1);
        assert!(pop.is_empty());
        assert_eq!(pop.len(), 0);
        assert!(pop.delays(CacheVariant::Regular).is_empty());
    }

    #[test]
    fn indices_are_sequential() {
        let pop = Population::generate(10, 2);
        for (i, chip) in pop.chips.iter().enumerate() {
            assert_eq!(chip.index, i as u64);
        }
    }

    #[test]
    fn clean_generation_has_empty_quarantine() {
        let pop = Population::generate(25, 4);
        assert!(pop.quarantine().is_empty());
        assert_eq!(pop.len(), 25);
    }

    #[test]
    fn fault_plan_quarantines_exactly_the_planned_chips() {
        let plan = FaultPlan::new(0.10, 17).unwrap();
        let mut cfg = PopulationConfig::paper(21);
        cfg.chips = 120;
        cfg.faults = Some(plan);
        let pop = Population::generate_with(&cfg);
        let expected = plan.injected_indices(21, 120);
        assert!(!expected.is_empty(), "10% of 120 should hit something");
        assert_eq!(pop.quarantine().indices(), expected);
        assert_eq!(pop.len() + pop.quarantine().len(), 120);
        for chip in &pop.chips {
            assert!(!expected.contains(&chip.index));
        }
    }

    #[test]
    fn surviving_chips_match_the_uninjected_run() {
        let plan = FaultPlan::new(0.10, 17).unwrap();
        let mut cfg = PopulationConfig::paper(21);
        cfg.chips = 80;
        cfg.faults = Some(plan);
        let injected = Population::generate_with(&cfg);

        cfg.faults = None;
        let clean = Population::generate_with(&cfg);
        let survivors: Vec<u64> = injected.chips.iter().map(|c| c.index).collect();
        let restricted = clean.restricted_to(&survivors);
        assert_eq!(injected.chips, restricted.chips);
        assert!(restricted.quarantine().is_empty());
    }

    #[test]
    fn restricted_to_keeps_only_requested_indices() {
        let pop = Population::generate(10, 2);
        let sub = pop.restricted_to(&[1, 3, 8]);
        assert_eq!(
            sub.chips.iter().map(|c| c.index).collect::<Vec<_>>(),
            vec![1, 3, 8]
        );
        assert_eq!(sub.seed(), pop.seed());
    }
}

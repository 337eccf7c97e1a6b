//! The assembled cache circuit model: per-way, per-region delay and
//! leakage as a function of one die's variation sample.
//!
//! This is the drop-in replacement for the paper's HSPICE runs (§3, §5.1):
//! given a [`CacheVariation`], it produces the way access latencies and
//! leakage numbers the yield analysis consumes. All outputs are
//! *normalised*: a delay of 1.0 is the nominal near-bank critical path, a
//! way leakage of 1.0 is the nominal leakage of one way.

use crate::device::leakage_factor;
use crate::error::CircuitError;
use crate::geometry::CacheGeometry;
use crate::stages::{cell_delay_factor, logic_delay_factor, wire_delay_factor};
use crate::tech::{Calibration, Technology};
use yac_variation::{CacheVariation, WayVariation};

/// Which physical cache organisation is being evaluated.
///
/// The H-YAPD organisation reconfigures the post-decoders (§4.2), costing
/// ~2.5 % average latency and leaving part of the peripheral circuitry
/// always on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheVariant {
    /// Conventional organisation with per-way power-down (YAPD).
    #[default]
    Regular,
    /// Horizontal power-down organisation (H-YAPD).
    Horizontal,
}

/// Circuit-level evaluation of a single way.
#[derive(Debug, Clone, PartialEq)]
pub struct WayCircuitResult {
    /// Worst-path delay through each horizontal region of the way
    /// (normalised; index = region).
    pub region_delay: Vec<f64>,
    /// The way's access delay: the maximum over its regions.
    pub delay: f64,
    /// Cell-array leakage of each region (normalised so a nominal way's
    /// *total* leakage is 1.0).
    pub region_cell_leakage: Vec<f64>,
    /// Leakage of the way's peripheral circuits (decoder, precharge, sense
    /// amplifiers, output drivers).
    pub peripheral_leakage: f64,
    /// Total way leakage: cells + peripherals.
    pub leakage: f64,
}

/// Circuit-level evaluation of a whole cache die.
///
/// The per-way results carry *raw* (cold) leakage; `leakage` is the settled
/// total after the die-level self-heating factor `heat` (see
/// [`crate::Calibration::thermal_factor`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheCircuitResult {
    /// Per-way results, index = way number. Leakage fields are raw (cold).
    pub ways: Vec<WayCircuitResult>,
    /// Cache access delay: the maximum over ways.
    pub delay: f64,
    /// The die-level self-heating multiplier applied to the raw leakage.
    pub heat: f64,
    /// Settled total cache leakage: `heat` times the sum of raw way leakage.
    pub leakage: f64,
}

impl CacheCircuitResult {
    /// Sum of the raw (cold) way leakages.
    #[must_use]
    pub fn raw_leakage(&self) -> f64 {
        self.ways.iter().map(|w| w.leakage).sum()
    }
}

impl CacheCircuitResult {
    /// Number of ways whose delay exceeds `limit`.
    #[must_use]
    pub fn ways_violating_delay(&self, limit: f64) -> usize {
        self.ways.iter().filter(|w| w.delay > limit).count()
    }
}

/// The analytical cache circuit model.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use yac_circuit::CacheCircuitModel;
/// use yac_variation::{CacheVariation, VariationConfig};
///
/// let model = CacheCircuitModel::regular();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let die = CacheVariation::sample(&VariationConfig::default(), &mut rng);
/// let result = model.evaluate(&die);
/// assert_eq!(result.ways.len(), 4);
/// assert!(result.delay > 0.0);
/// assert!(result.leakage > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheCircuitModel {
    tech: Technology,
    calibration: Calibration,
    geometry: CacheGeometry,
    variant: CacheVariant,
}

impl CacheCircuitModel {
    /// Builds a model, validating the calibration and geometry.
    ///
    /// # Errors
    ///
    /// Returns the [`CircuitError`] identifying whether the calibration
    /// shares or the geometry dimensions are inconsistent.
    pub fn new(
        tech: Technology,
        calibration: Calibration,
        geometry: CacheGeometry,
        variant: CacheVariant,
    ) -> Result<Self, CircuitError> {
        calibration.validate()?;
        geometry.validate()?;
        Ok(CacheCircuitModel {
            tech,
            calibration,
            geometry,
            variant,
        })
    }

    /// The calibrated model of the paper's regular 16 KB cache.
    #[must_use]
    pub fn regular() -> Self {
        Self::new(
            Technology::ptm45(),
            Calibration::calibrated(),
            CacheGeometry::paper_16kb(),
            CacheVariant::Regular,
        )
        .expect("calibrated defaults are valid")
    }

    /// The calibrated model of the H-YAPD organisation (+2.5 % latency).
    #[must_use]
    pub fn horizontal() -> Self {
        Self::new(
            Technology::ptm45(),
            Calibration::calibrated(),
            CacheGeometry::paper_16kb(),
            CacheVariant::Horizontal,
        )
        .expect("calibrated defaults are valid")
    }

    /// The model's technology constants.
    #[must_use]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The model's calibration constants.
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The modeled cache organisation.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Which organisation variant this model evaluates.
    #[must_use]
    pub fn variant(&self) -> CacheVariant {
        self.variant
    }

    /// Region-dependent delay-share weights.
    ///
    /// The paper's deck sizes gates to equalise nominal path delays, but
    /// the *composition* differs: far banks see more interconnect, near
    /// banks more cell/logic. Returns `(logic_w, wire_w, cell_w)` for the
    /// region, summing to 1.
    fn region_weights(&self, region: usize, regions: usize) -> (f64, f64, f64) {
        let cal = &self.calibration;
        let frac = (region as f64 + 0.5) / regions as f64;
        // Wire share sweeps from 0.6x to 1.4x of its average across the
        // banks; logic and cell shrink proportionally to keep the total 1.
        let wire_w = cal.wire_delay_share * (0.6 + 0.8 * frac);
        let rest = 1.0 - wire_w;
        let rest_nominal = 1.0 - cal.wire_delay_share;
        let scale = rest / rest_nominal;
        let logic_share = 1.0 - cal.wire_delay_share - cal.cell_delay_share;
        (logic_share * scale, wire_w, cal.cell_delay_share * scale)
    }

    /// Evaluates the delay and leakage of one way.
    ///
    /// # Panics
    ///
    /// Panics if the way has no regions.
    #[must_use]
    pub fn evaluate_way(&self, way: &WayVariation) -> WayCircuitResult {
        self.way_result(way, self.delay_mult(self.variant))
    }

    /// The factor every region delay of `variant` carries: 1 for the
    /// regular organisation, `1 + hyapd_delay_overhead` for H-YAPD.
    fn delay_mult(&self, variant: CacheVariant) -> f64 {
        match variant {
            CacheVariant::Regular => 1.0,
            CacheVariant::Horizontal => 1.0 + self.calibration.hyapd_delay_overhead,
        }
    }

    /// One way's result with every region delay scaled by `variant_mult`.
    fn way_result(&self, way: &WayVariation, variant_mult: f64) -> WayCircuitResult {
        assert!(
            !way.regions.is_empty(),
            "way must carry at least one region sample"
        );
        let t = &self.tech;
        let cal = &self.calibration;
        let regions = way.regions.len();

        let logic = logic_delay_factor(t, &way.structures);
        let mut region_delay = Vec::with_capacity(regions);
        for (r, region) in way.regions.iter().enumerate() {
            let (logic_w, wire_w, cell_w) = self.region_weights(r, regions);
            let wire = wire_delay_factor(t, &way.structures, &region.interconnect);
            let cell = cell_delay_factor(
                t,
                &region.cell_array,
                cal.worst_cell_vt_boost_mv + region.worst_cell_extra_mv,
            );
            region_delay.push(variant_mult * (logic_w * logic + wire_w * wire + cell_w * cell));
        }
        let delay = region_delay.iter().copied().fold(f64::MIN, f64::max);

        // Leakage: cells carry (1 - peripheral_share) of a nominal way's
        // leakage, split evenly over regions; peripherals carry the rest,
        // split over the four structures.
        let cell_share = 1.0 - cal.peripheral_leak_share;
        let mut region_cell_leakage = Vec::with_capacity(regions);
        for region in &way.regions {
            let f = leakage_factor(t, &region.cell_array);
            region_cell_leakage.push(cell_share / regions as f64 * f);
        }
        let s = &way.structures;
        let peripheral_leakage = cal.peripheral_leak_share
            * (0.30 * leakage_factor(t, &s.decoder)
                + 0.25 * leakage_factor(t, &s.precharge)
                + 0.25 * leakage_factor(t, &s.sense_amp)
                + 0.20 * leakage_factor(t, &s.output_driver));
        let leakage = region_cell_leakage.iter().sum::<f64>() + peripheral_leakage;

        WayCircuitResult {
            region_delay,
            delay,
            region_cell_leakage,
            peripheral_leakage,
            leakage,
        }
    }

    /// Evaluates a whole die: all ways, the cache-level maxima/sums, and
    /// the die-level leakage-temperature feedback.
    ///
    /// Way results keep their *raw* (cold) leakage; the returned
    /// [`CacheCircuitResult::leakage`] is the settled value after applying
    /// [`crate::Calibration::thermal_factor`] to the die's relative raw
    /// leakage.
    ///
    /// # Panics
    ///
    /// Panics if the die has no ways.
    #[must_use]
    pub fn evaluate(&self, die: &CacheVariation) -> CacheCircuitResult {
        let _timer = yac_obs::phase(yac_obs::Phase::CircuitEval);
        yac_obs::inc(yac_obs::Metric::CircuitEvals);
        self.die_result(die, self.delay_mult(self.variant))
    }

    /// Evaluates a die under both organisations in one circuit pass,
    /// returning `(regular, horizontal)` for this model's technology,
    /// calibration and geometry whatever its own variant.
    ///
    /// Every field equals, bit for bit, what [`Self::evaluate`] returns
    /// for the same model with the [`CacheVariant::Regular`] and the
    /// [`CacheVariant::Horizontal`] variant: the H-YAPD result is the
    /// regular one with each region delay multiplied by the same
    /// `1 + hyapd_delay_overhead` and the way and cache maxima re-folded
    /// from the scaled values, and leakage never depends on the variant.
    /// Counts as two circuit evaluations.
    ///
    /// # Panics
    ///
    /// Panics if the die has no ways.
    #[must_use]
    pub fn evaluate_both(&self, die: &CacheVariation) -> (CacheCircuitResult, CacheCircuitResult) {
        let _timer = yac_obs::phase(yac_obs::Phase::CircuitEval);
        yac_obs::add(yac_obs::Metric::CircuitEvals, 2);
        let regular = self.die_result(die, self.delay_mult(CacheVariant::Regular));
        let mult = self.delay_mult(CacheVariant::Horizontal);
        // The regular pass multiplied each region sum by 1.0, which is
        // exact, so `mult * d` is the product the H-YAPD pass computes.
        // The maxima are re-folded rather than scaled: a fold over NaNs
        // leaves `f64::MIN`, which scaling would move.
        let ways: Vec<WayCircuitResult> = regular
            .ways
            .iter()
            .map(|w| {
                let region_delay: Vec<f64> = w.region_delay.iter().map(|d| mult * d).collect();
                WayCircuitResult {
                    delay: region_delay.iter().copied().fold(f64::MIN, f64::max),
                    region_delay,
                    region_cell_leakage: w.region_cell_leakage.clone(),
                    peripheral_leakage: w.peripheral_leakage,
                    leakage: w.leakage,
                }
            })
            .collect();
        let horizontal = CacheCircuitResult {
            delay: ways.iter().map(|w| w.delay).fold(f64::MIN, f64::max),
            ways,
            heat: regular.heat,
            leakage: regular.leakage,
        };
        (regular, horizontal)
    }

    /// The whole-die result with every region delay scaled by
    /// `variant_mult`, without observability hooks.
    fn die_result(&self, die: &CacheVariation, variant_mult: f64) -> CacheCircuitResult {
        assert!(!die.ways.is_empty(), "die must carry at least one way");
        let ways: Vec<WayCircuitResult> = die
            .ways
            .iter()
            .map(|w| self.way_result(w, variant_mult))
            .collect();
        let delay = ways.iter().map(|w| w.delay).fold(f64::MIN, f64::max);

        let raw: f64 = ways.iter().map(|w| w.leakage).sum();
        let x = raw / ways.len() as f64; // nominal way leakage is 1.0
        let heat = self.calibration.thermal_factor(x);
        CacheCircuitResult {
            leakage: heat * raw,
            heat,
            ways,
            delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use yac_variation::{
        CacheVariation, GradientConfig, MeshPosition, ParameterSet, RegionVariation,
        StructureParams, VariationConfig,
    };

    fn nominal_way(regions: usize) -> WayVariation {
        WayVariation {
            position: MeshPosition::for_way(0),
            base: ParameterSet::nominal(),
            structures: StructureParams::uniform(ParameterSet::nominal()),
            regions: vec![
                RegionVariation {
                    cell_array: ParameterSet::nominal(),
                    interconnect: ParameterSet::nominal(),
                    worst_cell_extra_mv: 0.0,
                };
                regions
            ],
        }
    }

    #[test]
    fn nominal_way_has_unit_delay_and_leakage() {
        let model = CacheCircuitModel::regular();
        let way = model.evaluate_way(&nominal_way(4));
        // Every region's weights sum to 1 and every factor is 1 at nominal.
        for d in &way.region_delay {
            assert!((d - 1.0).abs() < 1e-9, "region delay {d}");
        }
        assert!((way.delay - 1.0).abs() < 1e-9);
        assert!((way.leakage - 1.0).abs() < 1e-9);
        let cells: f64 = way.region_cell_leakage.iter().sum();
        let cal = model.calibration();
        assert!((cells - (1.0 - cal.peripheral_leak_share)).abs() < 1e-9);
        assert!((way.peripheral_leakage - cal.peripheral_leak_share).abs() < 1e-9);
    }

    #[test]
    fn horizontal_variant_costs_the_documented_overhead() {
        let reg = CacheCircuitModel::regular();
        let hor = CacheCircuitModel::horizontal();
        let way = nominal_way(4);
        let d_reg = reg.evaluate_way(&way).delay;
        let d_hor = hor.evaluate_way(&way).delay;
        let overhead = reg.calibration().hyapd_delay_overhead;
        assert!((d_hor / d_reg - (1.0 + overhead)).abs() < 1e-9);
    }

    #[test]
    fn cache_delay_is_max_and_leakage_is_sum() {
        let model = CacheCircuitModel::regular();
        let mut rng = SmallRng::seed_from_u64(5);
        let die = CacheVariation::sample(&VariationConfig::default(), &mut rng);
        let result = model.evaluate(&die);
        let max_way = result.ways.iter().map(|w| w.delay).fold(f64::MIN, f64::max);
        let sum_leak: f64 = result.ways.iter().map(|w| w.leakage).sum();
        assert_eq!(result.delay, max_way);
        assert!(result.heat >= 1.0);
        assert!((result.leakage - result.heat * sum_leak).abs() < 1e-9);
        assert!((result.raw_leakage() - sum_leak).abs() < 1e-12);
    }

    #[test]
    fn region_weights_sum_to_one() {
        let model = CacheCircuitModel::regular();
        for r in 0..4 {
            let (l, w, c) = model.region_weights(r, 4);
            assert!((l + w + c - 1.0).abs() < 1e-12);
            assert!(l > 0.0 && w > 0.0 && c > 0.0);
        }
    }

    #[test]
    fn far_regions_are_more_wire_weighted() {
        let model = CacheCircuitModel::regular();
        let (_, w0, c0) = model.region_weights(0, 4);
        let (_, w3, c3) = model.region_weights(3, 4);
        assert!(w3 > w0);
        assert!(c3 < c0);
    }

    #[test]
    fn ways_violating_delay_counts_correctly() {
        let model = CacheCircuitModel::regular();
        let mut rng = SmallRng::seed_from_u64(6);
        let die = CacheVariation::sample(&VariationConfig::default(), &mut rng);
        let result = model.evaluate(&die);
        assert_eq!(result.ways_violating_delay(f64::INFINITY), 0);
        assert_eq!(result.ways_violating_delay(0.0), 4);
    }

    #[test]
    fn population_delay_and_leakage_are_plausible() {
        // Spot-check the distribution regime the calibration targets:
        // delay CV in the high single digits to ~25 %, leakage CV larger,
        // and leakage anti-correlated with delay.
        let model = CacheCircuitModel::regular();
        let cfg = VariationConfig::default();
        let n = 400;
        let mut delays = Vec::with_capacity(n);
        let mut leaks = Vec::with_capacity(n);
        for seed in 0..n {
            let mut rng = SmallRng::seed_from_u64(seed as u64);
            let die = CacheVariation::sample(&cfg, &mut rng);
            let r = model.evaluate(&die);
            delays.push(r.delay);
            leaks.push(r.leakage);
        }
        let d = yac_variation::stats::Summary::from_slice(&delays).unwrap();
        let l = yac_variation::stats::Summary::from_slice(&leaks).unwrap();
        assert!(d.cv() > 0.03 && d.cv() < 0.40, "delay cv = {}", d.cv());
        assert!(l.cv() > d.cv(), "leakage must spread wider than delay");
        let r = yac_variation::stats::pearson(&delays, &leaks).unwrap();
        assert!(r < 0.0, "fast caches should be the leaky ones (r = {r})");
    }

    #[test]
    fn gradient_increases_cross_way_agreement_of_critical_region() {
        let with = VariationConfig::default();
        let without = VariationConfig {
            gradient: GradientConfig::disabled(),
            ..VariationConfig::default()
        };
        let model = CacheCircuitModel::regular();
        let agreement = |cfg: &VariationConfig| {
            let mut agree = 0;
            let mut total = 0;
            for seed in 0..200u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let die = CacheVariation::sample(cfg, &mut rng);
                let r = model.evaluate(&die);
                let critical = |w: &WayCircuitResult| {
                    w.region_delay
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .map(|(i, _)| i)
                        .unwrap()
                };
                let c0 = critical(&r.ways[0]);
                for w in &r.ways[1..] {
                    total += 1;
                    if critical(w) == c0 {
                        agree += 1;
                    }
                }
            }
            f64::from(agree) / f64::from(total)
        };
        // Chance agreement would be 0.25; both configurations must sit far
        // above it (the region-dependent wire weighting plus — with the
        // gradient — the shared systematic offsets align critical regions
        // across ways: the H-YAPD premise).
        let a_with = agreement(&with);
        let a_without = agreement(&without);
        assert!(
            a_with > 0.33,
            "critical regions should align above chance: {a_with}"
        );
        assert!(a_without > 0.30, "structural alignment alone: {a_without}");
    }

    #[test]
    fn invalid_calibration_is_rejected() {
        let mut cal = Calibration::calibrated();
        cal.wire_delay_share = 0.8;
        cal.cell_delay_share = 0.8;
        assert!(CacheCircuitModel::new(
            Technology::ptm45(),
            cal,
            CacheGeometry::paper_16kb(),
            CacheVariant::Regular,
        )
        .is_err());
    }
}

//! Property-based tests for the circuit model.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use yac_circuit::network::RcNetwork;
use yac_circuit::{CacheCircuitModel, CacheCircuitResult, Technology, WayCircuitResult};
use yac_variation::{CacheVariation, Parameter, ParameterSet, VariationConfig};

fn die(seed: u64) -> CacheVariation {
    CacheVariation::sample(
        &VariationConfig::default(),
        &mut SmallRng::seed_from_u64(seed),
    )
}

/// Every field of a result as raw bit patterns in a fixed order, so NaN
/// payloads and the sign of zero count (`PartialEq` hides both). The
/// destructuring is exhaustive: a new field fails to compile here.
fn bits(result: &CacheCircuitResult) -> Vec<u64> {
    let CacheCircuitResult {
        ways,
        delay,
        heat,
        leakage,
    } = result;
    let mut out = vec![delay.to_bits(), heat.to_bits(), leakage.to_bits()];
    for way in ways {
        let WayCircuitResult {
            region_delay,
            delay,
            region_cell_leakage,
            peripheral_leakage,
            leakage,
        } = way;
        out.push(region_delay.len() as u64);
        out.extend(region_delay.iter().map(|d| d.to_bits()));
        out.push(delay.to_bits());
        out.push(region_cell_leakage.len() as u64);
        out.extend(region_cell_leakage.iter().map(|l| l.to_bits()));
        out.push(peripheral_leakage.to_bits());
        out.push(leakage.to_bits());
    }
    out
}

/// Asserts that the single-pass pair equals both direct evaluations bit
/// for bit, from either variant's model.
fn assert_pair_matches_direct_calls(d: &CacheVariation) {
    let regular = CacheCircuitModel::regular().evaluate(d);
    let horizontal = CacheCircuitModel::horizontal().evaluate(d);
    for model in [
        CacheCircuitModel::regular(),
        CacheCircuitModel::horizontal(),
    ] {
        let (pair_regular, pair_horizontal) = model.evaluate_both(d);
        assert_eq!(bits(&pair_regular), bits(&regular), "regular result");
        assert_eq!(
            bits(&pair_horizontal),
            bits(&horizontal),
            "horizontal result"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evaluation_outputs_are_finite_and_positive(seed in any::<u64>()) {
        for model in [CacheCircuitModel::regular(), CacheCircuitModel::horizontal()] {
            let r = model.evaluate(&die(seed));
            prop_assert!(r.delay.is_finite() && r.delay > 0.0);
            prop_assert!(r.leakage.is_finite() && r.leakage > 0.0);
            prop_assert!(r.heat >= 1.0);
            for way in &r.ways {
                prop_assert!(way.delay > 0.0);
                prop_assert!(way.leakage > 0.0);
                prop_assert_eq!(way.region_delay.len(), way.region_cell_leakage.len());
                let max = way.region_delay.iter().copied().fold(f64::MIN, f64::max);
                prop_assert!((way.delay - max).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn horizontal_variant_is_uniformly_slower(seed in any::<u64>()) {
        let d = die(seed);
        let reg = CacheCircuitModel::regular().evaluate(&d);
        let hor = CacheCircuitModel::horizontal().evaluate(&d);
        let overhead = 1.0 + CacheCircuitModel::regular().calibration().hyapd_delay_overhead;
        for (a, b) in reg.ways.iter().zip(&hor.ways) {
            prop_assert!((b.delay / a.delay - overhead).abs() < 1e-9);
        }
        // Leakage is organisation-independent.
        prop_assert!((reg.leakage - hor.leakage).abs() < 1e-9);
    }

    #[test]
    fn one_pass_pair_is_bit_identical_to_both_evaluations(seed in any::<u64>()) {
        assert_pair_matches_direct_calls(&die(seed));
    }

    #[test]
    fn raising_vt_never_speeds_up_a_die(seed in any::<u64>(), bump in 0.1f64..2.0) {
        let model = CacheCircuitModel::regular();
        let base_die = die(seed);
        let mut slow_die = base_die.clone();
        for way in &mut slow_die.ways {
            for region in &mut way.regions {
                region.cell_array = region
                    .cell_array
                    .with_offset_sigmas(Parameter::ThresholdVoltage, bump);
            }
        }
        let base = model.evaluate(&base_die);
        let slow = model.evaluate(&slow_die);
        prop_assert!(slow.delay >= base.delay - 1e-12);
        // Raw (cold) leakage must drop with higher cell Vt.
        prop_assert!(slow.raw_leakage() <= base.raw_leakage() + 1e-12);
    }

    #[test]
    fn heat_factor_reflects_raw_leakage(seed in any::<u64>()) {
        let model = CacheCircuitModel::regular();
        let r = model.evaluate(&die(seed));
        let expected = model
            .calibration()
            .thermal_factor(r.raw_leakage() / r.ways.len() as f64);
        prop_assert!((r.heat - expected).abs() < 1e-12);
        prop_assert!((r.leakage - r.heat * r.raw_leakage()).abs() < 1e-9);
    }

    #[test]
    fn rc_ladder_delay_is_monotone_in_geometry(
        driver in 0.1f64..5.0,
        r_total in 0.1f64..5.0,
        c_total in 0.1f64..5.0,
    ) {
        let t = |d: f64, r: f64, c: f64| {
            let (net, far) = RcNetwork::ladder(d, 8, r, c, 0.2);
            net.step_delay_50(far).unwrap()
        };
        let base = t(driver, r_total, c_total);
        prop_assert!(t(driver * 1.5, r_total, c_total) > base);
        prop_assert!(t(driver, r_total * 1.5, c_total) > base);
        prop_assert!(t(driver, r_total, c_total * 1.5) > base);
    }

    #[test]
    fn elmore_bounds_the_step_delay(
        driver in 0.1f64..5.0,
        r_total in 0.1f64..5.0,
        c_total in 0.1f64..5.0,
    ) {
        let (net, far) = RcNetwork::ladder(driver, 12, r_total, c_total, 0.0);
        let t50 = net.step_delay_50(far).unwrap();
        let elmore = net.elmore_delay(far).unwrap();
        // The classic bound: ln2*Elmore <= ... well t50 is always below
        // Elmore and above a third of it for RC trees.
        prop_assert!(t50 < elmore);
        prop_assert!(t50 > elmore / 3.0);
    }
}

#[test]
fn technology_sensitivities_have_the_documented_signs() {
    use yac_circuit::device::{drive_factor, leakage_factor};
    let t = Technology::ptm45();
    let nominal = ParameterSet::nominal();
    for sigmas in [-3.0, -1.0, 1.0, 3.0] {
        let vt = nominal.with_offset_sigmas(Parameter::ThresholdVoltage, sigmas);
        let lg = nominal.with_offset_sigmas(Parameter::GateLength, sigmas);
        if sigmas > 0.0 {
            assert!(drive_factor(&t, &vt, t.vdd_v) < 1.0);
            assert!(leakage_factor(&t, &vt) < 1.0);
            assert!(drive_factor(&t, &lg, t.vdd_v) < 1.0);
        } else {
            assert!(drive_factor(&t, &vt, t.vdd_v) > 1.0);
            assert!(leakage_factor(&t, &vt) > 1.0);
            assert!(drive_factor(&t, &lg, t.vdd_v) > 1.0);
        }
    }
}

/// Non-finite region delays: a way whose every region is NaN (its fold
/// leaves `f64::MIN`, which scaling would move), a way with one NaN
/// region, and a way with an infinitely long cell gate.
#[test]
fn one_pass_pair_is_bit_identical_on_non_finite_region_delays() {
    let mut d = die(2006);
    for region in &mut d.ways[0].regions {
        region.interconnect.metal_width_um = f64::NAN;
    }
    d.ways[1].regions[2].interconnect.metal_width_um = f64::NAN;
    d.ways[2].regions[0].cell_array.l_gate_nm = f64::INFINITY;
    let regular = CacheCircuitModel::regular().evaluate(&d);
    assert_eq!(regular.ways[0].delay, f64::MIN);
    assert!(regular.ways[1].region_delay[2].is_nan());
    assert_eq!(regular.ways[2].region_delay[0], f64::INFINITY);
    assert_pair_matches_direct_calls(&d);

    // Every region of every way NaN: the cache delay is the fold's seed.
    for way in &mut d.ways {
        for region in &mut way.regions {
            region.interconnect.metal_width_um = f64::NAN;
        }
    }
    assert_eq!(CacheCircuitModel::regular().evaluate(&d).delay, f64::MIN);
    assert_pair_matches_direct_calls(&d);
}

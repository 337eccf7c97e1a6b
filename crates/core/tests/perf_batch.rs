//! The batched Table 6 path: one pool task per benchmark generates the
//! benchmark's trace once and simulates every distinct repaired L1D over
//! it. These tests hold it to the serial definition — one fresh
//! generator and one `benchmark_cpi` call per cell — bit for bit, and
//! check that a failing cell stays a per-benchmark failure.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use yac_cache::CacheConfig;
use yac_core::perf::{
    benchmark_cpi, canonical_l1d, suite_degradation, table6, table6_row_order, PerfOptions,
};
use yac_core::{suite_cpis_isolated, ConstraintSpec, Population, YieldConstraints};
use yac_obs::Metric;
use yac_pipeline::PipelineConfig;
use yac_workload::spec2000;

/// One test here counts simulations in the process-global registry, so
/// no two tests in this file may simulate at the same time.
static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn small() -> PerfOptions {
    PerfOptions {
        warmup_uops: 250,
        measure_uops: 2_500,
        trace_seed: 2006,
    }
}

/// Every `Some` cell of Table 6 equals the suite-average degradation
/// computed from serial `benchmark_cpi` calls on that cell's own
/// canonical L1D — so neither trace sharing nor simulating L1Ds that
/// differ only in a disabled way's latency once may change a bit.
#[test]
fn table6_cells_equal_serial_benchmark_cpi() {
    let _lock = serialized();
    let population = Population::generate(400, 2006);
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let opts = PerfOptions::quick();
    let table = table6(&population, &constraints, &opts);

    let pipeline = PipelineConfig::paper();
    let mut serial: BTreeMap<(Vec<u32>, Vec<bool>), Vec<f64>> = BTreeMap::new();
    let mut cpis = |l1d: &CacheConfig| -> Vec<f64> {
        let key = (l1d.way_latency.clone(), l1d.way_enabled.clone());
        serial
            .entry(key)
            .or_insert_with(|| {
                spec2000::all_profiles()
                    .into_iter()
                    .map(|p| benchmark_cpi(p, l1d, &pipeline, &opts))
                    .collect()
            })
            .clone()
    };
    let base = cpis(&CacheConfig::l1d_paper());
    let mut degradation = |l1d: CacheConfig| -> f64 {
        let per: Vec<f64> = base
            .iter()
            .zip(cpis(&l1d))
            .map(|(b, m)| 100.0 * (m / b - 1.0))
            .collect();
        per.iter().sum::<f64>() / per.len() as f64
    };

    let mut checked = 0;
    for (row, census) in table.rows.iter().zip(table6_row_order()) {
        assert_eq!(row.census, census);
        let hybrid_disables = census.ways_6_plus > 0 || census.all_fast();
        for (cell, l1d) in [
            (row.yapd, canonical_l1d(census, true)),
            (row.vaca, canonical_l1d(census, false)),
            (row.hybrid, canonical_l1d(census, hybrid_disables)),
        ] {
            if let Some(got) = cell {
                let want = degradation(l1d);
                assert_eq!(got.to_bits(), want.to_bits(), "{census}: {got} vs {want}");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 16, "Table 6 has 16 applicable cells");
}

/// An L1D that differs from the healthy one in more than its way mask
/// and latencies — here an H-YAPD repair with one horizontal region
/// off — is simulated in its own right, bit for bit as serial calls.
#[test]
fn h_yapd_degradation_equals_serial_benchmark_cpi() {
    let _lock = serialized();
    let opts = small();
    let pipeline = PipelineConfig::paper();
    let mut h_yapd = CacheConfig::l1d_paper();
    h_yapd.disabled_h_region = Some(1);
    let got = suite_degradation(&h_yapd, &opts);

    let healthy = CacheConfig::l1d_paper();
    let mut want = Vec::new();
    for profile in spec2000::all_profiles() {
        let base = benchmark_cpi(profile.clone(), &healthy, &pipeline, &opts);
        let repaired = benchmark_cpi(profile.clone(), &h_yapd, &pipeline, &opts);
        want.push((profile.name, 100.0 * (repaired / base - 1.0)));
    }
    assert_eq!(got.per_benchmark.len(), want.len());
    for (&(name, g), &(want_name, w)) in got.per_benchmark.iter().zip(&want) {
        assert_eq!(name, want_name);
        assert_eq!(g.to_bits(), w.to_bits(), "{name}: {g} vs {w}");
    }
    assert!(
        want.iter().any(|&(_, w)| w != 0.0),
        "the repair must cost something somewhere"
    );
}

/// A table simulates each distinct L1D once per benchmark from one
/// trace per benchmark: 9 distinct L1Ds × 24 benchmarks, 24 traces.
#[test]
fn one_table6_simulates_216_cells_from_24_traces() {
    let _lock = serialized();
    let population = Population::generate(400, 2006);
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let registry = yac_obs::global();
    registry.reset();
    yac_obs::enable();
    let _ = table6(&population, &constraints, &small());
    yac_obs::disable();
    assert_eq!(registry.counter(Metric::TracesCreated), 24);
    assert_eq!(registry.counter(Metric::BenchmarksSimulated), 216);
    assert_eq!(registry.counter(Metric::BenchmarkFailures), 0);
}

/// An L1D the memory hierarchy rejects fails every benchmark as its own
/// cell — 24 failures, no CPIs — and leaves the next call unharmed.
#[test]
fn rejected_l1d_fails_every_benchmark_in_isolation() {
    let _lock = serialized();
    let pipeline = PipelineConfig::paper();
    let mut broken = CacheConfig::l1d_paper();
    broken.way_enabled = vec![false; broken.ways];
    let (cpis, failures) = suite_cpis_isolated(&broken, &pipeline, &small());
    assert!(cpis.is_empty(), "{cpis:?}");
    assert_eq!(failures.len(), 24);
    let names: Vec<_> = failures.iter().map(|f| f.benchmark).collect();
    let suite: Vec<_> = spec2000::all_profiles().iter().map(|p| p.name).collect();
    assert_eq!(names, suite);
    for failure in &failures {
        assert!(
            failure
                .error
                .starts_with("worker panicked: valid hierarchy"),
            "{}: {}",
            failure.benchmark,
            failure.error
        );
    }

    let (cpis, failures) = suite_cpis_isolated(&CacheConfig::l1d_paper(), &pipeline, &small());
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(cpis.len(), 24);
}
